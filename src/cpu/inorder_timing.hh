/**
 * @file
 * The in-order scoreboard timing model extracted from the original
 * monolithic core: an issue model with a register scoreboard, front-end
 * redirect penalties, branch prediction (a pluggable FrontendModel
 * carrying the SCD JTE overlay — ideal single-level BTB by default,
 * optionally multi-level/FDIP — plus tournament/gshare direction, RAS,
 * optional VBBI and ITTAGE), caches and TLBs. Consumes one RetireInfo per
 * retired instruction; the sequence of operations per instruction mirrors
 * the original Core::step() exactly, and under the default ideal frontend
 * statistics are bit-identical to the pre-split simulator. Non-ideal
 * frontends add probe bubbles and treat a false JTE hit as a slow-path
 * dispatch plus a resteer penalty (jteLookup reports such probes as
 * misses, so direct execution and the replay consumers retire the same
 * stream).
 */

#ifndef SCD_CPU_INORDER_TIMING_HH
#define SCD_CPU_INORDER_TIMING_HH

#include <cstdint>
#include <memory>
#include <optional>

#include "branch/btb.hh"
#include "branch/direction.hh"
#include "branch/frontend.hh"
#include "branch/ittage.hh"
#include "branch/jte_table.hh"
#include "branch/vbbi.hh"
#include "cache/cache.hh"
#include "cache/tlb.hh"
#include "config.hh"
#include "obs/trace.hh"
#include "timing_model.hh"

namespace scd::cpu
{

/** Scoreboard timing for a (possibly multi-issue) in-order pipeline. */
class InOrderTiming : public TimingModel
{
  public:
    explicit InOrderTiming(const CoreConfig &config);

    std::optional<uint64_t> jteLookup(uint8_t bank,
                                      uint64_t opcode) override;
    void jteInsert(uint8_t bank, uint64_t opcode, uint64_t target) override;
    void jteFlush() override;

    bool needsRetireInfo() const override { return true; }
    void retire(const RetireInfo &ri) override;

    /**
     * Batched retirement for the replay consumer path: one virtual call
     * per bop-free span, with the per-instruction retire() devirtualized
     * inside the loop (WideInOrderTiming shares the same retire body).
     */
    void
    consume(const RetireInfo *ri, size_t n) override
    {
        for (size_t i = 0; i < n; ++i)
            InOrderTiming::retire(ri[i]);
    }

    uint64_t cycles() const override { return cycle_; }
    void exportStats(StatGroup &group) const override;
    branch::Btb *btb() override { return frontend_->idealBtb(); }
    void attachTrace(obs::TraceBuffer *trace) override;

    /** The frontend organization this pipeline fetches through. */
    branch::FrontendModel &frontend() { return *frontend_; }

    /** Effective issue width (slots per cycle). */
    unsigned issueWidth() const { return width_; }

  protected:
    /** Issue-width override hook for WideInOrderTiming. */
    void setIssueWidth(unsigned width) { width_ = width; }

  private:
    /** Charge the I-side for fetching @p pc; free inside the last block. */
    void
    chargeFetch(uint64_t pc)
    {
        uint64_t block = pc >> fetchBlockShift_;
        if (block != lastFetchBlock_)
            fetchBlock(pc, block);
    }
    void fetchBlock(uint64_t pc, uint64_t block);
    uint64_t dataAccess(uint64_t addr, bool write);
    void redirect(unsigned penalty);
    void recordMiss(const RetireInfo &ri, bool mispredicted);

    /**
     * B-entry port with the default organization devirtualized: when the
     * configured frontend is exactly the ideal single-level BTB (no
     * FDIP), idealFast_ caches the underlying structure at construction
     * and these helpers bypass the virtual boundary — the default
     * machines keep the pre-refactor codegen on the hottest path. The
     * harness_throughput frontend-overhead gate pins this.
     */
    branch::FrontendProbe
    fetchProbe(uint64_t pc)
    {
        if (idealFast_)
            return {idealFast_->lookupPc(pc), false, 0};
        return frontend_->probePc(pc);
    }
    void
    fetchInsert(uint64_t pc, uint64_t target)
    {
        if (idealFast_)
            idealFast_->insertPc(pc, target);
        else
            frontend_->insertPc(pc, target);
    }

    const CoreConfig &config_;
    unsigned width_;
    unsigned fetchBlockShift_; ///< log2 of the I-cache block size
    uint64_t latency_[size_t(LatClass::Load) + 1]; ///< by LatClass (not Load)
    obs::TraceBuffer *trace_ = nullptr;

    // Cycle accounting.
    uint64_t cycle_ = 0;
    uint64_t intReady_[32] = {};
    uint64_t fpReady_[32] = {};
    uint64_t lastFetchBlock_ = UINT64_MAX;
    uint64_t lastFetchPage_ = UINT64_MAX;
    uint64_t lastDataPage_ = UINT64_MAX;
    unsigned issuedThisCycle_ = 0;
    bool memIssuedThisCycle_ = false;
    bool branchIssuedThisCycle_ = false;

    // Components.
    std::unique_ptr<branch::FrontendModel> frontend_;
    branch::Btb *idealFast_ = nullptr; ///< non-null iff ideal, no FDIP
    std::unique_ptr<branch::JteTable> dedicatedJtes_;
    std::unique_ptr<branch::DirectionPredictor> direction_;
    std::unique_ptr<branch::ReturnAddressStack> ras_;
    std::unique_ptr<branch::FrontendVbbi> vbbi_;
    std::unique_ptr<branch::Ittage> ittage_;
    std::unique_ptr<cache::Cache> icache_;
    std::unique_ptr<cache::Cache> dcache_;
    std::unique_ptr<cache::Cache> l2cache_;
    cache::Tlb itlb_;
    cache::Tlb dtlb_;

    // Statistics.
    uint64_t branchMisses_[size_t(BranchClass::NumClasses)] = {};
    uint64_t ropStallCycles_ = 0;
    uint64_t loadUseStalls_ = 0;
    uint64_t jteFalseResteers_ = 0; ///< false JTE hits resteered (non-ideal)
};

/**
 * The higher-end wide in-order pipeline (Section VI-C2): identical
 * scoreboard semantics, parameterized on issue width instead of taking
 * it from the machine configuration. Width 2 reproduces the dual-issue
 * Cortex-A8-like core; other widths support front-end sensitivity
 * studies without cloning machine configs.
 */
class WideInOrderTiming : public InOrderTiming
{
  public:
    WideInOrderTiming(const CoreConfig &config, unsigned width);
};

} // namespace scd::cpu

#endif // SCD_CPU_INORDER_TIMING_HH
