/**
 * @file
 * The functional half of the simulated core: architectural state (integer
 * and FP register files, the SCD register banks Rop/Rmask/Rbop-pc, guest
 * memory, syscalls) and one-instruction execution. Each step emits a
 * compact RetireInfo record for the attached TimingModel; run without one
 * (timing model with needsRetireInfo() == false) the step is a pure
 * instruction emulator, the fast path of the functional-only mode.
 */

#ifndef SCD_CPU_FUNCTIONAL_CORE_HH
#define SCD_CPU_FUNCTIONAL_CORE_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "config.hh"
#include "dispatch_tier.hh"
#include "isa/instruction.hh"
#include "isa/program.hh"
#include "mem/memory.hh"
#include "retire_info.hh"
#include "watchdog.hh"

namespace scd::branch
{
class Btb;
class JteTable;
class Vbbi;
}

namespace scd::cpu
{

class TimingModel;
class ThreadedTier;

/**
 * Program metadata supplied by the guest builders: which PC ranges belong
 * to dispatcher code (Figure 3), which jumps are the dispatch jumps
 * (Figure 2), and VBBI hint registers for marked indirect jumps.
 */
struct DispatchMeta
{
    std::vector<std::pair<uint64_t, uint64_t>> dispatchRanges; ///< [lo, hi)
    std::set<uint64_t> dispatchJumpPcs;
    std::map<uint64_t, uint8_t> vbbiHints; ///< jump pc -> hint register
};

/** Architectural state and single-instruction execution. */
class FunctionalCore
{
  public:
    /**
     * @p timing provides the architectural JTE port consulted by bop and
     * jru; @p config supplies the SCD knobs (scdEnabled, bopPolicy,
     * ropForwardDistance) that are architecturally visible. Both must
     * outlive the core.
     */
    FunctionalCore(const CoreConfig &config, mem::GuestMemory &memory,
                   TimingModel &timing);
    ~FunctionalCore();

    /** Pre-decode and map the text segment; resets the PC to its entry. */
    void loadProgram(const isa::Program &prog);

    /** Attach interpreter metadata (may be empty). */
    void setDispatchMeta(const DispatchMeta &meta);

    /**
     * Select the execution tier used by runFunctional()/runRecorded()
     * (default: defaultDispatchTier()). step() always runs the reference
     * interpreter; the tiers retire bit-identical streams either way.
     */
    void setDispatchTier(DispatchTier tier) { tier_ = tier; }
    DispatchTier dispatchTier() const { return tier_; }

    /** Optional per-instruction hook (pc, instruction), for tracing. */
    using TraceHook = std::function<void(uint64_t, const isa::Instruction &)>;
    void setTraceHook(TraceHook hook) { trace_ = std::move(hook); }

    /**
     * Execute one instruction. With @p ri non-null the record is filled
     * for the timing model; with null all retirement bookkeeping is
     * skipped and JTE maintenance goes directly to the timing model.
     * Returns false once the guest has exited.
     */
    bool
    step(RetireInfo *ri)
    {
        HotState hs{pc_, retired_, dispatchInstructions_};
        bool live = ri ? stepImpl<true, true>(ri, hs)
                       : stepImpl<false, true>(nullptr, hs);
        pc_ = hs.pc;
        retired_ = hs.retired;
        dispatchInstructions_ = hs.dispatchInstructions;
        return live;
    }

    /**
     * Run without retirement bookkeeping until the guest exits or
     * @p maxInstructions retire (0 = unlimited). The loop lives next to
     * the step body so the whole fast path inlines into one frame.
     */
    void runFunctional(uint64_t maxInstructions);

    /**
     * Execute and record: fill up to @p cap RetireInfo records (the
     * stream a timing model or replay consumer would see) and return the
     * number filled. Stops early only when the guest exits; a partial
     * fill with exited() == false never happens. Equivalent to a step()
     * loop but runs on the selected dispatch tier, which is what makes
     * replay's execute-once producers fast.
     */
    size_t runRecorded(RetireInfo *out, size_t cap);

    bool exited() const { return exited_; }
    int exitCode() const { return exitCode_; }
    uint64_t retired() const { return retired_; }

    /**
     * Arm the cooperative wall-clock watchdog: the run loops throw
     * TimeoutError once @p seconds elapse (<= 0 disarms).
     */
    void armWatchdog(double seconds) { watchdog_.arm(seconds); }
    const Watchdog &watchdog() const { return watchdog_; }

    /** Accumulated guest console output. */
    const std::string &output() const { return output_; }

    /** Architectural register read (for tests). */
    uint64_t readReg(unsigned r) const { return x_[r]; }
    double readFreg(unsigned r) const { return f_[r]; }

    /** Fold the architectural counters into @p group. */
    void exportStats(StatGroup &group) const;

    /**
     * Per-slot flag word cached at load time so step() never consults
     * the opcodeInfo table: the low bits are the opcode's isa::OpFlags,
     * the high bits the core-private dispatch-metadata flags below. The
     * word is exported verbatim in RetireInfo::flags; replay consumers
     * reconstruct dispatchInstructions from PcFlagInDispatchRange.
     */
    static constexpr unsigned kDispatchRangeShift = 24;
    static constexpr unsigned kVbbiHintShift = 26;
    enum PcFlags : uint32_t
    {
        /** Counts toward Figure 3 (see kDispatchRangeShift). */
        PcFlagInDispatchRange = 1u << kDispatchRangeShift,
        PcFlagDispatchJump = 1u << 25, ///< the dispatch indirect jump
        // Bits [31:26] hold the VBBI hint register + 1 (0 = unmarked),
        // packed here so a Slot stays 16 bytes.
    };

  private:
    struct ScdBank
    {
        uint64_t rmask = 0;
        uint64_t ropData = 0;
        bool ropValid = false;
        uint64_t rbopPc = UINT64_MAX;
        uint64_t ropWriteIndex = 0; ///< retire index of the .op producer
    };

    /**
     * Per-instruction mutable state threaded through stepImpl as a local
     * of the caller instead of member fields: guest stores are memcpys
     * through pointers the optimizer cannot reason about, so members
     * would be spilled and reloaded around every memory access, while a
     * local whose address never escapes stays in registers for the whole
     * run loop.
     */
    struct HotState
    {
        uint64_t pc;
        uint64_t retired;
        uint64_t dispatchInstructions;
    };

    /**
     * The step body, compiled per mode: with kHasRi the RetireInfo record
     * is populated; without it the outcome-tracking locals are dead and
     * the optimizer strips them, which is what makes the functional-only
     * mode fast. kTrace compiles the trace-hook probe in or out; the
     * fast loop drops it when no hook is attached.
     */
    template <bool kHasRi, bool kTrace>
    bool stepImpl(RetireInfo *ri, HotState &hs);

    void handleSyscall();
    uint64_t loadValue(const isa::Instruction &inst, uint64_t addr);
    void storeValue(const isa::Instruction &inst, uint64_t addr);
    void countBranch(BranchClass cls) { ++branchCount_[size_t(cls)]; }

    // ---- semantics helpers shared by both dispatch tiers ----------------
    // Defined inline in functional_core_inl.hh and included by both
    // functional_core.cc and threaded_tier.cc: one body per semantic
    // rule, so the tiers cannot drift apart. The shadow* helpers mirror
    // the timed front end's architecturally-determined BTB writes in
    // functional-only mode (see the shadowBtb_ comment below).
    inline void shadowInsertB(uint64_t pc, uint64_t target);
    inline void shadowJalr(uint64_t pc, uint64_t nextPc, int16_t hintReg,
                           uint64_t hintValue);
    inline void shadowJru(uint8_t bank, uint64_t pc, uint64_t nextPc,
                          bool jteIns, uint64_t jteOpcode);
    /** jru's Rop consumption; returns whether a JTE insert is due. */
    inline bool jruConsume(uint8_t bank, uint64_t &jteOpcode);
    /**
     * The bop instruction minus control flow: eligibility, the JTE
     * probe, counters, and the Rbop-pc update. @p retiredIdx is the
     * retire index of the bop itself. Returns the short-circuit target
     * on a hit.
     */
    template <bool kHasRi>
    inline std::optional<uint64_t>
    bopExec(uint8_t bank, uint64_t pc, uint64_t retiredIdx,
            uint32_t &ropStall, bool &bopProbed, bool &bopHit,
            uint64_t &jteOpcode);

    /**
     * Guest self-modification hook, called after every store: when the
     * stored bytes can overlap the text segment, re-decode the touched
     * slots from memory (keeping the dispatch-metadata flag bits) and
     * invalidate the threaded tier's translation of them. The fast-path
     * cost is one subtract + compare; the ±8-byte fringe keeps that
     * reject branch-free for spanning stores.
     */
    void
    noteIfTextWrite(uint64_t addr, unsigned width)
    {
        if (addr - (textBase_ - 8) < textLimit_ + 16) [[unlikely]]
            textWritten(addr, width);
    }
    void textWritten(uint64_t addr, unsigned width);

    /**
     * One pre-decoded text slot: the instruction fused with the cached
     * flag word (which also encodes the VBBI hint, see PcFlags) so a
     * fetch touches a single 16-byte array entry.
     */
    struct Slot
    {
        isa::Instruction inst;
        uint32_t flags = 0; ///< isa::OpFlags | core-private PcFlags
    };
    static_assert(sizeof(isa::Instruction) <= 12,
                  "Slot should stay 16 bytes for power-of-two indexing");

    /**
     * Fetch the decoded slot at @p pc. Inline with the panic path out of
     * line: the bounds check is on the hottest path there is and must
     * not drag the message-formatting machinery into it.
     */
    const Slot &
    slotAt(uint64_t pc) const
    {
        // A pc below textBase_ wraps to a huge offset and fails the limit
        // check; misalignment is caught by the low bits (textBase_ is
        // word-aligned).
        uint64_t off = pc - textBase_;
        if (off >= textLimit_ || (off & 3) != 0)
            badFetch(pc);
        return slots_[off >> 2];
    }

    [[noreturn]] void badFetch(uint64_t pc) const;

    static int16_t
    vbbiHintOf(uint32_t flags)
    {
        return int16_t(int(flags >> kVbbiHintShift) - 1);
    }

    const CoreConfig &config_;
    mem::GuestMemory &mem_;
    TimingModel &timing_; ///< JTE port only; never charged cycles here

    /**
     * Cached shadow pointers (null with a RetireInfo consumer): in the
     * functional-only mode the step body mirrors the timed front end's
     * architecturally-determined BTB writes through these so JTE
     * residency — and hence the retired instruction stream — matches
     * InOrderTiming's. See ArchShadow in timing_model.hh.
     */
    branch::Btb *shadowBtb_ = nullptr;
    branch::Vbbi *shadowVbbi_ = nullptr;
    branch::JteTable *shadowJtes_ = nullptr; ///< dedicated-table ablation

    // Decoded text segment.
    uint64_t textBase_ = 0;
    uint64_t textLimit_ = 0; ///< text size in bytes (4 * slots_.size())
    std::vector<Slot> slots_;

    // Architectural state.
    uint64_t pc_ = 0;
    uint64_t x_[32] = {};
    double f_[32] = {};
    static constexpr unsigned kScdBanks = 4;
    ScdBank banks_[kScdBanks];
    uint64_t retired_ = 0;

    // Architectural statistics (timing-independent).
    uint64_t dispatchInstructions_ = 0;
    uint64_t branchCount_[size_t(BranchClass::NumClasses)] = {};
    uint64_t bopFastHits_ = 0;
    uint64_t bopMisses_ = 0;
    uint64_t bopFallThroughForced_ = 0;
    uint64_t jteInserts_ = 0;

    // Guest interaction.
    std::string output_;
    bool exited_ = false;
    int exitCode_ = 0;
    TraceHook trace_;
    Watchdog watchdog_;

    // The threaded execution tier (src/cpu/threaded_tier.hh), built
    // lazily on first threaded run and discarded on loadProgram(). The
    // tier reads and writes the architectural state above directly.
    friend class ThreadedTier;
    DispatchTier tier_ = defaultDispatchTier();
    std::unique_ptr<ThreadedTier> threaded_;
    ThreadedTier &ensureThreaded();
};

} // namespace scd::cpu

#endif // SCD_CPU_FUNCTIONAL_CORE_HH
