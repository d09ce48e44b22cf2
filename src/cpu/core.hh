/**
 * @file
 * The simulated core: a thin façade composing a FunctionalCore (SRV64 +
 * SCD architectural execution) with a pluggable TimingModel (scoreboard
 * pipeline, wide pipeline, or none at all). The split keeps the
 * architecturally-visible microarchitectural state — the jump-table
 * entries consumed by bop (paper §III-B) — consistent through the timing
 * model's JTE port while everything purely cycle-related stays behind
 * the TimingModel interface. See docs/SIMULATOR.md ("Architecture").
 */

#ifndef SCD_CPU_CORE_HH
#define SCD_CPU_CORE_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "common/stats.hh"
#include "config.hh"
#include "functional_core.hh"
#include "isa/program.hh"
#include "mem/memory.hh"
#include "retire_info.hh"
#include "timing_model.hh"

namespace scd::branch
{
class Btb;
}

namespace scd::cpu
{

/** Outcome of Core::run(). */
struct RunResult
{
    int exitCode = 0;
    uint64_t instructions = 0;
    uint64_t cycles = 0; ///< 0 under the functional-only timing model
    bool exited = false; ///< false if the instruction limit was hit
};

/** The simulated core. */
class Core
{
  public:
    Core(const CoreConfig &config, mem::GuestMemory &memory);

    /** Pre-decode and map the text segment; resets the PC to its entry. */
    void
    loadProgram(const isa::Program &prog)
    {
        functional_.loadProgram(prog);
    }

    /** Attach interpreter metadata (may be empty). */
    void
    setDispatchMeta(const DispatchMeta &meta)
    {
        functional_.setDispatchMeta(meta);
    }

    /** Optional per-instruction hook (pc, instruction), for tracing. */
    using TraceHook = FunctionalCore::TraceHook;
    void setTraceHook(TraceHook hook)
    {
        functional_.setTraceHook(std::move(hook));
    }

    /** Arm the per-point wall-clock watchdog (<= 0 disarms). */
    void armWatchdog(double seconds) { functional_.armWatchdog(seconds); }

    /** Select the functional execution tier (see cpu/dispatch_tier.hh). */
    void
    setDispatchTier(DispatchTier tier)
    {
        functional_.setDispatchTier(tier);
    }
    DispatchTier dispatchTier() const { return functional_.dispatchTier(); }

    /**
     * Run until the guest exits or @p maxInstructions retire
     * (0 = unlimited). Under a timing model this steps the reference
     * interpreter and retires one instruction at a time: the oracle the
     * replay engine (harness/replay.hh) is checked against with
     * --no-replay, and the path of instruction-limited points.
     */
    RunResult run(uint64_t maxInstructions = 0);

    /** Accumulated guest console output. */
    const std::string &output() const { return functional_.output(); }

    /** Counter snapshot of every statistic the harness consumes. */
    StatGroup collectStats() const;

    /** Direct component access for tests (timed models only). */
    branch::Btb &btb();

    /** The composed timing model. */
    TimingModel &timing() { return *timing_; }

    const CoreConfig &config() const { return config_; }

    /** Architectural register read (for tests). */
    uint64_t readReg(unsigned r) const { return functional_.readReg(r); }
    double readFreg(unsigned r) const { return functional_.readFreg(r); }

  private:
    CoreConfig config_;
    std::unique_ptr<TimingModel> timing_;
    FunctionalCore functional_;
};

} // namespace scd::cpu

#endif // SCD_CPU_CORE_HH
