/**
 * @file
 * The threaded-code execution tier of the FunctionalCore: the simulator's
 * fast functional executor and the recorder every timed run replays from.
 * It applies to the simulator's own hot loop the same dispatch
 * transformation the paper studies in guest interpreters.
 *
 * A one-pass translation lowers the pre-decoded text segment into a flat
 * stream of 32-byte TSlots, each carrying the handler address for its
 * opcode plus fully pre-decoded operands (sign-extended immediate, flag
 * word, register indices, and — for direct branches — the taken-successor
 * slot index). Execution then chains handlers with GNU computed gotos
 * (`goto *ip->fh`), replacing the reference interpreter's
 * fetch/bounds-check/switch per instruction with one indirect jump per
 * instruction from a per-opcode dispatch site. A portable
 * switch-over-slots fallback is selected automatically when the compiler
 * lacks computed gotos, or explicitly with -DSCD_PORTABLE_DISPATCH=ON.
 *
 * The tier contract: a threaded run retires the bit-identical RetireInfo
 * stream — same architectural effects, same traps, same SCD-bank and
 * shadow-BTB updates, same stats counters — as the reference switch tier
 * (enforced by tests/dispatch_tier_test.cc). It shares the semantic
 * helper bodies in functional_core_inl.hh with the reference interpreter,
 * so per-rule logic exists exactly once.
 *
 * Guest self-modification: FunctionalCore::textWritten() reports dirty
 * slot ranges via noteTextWrite(). Translations are shared across cores
 * through a process-global cache, so the first write clones the program
 * (copy-on-write) and subsequent writes retranslate the dirty slots in
 * place. The executor pauses *between* instructions for that — a store
 * that hits text retires normally, then the run loop retranslates and
 * resumes at the architectural PC — so handler-chain pointers never
 * dangle mid-burst.
 */

#ifndef SCD_CPU_THREADED_TIER_HH
#define SCD_CPU_THREADED_TIER_HH

#include <cstddef>
#include <cstdint>
#include <memory>

#include "retire_info.hh"

namespace scd::cpu
{

class FunctionalCore;

// Defined in threaded_tier.cc; opaque here.
struct TSlot;    ///< one translated instruction ({handler, operands})
struct TProgram; ///< a translated text segment (slots + sentinels)

/** Counters of the process-global translation cache (for tests/bench). */
struct ThreadedCacheStats
{
    uint64_t hits = 0;     ///< translations served from the cache
    uint64_t compiles = 0; ///< translations built (misses + invalidations)
    uint64_t entries = 0;  ///< cached programs (most recently used)
};

ThreadedCacheStats threadedCacheStats();

/** Drop all cached translations and zero the counters (for tests). */
void resetThreadedCache();

/**
 * Per-core threaded execution engine. Built lazily by
 * FunctionalCore::ensureThreaded() from the core's decoded slots; executes
 * directly against the core's architectural state (friend access), so the
 * reference interpreter can take over at any instruction boundary.
 */
class ThreadedTier
{
  public:
    explicit ThreadedTier(FunctionalCore &core);
    ~ThreadedTier();
    ThreadedTier(const ThreadedTier &) = delete;
    ThreadedTier &operator=(const ThreadedTier &) = delete;

    /** Tier-equivalent of FunctionalCore::runFunctional(). */
    void runFunctional(uint64_t maxInstructions);

    /** Tier-equivalent of the step()-and-record loop; see FunctionalCore. */
    size_t runRecorded(RetireInfo *out, size_t cap);

    /**
     * Invalidate the translation of slots [first, last) after a guest
     * text write (called by FunctionalCore::textWritten with the slots
     * already re-decoded). Safe mid-run: the executor observes the
     * pending flag when the writing store completes and pauses for
     * retranslation at the next instruction boundary.
     */
    void noteTextWrite(size_t first, size_t last);

  private:
    /** Why the executor handed control back to the run loop. */
    enum class ExecStatus : uint8_t
    {
        Exited,      ///< the guest's exit syscall retired
        Budget,      ///< instruction budget exhausted
        Retranslate, ///< a store dirtied text; retranslate, then resume
    };

    /**
     * Executor state folded to/from the core's architectural fields
     * around each burst; a local struct for the same reason as
     * FunctionalCore::HotState.
     */
    struct Cursor
    {
        size_t idx;            ///< current slot index (== (pc-base)/4)
        uint64_t retired;
        uint64_t dispatch;
        uint64_t pendingBadPc; ///< pc to report when idx = bad trampoline
    };

    /**
     * The handler-threaded executor: runs from cur.idx until the status
     * says why it stopped. kBounded compiles the per-instruction budget
     * decrement in or out (the unbounded form is the hot one); kHasRi
     * additionally fills one RetireInfo per instruction. @p labelQuery
     * is the bootstrap back door: when non-null the executor immediately
     * stores its handler-label table there and returns (computed-goto
     * builds only; labels are function-local).
     */
    template <bool kHasRi, bool kBounded>
    static ExecStatus exec(ThreadedTier *t, Cursor &cur, RetireInfo *ri,
                           uint64_t budget, const void *const **labelQuery);

    /** Translate (or fetch from the global cache) the core's slots. */
    static std::shared_ptr<const TProgram>
    translate(const FunctionalCore &core);

    /**
     * Handler-label table of the direct-threaded functional executor
     * (null in portable-dispatch builds); what translation stores in
     * each slot's handler field.
     */
    static const void *const *handlerLabels();

    /** The translation being executed (the COW clone once one exists). */
    const TProgram &prog() const;

    /** Retranslate the dirty slot range in place (COW-cloning first). */
    void applyDirty();

    /** Fold cur back into the core and map idx to an architectural PC. */
    void syncCore(const Cursor &cur);

    /** Build a Cursor from the core's state; validates pc. */
    Cursor makeCursor() const;

    FunctionalCore &core_;
    std::shared_ptr<const TProgram> prog_; ///< executing translation
    std::unique_ptr<TProgram> owned_;      ///< set once text went dirty
    size_t dirtyFirst_ = 0, dirtyLast_ = 0;
    bool dirtyPending_ = false;
};

} // namespace scd::cpu

#endif // SCD_CPU_THREADED_TIER_HH
