/**
 * @file
 * Selection of the functional core's execution tier.
 *
 * The FunctionalCore's switch-dispatched step() loop is the *reference*
 * interpreter: simple, traceable, and the semantics oracle. The threaded
 * tier (src/cpu/threaded_tier.hh) pre-decodes the text segment into a
 * flat stream of {handler, operands} slots and chains handlers with
 * computed gotos — the same dispatch transformation the paper studies in
 * guest interpreters, applied to the simulator's own hot loop. Both tiers
 * retire bit-identical instruction streams (enforced by
 * tests/dispatch_tier_test.cc); the tier only changes host speed.
 *
 * The tier is deliberately NOT part of CoreConfig: replay grouping keys
 * and the run journal hash timing-relevant config fields, and the tier is
 * timing-irrelevant by contract.
 */

#ifndef SCD_CPU_DISPATCH_TIER_HH
#define SCD_CPU_DISPATCH_TIER_HH

#include <cstdint>
#include <optional>
#include <string_view>

namespace scd::cpu
{

/** Which execution engine runFunctional()/runRecorded() use. */
enum class DispatchTier : uint8_t
{
    Switch,   ///< the reference switch-dispatched step loop
    Threaded, ///< pre-decoded threaded code (computed goto / portable)
    /**
     * Runs exactly as Threaded. Kept, with its name "jit", only because
     * the perfbench layer pass `cpu.functional.jit.minst_per_s` names it;
     * to be removed with that metric.
     */
    Jit,
};

/** Stable lower-case name ("switch" / "threaded" / "jit"). */
const char *dispatchTierName(DispatchTier tier);

/** Parse "switch" or "threaded"; nullopt on anything else. */
std::optional<DispatchTier> parseDispatchTier(std::string_view name);

/**
 * The process-wide default tier: $SCD_DISPATCH_TIER ("switch" or
 * "threaded") when set and valid, else Threaded. Read once and
 * cached; an invalid value warns and falls back to the default.
 */
DispatchTier defaultDispatchTier();

/**
 * True when this build dispatches threaded slots with GNU computed
 * gotos; false when it uses the portable switch-over-slots fallback
 * (compiler support missing or -DSCD_PORTABLE_DISPATCH=ON).
 */
bool threadedTierUsesComputedGoto();

/**
 * Always false: no build carries a JIT backend. Kept only because
 * perfbench records it in its environment block; to be removed with
 * DispatchTier::Jit.
 */
bool jitTierAvailable();

} // namespace scd::cpu

#endif // SCD_CPU_DISPATCH_TIER_HH
