/**
 * @file
 * The execute-once, time-many plan executor (docs/SIMULATOR.md).
 *
 * Points of an ExperimentPlan that share a functional key — VM,
 * interpreter binary (dispatch kind), workload source, and the
 * architecturally-visible SCD knobs — retire the same instruction
 * stream on every machine configuration. runPlanReplay() executes each
 * such group's FunctionalCore once and feeds the recorded stream to
 * every member's timing model, so a 16-machine sensitivity sweep pays
 * for one functional execution instead of sixteen. A group of one takes
 * the same path — its producer records on the threaded tier, which is
 * cheaper than stepping the reference interpreter per instruction — so
 * every timed point replays except instruction-limited ones; Null-timing
 * points run runFunctional directly. Results are bit-identical to direct
 * execution (tests/replay_test.cc); the --no-replay escape hatch and the
 * SCD_NO_REPLAY environment variable select the direct path for
 * cross-checking.
 */

#ifndef SCD_HARNESS_REPLAY_HH
#define SCD_HARNESS_REPLAY_HH

#include "experiment.hh"

namespace scd::harness
{

class RunJournal;

/** Whether runPlan() should group-and-replay (options + environment). */
bool replayEnabled(const RunOptions &options);

/**
 * Execute one point directly (no replay), timing its wall clock: the
 * per-instruction Core::run oracle for timed points, runFunctional for
 * Null-timing ones.
 * Failures propagate as exceptions; runPlan() wraps this in the
 * containment layer (runPointContained).
 */
ExperimentRun runPointDirect(const ExperimentPoint &point,
                             const RunOptions &options);

/**
 * Contained direct execution: FatalError, TimeoutError, and bad_alloc
 * become a non-Ok PointStatus with diagnostic text instead of
 * propagating. @p degradedFrom non-null marks a successful run as
 * Degraded with that text (the replay->direct fallback path).
 */
ExperimentRun runPointContained(const ExperimentPoint &point,
                                const RunOptions &options,
                                const char *degradedFrom = nullptr);

/**
 * Stable identity of a point's full configuration — label, input size,
 * instruction limit, and the timing-relevant machine fields — used as
 * the journal key. Two points with equal keys deterministically produce
 * equal results.
 */
std::string pointKey(const ExperimentPoint &point);

/**
 * The replay grouping key: points with equal keys retire identical
 * instruction streams whatever their timing models (VM + interpreter
 * binary + workload source + the architecturally-visible SCD knobs).
 * The farm coordinator partitions a plan along this key so every
 * replay group lands whole on one worker process and the execute-once
 * sharing survives the sharding (src/farm/coordinator.cc).
 */
std::string replayGroupKey(const ExperimentPoint &point);

/**
 * The replay-mode executor behind runPlan(): fills set.runs[i] for
 * every index in @p pending (a subset of the set's points, in plan
 * order). The caller has already restored non-pending runs from a
 * journal; completed points are appended to @p journal (may be null)
 * as they finish.
 */
void runPlanReplay(ExperimentSet &set, const std::vector<size_t> &pending,
                   const RunOptions &options, RunJournal *journal);

/** The direct-mode executor behind runPlan(), same contract. */
void runPlanDirect(ExperimentSet &set, const std::vector<size_t> &pending,
                   const RunOptions &options, RunJournal *journal);

} // namespace scd::harness

#endif // SCD_HARNESS_REPLAY_HH
