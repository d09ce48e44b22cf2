/**
 * @file
 * The benchmark's workloads. Each is an ExperimentPlan run with the
 * default dispatch tier, replay on and the ideal frontend; the seed only
 * permutes plan order (seed 0 keeps paper order), and the program sees
 * nothing but the generated plan.
 *
 * grid — the Fig. 7-10 plan (2 VMs x 11 scripts x 4 schemes, minor core)
 *   at --size=test, jobs=1. The figure users regenerate most, checked
 *   point by point against tests/golden/fig07_10_test.json. Half of its
 *   points (JT and SCD) are replay singletons that step per instruction
 *   through Core::run -> InOrderTiming::retire; replay sharing and the
 *   dispatch tier do little work. It should show the "one timed
 *   executor" item.
 *
 * sweep — the Fig. 11 plan (bench/fig11_plan.hh, 352 points) at
 *   --size=test, jobs=2: 44 replay groups of 8 timing members, BTBs from
 *   512 down to 64 entries with JTE caps 8/16/unlimited/adaptive. The
 *   functional layer runs once per 8 timed points, so
 *   InOrderTiming::consume and the BTB dominate, and the small capped
 *   BTBs make JTE inserts and evictions frequent next to lookups. jobs=2
 *   exercises the pool without handing the numbers to the scheduler.
 *
 * functional — the grid plan under TimingKind::Null at --size=sim
 *   (2.33 B guest instructions), jobs=1. The dispatch tier does nearly
 *   all the work here and almost none in the other two workloads: a tier
 *   change shows here, a timing-model change must not.
 *
 * Per-layer metrics (traced run), the end-to-end metric each should
 * move, and where. A row should read flat on workloads that do not call
 * its layer.
 *
 *   layer           metric                                  should move
 *   harness         harness.point_ms.p50 / .p90             wall_s: sweep, grid
 *   harness         harness.sim_share                       wall_s: grid
 *   harness         harness.pool_busy                       wall_s: sweep
 *   harness         harness.functional_runs,
 *                   harness.points_per_functional_run,
 *                   harness.points_degraded                 minst_per_s: grid
 *   harness/vm/guest/isa
 *                   harness.compile_ms, harness.compiles    setup_s: all
 *   cpu tiers       cpu.functional.{switch,threaded,jit}.minst_per_s
 *                                                           minst_per_s: functional
 *   cpu recorder    cpu.recorder.minst_per_s                minst_per_s: sweep
 *   cpu step        cpu.step.minst_per_s,
 *                   cpu.core_run.minst_per_s                minst_per_s: grid
 *   cpu timing      cpu.timing.ns_per_inst                  minst_per_s: grid, sweep
 *                                                           (flat on functional)
 *   branch          branch.btb256.ns_per_op,
 *                   branch.btb64c8.ns_per_op,
 *                   branch.btb.jte_writes_per_klookup,
 *                   branch.direction.ns_per_op              minst_per_s: grid (256),
 *                                                           sweep (64, cap 8)
 *   cache           cache.icache.ns_per_access,
 *                   cache.dcache.ns_per_access              minst_per_s: grid, sweep
 *   obs             obs.export_ms                           wall_s: sweep
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "harness/experiment.hh"
#include "obs/stats_sink.hh"

namespace perfbench
{

/** One labelled, contiguous slice of a plan in paper order. */
struct ExportSlice
{
    std::string label;
    size_t begin = 0;
    size_t count = 0;
};

/** A workload: its plan in paper order and how its results are shown. */
struct WorkloadSpec
{
    std::string name;
    scd::harness::InputSize size = scd::harness::InputSize::Test;
    unsigned jobs = 1;
    scd::harness::ExperimentPlan plan;
    /** StatsSink bench name of the export (as the figure binary names it). */
    std::string bench;
    std::vector<ExportSlice> slices;
    /** Expected export, relative to the repository root. */
    std::string expectedPath;
};

/** Build workload @p name; throws std::invalid_argument if unknown. */
WorkloadSpec makeWorkload(const std::string &name);

/**
 * The seed's plan order: order[k] is the paper index of the k-th point
 * run. Seed 0 is the identity; any other seed a Fisher-Yates shuffle
 * driven by a fixed 64-bit generator, so a seed always gives the same
 * order.
 */
std::vector<size_t> planOrder(size_t points, uint64_t seed);

/** The plan the program receives: @p paper reordered by @p order. */
scd::harness::ExperimentPlan
permutePlan(const scd::harness::ExperimentPlan &paper,
            const std::vector<size_t> &order);

/** Move the runs of a permuted set back into paper order. */
scd::harness::ExperimentSet
restorePaperOrder(scd::harness::ExperimentSet set,
                  const std::vector<size_t> &order);

/** Render the workload's figures from a paper-ordered set. */
std::string renderFigures(const WorkloadSpec &workload,
                          const scd::harness::ExperimentSet &set);

/** Export a paper-ordered set, one SetRecord per slice. */
void exportSet(const WorkloadSpec &workload,
               const scd::harness::ExperimentSet &set,
               scd::obs::StatsSink &sink);

/** The distinct (vm, source, dispatch kind) guests @p plan compiles. */
struct GuestKey
{
    scd::harness::VmKind vm;
    std::string source;
    scd::core::Scheme scheme; ///< a scheme selecting the dispatch kind
};
std::vector<GuestKey> planGuests(const scd::harness::ExperimentPlan &plan);

/**
 * Fig. 7 geomean speedups of a grid set beside the paper's, with the
 * gap in percentage points, labelled with the input size.
 */
std::string accuracyReport(const WorkloadSpec &workload,
                           const scd::harness::ExperimentSet &set);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
