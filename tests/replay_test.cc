/**
 * @file
 * Tests for the execute-once, time-many plan executor
 * (src/harness/replay.hh): replayed runs must be byte-identical to
 * direct execution — cycle counts, the full stat group, and the --json
 * export — across every dispatch scheme and a spread of machine
 * configurations on both VMs, for multi-member groups and groups of one
 * alike; and the guest compile cache must compile each (vm, workload,
 * dispatch kind) exactly once however many points share it.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "harness/experiment.hh"
#include "harness/json_export.hh"
#include "harness/machines.hh"
#include "harness/replay.hh"
#include "harness/runner.hh"
#include "obs/stats_sink.hh"

namespace
{

using namespace scd;
using namespace scd::harness;

const std::vector<std::string> kWorkloads = {"fibo", "n-sieve"};
const std::vector<core::Scheme> kSchemes = {
    core::Scheme::Baseline, core::Scheme::JumpThreading,
    core::Scheme::Vbbi, core::Scheme::Scd};

/**
 * Machine configurations chosen to cover the timing-state corners the
 * replay consumers must reproduce: the default minor core, a small BTB
 * with a JTE cap (capped insert path), the LRU Rocket-like core, and a
 * dedicated JTE table (non-overlay storage).
 */
std::vector<cpu::CoreConfig>
replayMachines()
{
    std::vector<cpu::CoreConfig> machines;
    machines.push_back(minorConfig());

    cpu::CoreConfig capped = minorConfig();
    capped.btb.entries = 64;
    capped.btb.jteCap = 8;
    machines.push_back(capped);

    machines.push_back(rocketConfig());

    cpu::CoreConfig dedicated = minorConfig();
    dedicated.scdDedicatedTable = true;
    dedicated.dedicatedJteEntries = 64;
    machines.push_back(dedicated);
    return machines;
}

ExperimentPoint
makePoint(VmKind vm, const std::string &name, core::Scheme scheme,
          const cpu::CoreConfig &machine)
{
    ExperimentPoint p;
    p.vm = vm;
    p.workload = &workload(name);
    p.size = InputSize::Test;
    p.scheme = scheme;
    p.machine = machine;
    return p;
}

/** All schemes x all replayMachines() x both VMs over kWorkloads. */
ExperimentPlan
matrixPlan()
{
    ExperimentPlan plan;
    for (const cpu::CoreConfig &machine : replayMachines()) {
        for (VmKind vm : {VmKind::Rlua, VmKind::Sjs}) {
            for (const auto &name : kWorkloads) {
                for (core::Scheme scheme : kSchemes)
                    plan.add(makePoint(vm, name, scheme, machine));
            }
        }
    }
    return plan;
}

/**
 * Run @p plan direct and replayed; cycles, the full stat group, and the
 * --json export must be byte-identical.
 */
void
expectReplayMatchesDirect(const ExperimentPlan &plan, unsigned jobs)
{
    RunOptions direct;
    direct.jobs = jobs;
    direct.replay = false;
    RunOptions replay;
    replay.jobs = jobs;
    replay.replay = true;
    ExperimentSet a = runPlan(plan, direct);
    ExperimentSet b = runPlan(plan, replay);
    ASSERT_EQ(a.points.size(), b.points.size());
    for (size_t i = 0; i < a.points.size(); ++i) {
        SCOPED_TRACE(a.points[i].label());
        ASSERT_EQ(a.runs[i].status, PointStatus::Ok) << a.runs[i].error;
        ASSERT_EQ(b.runs[i].status, PointStatus::Ok) << b.runs[i].error;
        EXPECT_EQ(a.at(i).run.cycles, b.at(i).run.cycles);
        EXPECT_EQ(a.at(i).run.instructions, b.at(i).run.instructions);
        EXPECT_EQ(a.at(i).run.exitCode, b.at(i).run.exitCode);
        EXPECT_EQ(a.at(i).output, b.at(i).output);
        EXPECT_EQ(a.at(i).stats.all(), b.at(i).stats.all());
    }

    // The machine-readable export only records deterministic fields, so
    // the full documents must match byte for byte too.
    obs::StatsSink directSink("replay_test", "test");
    obs::StatsSink replaySink("replay_test", "test");
    exportSet(directSink, "matrix", a);
    exportSet(replaySink, "matrix", b);
    EXPECT_EQ(directSink.render(), replaySink.render());
}

TEST(Replay, ByteIdenticalToDirectAcrossSchemesAndMachines)
{
    expectReplayMatchesDirect(matrixPlan(), 4);
}

/**
 * Groups of one ride the replay stream too (the Fig. 7-10 grid is
 * mostly such groups). Every point here has a functional key of its own:
 * the four schemes on both VMs on the minor core, a wide in-order
 * (Cortex-A8-like) point, and a multi-level-BTB + FDIP frontend point.
 * Baseline and VBBI share an interpreter binary, so they take different
 * workloads to stay apart.
 */
TEST(Replay, SingleMemberGroupsMatchDirect)
{
    ExperimentPlan plan;
    for (VmKind vm : {VmKind::Rlua, VmKind::Sjs}) {
        plan.add(makePoint(vm, "fibo", core::Scheme::Baseline,
                           minorConfig()));
        plan.add(makePoint(vm, "n-sieve", core::Scheme::Vbbi,
                           minorConfig()));
        plan.add(makePoint(vm, "fibo", core::Scheme::JumpThreading,
                           minorConfig()));
        plan.add(makePoint(vm, "fibo", core::Scheme::Scd, minorConfig()));
    }
    plan.add(makePoint(VmKind::Rlua, "n-sieve", core::Scheme::JumpThreading,
                       cortexA8Config()));
    plan.add(makePoint(VmKind::Sjs, "n-sieve", core::Scheme::Scd,
                       withFrontend(minorConfig(), "mlbtb+fdip")));

    std::set<std::string> keys;
    for (const ExperimentPoint &p : plan.points())
        keys.insert(replayGroupKey(p));
    ASSERT_EQ(keys.size(), plan.size()) << "a point shares its group";

    expectReplayMatchesDirect(plan, 2);
}

TEST(Replay, InstructionLimitedPointsMatchDirect)
{
    // maxInstructions truncates execution mid-stream; such points are
    // forced onto the direct path inside the replay executor, which must
    // stay invisible in the results.
    ExperimentPlan plan;
    for (core::Scheme scheme : kSchemes) {
        ExperimentPoint p;
        p.vm = VmKind::Rlua;
        p.workload = &workload("fibo");
        p.size = InputSize::Test;
        p.scheme = scheme;
        p.machine = minorConfig();
        p.maxInstructions = 100000;
        plan.add(std::move(p));
    }
    RunOptions direct;
    direct.jobs = 2;
    direct.replay = false;
    RunOptions replay;
    replay.jobs = 2;
    ExperimentSet a = runPlan(plan, direct);
    ExperimentSet b = runPlan(plan, replay);
    ASSERT_EQ(a.points.size(), b.points.size());
    for (size_t i = 0; i < a.points.size(); ++i) {
        SCOPED_TRACE(a.points[i].label());
        EXPECT_EQ(a.at(i).run.cycles, b.at(i).run.cycles);
        EXPECT_EQ(a.at(i).stats.all(), b.at(i).stats.all());
    }
}

TEST(GuestCache, OneCompilePerVmWorkloadDispatchKind)
{
    ExperimentPlan plan = matrixPlan();
    std::set<std::tuple<VmKind, std::string, int>> unique;
    for (size_t i = 0; i < plan.size(); ++i) {
        const ExperimentPoint &p = plan.points()[i];
        unique.insert({p.vm, p.workload->name,
                       int(dispatchForScheme(p.scheme))});
    }

    resetGuestCache();
    RunOptions options;
    options.jobs = 1;
    runPlan(plan, options);
    GuestCacheStats first = guestCacheStats();
    EXPECT_EQ(first.compiles, unique.size());

    // A second pass over the same plan hits the cache for every lookup.
    runPlan(plan, options);
    GuestCacheStats second = guestCacheStats();
    EXPECT_EQ(second.compiles, unique.size());
    EXPECT_GT(second.hits, first.hits);
}

} // namespace
