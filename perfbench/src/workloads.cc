#include "workloads.hh"

#include <cstdio>
#include <random>
#include <set>
#include <stdexcept>
#include <tuple>

#include "common/table.hh"
#include "fig11_plan.hh"
#include "harness/figures.hh"
#include "harness/json_export.hh"
#include "harness/machines.hh"

namespace perfbench
{

using namespace scd;
using namespace scd::harness;

namespace
{

const std::vector<VmKind> kVms = {VmKind::Rlua, VmKind::Sjs};
const std::vector<core::Scheme> kSchemes = {
    core::Scheme::Baseline, core::Scheme::JumpThreading,
    core::Scheme::Vbbi, core::Scheme::Scd};

WorkloadSpec
gridWorkload()
{
    WorkloadSpec w;
    w.name = "grid";
    w.size = InputSize::Test;
    w.jobs = 1;
    w.plan.addGrid(minorConfig(), w.size, kVms, kSchemes);
    w.bench = "fig07_10_overall";
    w.slices = {{"overall", 0, w.plan.size()}};
    w.expectedPath = "tests/golden/fig07_10_test.json";
    return w;
}

WorkloadSpec
sweepWorkload()
{
    WorkloadSpec w;
    w.name = "sweep";
    w.size = InputSize::Test;
    w.jobs = 2;
    std::vector<bench::Fig11Step> steps = bench::fig11Steps();
    w.plan = bench::fig11Plan(steps, w.size);
    w.bench = "fig11_sensitivity";
    const size_t perStep = w.plan.size() / steps.size();
    for (size_t i = 0; i < steps.size(); ++i)
        w.slices.push_back({steps[i].label, i * perStep, perStep});
    w.expectedPath = "perfbench/expected/sweep_test.json";
    return w;
}

WorkloadSpec
functionalWorkload()
{
    WorkloadSpec w;
    w.name = "functional";
    w.size = InputSize::Sim;
    w.jobs = 1;
    cpu::CoreConfig machine = minorConfig();
    machine.timingKind = cpu::TimingKind::Null;
    w.plan.addGrid(machine, w.size, kVms, kSchemes);
    w.bench = "perfbench_functional";
    w.slices = {{"functional", 0, w.plan.size()}};
    w.expectedPath = "perfbench/expected/functional_sim.json";
    return w;
}

/**
 * One Fig. 11 speedup table as fig11_sensitivity prints it: a row per
 * script plus GEOMEAN, one column per sweep step of @p grids.
 */
std::string
sweepTable(const std::string &title, VmKind vm,
           const std::vector<std::string> &columns, const Grid *grids)
{
    TextTable t;
    std::vector<std::string> header = {"benchmark"};
    header.insert(header.end(), columns.begin(), columns.end());
    t.header(header);
    auto names = workloadNames();
    names.push_back("GEOMEAN");
    for (const auto &name : names) {
        std::vector<std::string> row = {name};
        for (size_t c = 0; c < columns.size(); ++c) {
            if (name == "GEOMEAN") {
                row.push_back(TextTable::fixed(
                    grids[c].geomeanSpeedup(vm, workloadNames(),
                                            core::Scheme::Scd),
                    3));
            } else if (!grids[c].has(vm, name, core::Scheme::Baseline) ||
                       !grids[c].has(vm, name, core::Scheme::Scd)) {
                row.push_back(kFailedCell);
            } else {
                row.push_back(TextTable::fixed(
                    grids[c].speedup(vm, name, core::Scheme::Scd), 3));
            }
        }
        t.row(row);
    }
    return title + "\n" + t.render() + "\n";
}

/** The four Fig. 11 tables, in fig11_sensitivity's order. */
std::string
renderSweep(const WorkloadSpec &workload, const ExperimentSet &set)
{
    std::vector<Grid> grids;
    for (const ExportSlice &s : workload.slices)
        grids.push_back(gridFromSet(bench::sliceSet(set, s.begin, s.count)));
    // Slice layout (fig11Steps order): [0,4) rlua BTB sweep, [4,8) sjs
    // BTB sweep, [8,12) rlua cap sweep, [12,16) sjs cap sweep.
    const std::vector<std::string> btb = {"btb=64", "btb=128", "btb=256",
                                          "btb=512"};
    const std::vector<std::string> cap = {"cap=8", "cap=16", "cap=inf",
                                          "adaptive"};
    return sweepTable("Figure 11(a): SCD speedup vs BTB size [Lua-style VM]",
                      VmKind::Rlua, btb, &grids[0]) +
           sweepTable("Figure 11(b): SCD speedup vs BTB size [JS-style VM]",
                      VmKind::Sjs, btb, &grids[4]) +
           sweepTable("Figure 11(c): SCD speedup vs JTE cap at a 64-entry "
                      "BTB [Lua-style VM]",
                      VmKind::Rlua, cap, &grids[8]) +
           sweepTable("Figure 11(d): SCD speedup vs JTE cap at a 64-entry "
                      "BTB [JS-style VM]",
                      VmKind::Sjs, cap, &grids[12]);
}

} // namespace

WorkloadSpec
makeWorkload(const std::string &name)
{
    if (name == "grid")
        return gridWorkload();
    if (name == "sweep")
        return sweepWorkload();
    if (name == "functional")
        return functionalWorkload();
    throw std::invalid_argument("unknown workload '" + name + "'");
}

std::vector<size_t>
planOrder(size_t points, uint64_t seed)
{
    std::vector<size_t> order(points);
    for (size_t i = 0; i < points; ++i)
        order[i] = i;
    if (seed == 0)
        return order;
    // mt19937_64's output sequence is fixed by the standard, and the
    // bounded draw below avoids the implementation-defined distributions.
    std::mt19937_64 rng(seed);
    for (size_t i = points; i > 1; --i) {
        size_t j = size_t(rng() % i);
        std::swap(order[i - 1], order[j]);
    }
    return order;
}

ExperimentPlan
permutePlan(const ExperimentPlan &paper, const std::vector<size_t> &order)
{
    ExperimentPlan plan;
    for (size_t idx : order)
        plan.add(paper.points()[idx]);
    return plan;
}

ExperimentSet
restorePaperOrder(ExperimentSet set, const std::vector<size_t> &order)
{
    ExperimentSet out;
    out.points.resize(set.points.size());
    out.runs.resize(set.runs.size());
    for (size_t k = 0; k < order.size(); ++k) {
        out.points[order[k]] = std::move(set.points[k]);
        out.runs[order[k]] = std::move(set.runs[k]);
    }
    out.jobs = set.jobs;
    out.totalSeconds = set.totalSeconds;
    out.executed = set.executed;
    out.resumed = set.resumed;
    return out;
}

std::string
renderFigures(const WorkloadSpec &workload, const ExperimentSet &set)
{
    if (workload.name == "sweep")
        return renderSweep(workload, set);
    Grid grid = gridFromSet(set);
    if (workload.name == "functional")
        return renderFig8(grid);
    return renderFig7(grid) + renderFig8(grid) + renderFig9(grid) +
           renderFig10(grid);
}

void
exportSet(const WorkloadSpec &workload, const ExperimentSet &set,
          obs::StatsSink &sink)
{
    for (const ExportSlice &s : workload.slices) {
        if (s.begin == 0 && s.count == set.points.size())
            harness::exportSet(sink, s.label, set);
        else
            harness::exportSet(sink, s.label,
                               bench::sliceSet(set, s.begin, s.count));
    }
}

std::vector<GuestKey>
planGuests(const ExperimentPlan &plan)
{
    std::vector<GuestKey> guests;
    std::set<std::tuple<VmKind, std::string, guest::DispatchKind>> seen;
    for (const ExperimentPoint &p : plan.points()) {
        std::string source = p.workload->text(p.size);
        if (seen.emplace(p.vm, source, dispatchForScheme(p.scheme)).second)
            guests.push_back({p.vm, std::move(source), p.scheme});
    }
    return guests;
}

std::string
accuracyReport(const WorkloadSpec &workload, const ExperimentSet &set)
{
    if (workload.name != "grid")
        return "";
    // Fig. 7 geomean speedups of the paper (percent over baseline).
    struct Ref
    {
        VmKind vm;
        core::Scheme scheme;
        double paperPercent;
    };
    const Ref refs[] = {
        {VmKind::Rlua, core::Scheme::JumpThreading, -1.6},
        {VmKind::Rlua, core::Scheme::Vbbi, 8.8},
        {VmKind::Rlua, core::Scheme::Scd, 19.9},
        {VmKind::Sjs, core::Scheme::JumpThreading, 7.3},
        {VmKind::Sjs, core::Scheme::Vbbi, 5.3},
        {VmKind::Sjs, core::Scheme::Scd, 14.1},
    };
    Grid grid = gridFromSet(set);
    TextTable t;
    t.header({"vm", "scheme", "simulated", "paper", "gap (pp)"});
    for (const Ref &r : refs) {
        double sim = 100.0 * (grid.geomeanSpeedup(
                                  r.vm, workloadNames(), r.scheme) -
                              1.0);
        char simText[32], paperText[32], gapText[32];
        std::snprintf(simText, sizeof simText, "%+.1f%%", sim);
        std::snprintf(paperText, sizeof paperText, "%+.1f%%",
                      r.paperPercent);
        std::snprintf(gapText, sizeof gapText, "%+.1f",
                      sim - r.paperPercent);
        t.row({vmName(r.vm), core::schemeName(r.scheme), simText, paperText,
               gapText});
    }
    return "Fig. 7 geomean speedup over baseline, simulated at --size=" +
           std::string(inputSizeName(workload.size)) +
           " (the paper's runs use full inputs; ungated):\n" + t.render();
}

} // namespace perfbench
