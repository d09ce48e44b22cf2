/**
 * @file
 * Regenerates Figure 2: the branch-misprediction MPKI breakdown of the
 * baseline Lua-style interpreter, split by branch class. The paper's
 * claim: the dispatch indirect jump dominates.
 */

#include <cstdio>

#include "bench_util.hh"
#include "harness/figures.hh"
#include "harness/json_export.hh"
#include "harness/machines.hh"

int
main(int argc, char **argv)
{
    using namespace scd;
    using namespace scd::harness;

    InputSize size = bench::parseSize(argc, argv, InputSize::Sim);
    RunOptions options = bench::parseRunOptions(argc, argv);
    std::string jsonPath = bench::parseJsonPath(argc, argv);
    std::fprintf(stderr, "fig02: running 11 baseline simulations (%s)\n",
                 bench::sizeName(size));
    GridRun run =
        runGridSet(bench::applyFrontendFlag(argc, argv, minorConfig()),
                   size, {VmKind::Rlua}, {core::Scheme::Baseline}, options);
    std::printf("%s\n", renderFig2(run.grid).c_str());

    obs::StatsSink sink("fig02_mpki_breakdown", bench::sizeName(size));
    exportSet(sink, "baseline-mpki", run.set);
    return finishRun(sink, jsonPath, {&run.set});
}
