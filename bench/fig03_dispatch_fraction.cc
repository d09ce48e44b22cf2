/**
 * @file
 * Regenerates Figure 3: the fraction of retired instructions spent in the
 * dispatcher code of the baseline Lua-style interpreter (paper: >25%).
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
    std::fprintf(stderr, "fig03: running 11 baseline simulations (%s)\n",
                 bench::sizeName(size));
    GridRun run =
        runGridSet(bench::applyFrontendFlag(argc, argv, minorConfig()),
                   size, {VmKind::Rlua}, {core::Scheme::Baseline}, options);
    std::printf("%s\n", renderFig3(run.grid).c_str());

    obs::StatsSink sink("fig03_dispatch_fraction", bench::sizeName(size));
    exportSet(sink, "baseline-dispatch", run.set);
    return finishRun(sink, jsonPath, {&run.set});
}
