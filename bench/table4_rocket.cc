/**
 * @file
 * Regenerates Table IV: instruction and cycle counts of the Lua-style
 * interpreter (baseline / jump threading / SCD) on the 5-stage Rocket-like
 * configuration with the larger "FPGA" inputs.
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

    // The paper ran these with large inputs on FPGA; pass --size=sim for
    // a faster approximation.
    InputSize size = bench::parseSize(argc, argv, InputSize::Fpga);
    RunOptions options = bench::parseRunOptions(argc, argv);
    options.verbose = true;
    std::string jsonPath = bench::parseJsonPath(argc, argv);
    std::fprintf(stderr,
                 "table4: running 11x3 rocket-config simulations (%s)...\n",
                 bench::sizeName(size));
    GridRun run = runGridSet(bench::applyFrontendFlag(argc, argv,
                                                      rocketConfig()),
                             size, {VmKind::Rlua},
                             {core::Scheme::Baseline,
                              core::Scheme::JumpThreading,
                              core::Scheme::Scd},
                             options);
    std::printf("%s\n", renderTable4(run.grid).c_str());

    obs::StatsSink sink("table4_rocket", bench::sizeName(size));
    exportSet(sink, "rocket", run.set);
    return finishRun(sink, jsonPath, {&run.set});
}
