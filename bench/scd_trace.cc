/**
 * @file
 * Pipeline event-trace capture CLI. Runs one workload with a TraceBuffer
 * attached to the timing model, then prints the per-opcode /
 * per-dispatch-site profile report and (optionally) writes the retained
 * event window as Chrome trace_event JSON for chrome://tracing or
 * https://ui.perfetto.dev.
 *
 * Only useful in an SCD_TRACE=ON build — the recording hooks are
 * compiled out of the simulator otherwise, and this binary says so and
 * exits 2 instead of silently printing an empty profile.
 *
 * Usage:
 *   scd_trace [--vm=rlua|sjs] [--workload=NAME] [--scheme=NAME]
 *             [--size=test|sim|fpga] [--events=N] [--out=trace.json]
 *             [--dispatch-tier=switch|threaded]
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench_util.hh"
#include "harness/machines.hh"
#include "harness/runner.hh"
#include "isa/opcode.hh"
#include "obs/trace.hh"

namespace
{

std::string
stringFlag(int argc, char **argv, const char *flag,
           const std::string &fallback)
{
    size_t len = std::strlen(flag);
    for (int n = 1; n < argc; ++n) {
        if (std::strncmp(argv[n], flag, len) == 0 && argv[n][len])
            return argv[n] + len;
    }
    return fallback;
}

std::string
opName(uint8_t op)
{
    if (op < scd::isa::kNumOpcodes)
        return scd::isa::mnemonic(scd::isa::Opcode(op));
    return "op" + std::to_string(op);
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace scd;
    using namespace scd::harness;

    if (!obs::kTraceHooksCompiled) {
        std::fprintf(stderr,
                     "scd_trace: this build has the trace hooks compiled "
                     "out; reconfigure with -DSCD_TRACE=ON (see "
                     "docs/SIMULATOR.md, \"Observability\")\n");
        return 2;
    }

    InputSize size = bench::parseSize(argc, argv, InputSize::Test);
    std::string vmFlag = stringFlag(argc, argv, "--vm=", "rlua");
    std::string workloadName =
        stringFlag(argc, argv, "--workload=", "fibo");
    std::string schemeName = stringFlag(argc, argv, "--scheme=", "scd");
    std::string outPath = stringFlag(argc, argv, "--out=", "");
    unsigned long events =
        std::strtoul(stringFlag(argc, argv, "--events=", "65536").c_str(),
                     nullptr, 10);

    VmKind vm;
    if (vmFlag == "rlua") {
        vm = VmKind::Rlua;
    } else if (vmFlag == "sjs") {
        vm = VmKind::Sjs;
    } else {
        std::fprintf(stderr, "unknown --vm value '%s'\n", vmFlag.c_str());
        return 2;
    }
    core::Scheme scheme;
    if (schemeName == "baseline") {
        scheme = core::Scheme::Baseline;
    } else if (schemeName == "jump-threading") {
        scheme = core::Scheme::JumpThreading;
    } else if (schemeName == "vbbi") {
        scheme = core::Scheme::Vbbi;
    } else if (schemeName == "scd") {
        scheme = core::Scheme::Scd;
    } else {
        std::fprintf(stderr, "unknown --scheme value '%s'\n",
                     schemeName.c_str());
        return 2;
    }

    std::fprintf(stderr, "scd_trace: %s/%s/%s (%s), %lu-event window\n",
                 vmFlag.c_str(), workloadName.c_str(), schemeName.c_str(),
                 bench::sizeName(size), events);

    harness::RunOptions tierOptions;
    bench::parseDispatchTier(argc, argv, tierOptions);

    cpu::CoreConfig machine =
        bench::applyFrontendFlag(argc, argv, minorConfig());
    obs::TraceBuffer trace(events ? events : 1);
    ExperimentResult result =
        runWorkload(vm, workload(workloadName), size, scheme, machine,
                    /*maxInstructions=*/0, &trace, /*timeoutSeconds=*/0.0,
                    tierOptions.dispatchTier);

    std::printf("%s", obs::profileReport(trace, opName).c_str());
    std::printf("\nrun: %llu instructions, %llu cycles; trace recorded "
                "%llu events (%llu dropped from the window)\n",
                (unsigned long long)result.run.instructions,
                (unsigned long long)result.run.cycles,
                (unsigned long long)trace.recorded(),
                (unsigned long long)trace.dropped());

    if (!outPath.empty()) {
        std::string json = obs::chromeTraceJson(trace, opName);
        std::FILE *f = std::fopen(outPath.c_str(), "w");
        if (!f) {
            std::fprintf(stderr, "cannot write %s\n", outPath.c_str());
            return 1;
        }
        bool ok =
            std::fwrite(json.data(), 1, json.size(), f) == json.size();
        ok = std::fclose(f) == 0 && ok;
        if (!ok) {
            std::fprintf(stderr, "short write to %s\n", outPath.c_str());
            return 1;
        }
        std::printf("wrote %s (load in chrome://tracing or "
                    "ui.perfetto.dev)\n",
                    outPath.c_str());
    }
    return 0;
}
