/**
 * @file
 * Measures experiment-harness throughput — how fast the harness itself
 * can burn through simulation points — and records it machine-readably
 * in BENCH_harness.json so the perf trajectory is tracked across PRs.
 *
 * The plan is the fig07-10 grid shape (2 VMs x 11 workloads x 4 schemes)
 * at the chosen input size. The same plan runs under the functional-only
 * NullTiming model twice per dispatch tier — threaded and the reference
 * switch interpreter, interleaved so allocator drift hits both equally —
 * then twice serially (--jobs=1) and twice on the requested worker count
 * with the timed model; the JSON records per-experiment wall time, the
 * total wall times, the parallel speedup, the timed-vs-functional
 * instruction throughput (instructions/sec) and the threaded tier's
 * speedup over the switch tier (functional_threaded_speedup), which the
 * CI bench-regression gate watches. Each mode's throughput is
 * the best of its two passes per experiment — the runs are short enough
 * that scheduler noise on a shared machine swings single measurements by
 * >10%, and the per-experiment minimum is the usual noise-robust
 * estimator of the achievable speed.
 *
 * A final pair of passes times the execute-once, time-many plan executor
 * on its reference workload — the Figure 11 sweep (bench/fig11_plan.hh),
 * whose 16 machine variants per (vm, scheme) are exactly the shape replay
 * accelerates — once directly and once replayed, recording the wall
 * times and their ratio (fig11_replay_speedup).
 *
 * --functional (or SCD_FUNCTIONAL=1) skips the timed passes entirely:
 * the plan runs once under NullTiming, for quick workload validation.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>

#include "bench_util.hh"
#include "branch/btb.hh"
#include "branch/frontend.hh"
#include "cpu/dispatch_tier.hh"
#include "fig11_plan.hh"
#include "harness/experiment.hh"
#include "harness/machines.hh"

namespace
{

bool
functionalOnly(int argc, char **argv)
{
    for (int n = 1; n < argc; ++n) {
        if (std::strcmp(argv[n], "--functional") == 0)
            return true;
    }
    const char *env = std::getenv("SCD_FUNCTIONAL");
    return env && env[0] == '1';
}

uint64_t
totalInstructions(const scd::harness::ExperimentSet &set)
{
    uint64_t total = 0;
    for (const auto &run : set.runs)
        total += run.result.run.instructions;
    return total;
}

/**
 * Per-experiment best-of-two sim time: the minimum of the two passes'
 * Core::run() wall times, summed over the plan. @p second may be empty
 * (functional-only mode runs one pass), in which case @p first stands
 * alone.
 */
double
bestSimSeconds(const scd::harness::ExperimentSet &first,
               const scd::harness::ExperimentSet &second)
{
    double total = 0.0;
    for (size_t i = 0; i < first.runs.size(); ++i) {
        double s = first.runs[i].result.simSeconds;
        if (second.runs.size() == first.runs.size())
            s = std::min(s, second.runs[i].result.simSeconds);
        total += s;
    }
    return total;
}

/**
 * Aggregate simulator speed over two passes of the same plan: retired
 * instructions per second of best-of-two Core::run() time. Compile/setup
 * time is excluded — it is identical whatever the timing model, so
 * including it would understate the timing-model cost being measured.
 */
double
instructionsPerSecond(const scd::harness::ExperimentSet &first,
                      const scd::harness::ExperimentSet &second)
{
    double simSeconds = bestSimSeconds(first, second);
    return simSeconds > 0 ? double(totalInstructions(first)) / simSeconds
                          : 0.0;
}

/**
 * The frontend-refactor indirection cost on the default path: the same
 * deterministic probe/insert mix driven once against a raw branch::Btb
 * and once against the identical organization behind a FrontendModel
 * pointer (branch::IdealBtb), accessed the way the timing members do —
 * through the cached idealBtb() fast path that devirtualizes the
 * default organization. Returns the best-of-reps wall-time ratio
 * (interface / raw); the CI bench-regression gate keeps it <= 1.05 so
 * the abstraction stays free for every ideal-frontend simulation.
 */
double
frontendOverheadRatio()
{
    using namespace scd;
    constexpr unsigned kOps = 1u << 19;
    constexpr int kReps = 9;

    // One xorshift64 op stream, replayed identically by both passes.
    // The mix mirrors the timing members' frontend traffic — probes
    // dominate (probePc on every control-flow instruction, probeJte per
    // dispatch) and inserts happen only on misses — over a PC footprint
    // that both hits and misses the default 256x2 structure.
    auto step = [](uint64_t &x) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        return x;
    };

    uint64_t sink = 0;
    auto rawPass = [&](branch::Btb &raw) {
        uint64_t x = 0x9e3779b97f4a7c15ull;
        auto t0 = std::chrono::steady_clock::now();
        for (unsigned i = 0; i < kOps; ++i) {
            uint64_t r = step(x);
            uint64_t pc = (r & 0xFFFF) << 2;
            switch (unsigned(r >> 61)) {
              case 0:
              case 1:
              case 2:
              case 3:
                sink += raw.lookupPc(pc).value_or(0);
                break;
              case 4:
                raw.insertPc(pc, pc + 8);
                break;
              case 5:
              case 6:
                sink += raw.lookupJte(uint8_t((r >> 8) & 3), r & 0xFF)
                            .value_or(0);
                break;
              default:
                raw.insertJte(uint8_t((r >> 8) & 3), r & 0xFF, pc);
                break;
            }
        }
        auto t1 = std::chrono::steady_clock::now();
        return std::chrono::duration<double>(t1 - t0).count();
    };
    auto viaPass = [&](branch::FrontendModel &via) {
        // Mirror InOrderTiming's access pattern exactly: the timing
        // members cache idealBtb() at construction and only cross the
        // virtual boundary on non-ideal organizations, so the default
        // path pays one well-predicted null check per frontend op.
        branch::Btb *ideal = via.idealBtb();
        uint64_t x = 0x9e3779b97f4a7c15ull;
        auto t0 = std::chrono::steady_clock::now();
        for (unsigned i = 0; i < kOps; ++i) {
            uint64_t r = step(x);
            uint64_t pc = (r & 0xFFFF) << 2;
            switch (unsigned(r >> 61)) {
              case 0:
              case 1:
              case 2:
              case 3:
                sink += ideal ? ideal->lookupPc(pc).value_or(0)
                              : via.probePc(pc).target.value_or(0);
                break;
              case 4:
                if (ideal)
                    ideal->insertPc(pc, pc + 8);
                else
                    via.insertPc(pc, pc + 8);
                break;
              case 5:
              case 6:
                sink += ideal
                            ? ideal->lookupJte(uint8_t((r >> 8) & 3), r & 0xFF)
                                  .value_or(0)
                            : via.probeJte(uint8_t((r >> 8) & 3), r & 0xFF)
                                  .target.value_or(0);
                break;
              default:
                if (ideal)
                    ideal->insertJte(uint8_t((r >> 8) & 3), r & 0xFF, pc);
                else
                    via.insertJte(uint8_t((r >> 8) & 3), r & 0xFF, pc);
                break;
            }
        }
        auto t1 = std::chrono::steady_clock::now();
        return std::chrono::duration<double>(t1 - t0).count();
    };

    double rawBest = 1e99, viaBest = 1e99;
    for (int rep = 0; rep < kReps; ++rep) {
        branch::BtbConfig config;
        branch::Btb raw(config);
        std::unique_ptr<branch::FrontendModel> via =
            branch::makeFrontendModel(branch::FrontendConfig{}, config);
        // Alternate which side runs first so frequency/thermal drift
        // within a rep cannot systematically penalize one of them.
        if (rep & 1) {
            viaBest = std::min(viaBest, viaPass(*via));
            rawBest = std::min(rawBest, rawPass(raw));
        } else {
            rawBest = std::min(rawBest, rawPass(raw));
            viaBest = std::min(viaBest, viaPass(*via));
        }
    }
    // Keep the accumulated targets observable so neither loop folds away.
    if (sink == 0xdeadbeefdeadbeefull)
        std::fprintf(stderr, "frontend_overhead: improbable sink\n");
    return rawBest > 0 ? viaBest / rawBest : 0.0;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace scd;
    using namespace scd::harness;

    InputSize size = bench::parseSize(argc, argv, InputSize::Test);
    unsigned jobs = resolveJobs(bench::parseJobs(argc, argv));
    bool funcOnly = functionalOnly(argc, argv);
    // This bench's output is inherently wall-time data, so --json picks
    // the destination of its (timing-laden) document rather than the
    // deterministic scd-stats-v1 export of the figure binaries.
    std::string jsonPath = bench::parseJsonPath(argc, argv);
    if (jsonPath.empty())
        jsonPath = "BENCH_harness.json";

    std::vector<VmKind> vms{VmKind::Rlua, VmKind::Sjs};
    std::vector<core::Scheme> schemes{
        core::Scheme::Baseline, core::Scheme::JumpThreading,
        core::Scheme::Vbbi, core::Scheme::Scd};

    ExperimentPlan plan;
    plan.addGrid(bench::applyFrontendFlag(argc, argv, minorConfig()), size,
                 vms, schemes);

    cpu::CoreConfig functionalMachine = minorConfig();
    functionalMachine.timingKind = cpu::TimingKind::Null;
    ExperimentPlan functionalPlan;
    functionalPlan.addGrid(functionalMachine, size, vms, schemes);

    // The functional passes run before the timed ones: 88 timed
    // experiments leave the allocator and page tables in a state that
    // measurably slows later short runs, and the functional mode — being
    // ~5x faster — is the one short enough to be hurt by it. The two
    // tiers interleave (threaded, switch, threaded, switch) so that
    // drift degrades both tiers' best-of-two equally instead of biasing
    // the tier ratio.
    std::fprintf(stderr,
                 "harness_throughput: %zu points (%s), functional pass "
                 "(NullTiming, threaded)...\n",
                 plan.size(), bench::sizeName(size));
    RunOptions threadedOpts;
    threadedOpts.jobs = 1;
    threadedOpts.dispatchTier = cpu::DispatchTier::Threaded;
    RunOptions functionalOpts;
    functionalOpts.jobs = 1;
    functionalOpts.dispatchTier = cpu::DispatchTier::Switch;
    ExperimentSet threaded = runPlan(functionalPlan, threadedOpts);

    ExperimentSet threaded2, functional, functional2, serial,
        serial2, parallel, parallel2;
    if (funcOnly) {
        functional = runPlan(functionalPlan, functionalOpts);
    } else {
        std::fprintf(stderr,
                     "harness_throughput: functional pass (switch)...\n");
        functional = runPlan(functionalPlan, functionalOpts);
        std::fprintf(stderr,
                     "harness_throughput: functional pass 2 (threaded)"
                     "...\n");
        threaded2 = runPlan(functionalPlan, threadedOpts);
        std::fprintf(stderr,
                     "harness_throughput: functional pass 2 (switch)...\n");
        functional2 = runPlan(functionalPlan, functionalOpts);

        // The serial/parallel pair also interleaves, and the speedup is
        // taken over each mode's best total: on a loaded (or single-CPU)
        // host a single pass per mode measures scheduler luck more than
        // the pool.
        RunOptions serialOpts;
        serialOpts.jobs = 1;
        RunOptions parallelOpts;
        parallelOpts.jobs = jobs;
        std::fprintf(stderr, "harness_throughput: serial pass...\n");
        serial = runPlan(plan, serialOpts);
        std::fprintf(stderr,
                     "harness_throughput: parallel pass (%u jobs)...\n",
                     jobs);
        parallel = runPlan(plan, parallelOpts);
        std::fprintf(stderr, "harness_throughput: serial pass 2...\n");
        serial2 = runPlan(plan, serialOpts);
        std::fprintf(stderr,
                     "harness_throughput: parallel pass 2 (%u jobs)...\n",
                     jobs);
        parallel2 = runPlan(plan, parallelOpts);
    }

    // Replay-engine measurement: the fig11 sweep wall-clocked direct
    // then replayed. The guest compile cache is warm either way (the
    // passes above compiled every (vm, workload, dispatch) already), so
    // the ratio isolates the execute-once, time-many win.
    double fig11Direct = 0.0, fig11Replay = 0.0;
    if (!funcOnly) {
        ExperimentPlan fig11 = bench::fig11Plan(bench::fig11Steps(), size);
        RunOptions fig11Opts;
        fig11Opts.jobs = jobs;
        std::fprintf(stderr,
                     "harness_throughput: fig11 direct pass (%zu points, "
                     "%u jobs)...\n",
                     fig11.size(), jobs);
        fig11Opts.replay = false;
        auto t0 = std::chrono::steady_clock::now();
        runPlan(fig11, fig11Opts);
        auto t1 = std::chrono::steady_clock::now();
        std::fprintf(stderr, "harness_throughput: fig11 replay pass...\n");
        fig11Opts.replay = true;
        runPlan(fig11, fig11Opts);
        auto t2 = std::chrono::steady_clock::now();
        fig11Direct = std::chrono::duration<double>(t1 - t0).count();
        fig11Replay = std::chrono::duration<double>(t2 - t1).count();
    }

    std::fprintf(stderr, "harness_throughput: frontend-overhead "
                         "microbench...\n");
    double frontendOverhead = frontendOverheadRatio();

    double serialSeconds = 0.0, parallelSeconds = 0.0, speedup = 0.0;
    if (!funcOnly) {
        serialSeconds = std::min(serial.totalSeconds, serial2.totalSeconds);
        parallelSeconds =
            std::min(parallel.totalSeconds, parallel2.totalSeconds);
        if (parallelSeconds > 0)
            speedup = serialSeconds / parallelSeconds;
    }
    double timedIps =
        funcOnly ? 0.0 : instructionsPerSecond(serial, parallel);
    double functionalIps = instructionsPerSecond(functional, functional2);
    double threadedIps = instructionsPerSecond(threaded, threaded2);
    double functionalSpeedup = timedIps > 0 ? functionalIps / timedIps : 0.0;
    double threadedSpeedup =
        functionalIps > 0 ? threadedIps / functionalIps : 0.0;

    const char *path = jsonPath.c_str();
    std::FILE *f = std::fopen(path, "w");
    if (!f) {
        std::fprintf(stderr, "cannot write %s\n", path);
        return 1;
    }
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"bench\": \"harness_throughput\",\n");
    std::fprintf(f, "  \"size\": \"%s\",\n", bench::sizeName(size));
    std::fprintf(f, "  \"points\": %zu,\n", plan.size());
    std::fprintf(f, "  \"functional_only\": %s,\n",
                 funcOnly ? "true" : "false");
    std::fprintf(f, "  \"host_cpus\": %u,\n",
                 std::thread::hardware_concurrency());
    std::fprintf(f, "  \"threaded_dispatch\": \"%s\",\n",
                 cpu::threadedTierUsesComputedGoto() ? "computed-goto"
                                                     : "switch-fallback");
    if (!funcOnly) {
        std::fprintf(f, "  \"jobs\": %u,\n", parallel.jobs);
        std::fprintf(f, "  \"serial_seconds\": %.6f,\n", serialSeconds);
        std::fprintf(f, "  \"parallel_seconds\": %.6f,\n", parallelSeconds);
        std::fprintf(f, "  \"speedup\": %.3f,\n", speedup);
        std::fprintf(f, "  \"timed_instructions_per_second\": %.0f,\n",
                     timedIps);
        std::fprintf(f, "  \"fig11_direct_seconds\": %.6f,\n", fig11Direct);
        std::fprintf(f, "  \"fig11_replay_seconds\": %.6f,\n", fig11Replay);
        std::fprintf(f, "  \"fig11_replay_speedup\": %.3f,\n",
                     fig11Replay > 0 ? fig11Direct / fig11Replay : 0.0);
    }
    std::fprintf(f, "  \"functional_seconds\": %.6f,\n",
                 functional.totalSeconds);
    std::fprintf(f, "  \"functional_instructions_per_second\": %.0f,\n",
                 functionalIps);
    std::fprintf(f, "  \"functional_speedup\": %.3f,\n", functionalSpeedup);
    std::fprintf(f, "  \"functional_threaded_ips\": %.0f,\n", threadedIps);
    std::fprintf(f, "  \"functional_threaded_speedup\": %.3f,\n",
                 threadedSpeedup);
    std::fprintf(f, "  \"frontend_overhead\": %.3f,\n", frontendOverhead);
    std::fprintf(f, "  \"experiments\": [\n");
    if (!funcOnly) {
        for (size_t i = 0; i < parallel.points.size(); ++i) {
            std::fprintf(
                f,
                "    {\"label\": \"%s\", \"seconds\": %.6f, "
                "\"serial_seconds\": %.6f, "
                "\"functional_seconds\": %.6f}%s\n",
                parallel.points[i].label().c_str(),
                parallel.runs[i].seconds, serial.runs[i].seconds,
                std::min(functional.runs[i].seconds,
                         functional2.runs[i].seconds),
                i + 1 < parallel.points.size() ? "," : "");
        }
    } else {
        for (size_t i = 0; i < functional.points.size(); ++i) {
            std::fprintf(f,
                         "    {\"label\": \"%s\", "
                         "\"functional_seconds\": %.6f}%s\n",
                         functional.points[i].label().c_str(),
                         functional.runs[i].seconds,
                         i + 1 < functional.points.size() ? "," : "");
        }
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);

    if (funcOnly) {
        std::printf("harness throughput (functional only): %zu points, "
                    "%.2fs, %.0f Minst/s (threaded %.2fx, "
                    "frontend overhead %.3fx) -> %s\n",
                    functionalPlan.size(), functional.totalSeconds,
                    functionalIps / 1e6, threadedSpeedup, frontendOverhead,
                    path);
        return reportTroubledPoints({&threaded, &functional});
    }
    std::printf("harness throughput: %zu points, serial %.2fs, "
                "%u jobs %.2fs, speedup %.2fx, functional %.2fs "
                "(%.1fx inst/s), threaded tier %.2fx, "
                "fig11 replay %.2fx, frontend overhead %.3fx -> %s\n",
                plan.size(), serialSeconds, parallel.jobs,
                parallelSeconds, speedup, functional.totalSeconds,
                functionalSpeedup, threadedSpeedup,
                fig11Replay > 0 ? fig11Direct / fig11Replay : 0.0,
                frontendOverhead, path);
    return reportTroubledPoints({&threaded, &threaded2, &functional,
                                 &functional2, &serial, &serial2, &parallel,
                                 &parallel2});
}
