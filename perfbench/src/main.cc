/**
 * @file
 * The repository benchmark (see README.md):
 *
 *   perfbench --workload <grid|sweep|functional> --seed <n> --seconds <s>
 *             --trace <0|1> --root <repo root> --out <output dir>
 *
 * With --trace 0 it measures the end-to-end metrics (wall_s,
 * minst_per_s, setup_s, peak_rss_mb) with tracing off; with --trace 1
 * it runs untraced and traced passes, the isolated layer passes, and
 * reports the per-layer metrics and the tracing overhead. Every pass's
 * export is checked point by point against the workload's expected
 * export. The last line of stdout is the one-line JSON result; the exit
 * code is kExitOk when every check passed and kExitTroubled otherwise.
 *
 * --write-expected <path> [--no-replay] instead runs one pass and
 * writes its scd-stats-v1 export, to (re)generate an expected export.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "check.hh"
#include "cpu/dispatch_tier.hh"
#include "harness/experiment.hh"
#include "harness/runner.hh"
#include "layers.hh"
#include "metrics.hh"
#include "obs/json.hh"
#include "obs/report.hh"
#include "obs/stats_sink.hh"
#include "spans.hh"
#include "workloads.hh"

namespace
{

using namespace scd;
using namespace perfbench;

constexpr unsigned kMinPasses = 3;
constexpr unsigned kTracedMinPasses = 2;
constexpr unsigned kSetupsPerPass = 5;
/** No pass starts once a run has measured for this long (run cap 180 s). */
constexpr double kHardStopSeconds = 120.0;

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Args
{
    std::string workload;
    uint64_t seed = 0;
    double seconds = 10.0;
    int trace = 0;
    std::string root = ".";
    std::string out;
    std::string writeExpected;
    bool noReplay = false;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "<grid|sweep|functional> [--seed N] [--seconds S] "
                 "[--trace 0|1] [--root DIR] [--out DIR] "
                 "[--write-expected PATH [--no-replay]]\n",
                 why.c_str());
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (flag == "--no-replay") {
            args.noReplay = true;
            continue;
        }
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        std::string value = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            args.workload = value;
        } else if (flag == "--seed") {
            args.seed = std::strtoull(value.c_str(), &end, 10);
            if (value.empty() || *end)
                usage("bad --seed " + value);
        } else if (flag == "--seconds") {
            args.seconds = std::strtod(value.c_str(), &end);
            if (value.empty() || *end || !(args.seconds > 0))
                usage("bad --seconds " + value);
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                usage("bad --trace " + value);
            args.trace = value == "1";
        } else if (flag == "--root") {
            args.root = value;
        } else if (flag == "--out") {
            args.out = value;
        } else if (flag == "--write-expected") {
            args.writeExpected = value;
        } else {
            usage("unknown flag " + flag);
        }
    }
    if (args.workload.empty())
        usage("--workload is required");
    return args;
}

std::string
compilerName()
{
#if defined(__clang__)
    return "clang " __clang_version__;
#elif defined(__GNUC__)
    return "gcc " __VERSION__;
#else
    return "unknown";
#endif
}

/** Write the environment every result is recorded with into @p j. */
void
writeEnvironment(obs::JsonWriter &j, const WorkloadSpec &w, const Args &args)
{
    j.beginObject();
    j.member("nproc", std::thread::hardware_concurrency());
    j.member("compiler", compilerName());
    j.member("build_type", PERFBENCH_BUILD_TYPE);
    j.member("threaded_dispatch", cpu::threadedTierUsesComputedGoto()
                                      ? "computed-goto"
                                      : "portable-switch");
    j.member("jit_available", cpu::jitTierAvailable());
    j.member("dispatch_tier",
             cpu::dispatchTierName(cpu::defaultDispatchTier()));
    j.member("git_rev", obs::buildGitRev());
    j.member("workload", w.name);
    j.member("input_size", harness::inputSizeName(w.size));
    j.member("jobs", w.jobs);
    j.member("points", uint64_t(w.plan.size()));
    j.member("seed", args.seed);
    j.member("trace", args.trace);
    j.endObject();
}

double
peakRssMb()
{
    struct rusage usage = {};
    getrusage(RUSAGE_SELF, &usage);
    return double(usage.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

/** Everything one pass of the plan produced. */
struct Pass
{
    double wall = 0.0;     ///< runPlan through figures and export
    double exportSeconds = 0.0;
    /**
     * compileGuest calls made inside runPlan. Every functional execution
     * (a direct point, or the producer of a replay group) loads its
     * guest through compileGuest exactly once, so this counts them.
     */
    uint64_t guestLoads = 0;
    harness::ExperimentSet set; ///< in paper order
    std::string doc; ///< the scd-stats-v1 export
};

class Runner
{
  public:
    Runner(const WorkloadSpec &workload, const Args &args)
        : workload_(workload), order_(planOrder(workload.plan.size(),
                                                args.seed)),
          plan_(permutePlan(workload.plan, order_)),
          guests_(planGuests(workload.plan))
    {
        options_.jobs = workload.jobs;
        options_.replay = !args.noReplay;
    }

    /** Cold set-up: empty the compile cache, compile every guest. */
    double
    setup(SpanRecorder *spans)
    {
        ScopedSpan root(spans, "harness.setup");
        harness::resetGuestCache();
        auto start = Clock::now();
        for (const GuestKey &g : guests_) {
            ScopedSpan span(spans, "harness.compile", root.index());
            harness::compileGuest(g.vm, g.source,
                                  harness::dispatchForScheme(g.scheme));
        }
        return secondsSince(start);
    }

    Pass
    pass(SpanRecorder *spans)
    {
        Pass p;
        ScopedSpan root(spans, "bench.pass");
        auto start = Clock::now();
        harness::ExperimentSet set;
        {
            ScopedSpan span(spans, "harness.run_plan", root.index());
            harness::RunOptions options = options_;
            std::mutex mutex;
            std::vector<PointReport> reports;
            if (spans) {
                options.onPoint = [&](size_t,
                                      const harness::ExperimentRun &run) {
                    PointReport r{std::hash<std::thread::id>{}(
                                      std::this_thread::get_id()),
                                  spans->now(), run.seconds};
                    std::lock_guard<std::mutex> lock(mutex);
                    reports.push_back(r);
                };
            }
            const harness::GuestCacheStats before =
                harness::guestCacheStats();
            set = harness::runPlan(plan_, options);
            const harness::GuestCacheStats after = harness::guestCacheStats();
            p.guestLoads = (after.hits + after.compiles) -
                           (before.hits + before.compiles);
            if (spans)
                addPointSpans(*spans, "harness.point", span.index(),
                              std::move(reports));
        }
        p.set = restorePaperOrder(std::move(set), order_);
        {
            ScopedSpan span(spans, "harness.figures", root.index());
            renderFigures(workload_, p.set);
        }
        auto exportStart = Clock::now();
        {
            ScopedSpan span(spans, "obs.export", root.index());
            obs::StatsSink sink(workload_.bench,
                                harness::inputSizeName(workload_.size));
            exportSet(workload_, p.set, sink);
            p.doc = sink.render();
        }
        p.exportSeconds = secondsSince(exportStart);
        p.wall = secondsSince(start);
        return p;
    }

  private:
    const WorkloadSpec &workload_;
    std::vector<size_t> order_;
    harness::ExperimentPlan plan_;
    std::vector<GuestKey> guests_;
    harness::RunOptions options_;
};

/** Per-point check of one pass against the expected export. */
struct CheckTally
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<std::string> firstFailures;

    void
    add(const obs::JsonValue &expected, const Pass &pass)
    {
        std::string error;
        obs::JsonValue current = obs::JsonValue::parse(pass.doc, &error);
        attempted += pass.set.points.size();
        if (!error.empty()) {
            failed += pass.set.points.size();
            firstFailures.push_back("export does not parse: " + error);
            return;
        }
        PointCheck check = comparePoints(expected, current);
        failed += std::min(check.failures.size(), pass.set.points.size());
        for (const std::string &f : check.failures) {
            if (firstFailures.size() < 10)
                firstFailures.push_back(f);
        }
    }
};

uint64_t
planInstructions(const harness::ExperimentSet &set)
{
    uint64_t total = 0;
    for (const harness::ExperimentRun &run : set.runs)
        total += run.result.run.instructions;
    return total;
}

void
writeFile(const std::filesystem::path &path, const std::string &text)
{
    std::filesystem::create_directories(path.parent_path());
    std::ofstream out(path, std::ios::binary);
    out << text;
    if (!out)
        throw std::runtime_error("cannot write " + path.string());
}

int
writeExpected(const WorkloadSpec &workload, const Args &args)
{
    Runner runner(workload, args);
    runner.setup(nullptr);
    Pass p = runner.pass(nullptr);
    if (p.set.troubled() != 0) {
        std::fprintf(stderr, "perfbench: %zu points not ok; not writing\n",
                     p.set.troubled());
        return 1;
    }
    writeFile(args.writeExpected, p.doc);
    std::fprintf(stderr, "perfbench: wrote %s (%zu points)\n",
                 args.writeExpected.c_str(), p.set.points.size());
    return 0;
}

/** Runs passes until @p seconds have elapsed and at least @p min ran. */
template <typename F>
std::vector<Pass>
passesFor(double seconds, unsigned min, F runPass)
{
    std::vector<Pass> passes;
    auto start = Clock::now();
    double last = 0.0;
    while ((secondsSince(start) < seconds || passes.size() < min) &&
           secondsSince(start) + last < kHardStopSeconds) {
        passes.push_back(runPass());
        last = passes.back().wall;
    }
    return passes;
}

std::vector<double>
walls(const std::vector<Pass> &passes)
{
    std::vector<double> out;
    for (const Pass &p : passes)
        out.push_back(p.wall);
    return out;
}

void
printMetrics(const MetricSet &metrics)
{
    for (const Metric &m : metrics.all()) {
        std::printf("  %-40s %14.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    }
}

/** The end-to-end run (--trace 0). */
void
endToEnd(Runner &runner, const WorkloadSpec &workload, const Args &args,
         const obs::JsonValue &expected, MetricSet &metrics,
         CheckTally &checks, obs::JsonWriter &record)
{
    // Set-ups are spread over the run like the passes, so that both
    // sample the same host conditions; each leaves the cache warm.
    std::vector<double> setups;
    std::vector<Pass> passes = passesFor(args.seconds, kMinPasses, [&] {
        for (unsigned i = 0; i < kSetupsPerPass; ++i)
            setups.push_back(runner.setup(nullptr));
        return runner.pass(nullptr);
    });
    for (const Pass &p : passes)
        checks.add(expected, p);

    std::vector<double> w = walls(passes);
    double wall = median(w);
    uint64_t instructions = planInstructions(passes.front().set);
    metrics.add("wall_s", wall, "s");
    metrics.add("minst_per_s", double(instructions) / wall / 1e6, "Minst/s");
    metrics.add("setup_s", median(setups), "s");
    metrics.add("peak_rss_mb", peakRssMb(), "MB");

    unsigned tail = tailPercentile(w.size());
    std::printf("wall_s: median %.6f s over %zu passes", wall, w.size());
    if (tail)
        std::printf(", p%u %.6f s", tail, quantile(w, tail / 100.0));
    else
        std::printf(" (too few passes for a tail percentile)");
    std::printf("; %llu guest instructions per pass\n",
                (unsigned long long)instructions);
    std::string accuracy = accuracyReport(workload, passes.front().set);
    if (!accuracy.empty())
        std::printf("%s", accuracy.c_str());

    record.key("wall_s_samples").beginArray();
    for (double v : w)
        record.value(v);
    record.endArray();
    record.key("setup_s_samples").beginArray();
    for (double v : setups)
        record.value(v);
    record.endArray();
    record.member("wall_s_tail_percentile", tail);
    if (tail)
        record.member("wall_s_tail", quantile(w, tail / 100.0));
}

/** The traced run (--trace 1): per-layer metrics and tracing overhead. */
std::vector<std::string>
traced(Runner &runner, const WorkloadSpec &workload, const Args &args,
       const obs::JsonValue &expected, MetricSet &metrics,
       CheckTally &checks, const std::filesystem::path &spanPath)
{
    SpanRecorder recorder;
    metrics.add("harness.compile_ms", runner.setup(&recorder) * 1e3, "ms");
    metrics.add("harness.compiles",
                double(harness::guestCacheStats().compiles), "count");

    // Untraced then traced passes, equally many, for the overhead ratio.
    std::vector<Pass> plain = passesFor(args.seconds / 2, kTracedMinPasses,
                                        [&] { return runner.pass(nullptr); });
    std::vector<Pass> tracedPasses;
    for (size_t i = 0; i < plain.size(); ++i)
        tracedPasses.push_back(runner.pass(&recorder));
    for (const std::vector<Pass> *group : {&plain, &tracedPasses}) {
        for (const Pass &p : *group)
            checks.add(expected, p);
    }

    std::vector<double> pointMs, exportMs, functionalRuns;
    double pointSeconds = 0.0, simSeconds = 0.0, poolCapacity = 0.0;
    size_t degraded = 0;
    for (const Pass &p : tracedPasses) {
        size_t passDegraded = 0;
        for (const harness::ExperimentRun &run : p.set.runs) {
            passDegraded += run.status == harness::PointStatus::Degraded;
            // A replay member whose timing model duplicates another's
            // gets a copy of its result and no wall time of its own.
            if (run.seconds == 0.0)
                continue;
            pointMs.push_back(run.seconds * 1e3);
            pointSeconds += run.seconds;
            simSeconds += run.result.simSeconds;
        }
        degraded = std::max(degraded, passDegraded);
        poolCapacity += double(p.set.jobs) * p.set.totalSeconds;
        exportMs.push_back(p.exportSeconds * 1e3);
        functionalRuns.push_back(double(p.guestLoads));
    }
    const double functionalRunCount = median(functionalRuns);

    metrics.add("harness.point_ms.p50", quantile(pointMs, 0.5), "ms");
    metrics.add("harness.point_ms.p90", quantile(pointMs, 0.9), "ms");
    metrics.add("harness.sim_share", simSeconds / pointSeconds, "ratio");
    metrics.add("harness.pool_busy", pointSeconds / poolCapacity, "ratio");
    metrics.add("harness.functional_runs", functionalRunCount, "count");
    metrics.add("harness.points_per_functional_run",
                double(workload.plan.size()) / functionalRunCount, "ratio");
    metrics.add("harness.points_degraded", double(degraded), "count");

    std::vector<std::string> errors;
    {
        ScopedSpan layers(&recorder, "bench.layers");
        MetricSet layerMetrics;
        errors = runLayerPasses(layerSample(workload.plan), layerMetrics,
                                &recorder, layers.index());
        for (const Metric &m : layerMetrics.all())
            metrics.add(m.name, m.value, m.unit);
    }
    metrics.add("obs.export_ms", median(exportMs), "ms");
    metrics.add("trace.overhead",
                median(walls(tracedPasses)) / median(walls(plain)), "ratio");

    std::vector<Span> spans = recorder.spans();
    for (const std::string &e : validateSpans(spans))
        errors.push_back(e);
    std::map<std::string, double> self = selfTimeByName(spans);
    const double n = double(tracedPasses.size());
    metrics.add("self_ms.harness.compile", self["harness.compile"] * 1e3,
                "ms");
    for (const char *name : {"bench.pass", "harness.run_plan",
                             "harness.point", "harness.figures",
                             "obs.export"}) {
        metrics.add(std::string("self_ms.") + name, self[name] * 1e3 / n,
                    "ms");
    }
    writeFile(spanPath, spansJson(spans));
    std::printf("traced %zu passes (and %zu untraced); spans in %s\n",
                tracedPasses.size(), plain.size(), spanPath.c_str());
    return errors;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args = parseArgs(argc, argv);
    WorkloadSpec workload;
    try {
        workload = makeWorkload(args.workload);
    } catch (const std::invalid_argument &e) {
        usage(e.what());
    }
    if (!args.writeExpected.empty())
        return writeExpected(workload, args);

    std::filesystem::path expectedPath =
        std::filesystem::path(args.root) / workload.expectedPath;
    obs::JsonValue expected;
    std::string error;
    if (!obs::loadStatsFile(expectedPath.string(), expected, &error)) {
        std::fprintf(stderr, "perfbench: expected export: %s\n",
                     error.c_str());
        return 2;
    }
    std::filesystem::path out = args.out.empty() ? "." : args.out;
    std::string stem = workload.name + "-seed" + std::to_string(args.seed) +
                       "-trace" + std::to_string(args.trace);

    obs::JsonWriter env(0);
    writeEnvironment(env, workload, args);
    std::string envLine = env.str();
    for (char &c : envLine) {
        if (c == '\n')
            c = ' ';
    }
    std::printf("env %s\n", envLine.c_str());
    std::fflush(stdout);

    Runner runner(workload, args);
    MetricSet metrics;
    CheckTally checks;
    std::vector<std::string> errors;
    obs::JsonWriter record;
    record.beginObject();
    record.key("env");
    writeEnvironment(record, workload, args);
    if (args.trace) {
        errors = traced(runner, workload, args, expected, metrics, checks,
                        out / "traces" / (stem + ".json"));
    } else {
        endToEnd(runner, workload, args, expected, metrics, checks, record);
    }
    for (const std::string &f : checks.firstFailures)
        std::fprintf(stderr, "perfbench: point check: %s\n", f.c_str());
    for (const std::string &e : errors)
        std::fprintf(stderr, "perfbench: %s\n", e.c_str());

    bool correct = checks.failed == 0 && errors.empty();
    std::printf("points: %llu attempted, %llu failed; %s\n",
                (unsigned long long)checks.attempted,
                (unsigned long long)checks.failed,
                correct ? "all checks passed" : "CHECKS FAILED");
    printMetrics(metrics);

    record.member("correct", correct);
    record.member("attempted", checks.attempted);
    record.member("failed", checks.failed);
    record.key("metrics").beginObject();
    for (const Metric &m : metrics.all()) {
        record.key(m.name).beginObject();
        record.member("value", m.value);
        record.member("unit", m.unit);
        record.endObject();
    }
    record.endObject();
    record.endObject();
    writeFile(out / "results" / (stem + ".json"), record.str() + "\n");

    std::printf("%s\n",
                resultLine(correct, checks.attempted, checks.failed, metrics)
                    .c_str());
    return correct ? harness::kExitOk : harness::kExitTroubled;
}
