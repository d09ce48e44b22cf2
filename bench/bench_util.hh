/**
 * @file
 * Small shared helpers for the figure/table bench binaries: input-size
 * flag parsing and progress reporting.
 */

#ifndef SCD_BENCH_BENCH_UTIL_HH
#define SCD_BENCH_BENCH_UTIL_HH

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include <utility>

#include "cpu/dispatch_tier.hh"
#include "harness/experiment.hh"
#include "harness/machines.hh"
#include "harness/workloads.hh"

namespace scd::bench
{

/**
 * Parse --size=test|sim|fpga (default @p fallback). The quick "test"
 * size exists so `ctest`-adjacent smoke runs stay cheap.
 */
inline harness::InputSize
parseSize(int argc, char **argv, harness::InputSize fallback)
{
    for (int n = 1; n < argc; ++n) {
        if (std::strncmp(argv[n], "--size=", 7) == 0) {
            harness::InputSize size;
            if (harness::parseInputSize(argv[n] + 7, size))
                return size;
            std::fprintf(stderr, "unknown --size value '%s'\n",
                         argv[n] + 7);
        }
    }
    return fallback;
}

/**
 * Parse --jobs=N. Returns 0 ("auto") when absent: runPlan() then honours
 * $SCD_JOBS and finally the hardware concurrency. --jobs=1 forces the
 * serial path.
 */
inline unsigned
parseJobs(int argc, char **argv)
{
    for (int n = 1; n < argc; ++n) {
        if (std::strncmp(argv[n], "--jobs=", 7) == 0) {
            long v = std::strtol(argv[n] + 7, nullptr, 10);
            if (v > 0)
                return static_cast<unsigned>(v);
            std::fprintf(stderr, "ignoring bad --jobs value '%s'\n",
                         argv[n] + 7);
        }
    }
    return 0;
}

/**
 * Parse --width=N (issue width for WideInOrderTiming studies). Returns
 * @p fallback when absent or malformed.
 */
inline unsigned
parseWidth(int argc, char **argv, unsigned fallback)
{
    for (int n = 1; n < argc; ++n) {
        if (std::strncmp(argv[n], "--width=", 8) == 0) {
            long v = std::strtol(argv[n] + 8, nullptr, 10);
            if (v > 0)
                return static_cast<unsigned>(v);
            std::fprintf(stderr, "ignoring bad --width value '%s'\n",
                         argv[n] + 8);
        }
    }
    return fallback;
}

/**
 * Parse --frontend=<spec>: the frontend organization every timed machine
 * in the driver fetches through (branch::frontendFromSpec — "ideal",
 * "mlbtb", "mlbtb+tag6+fdip", ...). Returns the spec, or an empty string
 * when the flag is absent (keep the machine's own default).
 */
inline std::string
parseFrontend(int argc, char **argv)
{
    for (int n = 1; n < argc; ++n) {
        if (std::strncmp(argv[n], "--frontend=", 11) == 0) {
            if (argv[n][11] != '\0')
                return argv[n] + 11;
            std::fprintf(stderr, "ignoring empty --frontend value\n");
        }
    }
    return "";
}

/**
 * Apply a spec from parseFrontend() to an already-built machine
 * configuration (harness::withFrontend); an empty spec leaves it
 * untouched. Drivers that configure many machines parse once and call
 * this per machine, so a bad flag warns once.
 */
inline cpu::CoreConfig
applyFrontend(const std::string &spec, cpu::CoreConfig config)
{
    if (!spec.empty())
        config = harness::withFrontend(std::move(config), spec);
    return config;
}

/** applyFrontend() with the spec parsed from --frontend=. */
inline cpu::CoreConfig
applyFrontendFlag(int argc, char **argv, cpu::CoreConfig config)
{
    return applyFrontend(parseFrontend(argc, argv), std::move(config));
}

/**
 * Parse --json=<path>: the machine-readable stats export every bench
 * binary supports (docs/SIMULATOR.md "Observability"). Returns an empty
 * string when absent — callers skip the export entirely then.
 */
inline std::string
parseJsonPath(int argc, char **argv)
{
    for (int n = 1; n < argc; ++n) {
        if (std::strncmp(argv[n], "--json=", 7) == 0) {
            if (argv[n][7] != '\0')
                return argv[n] + 7;
            std::fprintf(stderr, "ignoring empty --json value\n");
        }
    }
    return "";
}

/**
 * Parse --no-replay: disable the execute-once, time-many plan executor
 * and run every experiment point directly (docs/SIMULATOR.md). The
 * cross-check escape hatch; results are bit-identical either way.
 */
inline bool
parseNoReplay(int argc, char **argv)
{
    for (int n = 1; n < argc; ++n) {
        if (std::strcmp(argv[n], "--no-replay") == 0)
            return true;
    }
    return false;
}

/**
 * Parse --point-timeout=SECONDS: the per-point wall-clock deadline
 * (RunOptions::pointTimeout). Returns 0 when absent — runPlan() then
 * honours $SCD_POINT_TIMEOUT, else runs unlimited.
 */
inline double
parsePointTimeout(int argc, char **argv)
{
    for (int n = 1; n < argc; ++n) {
        if (std::strncmp(argv[n], "--point-timeout=", 16) == 0) {
            char *end = nullptr;
            double v = std::strtod(argv[n] + 16, &end);
            if (end && *end == '\0' && v > 0)
                return v;
            std::fprintf(stderr,
                         "ignoring bad --point-timeout value '%s'\n",
                         argv[n] + 16);
        }
    }
    return 0.0;
}

/**
 * Parse --dispatch-tier=switch|threaded into RunOptions::dispatchTier:
 * the functional execution engine (cpu/dispatch_tier.hh). Absent flag
 * keeps the RunOptions default ($SCD_DISPATCH_TIER, else threaded).
 * Host-speed only; results are bit-identical across tiers.
 */
inline void
parseDispatchTier(int argc, char **argv, harness::RunOptions &options)
{
    for (int n = 1; n < argc; ++n) {
        if (std::strncmp(argv[n], "--dispatch-tier=", 16) == 0) {
            if (auto tier = cpu::parseDispatchTier(argv[n] + 16)) {
                options.dispatchTier = *tier;
            } else {
                std::fprintf(stderr,
                             "ignoring bad --dispatch-tier value '%s'\n",
                             argv[n] + 16);
            }
        }
    }
}

/**
 * Parse --journal=<path> / --resume=<path> into RunOptions journal
 * fields. --journal starts a fresh crash-safe journal at <path>;
 * --resume reads <path> back first, skips every point already recorded
 * there, and keeps appending to the same file. The last of the two
 * flags on the command line wins.
 */
inline void
parseJournal(int argc, char **argv, harness::RunOptions &options)
{
    for (int n = 1; n < argc; ++n) {
        if (std::strncmp(argv[n], "--journal=", 10) == 0) {
            if (argv[n][10] != '\0') {
                options.journalPath = argv[n] + 10;
                options.resume = false;
            } else {
                std::fprintf(stderr, "ignoring empty --journal value\n");
            }
        } else if (std::strncmp(argv[n], "--resume=", 9) == 0) {
            if (argv[n][9] != '\0') {
                options.journalPath = argv[n] + 9;
                options.resume = true;
            } else {
                std::fprintf(stderr, "ignoring empty --resume value\n");
            }
        }
    }
}

/**
 * Assemble the RunOptions every figure driver shares: --jobs,
 * --no-replay, --point-timeout, --dispatch-tier and --journal/--resume.
 */
inline harness::RunOptions
parseRunOptions(int argc, char **argv)
{
    harness::RunOptions options;
    options.jobs = parseJobs(argc, argv);
    options.replay = !parseNoReplay(argc, argv);
    options.pointTimeout = parsePointTimeout(argc, argv);
    parseDispatchTier(argc, argv, options);
    parseJournal(argc, argv, options);
    return options;
}

inline const char *
sizeName(harness::InputSize size)
{
    return harness::inputSizeName(size);
}

} // namespace scd::bench

#endif // SCD_BENCH_BENCH_UTIL_HH
