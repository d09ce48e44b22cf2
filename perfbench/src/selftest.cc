/**
 * @file
 * The benchmark's own tests: metric names, span nesting and self times,
 * the per-point correctness gate, and seed determinism.
 *
 *   perfbench_selftest <repo root>
 */

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "check.hh"
#include "metrics.hh"
#include "obs/json.hh"
#include "spans.hh"
#include "workloads.hh"

namespace
{

using namespace perfbench;
using scd::obs::JsonValue;

int gFailures = 0;

#define CHECK(cond)                                                          \
    do {                                                                     \
        if (!(cond)) {                                                       \
            std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,      \
                         __LINE__, #cond);                                   \
            ++gFailures;                                                     \
        }                                                                    \
    } while (0)

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw std::runtime_error("cannot open " + path);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

JsonValue
parse(const std::string &text)
{
    std::string error;
    JsonValue v = JsonValue::parse(text, &error);
    if (!error.empty())
        throw std::runtime_error("parse: " + error);
    return v;
}

void
metricNames(const std::string &root)
{
    CHECK(validMetricName("harness.point_ms.p50"));
    CHECK(validMetricName("cpu.functional.jit.minst_per_s"));
    CHECK(!validMetricName(""));
    CHECK(!validMetricName("wall s"));
    CHECK(!validMetricName("ns/op"));

    MetricSet set;
    set.add("wall_s", 1.0, "s");
    bool threw = false;
    try {
        set.add("wall_s", 2.0, "s");
    } catch (const std::invalid_argument &) {
        threw = true;
    }
    CHECK(threw);
    threw = false;
    try {
        set.add("bad name", 2.0, "s");
    } catch (const std::invalid_argument &) {
        threw = true;
    }
    CHECK(threw);

    // Every metric BENCHMARK.json declares obeys the rule.
    JsonValue bench = parse(readFile(root + "/BENCHMARK.json"));
    size_t declared = 0;
    for (const char *group : {"end_to_end", "per_layer"}) {
        for (const JsonValue &m : bench.at(group).elements()) {
            CHECK(validMetricName(m.stringOr("name", "")));
            ++declared;
        }
    }
    CHECK(declared > 0);

    std::string line = resultLine(true, 3, 0, set);
    JsonValue result = parse(line);
    CHECK(line.find('\n') == std::string::npos);
    CHECK(result.at("attempted").asUint() == 3);
    CHECK(result.at("metrics").at("wall_s").at("unit").asString() == "s");
}

void
spanNesting()
{
    // Two overlapping points inside a plan run, as at jobs=2.
    std::vector<Span> spans = {
        {"bench.pass", 0.0, 10.0, -1},
        {"harness.run_plan", 1.0, 8.0, 0},
        {"harness.point", 2.0, 6.0, 1},
        {"harness.point", 4.0, 7.0, 1},
        {"obs.export", 8.0, 9.5, 0},
    };
    CHECK(validateSpans(spans).empty());
    std::vector<double> self = selfTimes(spans);
    for (double s : self)
        CHECK(s >= 0.0);
    CHECK(self[0] == 10.0 - 7.0 - 1.5);
    CHECK(self[1] == 7.0 - 5.0); // the union of the points, not their sum
    CHECK(self[2] == 4.0);
    std::map<std::string, double> byName = selfTimeByName(spans);
    CHECK(byName["harness.point"] == 7.0);

    std::vector<Span> escaped = spans;
    escaped[3].end = 8.5; // a point outliving its plan run
    CHECK(validateSpans(escaped).size() == 1);
    std::vector<Span> inverted = spans;
    inverted[4].end = 7.5;
    CHECK(!validateSpans(inverted).empty());

    SpanRecorder recorder;
    {
        ScopedSpan outer(&recorder, "outer");
        ScopedSpan inner(&recorder, "inner", outer.index());
    }
    std::vector<Span> recorded = recorder.spans();
    CHECK(recorded.size() == 2);
    CHECK(validateSpans(recorded).empty());

    // A task's points reported together at its end are laid end to end,
    // also when a report is delayed; another worker's task, and a later
    // task, stand alone.
    SpanRecorder points;
    int plan = points.add("harness.run_plan", 0.0, 20.0, -1);
    addPointSpans(points, "harness.point", plan,
                  {{1, 10.0, 1.0}, {2, 9.0, 4.0}, {1, 10.00001, 2.0},
                   {1, 10.002, 3.0}, {1, 15.0, 2.0}});
    std::vector<Span> laid = points.spans();
    CHECK(laid.size() == 6);
    CHECK(validateSpans(laid).empty());
    std::vector<double> laidSelf = selfTimes(laid);
    CHECK(laidSelf[0] == 20.0 - 6.0 - 2.0); // [4,10] and [13,15] covered
    auto has = [&](double start, double end) {
        for (const Span &s : laid) {
            if (s.name == "harness.point" && s.start == start &&
                s.end == end)
                return true;
        }
        return false;
    };
    CHECK(has(4.0, 5.0) && has(5.0, 7.0) && has(7.0, 10.0));
    CHECK(has(5.0, 9.0) && has(13.0, 15.0));
}

/** Replace the value of the @p nth occurrence of "<counter>": N. */
std::string
perturb(std::string doc, const std::string &counter, size_t nth)
{
    std::string needle = "\"" + counter + "\": ";
    size_t at = std::string::npos;
    for (size_t i = 0, from = 0; i <= nth; ++i, from = at + 1) {
        at = doc.find(needle, from);
        if (at == std::string::npos)
            throw std::runtime_error("counter occurrence not found");
    }
    size_t value = at + needle.size();
    size_t end = doc.find_first_not_of("0123456789", value);
    uint64_t v = std::stoull(doc.substr(value, end - value));
    return doc.replace(value, end - value, std::to_string(v + 1));
}

void
perturbedExport(const std::string &root)
{
    std::string golden = readFile(root + "/tests/golden/fig07_10_test.json");
    JsonValue expected = parse(golden);
    PointCheck same = comparePoints(expected, expected);
    CHECK(same.expectedPoints == 88);
    CHECK(same.failures.empty());

    // The 30th point's I-cache misses: exactly that point fails.
    JsonValue changed = parse(perturb(golden, "icache.misses", 29));
    PointCheck one = comparePoints(expected, changed);
    CHECK(one.failures.size() == 1);
    const JsonValue &point = expected.at("sets").at(0).at("points").at(29);
    std::string key = "overall|" + point.stringOr("vm", "") + "/" +
                      point.stringOr("workload", "") + "/" +
                      point.stringOr("scheme", "") + "@" +
                      point.stringOr("machine", "") + ": ";
    CHECK(one.failures.size() == 1 && one.failures[0].rfind(key, 0) == 0);

    // A cycle count is checked as well, and the check is symmetric.
    JsonValue cycles = parse(perturb(golden, "cycles", 7));
    CHECK(comparePoints(expected, cycles).failures.size() == 1);
    CHECK(comparePoints(cycles, expected).failures.size() == 1);
}

void
seedDeterminism()
{
    std::vector<size_t> a = planOrder(352, 7);
    CHECK(a == planOrder(352, 7));
    CHECK(a != planOrder(352, 8));
    CHECK(std::set<size_t>(a.begin(), a.end()).size() == 352);
    std::vector<size_t> paper = planOrder(88, 0);
    for (size_t i = 0; i < paper.size(); ++i)
        CHECK(paper[i] == i);

    WorkloadSpec grid = makeWorkload("grid");
    auto labels = [&](uint64_t seed) {
        std::vector<std::string> out;
        scd::harness::ExperimentPlan plan =
            permutePlan(grid.plan, planOrder(grid.plan.size(), seed));
        for (const auto &p : plan.points())
            out.push_back(p.label());
        return out;
    };
    CHECK(labels(3) == labels(3));
    CHECK(labels(3) != labels(0));
}

} // namespace

int
main(int argc, char **argv)
{
    std::string root = argc > 1 ? argv[1] : "..";
    try {
        metricNames(root);
        spanNesting();
        perturbedExport(root);
        seedDeterminism();
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench_selftest: %s\n", e.what());
        return 1;
    }
    if (gFailures) {
        std::fprintf(stderr, "perfbench_selftest: %d checks failed\n",
                     gFailures);
        return 1;
    }
    std::printf("perfbench_selftest: all checks passed\n");
    return 0;
}
