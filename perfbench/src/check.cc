#include "check.hh"

#include <map>

namespace perfbench
{

using scd::obs::JsonValue;

namespace
{

std::string
pointKey(const std::string &label, const JsonValue &p)
{
    return label + "|" + p.stringOr("vm", "?") + "/" +
           p.stringOr("workload", "?") + "/" + p.stringOr("scheme", "?") +
           "@" + p.stringOr("machine", "?");
}

/** Points of a document by key; duplicate keys are recorded apart. */
struct PointIndex
{
    std::map<std::string, const JsonValue *> points;
    std::map<std::string, std::string> problems; ///< key -> reason
};

PointIndex
indexPoints(const JsonValue &doc, const char *which)
{
    PointIndex index;
    for (const JsonValue &set : doc.at("sets").elements()) {
        std::string label = set.stringOr("label", "");
        for (const JsonValue &p : set.at("points").elements()) {
            std::string key = pointKey(label, p);
            if (!index.points.emplace(key, &p).second)
                index.problems[key] = std::string("duplicated in ") + which;
        }
        for (const JsonValue &f : set.at("failures").elements()) {
            index.problems[pointKey(label, f)] =
                "status " + f.stringOr("status", "?") + ": " +
                f.stringOr("error", "");
        }
    }
    return index;
}

bool
sameUint(const JsonValue &a, const JsonValue &b)
{
    return a.isNumber() && b.isNumber() && a.asUint() == b.asUint() &&
           a.asDouble() == b.asDouble();
}

/** Empty when equal, else the first difference found. */
std::string
diffPoint(const JsonValue &want, const JsonValue &got)
{
    for (const char *field : {"instructions", "cycles"}) {
        if (!sameUint(want.at(field), got.at(field)))
            return std::string(field) + " differs";
    }
    const JsonValue &wc = want.at("counters");
    const JsonValue &gc = got.at("counters");
    if (wc.size() != gc.size())
        return "counter set differs";
    for (const auto &[name, value] : wc.members()) {
        if (!gc.has(name))
            return "counter " + name + " missing";
        if (!sameUint(value, gc.at(name)))
            return "counter " + name + " differs";
    }
    return "";
}

} // namespace

PointCheck
comparePoints(const JsonValue &expected, const JsonValue &current)
{
    PointIndex want = indexPoints(expected, "expected");
    PointIndex got = indexPoints(current, "current");

    std::map<std::string, std::string> failed = got.problems;
    for (const auto &[key, reason] : want.problems)
        failed.emplace(key, reason);
    for (const auto &[key, point] : want.points) {
        auto it = got.points.find(key);
        if (it == got.points.end()) {
            failed.emplace(key, "missing");
            continue;
        }
        std::string diff = diffPoint(*point, *it->second);
        if (!diff.empty())
            failed.emplace(key, diff);
    }
    for (const auto &[key, point] : got.points) {
        if (!want.points.count(key))
            failed.emplace(key, "unexpected");
    }

    PointCheck check;
    check.expectedPoints = want.points.size();
    for (const auto &[key, reason] : failed)
        check.failures.push_back(key + ": " + reason);
    return check;
}

} // namespace perfbench
