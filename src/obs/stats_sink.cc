#include "stats_sink.hh"

#include <cstdio>
#include <map>

#include "common/fault_inject.hh"
#include "common/logging.hh"
#include "json.hh"

namespace scd::obs
{

namespace
{

/** The baseline scheme name derived metrics normalize against. */
constexpr const char *kBaselineScheme = "baseline";

struct SchemeDerived
{
    /** workload -> (base cycles / scheme cycles). */
    std::map<std::string, double> speedup;
    /** workload -> (scheme instructions / base instructions). */
    std::map<std::string, double> instRatio;
};

/** vm -> scheme -> per-workload ratios against the vm's baseline points. */
using DerivedMap = std::map<std::string, std::map<std::string, SchemeDerived>>;

DerivedMap
deriveRatios(const SetRecord &set)
{
    // (vm, workload, machine) -> baseline point, to normalize against.
    std::map<std::tuple<std::string, std::string, std::string>,
             const PointRecord *>
        baselines;
    for (const PointRecord &p : set.points) {
        if (p.scheme == kBaselineScheme)
            baselines[{p.vm, p.workload, p.machine}] = &p;
    }
    DerivedMap derived;
    for (const PointRecord &p : set.points) {
        if (p.scheme == kBaselineScheme)
            continue;
        auto it = baselines.find({p.vm, p.workload, p.machine});
        if (it == baselines.end())
            continue;
        const PointRecord &base = *it->second;
        SchemeDerived &d = derived[p.vm][p.scheme];
        if (base.cycles > 0 && p.cycles > 0) {
            d.speedup[p.workload] =
                double(base.cycles) / double(p.cycles);
        }
        if (base.instructions > 0 && p.instructions > 0) {
            d.instRatio[p.workload] =
                double(p.instructions) / double(base.instructions);
        }
    }
    return derived;
}

void
writeRatioMap(JsonWriter &json, const char *name,
              const std::map<std::string, double> &ratios)
{
    json.key(name).beginObject();
    for (const auto &[workload, ratio] : ratios)
        json.member(workload, ratio);
    json.endObject();
}

} // namespace

const char *
buildGitRev()
{
#ifdef SCD_GIT_REV
    return SCD_GIT_REV;
#else
    return "unknown";
#endif
}

StatsSink::StatsSink(std::string bench, std::string size)
    : bench_(std::move(bench)), size_(std::move(size))
{
    meta_["gitRev"] = buildGitRev();
}

void
StatsSink::setMeta(const std::string &key, const std::string &value)
{
    meta_[key] = value;
}

void
StatsSink::addMetric(const std::string &name, double value)
{
    metrics_[name] = value;
}

SetRecord &
StatsSink::addSet(const std::string &label)
{
    sets_.emplace_back();
    sets_.back().label = label;
    return sets_.back();
}

std::string
StatsSink::render() const
{
    JsonWriter json;
    json.beginObject();
    json.member("schema", kStatsSchema);
    json.member("bench", bench_);
    json.member("size", size_);

    json.key("meta").beginObject();
    for (const auto &[key, value] : meta_)
        json.member(key, value);
    json.endObject();

    if (!metrics_.empty()) {
        json.key("metrics").beginObject();
        for (const auto &[name, value] : metrics_)
            json.member(name, value);
        json.endObject();
    }

    json.key("sets").beginArray();
    for (const SetRecord &set : sets_) {
        json.beginObject();
        json.member("label", set.label);
        json.key("points").beginArray();
        for (const PointRecord &p : set.points) {
            json.beginObject();
            json.member("vm", p.vm);
            json.member("workload", p.workload);
            json.member("scheme", p.scheme);
            json.member("machine", p.machine);
            json.member("instructions", p.instructions);
            json.member("cycles", p.cycles);
            json.key("counters").beginObject();
            for (const auto &[name, value] : p.counters.all())
                json.member(name, value);
            json.endObject();
            json.endObject();
        }
        json.endArray();

        if (!set.failures.empty()) {
            json.key("failures").beginArray();
            for (const FailureRecord &f : set.failures) {
                json.beginObject();
                json.member("vm", f.vm);
                json.member("workload", f.workload);
                json.member("scheme", f.scheme);
                json.member("machine", f.machine);
                json.member("status", f.status);
                json.member("error", f.error);
                json.endObject();
            }
            json.endArray();
        }

        DerivedMap derived = deriveRatios(set);
        if (!derived.empty()) {
            json.key("derived").beginObject();
            for (const auto &[vm, schemes] : derived) {
                json.key(vm).beginObject();
                for (const auto &[scheme, d] : schemes) {
                    json.key(scheme).beginObject();
                    if (!d.speedup.empty()) {
                        std::vector<double> values;
                        for (const auto &[w, s] : d.speedup)
                            values.push_back(s);
                        json.member("geomeanSpeedup", geomean(values));
                    }
                    writeRatioMap(json, "speedup", d.speedup);
                    writeRatioMap(json, "instRatio", d.instRatio);
                    json.endObject();
                }
                json.endObject();
            }
            json.endObject();
        }
        json.endObject();
    }
    json.endArray();

    json.endObject();
    return json.str() + "\n";
}

bool
StatsSink::writeTo(const std::string &path) const
{
    std::string text;
    try {
        SCD_FAULT_POINT("json-write");
        text = render();
    } catch (const FatalError &e) {
        std::fprintf(stderr, "stats sink: cannot render %s: %s\n",
                     path.c_str(), e.what());
        return false;
    }
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "stats sink: cannot write %s\n",
                     path.c_str());
        return false;
    }
    bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
    ok = std::fclose(f) == 0 && ok;
    if (!ok)
        std::fprintf(stderr, "stats sink: short write to %s\n",
                     path.c_str());
    return ok;
}

} // namespace scd::obs
