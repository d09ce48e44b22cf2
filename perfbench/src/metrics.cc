#include "metrics.hh"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "obs/json.hh"

namespace perfbench
{

bool
validMetricName(std::string_view name)
{
    if (name.empty())
        return false;
    return std::all_of(name.begin(), name.end(), [](char c) {
        return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
               (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
    });
}

void
MetricSet::add(const std::string &name, double value,
               const std::string &unit)
{
    if (!validMetricName(name))
        throw std::invalid_argument("bad metric name '" + name + "'");
    for (const Metric &m : metrics_) {
        if (m.name == name)
            throw std::invalid_argument("duplicate metric '" + name + "'");
    }
    metrics_.push_back({name, value, unit});
}

double
median(std::vector<double> samples)
{
    return quantile(std::move(samples), 0.5);
}

double
quantile(std::vector<double> samples, double q)
{
    if (samples.empty())
        throw std::invalid_argument("quantile of no samples");
    std::sort(samples.begin(), samples.end());
    double pos = q * double(samples.size() - 1);
    size_t lo = size_t(std::floor(pos));
    size_t hi = std::min(lo + 1, samples.size() - 1);
    double frac = pos - double(lo);
    return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

unsigned
tailPercentile(size_t samples)
{
    for (unsigned p = 95; p >= 50; p -= 5) {
        if (double(samples) * (100 - p) / 100.0 >= 10.0)
            return p;
    }
    return 0;
}

std::string
resultLine(bool correct, uint64_t attempted, uint64_t failed,
           const MetricSet &metrics)
{
    using scd::obs::JsonWriter;
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    bool first = true;
    for (const Metric &m : metrics.all()) {
        if (!first)
            out += ", ";
        first = false;
        out += JsonWriter::quote(m.name) + ": {\"value\": " +
               (std::isfinite(m.value) ? JsonWriter::number(m.value)
                                       : std::string("null")) +
               ", \"unit\": " + JsonWriter::quote(m.unit) + "}";
    }
    out += "}}";
    return out;
}

} // namespace perfbench
