/**
 * @file
 * Metric bookkeeping for the benchmark: an ordered name -> (value, unit)
 * list, the name rule every metric obeys, the sample statistics the
 * end-to-end timings are reported with, and the one-line JSON result
 * the benchmark prints last.
 */

#ifndef PERFBENCH_METRICS_HH
#define PERFBENCH_METRICS_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench
{

/** One named measurement. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** Metric names are made of [A-Za-z0-9_.-] and are never empty. */
bool validMetricName(std::string_view name);

/** Metrics in insertion order; names must be valid and unique. */
class MetricSet
{
  public:
    /** Append a metric; throws std::invalid_argument on a bad or
     *  duplicate name. */
    void add(const std::string &name, double value, const std::string &unit);

    const std::vector<Metric> &all() const { return metrics_; }

  private:
    std::vector<Metric> metrics_;
};

/** Median of @p samples (which must be non-empty). */
double median(std::vector<double> samples);

/**
 * Linearly interpolated quantile @p q in [0,1] of @p samples, the
 * inclusive method of Python's statistics.quantiles.
 */
double quantile(std::vector<double> samples, double q);

/**
 * The highest percentile (a multiple of 5) that still has at least ten
 * samples above it, or 0 when there are too few samples for any.
 */
unsigned tailPercentile(size_t samples);

/**
 * The result line: {"correct": ..., "attempted": ..., "failed": ...,
 * "metrics": {"<name>": {"value": v, "unit": "u"}, ...}} on one line.
 */
std::string resultLine(bool correct, uint64_t attempted, uint64_t failed,
                       const MetricSet &metrics);

} // namespace perfbench

#endif // PERFBENCH_METRICS_HH
