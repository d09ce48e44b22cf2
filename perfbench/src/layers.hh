/**
 * @file
 * Isolated layer passes of the traced run. Each pass times calls into
 * one layer's public functions, from outside, on a fixed sample of the
 * workload's own points (paper order, so every seed measures the same
 * programs): the functional tiers, the replay recorder, the reference
 * step loop, Core::run, InOrderTiming::consume over a pre-recorded
 * stream, and the BTB, direction predictor and caches over records
 * taken from that stream.
 */

#ifndef PERFBENCH_LAYERS_HH
#define PERFBENCH_LAYERS_HH

#include <string>
#include <vector>

#include "harness/experiment.hh"
#include "metrics.hh"
#include "spans.hh"

namespace perfbench
{

/** Points of @p plan the layer passes run on (at most @p count). */
std::vector<scd::harness::ExperimentPoint>
layerSample(const scd::harness::ExperimentPlan &plan, size_t count = 12);

/**
 * Run every layer pass over @p sample and add the cpu.*, branch.* and
 * cache.* metrics to @p out. Each pass is a span under @p parent when
 * @p spans is non-null. Returns consistency errors (a re-timed stream
 * that does not reproduce the recording model's cycle count).
 */
std::vector<std::string>
runLayerPasses(const std::vector<scd::harness::ExperimentPoint> &sample,
               MetricSet &out, SpanRecorder *spans, int parent);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HH
