/**
 * @file
 * In-memory span recording for the benchmark's traced run. Spans are
 * recorded around calls into the simulator's public API (compiles, plan
 * runs, points, export, isolated layer passes), never inside it; they
 * stay in memory and are written out once the run ends.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <chrono>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench
{

/** One timed interval; times are seconds since the recorder's epoch. */
struct Span
{
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1; ///< index of the enclosing span, -1 for a root
};

/**
 * Collects spans. open()/close() bracket a call on the recording
 * thread; add() records a finished interval and may be called from pool
 * workers (RunOptions::onPoint).
 */
class SpanRecorder
{
  public:
    SpanRecorder() : epoch_(std::chrono::steady_clock::now()) {}

    /** Seconds since the epoch. */
    double now() const;

    /** Start a span now; returns its index. */
    int open(const std::string &name, int parent = -1);

    /** End span @p index now. */
    void close(int index);

    /** Record an already finished span; returns its index. */
    int add(const std::string &name, double start, double end, int parent);

    /** Snapshot of every span recorded so far. */
    std::vector<Span> spans() const;

  private:
    std::chrono::steady_clock::time_point epoch_;
    mutable std::mutex mutex_; ///< guards spans_
    std::vector<Span> spans_;
};

/** Opens a span on construction and closes it on destruction. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder *recorder, const std::string &name,
               int parent = -1)
        : recorder_(recorder),
          index_(recorder ? recorder->open(name, parent) : -1)
    {}
    ~ScopedSpan()
    {
        if (recorder_)
            recorder_->close(index_);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    int index() const { return index_; }

  private:
    SpanRecorder *recorder_;
    int index_;
};

/** A point completion as RunOptions::onPoint reports it. */
struct PointReport
{
    size_t worker = 0;   ///< hash of the reporting thread's id
    double at = 0.0;     ///< SpanRecorder::now() at the report
    double seconds = 0.0; ///< ExperimentRun::seconds
};

/**
 * Record one span per reported point under @p parent: it ends at its
 * report and starts @p seconds earlier. runPlan reports the points of a
 * task (a replay group, or a batch of direct points) together once the
 * task ends. A worker's report that follows its previous one by less
 * than the point's own run time belongs to the same task, and a task's
 * points are laid end to end backwards from its first report instead of
 * stacking on it.
 */
void addPointSpans(SpanRecorder &recorder, const std::string &name,
                   int parent, std::vector<PointReport> reports);

/**
 * Check the span tree: every parent index refers to a recorded span,
 * every span ends no earlier than it starts, every child lies within
 * its parent, and no self time is negative. Returns one message per
 * violation.
 */
std::vector<std::string> validateSpans(const std::vector<Span> &spans);

/**
 * Self time of each span: its duration minus the part of its interval
 * that its children cover (children may overlap one another when
 * points run on several workers).
 */
std::vector<double> selfTimes(const std::vector<Span> &spans);

/** Sum of self times per span name. */
std::map<std::string, double> selfTimeByName(const std::vector<Span> &spans);

/** The spans as a JSON array, for writing out at the end of a run. */
std::string spansJson(const std::vector<Span> &spans);

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
