#include "spans.hh"

#include <algorithm>
#include <utility>

#include "obs/json.hh"

namespace perfbench
{

namespace
{

/** Child/parent containment slack for clock arithmetic rounding. */
constexpr double kNestSlack = 1e-9;

/** Reports of one task arrive microseconds apart. */
constexpr double kTaskReportGap = 50e-6;

} // namespace

double
SpanRecorder::now() const
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         epoch_)
        .count();
}

int
SpanRecorder::open(const std::string &name, int parent)
{
    double t = now();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back({name, t, t, parent});
    return int(spans_.size() - 1);
}

void
SpanRecorder::close(int index)
{
    double t = now();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[size_t(index)].end = t;
}

int
SpanRecorder::add(const std::string &name, double start, double end,
                  int parent)
{
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back({name, start, end, parent});
    return int(spans_.size() - 1);
}

std::vector<Span>
SpanRecorder::spans() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

void
addPointSpans(SpanRecorder &recorder, const std::string &name, int parent,
              std::vector<PointReport> reports)
{
    std::stable_sort(reports.begin(), reports.end(),
                     [](const PointReport &a, const PointReport &b) {
                         return a.worker != b.worker ? a.worker < b.worker
                                                     : a.at < b.at;
                     });
    for (size_t lo = 0; lo < reports.size();) {
        size_t hi = lo + 1;
        // A point run after the previous report cannot be reported
        // sooner than its own run time later, so a shorter gap means it
        // belongs to the same task.
        while (hi < reports.size() &&
               reports[hi].worker == reports[lo].worker &&
               reports[hi].at - reports[hi - 1].at <
                   std::max(reports[hi].seconds, kTaskReportGap))
            ++hi;
        // Points [lo, hi) ran in report order and had all finished by
        // the first report.
        double cursor = reports[lo].at;
        for (size_t i = hi; i-- > lo;) {
            recorder.add(name, cursor - reports[i].seconds, cursor, parent);
            cursor -= reports[i].seconds;
        }
        lo = hi;
    }
}

std::vector<std::string>
validateSpans(const std::vector<Span> &spans)
{
    std::vector<std::string> errors;
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        std::string where = "span " + std::to_string(i) + " '" + s.name + "'";
        if (s.end < s.start)
            errors.push_back(where + " ends before it starts");
        if (s.parent < 0)
            continue;
        if (size_t(s.parent) >= spans.size()) {
            errors.push_back(where + " has no parent " +
                             std::to_string(s.parent));
            continue;
        }
        const Span &p = spans[size_t(s.parent)];
        if (s.start < p.start - kNestSlack || s.end > p.end + kNestSlack)
            errors.push_back(where + " is not inside its parent '" + p.name +
                             "'");
    }
    std::vector<double> self = selfTimes(spans);
    for (size_t i = 0; i < spans.size(); ++i) {
        if (self[i] < -kNestSlack)
            errors.push_back("span " + std::to_string(i) + " '" +
                             spans[i].name + "' has negative self time");
    }
    return errors;
}

std::vector<double>
selfTimes(const std::vector<Span> &spans)
{
    std::vector<std::vector<std::pair<double, double>>> children(
        spans.size());
    for (const Span &s : spans) {
        if (s.parent >= 0 && size_t(s.parent) < spans.size())
            children[size_t(s.parent)].emplace_back(s.start, s.end);
    }
    std::vector<double> self(spans.size());
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        auto &kids = children[i];
        std::sort(kids.begin(), kids.end());
        double covered = 0.0;
        double reach = s.start; // end of the union built so far
        for (auto [lo, hi] : kids) {
            lo = std::max(lo, reach);
            hi = std::min(hi, s.end);
            if (hi > lo) {
                covered += hi - lo;
                reach = hi;
            }
        }
        self[i] = (s.end - s.start) - covered;
    }
    return self;
}

std::map<std::string, double>
selfTimeByName(const std::vector<Span> &spans)
{
    std::vector<double> self = selfTimes(spans);
    std::map<std::string, double> out;
    for (size_t i = 0; i < spans.size(); ++i)
        out[spans[i].name] += self[i];
    return out;
}

std::string
spansJson(const std::vector<Span> &spans)
{
    scd::obs::JsonWriter w;
    w.beginArray();
    for (const Span &s : spans) {
        w.beginObject();
        w.member("name", s.name);
        w.member("start", s.start);
        w.member("end", s.end);
        w.member("parent", int64_t(s.parent));
        w.endObject();
    }
    w.endArray();
    return w.str() + "\n";
}

} // namespace perfbench
