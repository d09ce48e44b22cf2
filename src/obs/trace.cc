#include "trace.hh"

#include <algorithm>

#include "common/table.hh"
#include "json.hh"

namespace scd::obs
{

const char *
traceEventName(TraceEventKind kind)
{
    switch (kind) {
      case TraceEventKind::Retire: return "retire";
      case TraceEventKind::Mispredict: return "mispredict";
      case TraceEventKind::RopStall: return "ropStall";
      case TraceEventKind::LoadUseStall: return "loadUseStall";
      case TraceEventKind::JteInsert: return "jteInsert";
      case TraceEventKind::JteEvict: return "jteEvict";
      case TraceEventKind::JteFlush: return "jteFlush";
      case TraceEventKind::FrontendFalseHit: return "frontendFalseHit";
      case TraceEventKind::FtqPrefetch: return "ftqPrefetch";
      case TraceEventKind::NumKinds: break;
    }
    return "?";
}

TraceBuffer::TraceBuffer(size_t capacity)
    : ring_(capacity > 0 ? capacity : 1)
{
}

void
TraceBuffer::aggregate(TraceEventKind kind, uint64_t pc, uint64_t arg,
                       uint8_t op, uint8_t cls)
{
    switch (kind) {
      case TraceEventKind::Retire:
        ++ops_[op].retired;
        if (cls == kTraceDispatchClass)
            ++sites_[pc].executed;
        break;
      case TraceEventKind::Mispredict:
        ++ops_[op].mispredicts;
        if (cls == kTraceDispatchClass)
            ++sites_[pc].mispredicted;
        break;
      case TraceEventKind::RopStall:
      case TraceEventKind::LoadUseStall:
        ops_[op].stallCycles += arg;
        break;
      default:
        break;
    }
}

std::vector<TraceEvent>
TraceBuffer::events() const
{
    std::vector<TraceEvent> out;
    size_t count = recorded_ < ring_.size() ? size_t(recorded_)
                                            : ring_.size();
    out.reserve(count);
    // Oldest retained event: head_ when wrapped, index 0 otherwise.
    size_t start = recorded_ < ring_.size() ? 0 : head_;
    for (size_t n = 0; n < count; ++n)
        out.push_back(ring_[(start + n) % ring_.size()]);
    return out;
}

void
TraceBuffer::clear()
{
    head_ = 0;
    recorded_ = 0;
    cycle_ = 0;
    ops_.fill(OpProfile{});
    sites_.clear();
}

namespace
{

std::string
opLabel(const OpcodeNamer &namer, uint8_t op)
{
    return namer ? namer(op) : "op" + std::to_string(op);
}

std::string
hexPc(uint64_t pc)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "0x%llx",
                  static_cast<unsigned long long>(pc));
    return buf;
}

} // namespace

std::string
chromeTraceJson(const TraceBuffer &trace, const OpcodeNamer &namer)
{
    // Tracks: tid 0 = retire stream, tid 1 = pipeline disruptions,
    // tid 2 = JTE traffic. One cycle maps to one trace microsecond.
    JsonWriter json;
    json.beginObject();
    json.member("displayTimeUnit", "ns");
    json.key("metadata").beginObject();
    json.member("recordedEvents", trace.recorded());
    json.member("droppedEvents", trace.dropped());
    json.endObject();
    json.key("traceEvents").beginArray();

    auto emitThreadName = [&](int tid, const char *name) {
        json.beginObject();
        json.member("name", "thread_name");
        json.member("ph", "M");
        json.member("pid", 0);
        json.member("tid", tid);
        json.key("args").beginObject().member("name", name).endObject();
        json.endObject();
    };
    emitThreadName(0, "retire");
    emitThreadName(1, "stalls+mispredicts");
    emitThreadName(2, "jte");

    for (const TraceEvent &e : trace.events()) {
        json.beginObject();
        switch (e.kind) {
          case TraceEventKind::Retire:
            json.member("name", opLabel(namer, e.op));
            json.member("ph", "X");
            json.member("dur", 1);
            json.member("tid", 0);
            break;
          case TraceEventKind::RopStall:
          case TraceEventKind::LoadUseStall:
            json.member("name", traceEventName(e.kind));
            json.member("ph", "X");
            json.member("dur", e.arg);
            json.member("tid", 1);
            break;
          case TraceEventKind::Mispredict:
            json.member("name", traceEventName(e.kind));
            json.member("ph", "i");
            json.member("s", "t");
            json.member("tid", 1);
            break;
          default: // JTE traffic
            json.member("name", traceEventName(e.kind));
            json.member("ph", "i");
            json.member("s", "t");
            json.member("tid", 2);
            break;
        }
        json.member("pid", 0);
        json.member("ts", e.cycle);
        json.key("args").beginObject();
        json.member("pc", hexPc(e.pc));
        if (e.kind == TraceEventKind::Mispredict)
            json.member("branchClass", uint64_t(e.cls));
        if (e.kind == TraceEventKind::JteInsert ||
            e.kind == TraceEventKind::JteEvict)
            json.member("key", hexPc(e.arg));
        json.endObject();
        json.endObject();
    }
    json.endArray();
    json.endObject();
    return json.str() + "\n";
}

std::string
profileReport(const TraceBuffer &trace, const OpcodeNamer &namer)
{
    std::string out = "Pipeline profile (" +
                      std::to_string(trace.recorded()) +
                      " events recorded, " +
                      std::to_string(trace.dropped()) +
                      " beyond the ring window)\n\n";

    // ---- per-opcode table, by descending retire count -------------------
    struct OpRow
    {
        uint8_t op;
        TraceBuffer::OpProfile profile;
    };
    std::vector<OpRow> rows;
    uint64_t totalRetired = 0;
    for (unsigned op = 0; op < trace.opProfiles().size(); ++op) {
        const auto &p = trace.opProfiles()[op];
        if (p.retired == 0 && p.mispredicts == 0 && p.stallCycles == 0)
            continue;
        rows.push_back({uint8_t(op), p});
        totalRetired += p.retired;
    }
    std::stable_sort(rows.begin(), rows.end(),
                     [](const OpRow &a, const OpRow &b) {
                         return a.profile.retired > b.profile.retired;
                     });

    out += "Per-opcode profile:\n";
    TextTable ops;
    ops.header({"opcode", "retired", "share", "mispredicts",
                "stall cycles"});
    for (const OpRow &row : rows) {
        double share = totalRetired
                           ? double(row.profile.retired) /
                                 double(totalRetired)
                           : 0.0;
        ops.row({opLabel(namer, row.op),
                 std::to_string(row.profile.retired),
                 TextTable::percent(share, 1),
                 std::to_string(row.profile.mispredicts),
                 std::to_string(row.profile.stallCycles)});
    }
    out += ops.render();

    // ---- per-dispatch-site table ----------------------------------------
    out += "\nDispatch sites (indirect dispatch jumps):\n";
    if (trace.dispatchSites().empty()) {
        out += "  (none recorded)\n";
        return out;
    }
    TextTable sites;
    sites.header({"pc", "executed", "mispredicted", "miss rate"});
    for (const auto &[pc, site] : trace.dispatchSites()) {
        double rate = site.executed
                          ? double(site.mispredicted) /
                                double(site.executed)
                          : 0.0;
        sites.row({hexPc(pc), std::to_string(site.executed),
                   std::to_string(site.mispredicted),
                   TextTable::percent(rate, 1)});
    }
    out += sites.render();
    return out;
}

} // namespace scd::obs
