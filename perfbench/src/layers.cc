#include "layers.hh"

#include <algorithm>
#include <chrono>
#include <memory>

#include "branch/btb.hh"
#include "branch/direction.hh"
#include "cache/cache.hh"
#include "core/scheme.hh"
#include "cpu/core.hh"
#include "cpu/functional_core.hh"
#include "cpu/retire_stream.hh"
#include "cpu/timing_model.hh"
#include "harness/machines.hh"
#include "harness/runner.hh"
#include "mem/memory.hh"

namespace perfbench
{

using namespace scd;
using harness::ExperimentPoint;

namespace
{

// Instruction caps per sample point and pass. Test-size points finish
// under every cap; sim-size points are cut so a traced run stays short.
constexpr uint64_t kFunctionalCap = 8'000'000;
constexpr uint64_t kRecorderCap = 4'000'000;
constexpr uint64_t kStepCap = 2'000'000;
/** Instructions recorded per point for the timing/branch/cache passes. */
constexpr size_t kStreamCap = 256 * 1024;

/** Repeat a pass over the sample until it has run this long. */
constexpr double kMinPassSeconds = 0.25;
constexpr unsigned kTimingReps = 3;
constexpr unsigned kStructureReps = 10;

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Keeps replayed results observable so no timed loop is elided. */
volatile uint64_t gSink = 0;

/** Host time and work of one layer, summed over points and reps. */
struct Tally
{
    double seconds = 0.0;
    double ops = 0.0;

    double perSecondMillions() const { return ops / seconds / 1e6; }
    double nsPerOp() const { return seconds * 1e9 / ops; }
};

/** A point's guest image loaded into a fresh memory. */
struct World
{
    explicit World(const ExperimentPoint &p)
        : program(harness::compileGuest(
              p.vm, p.workload->text(p.size),
              harness::dispatchForScheme(p.scheme)))
    {
        program->loadInto(memory);
    }

    std::shared_ptr<const guest::GuestProgram> program;
    mem::GuestMemory memory;
};

cpu::CoreConfig
schemeConfig(const ExperimentPoint &p)
{
    return core::withScheme(p.machine, p.scheme);
}

/** runFunctional() through Core::run on a NullTiming core. */
Tally
functionalTier(const std::vector<ExperimentPoint> &sample,
               cpu::DispatchTier tier)
{
    Tally t;
    do {
        for (const ExperimentPoint &p : sample) {
            cpu::CoreConfig cfg = schemeConfig(p);
            cfg.timingKind = cpu::TimingKind::Null;
            World world(p);
            cpu::Core core(cfg, world.memory);
            core.loadProgram(world.program->text);
            core.setDispatchMeta(world.program->meta);
            core.setDispatchTier(tier);
            auto start = Clock::now();
            cpu::RunResult r = core.run(kFunctionalCap);
            t.seconds += secondsSince(start);
            t.ops += double(r.instructions);
        }
    } while (t.seconds < kMinPassSeconds);
    return t;
}

/** FunctionalCore::runRecorded into a discarded chunk ring. */
Tally
recorder(const std::vector<ExperimentPoint> &sample)
{
    Tally t;
    cpu::RetireStream ring;
    do {
        for (const ExperimentPoint &p : sample) {
            cpu::CoreConfig cfg = schemeConfig(p);
            World world(p);
            cpu::RecorderTiming timing;
            cpu::FunctionalCore fc(cfg, world.memory, timing);
            fc.loadProgram(world.program->text);
            fc.setDispatchMeta(world.program->meta);
            auto start = Clock::now();
            while (!fc.exited() && fc.retired() < kRecorderCap) {
                cpu::RetireChunk &chunk = ring.produceSlot();
                chunk.count = fc.runRecorded(chunk.entries,
                                             cpu::RetireChunk::kCapacity);
            }
            t.seconds += secondsSince(start);
            t.ops += double(fc.retired());
        }
    } while (t.seconds < kMinPassSeconds);
    return t;
}

/** The reference FunctionalCore::step(&ri) loop. */
Tally
stepLoop(const std::vector<ExperimentPoint> &sample)
{
    Tally t;
    do {
        for (const ExperimentPoint &p : sample) {
            cpu::CoreConfig cfg = schemeConfig(p);
            World world(p);
            cpu::RecorderTiming timing;
            cpu::FunctionalCore fc(cfg, world.memory, timing);
            fc.loadProgram(world.program->text);
            fc.setDispatchMeta(world.program->meta);
            cpu::RetireInfo ri;
            uint64_t pcs = 0;
            auto start = Clock::now();
            while (!fc.exited() && fc.retired() < kStepCap) {
                fc.step(&ri);
                pcs += ri.pc;
            }
            t.seconds += secondsSince(start);
            t.ops += double(fc.retired());
            gSink = gSink + pcs;
        }
    } while (t.seconds < kMinPassSeconds);
    return t;
}

/** Core::run of whole points via the harness, as simSeconds times it. */
Tally
coreRun(const std::vector<ExperimentPoint> &sample)
{
    Tally t;
    for (const ExperimentPoint &p : sample) {
        harness::ExperimentResult r = harness::runWorkload(
            p.vm, *p.workload, p.size, p.scheme, p.machine);
        t.seconds += r.simSeconds;
        t.ops += double(r.run.instructions);
    }
    return t;
}

/** A control-flow record taken from a retire stream. */
struct CtrlRecord
{
    uint64_t pc = 0;
    uint64_t target = 0;
    uint64_t opcode = 0; ///< JTE key of a bop probe / jru insert
    uint64_t jteTarget = 0;
    cpu::CtrlKind kind = cpu::CtrlKind::None;
    uint8_t bank = 0;
    bool taken = false;
    bool jteInsert = false;
};

struct DataAccess
{
    uint64_t addr = 0;
    bool write = false;
};

/** One point's stream, recorded untimed, and what is taken from it. */
struct Recording
{
    cpu::CoreConfig cfg;
    std::vector<cpu::RetireInfo> stream;
    uint64_t cycles = 0; ///< of the recording model after the stream
    std::vector<CtrlRecord> ctrl;
    std::vector<uint64_t> fetches; ///< one pc per new fetch block
    std::vector<DataAccess> data;
};

/**
 * Step the point exactly as Core::run does (step + retire on a timing
 * model configured like the point), keeping each RetireInfo. Stepping
 * per instruction keeps the model's JTEs current for every bop probe,
 * so SCD streams are exact.
 */
void
record(const ExperimentPoint &p, Recording &rec)
{
    rec.cfg = schemeConfig(p);
    if (rec.cfg.timingKind == cpu::TimingKind::Null)
        rec.cfg.timingKind = cpu::TimingKind::InOrder;
    World world(p);
    std::unique_ptr<cpu::TimingModel> timing =
        cpu::makeTimingModel(rec.cfg);
    cpu::FunctionalCore fc(rec.cfg, world.memory, *timing);
    fc.loadProgram(world.program->text);
    fc.setDispatchMeta(world.program->meta);
    rec.stream.clear();
    cpu::RetireInfo ri;
    while (!fc.exited() && rec.stream.size() < kStreamCap) {
        fc.step(&ri);
        timing->retire(ri);
        rec.stream.push_back(ri);
    }
    rec.cycles = timing->cycles();

    const unsigned blockShift = 6; // minor I$ line: 64 bytes
    uint64_t lastBlock = UINT64_MAX;
    rec.ctrl.clear();
    rec.fetches.clear();
    rec.data.clear();
    for (const cpu::RetireInfo &r : rec.stream) {
        if ((r.pc >> blockShift) != lastBlock) {
            lastBlock = r.pc >> blockShift;
            rec.fetches.push_back(r.pc);
        }
        if (r.hasMem)
            rec.data.push_back({r.memAddr, r.memIsStore});
        bool keep = r.ctrl == cpu::CtrlKind::Conditional ||
                    r.ctrl == cpu::CtrlKind::Jal ||
                    r.ctrl == cpu::CtrlKind::Jru ||
                    r.ctrl == cpu::CtrlKind::JteFlush ||
                    (r.ctrl == cpu::CtrlKind::Jalr && !r.isReturn) ||
                    (r.ctrl == cpu::CtrlKind::Bop && r.bopProbed);
        if (keep) {
            rec.ctrl.push_back({r.pc, r.nextPc, r.jteOpcode, r.jteTarget,
                                r.ctrl, r.bank, r.taken, r.jteInsert});
        }
    }
}

/** InOrderTiming::consume over the recording on a fresh model. */
void
timeConsume(const Recording &rec, Tally &t, std::vector<std::string> &errors)
{
    for (unsigned rep = 0; rep < kTimingReps; ++rep) {
        std::unique_ptr<cpu::TimingModel> model =
            cpu::makeTimingModel(rec.cfg);
        const size_t n = rec.stream.size();
        auto start = Clock::now();
        for (size_t i = 0; i < n; i += cpu::RetireChunk::kCapacity) {
            model->consume(&rec.stream[i],
                           std::min(cpu::RetireChunk::kCapacity, n - i));
        }
        t.seconds += secondsSince(start);
        t.ops += double(n);
        if (model->cycles() != rec.cycles) {
            errors.push_back("timing layer: re-timed stream gave " +
                             std::to_string(model->cycles()) +
                             " cycles, recording gave " +
                             std::to_string(rec.cycles));
        }
    }
}

/** Replay control records into a bare BTB; counts BTB operations. */
void
replayBtb(const branch::BtbConfig &config, const Recording &rec, Tally &t)
{
    for (unsigned rep = 0; rep < kStructureReps; ++rep) {
        branch::Btb btb(config);
        uint64_t ops = 0, hits = 0;
        auto start = Clock::now();
        for (const CtrlRecord &c : rec.ctrl) {
            switch (c.kind) {
              case cpu::CtrlKind::Conditional:
                hits += btb.lookupPc(c.pc).has_value();
                ++ops;
                if (c.taken) {
                    btb.insertPc(c.pc, c.target);
                    ++ops;
                }
                break;
              case cpu::CtrlKind::Bop:
                hits += btb.lookupJte(c.bank, c.opcode).has_value();
                ++ops;
                break;
              case cpu::CtrlKind::JteFlush:
                btb.flushJtes();
                ++ops;
                break;
              default: // jal, jalr, jru
                hits += btb.lookupPc(c.pc).has_value();
                btb.insertPc(c.pc, c.target);
                ops += 2;
                if (c.jteInsert) {
                    btb.insertJte(c.bank, c.opcode, c.jteTarget);
                    ++ops;
                }
                break;
            }
        }
        t.seconds += secondsSince(start);
        t.ops += double(ops);
        gSink = gSink + hits;
    }
}

/** Predict + update per conditional branch on the minor predictor. */
void
replayDirection(const Recording &rec, Tally &t)
{
    for (unsigned rep = 0; rep < kStructureReps; ++rep) {
        branch::TournamentPredictor predictor(
            rec.cfg.globalPredictorEntries, rec.cfg.localPredictorEntries);
        uint64_t ops = 0, correct = 0;
        auto start = Clock::now();
        for (const CtrlRecord &c : rec.ctrl) {
            if (c.kind != cpu::CtrlKind::Conditional)
                continue;
            correct += predictor.predict(c.pc) == c.taken;
            predictor.update(c.pc, c.taken);
            ++ops;
        }
        t.seconds += secondsSince(start);
        t.ops += double(ops);
        gSink = gSink + correct;
    }
}

template <typename Addresses, typename Access>
void
replayCache(const cache::CacheConfig &config, const Addresses &addresses,
            Access access, Tally &t)
{
    for (unsigned rep = 0; rep < kStructureReps; ++rep) {
        cache::Cache c(config);
        uint64_t hits = 0;
        auto start = Clock::now();
        for (const auto &a : addresses)
            hits += access(c, a);
        t.seconds += secondsSince(start);
        t.ops += double(addresses.size());
        gSink = gSink + hits;
    }
}

} // namespace

std::vector<ExperimentPoint>
layerSample(const harness::ExperimentPlan &plan, size_t count)
{
    const std::vector<ExperimentPoint> &points = plan.points();
    count = std::min(count, points.size());
    std::vector<ExperimentPoint> sample;
    for (size_t i = 0; i < count; ++i)
        sample.push_back(points[i * points.size() / count]);
    return sample;
}

std::vector<std::string>
runLayerPasses(const std::vector<ExperimentPoint> &sample, MetricSet &out,
               SpanRecorder *spans, int parent)
{
    std::vector<std::string> errors;
    for (cpu::DispatchTier tier :
         {cpu::DispatchTier::Switch, cpu::DispatchTier::Threaded,
          cpu::DispatchTier::Jit}) {
        std::string name =
            std::string("cpu.functional.") + cpu::dispatchTierName(tier);
        ScopedSpan span(spans, "layer." + name, parent);
        out.add(name + ".minst_per_s",
                functionalTier(sample, tier).perSecondMillions(), "Minst/s");
    }
    {
        ScopedSpan span(spans, "layer.cpu.recorder", parent);
        out.add("cpu.recorder.minst_per_s",
                recorder(sample).perSecondMillions(), "Minst/s");
    }
    {
        ScopedSpan span(spans, "layer.cpu.step", parent);
        out.add("cpu.step.minst_per_s", stepLoop(sample).perSecondMillions(),
                "Minst/s");
    }
    {
        ScopedSpan span(spans, "layer.cpu.core_run", parent);
        out.add("cpu.core_run.minst_per_s",
                coreRun(sample).perSecondMillions(), "Minst/s");
    }

    const cpu::CoreConfig minor = harness::minorConfig();
    branch::BtbConfig btb64c8 = minor.btb;
    btb64c8.entries = 64;
    btb64c8.jteCap = 8;

    Tally timing, btb256, btb64, direction, icache, dcache;
    double jteWrites = 0.0, lookups = 0.0;
    Recording rec;
    rec.stream.reserve(kStreamCap);
    for (const ExperimentPoint &p : sample) {
        {
            ScopedSpan span(spans, "layer.record", parent);
            record(p, rec);
        }
        for (const CtrlRecord &c : rec.ctrl) {
            jteWrites += c.jteInsert;
            lookups += c.kind != cpu::CtrlKind::JteFlush;
        }
        {
            ScopedSpan span(spans, "layer.cpu.timing", parent);
            timeConsume(rec, timing, errors);
        }
        {
            ScopedSpan span(spans, "layer.branch", parent);
            replayBtb(minor.btb, rec, btb256);
            replayBtb(btb64c8, rec, btb64);
            replayDirection(rec, direction);
        }
        {
            ScopedSpan span(spans, "layer.cache", parent);
            replayCache(minor.icache, rec.fetches,
                        [](cache::Cache &c, uint64_t pc) {
                            return c.access(pc);
                        },
                        icache);
            replayCache(minor.dcache, rec.data,
                        [](cache::Cache &c, const DataAccess &a) {
                            return c.access(a.addr, a.write);
                        },
                        dcache);
        }
    }
    out.add("cpu.timing.ns_per_inst", timing.nsPerOp(), "ns");
    out.add("branch.btb256.ns_per_op", btb256.nsPerOp(), "ns");
    out.add("branch.btb64c8.ns_per_op", btb64.nsPerOp(), "ns");
    out.add("branch.btb.jte_writes_per_klookup", 1000.0 * jteWrites / lookups,
            "count");
    out.add("branch.direction.ns_per_op", direction.nsPerOp(), "ns");
    out.add("cache.icache.ns_per_access", icache.nsPerOp(), "ns");
    out.add("cache.dcache.ns_per_access", dcache.nsPerOp(), "ns");
    return errors;
}

} // namespace perfbench
