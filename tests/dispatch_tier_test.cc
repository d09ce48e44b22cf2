/**
 * @file
 * Differential tests for the threaded-code dispatch tier
 * (src/cpu/threaded_tier.hh) against the reference switch interpreter.
 * The tier contract is bit-identical retirement: the same RetireInfo
 * stream entry by entry and field by field, the same architectural end
 * state, the same traps, and the same exported statistics — across both
 * guest VMs, all four dispatch schemes, every Table III workload, and
 * the fuzz-corpus seed scripts. Plus the tier-specific machinery:
 * instruction-limited pauses at arbitrary boundaries, guest text
 * self-modification (copy-on-write retranslation), the process-global
 * translation cache, and byte-identical exports when the replay
 * producer runs on the threaded tier.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "common/logging.hh"
#include "core/scheme.hh"
#include "cpu/dispatch_tier.hh"
#include "cpu/functional_core.hh"
#include "cpu/retire_stream.hh"
#include "cpu/threaded_tier.hh"
#include "harness/experiment.hh"
#include "harness/json_export.hh"
#include "harness/machines.hh"
#include "harness/runner.hh"
#include "isa/assembler.hh"
#include "isa/instruction.hh"
#include "isa/text_assembler.hh"
#include "mem/memory.hh"
#include "obs/stats_sink.hh"

namespace
{

using namespace scd;
using namespace scd::harness;
using cpu::DispatchTier;

const std::vector<core::Scheme> kSchemes = {
    core::Scheme::Baseline, core::Scheme::JumpThreading,
    core::Scheme::Vbbi, core::Scheme::Scd};

/** One VM guest on one tier: a FunctionalCore with a recording port. */
struct TierRun
{
    cpu::CoreConfig cfg;
    mem::GuestMemory memory;
    cpu::RecorderTiming recorder;
    std::unique_ptr<cpu::FunctionalCore> core;

    TierRun(const guest::GuestProgram &program,
            const cpu::CoreConfig &machine, DispatchTier tier)
        : cfg(machine)
    {
        program.loadInto(memory);
        core = std::make_unique<cpu::FunctionalCore>(cfg, memory, recorder);
        core->loadProgram(program.text);
        core->setDispatchMeta(program.meta);
        core->setDispatchTier(tier);
    }
};

void
expectSameRetire(const cpu::RetireInfo &a, const cpu::RetireInfo &b)
{
    EXPECT_EQ(a.pc, b.pc);
    EXPECT_EQ(a.nextPc, b.nextPc);
    EXPECT_EQ(a.flags, b.flags);
    EXPECT_EQ(a.rd, b.rd);
    EXPECT_EQ(a.rs1, b.rs1);
    EXPECT_EQ(a.rs2, b.rs2);
    EXPECT_EQ(a.bank, b.bank);
    EXPECT_EQ(a.op, b.op);
    EXPECT_EQ(int(a.ctrl), int(b.ctrl));
    EXPECT_EQ(int(a.lat), int(b.lat));
    EXPECT_EQ(int(a.cls), int(b.cls));
    EXPECT_EQ(a.taken, b.taken);
    EXPECT_EQ(a.isReturn, b.isReturn);
    EXPECT_EQ(a.writesInt, b.writesInt);
    EXPECT_EQ(a.writesFp, b.writesFp);
    EXPECT_EQ(a.hasMem, b.hasMem);
    EXPECT_EQ(a.memIsStore, b.memIsStore);
    EXPECT_EQ(a.memAddr, b.memAddr);
    EXPECT_EQ(a.hintReg, b.hintReg);
    EXPECT_EQ(a.hintValue, b.hintValue);
    EXPECT_EQ(a.ropStall, b.ropStall);
    EXPECT_EQ(a.bopProbed, b.bopProbed);
    EXPECT_EQ(a.bopHit, b.bopHit);
    EXPECT_EQ(a.jteInsert, b.jteInsert);
    EXPECT_EQ(a.jteOpcode, b.jteOpcode);
    EXPECT_EQ(a.jteTarget, b.jteTarget);
}

/**
 * Run @p program on both tiers in recorded-chunk lockstep and compare
 * the streams entry by entry. The odd chunk size forces the threaded
 * tier to pause and resume at arbitrary instruction boundaries, not
 * just at its own burst-sized ones.
 */
void
lockstepCompare(const guest::GuestProgram &program,
                const cpu::CoreConfig &machine)
{
    TierRun ref(program, machine, DispatchTier::Switch);
    TierRun fast(program, machine, DispatchTier::Threaded);

    constexpr size_t kCap = 509;
    std::vector<cpu::RetireInfo> a(kCap), b(kCap);
    for (;;) {
        size_t na = ref.core->runRecorded(a.data(), kCap);
        size_t nb = fast.core->runRecorded(b.data(), kCap);
        ASSERT_EQ(na, nb) << "tiers disagree on chunk length at retire "
                          << ref.core->retired();
        for (size_t i = 0; i < na; ++i) {
            SCOPED_TRACE("entry " + std::to_string(i) + " of chunk at " +
                         std::to_string(ref.core->retired() - na));
            expectSameRetire(a[i], b[i]);
            if (::testing::Test::HasFailure())
                return; // one divergence floods thousands; stop early
        }
        if (ref.core->exited() || na == 0)
            break;
    }

    EXPECT_EQ(fast.core->exited(), ref.core->exited());
    EXPECT_EQ(fast.core->exitCode(), ref.core->exitCode());
    EXPECT_EQ(fast.core->retired(), ref.core->retired());
    EXPECT_EQ(fast.core->output(), ref.core->output());
    for (unsigned r = 0; r < 32; ++r) {
        EXPECT_EQ(fast.core->readReg(r), ref.core->readReg(r)) << "x" << r;
        EXPECT_EQ(fast.core->readFreg(r), ref.core->readFreg(r))
            << "f" << r;
    }
    StatGroup refStats, fastStats;
    ref.core->exportStats(refStats);
    fast.core->exportStats(fastStats);
    EXPECT_EQ(refStats.all(), fastStats.all());
}

TEST(DispatchTier, ParseAndName)
{
    EXPECT_EQ(cpu::parseDispatchTier("switch"), DispatchTier::Switch);
    EXPECT_EQ(cpu::parseDispatchTier("threaded"), DispatchTier::Threaded);
    EXPECT_FALSE(cpu::parseDispatchTier("jit").has_value());
    EXPECT_FALSE(cpu::parseDispatchTier("compiled").has_value());
    EXPECT_STREQ(cpu::dispatchTierName(DispatchTier::Switch), "switch");
    EXPECT_STREQ(cpu::dispatchTierName(DispatchTier::Threaded), "threaded");
    EXPECT_STREQ(cpu::dispatchTierName(DispatchTier::Jit), "jit");
}

/**
 * One (VM, workload) case of the full tier differential; each case
 * covers all four schemes. Split this way so ctest spreads the grid over
 * its workers and every case stays well inside the per-test timeout,
 * sanitizer builds included.
 */
using VmWorkload = std::tuple<VmKind, std::string>;

class DispatchTierGrid : public ::testing::TestWithParam<VmWorkload>
{
};

TEST_P(DispatchTierGrid, LockstepStreamsMatchAcrossSchemes)
{
    auto [vm, name] = GetParam();
    for (core::Scheme scheme : kSchemes) {
        SCOPED_TRACE(core::schemeName(scheme));
        auto program = compileGuest(vm, workload(name).text(InputSize::Test),
                                    dispatchForScheme(scheme));
        lockstepCompare(*program, core::withScheme(minorConfig(), scheme));
        if (::testing::Test::HasFailure())
            return;
    }
}

/**
 * Functional runs (NullTiming) on the threaded tier retire the same
 * count, produce the same output, and export the same statistics
 * (branch-class counters, SCD counters, shadow-BTB-driven JTE stats) as
 * the reference interpreter. This drives the threaded tier's functional
 * executor, which the lockstep test above never enters.
 */
TEST_P(DispatchTierGrid, FunctionalRunsMatchReferenceAcrossSchemes)
{
    auto [vm, name] = GetParam();
    cpu::CoreConfig functional = minorConfig();
    functional.timingKind = cpu::TimingKind::Null;
    for (core::Scheme scheme : kSchemes) {
        SCOPED_TRACE(core::schemeName(scheme));
        ExperimentResult ref =
            runWorkload(vm, workload(name), InputSize::Test, scheme,
                        functional, 0, nullptr, 0.0, DispatchTier::Switch);
        ExperimentResult fast =
            runWorkload(vm, workload(name), InputSize::Test, scheme,
                        functional, 0, nullptr, 0.0, DispatchTier::Threaded);
        EXPECT_EQ(ref.output, fast.output);
        EXPECT_EQ(ref.run.instructions, fast.run.instructions);
        EXPECT_EQ(ref.run.exited, fast.run.exited);
        EXPECT_EQ(ref.stats.all(), fast.stats.all());
        if (::testing::Test::HasFailure())
            return;
    }
}

std::vector<VmWorkload>
allVmWorkloads()
{
    std::vector<VmWorkload> out;
    for (VmKind vm : {VmKind::Rlua, VmKind::Sjs})
        for (const Workload &w : workloads())
            out.push_back({vm, w.name});
    return out;
}

std::string
vmWorkloadLabel(const ::testing::TestParamInfo<VmWorkload> &info)
{
    std::string label = std::string(vmName(std::get<0>(info.param))) +
                        "_" + std::get<1>(info.param);
    for (char &c : label)
        if (c == '-')
            c = '_';
    return label;
}

INSTANTIATE_TEST_SUITE_P(AllVmsAndWorkloads, DispatchTierGrid,
                         ::testing::ValuesIn(allVmWorkloads()),
                         vmWorkloadLabel);

/**
 * The recorders do not value-initialize a record: cpu::beginRetire stores
 * every field's default explicitly. Fill the chunk with a junk pattern
 * before every runRecorded() call on both recording tiers and compare
 * each record with a fresh step() of the reference interpreter — a
 * default the recorders forget shows up as the previous chunk's bytes.
 */
TEST(DispatchTier, RecordedFieldsIgnoreStaleChunkContents)
{
    auto chunk = std::make_unique<cpu::RetireChunk>();
    for (const char *name : {"fibo", "n-body", "k-nucleotide"}) {
        for (VmKind vm : {VmKind::Rlua, VmKind::Sjs}) {
            for (core::Scheme scheme : kSchemes) {
                auto program =
                    compileGuest(vm, workload(name).text(InputSize::Test),
                                 dispatchForScheme(scheme));
                cpu::CoreConfig machine =
                    core::withScheme(minorConfig(), scheme);
                for (DispatchTier tier :
                     {DispatchTier::Switch, DispatchTier::Threaded}) {
                    SCOPED_TRACE(std::string(vmName(vm)) + "/" + name +
                                 "/" + core::schemeName(scheme) + " on " +
                                 cpu::dispatchTierName(tier));
                    TierRun ref(*program, machine, DispatchTier::Switch);
                    TierRun rec(*program, machine, tier);
                    for (;;) {
                        std::memset(static_cast<void *>(chunk->entries),
                                    0xA5, sizeof(chunk->entries));
                        size_t n = rec.core->runRecorded(
                            chunk->entries, cpu::RetireChunk::kCapacity);
                        for (size_t i = 0; i < n; ++i) {
                            cpu::RetireInfo want;
                            ref.core->step(&want);
                            expectSameRetire(chunk->entries[i], want);
                            if (::testing::Test::HasFailure())
                                return;
                        }
                        if (rec.core->exited() || n == 0)
                            break;
                    }
                    EXPECT_TRUE(ref.core->exited());
                    EXPECT_EQ(rec.core->retired(), ref.core->retired());
                }
            }
        }
    }
}

TEST(DispatchTier, CorpusScriptsMatchOnBothVms)
{
    std::filesystem::path dir(SCD_CORPUS_DIR);
    ASSERT_TRUE(std::filesystem::is_directory(dir)) << dir;
    cpu::CoreConfig functional = minorConfig();
    functional.timingKind = cpu::TimingKind::Null;

    size_t scripts = 0;
    for (const auto &entry : std::filesystem::directory_iterator(dir)) {
        std::ifstream f(entry.path());
        ASSERT_TRUE(f.is_open()) << entry.path();
        std::ostringstream ss;
        ss << f.rdbuf();
        std::string source = ss.str();
        ++scripts;

        for (VmKind vm : {VmKind::Rlua, VmKind::Sjs}) {
            for (core::Scheme scheme :
                 {core::Scheme::Baseline, core::Scheme::Scd}) {
                SCOPED_TRACE(entry.path().filename().string() + " on " +
                             vmName(vm) + "/" + core::schemeName(scheme));
                ExperimentResult ref = runExperiment(
                    vm, source, scheme, functional, 0, nullptr, 0.0,
                    DispatchTier::Switch);
                ExperimentResult fast = runExperiment(
                    vm, source, scheme, functional, 0, nullptr, 0.0,
                    DispatchTier::Threaded);
                EXPECT_EQ(ref.output, fast.output);
                EXPECT_EQ(ref.run.instructions, fast.run.instructions);
                EXPECT_EQ(ref.stats.all(), fast.stats.all());
            }
        }
    }
    // The corpus going missing must fail loudly, not pass vacuously.
    EXPECT_GE(scripts, 5u);
}

TEST(DispatchTier, InstructionLimitPausesAtIdenticalBoundaries)
{
    // ~200 retires per outer iteration, unbounded: only the limit stops
    // it. Odd limits land mid-loop; the large one crosses the threaded
    // tier's internal burst size.
    const std::string text = R"(
        li s0, 0
    outer:
        li t0, 0
    inner:
        addi t0, t0, 1
        addi s0, s0, 3
        blt t0, t1, inner
        li t1, 97
        j outer
    )";
    for (uint64_t limit : {1ull, 2ull, 7ull, 101ull, 4099ull, 70001ull}) {
        SCOPED_TRACE("limit " + std::to_string(limit));
        cpu::RunResult ref, fast;
        uint64_t refReg = 0, fastReg = 0;
        for (DispatchTier tier :
             {DispatchTier::Switch, DispatchTier::Threaded}) {
            mem::GuestMemory memory;
            cpu::CoreConfig cfg;
            cfg.name = "test";
            cfg.timingKind = cpu::TimingKind::Null;
            cpu::Core core(cfg, memory);
            core.loadProgram(isa::assembleText(text));
            core.setDispatchTier(tier);
            cpu::RunResult r = core.run(limit);
            uint64_t sum = 0;
            for (unsigned reg = 0; reg < 32; ++reg)
                sum = sum * 31 + core.readReg(reg);
            if (tier == DispatchTier::Switch) {
                ref = r;
                refReg = sum;
            } else {
                fast = r;
                fastReg = sum;
            }
        }
        EXPECT_EQ(ref.instructions, fast.instructions);
        EXPECT_EQ(ref.exited, fast.exited);
        EXPECT_EQ(refReg, fastReg);
    }
}

/**
 * A program that patches two of its own upcoming instructions, then
 * executes them: the first store forces the copy-on-write clone of the
 * shared translation, the second retranslates in place on the clone.
 * Unpatched it would exit 2; both tiers must see the patched code.
 */
isa::Program
selfModifyingProgram()
{
    using namespace isa;
    Assembler as;
    Label ta = as.newLabel("t_a");
    Label tb = as.newLabel("t_b");
    as.li(reg::t0, int64_t(encode({Opcode::ADDI, reg::a0, reg::zero, 0, 0,
                                   30})));
    as.la(reg::t1, ta);
    as.sw(reg::t0, 0, reg::t1);
    as.li(reg::t2, int64_t(encode({Opcode::ADDI, reg::a0, reg::a0, 0, 0,
                                   12})));
    as.la(reg::t3, tb);
    as.sw(reg::t2, 0, reg::t3);
    as.bind(ta);
    as.addi(reg::a0, reg::zero, 1);
    as.bind(tb);
    as.addi(reg::a0, reg::a0, 1);
    as.li(reg::a7, 0);
    as.ecall();
    return as.finish();
}

TEST(DispatchTier, SelfModifyingTextRetranslates)
{
    isa::Program prog = selfModifyingProgram();
    for (DispatchTier tier :
         {DispatchTier::Switch, DispatchTier::Threaded}) {
        SCOPED_TRACE(cpu::dispatchTierName(tier));
        mem::GuestMemory memory;
        cpu::CoreConfig cfg;
        cfg.name = "test";
        cfg.timingKind = cpu::TimingKind::Null;
        cpu::Core core(cfg, memory);
        core.loadProgram(prog);
        core.setDispatchTier(tier);
        cpu::RunResult r = core.run(10'000);
        EXPECT_TRUE(r.exited);
        EXPECT_EQ(r.exitCode, 42);
    }
}

TEST(DispatchTier, TranslationCacheSharesPrograms)
{
    const std::string text = R"(
        li t0, 0
    loop:
        addi t0, t0, 1
        blt t0, t1, loop
        li a0, 7
        li a7, 0
        ecall
    )";
    isa::Program prog = isa::assembleText(text);
    cpu::resetThreadedCache();

    auto runOnce = [&prog]() {
        mem::GuestMemory memory;
        cpu::CoreConfig cfg;
        cfg.name = "test";
        cfg.timingKind = cpu::TimingKind::Null;
        cpu::Core core(cfg, memory);
        core.loadProgram(prog);
        core.setDispatchTier(DispatchTier::Threaded);
        return core.run(10'000).exitCode;
    };
    EXPECT_EQ(runOnce(), 7);
    cpu::ThreadedCacheStats first = cpu::threadedCacheStats();
    EXPECT_EQ(first.compiles, 1u);
    EXPECT_EQ(first.entries, 1u);

    EXPECT_EQ(runOnce(), 7);
    cpu::ThreadedCacheStats second = cpu::threadedCacheStats();
    EXPECT_EQ(second.compiles, 1u);
    EXPECT_EQ(second.hits, first.hits + 1);
    EXPECT_EQ(second.entries, 1u);
}

TEST(DispatchTier, SelfModificationDoesNotPoisonTheSharedCache)
{
    isa::Program prog = selfModifyingProgram();
    cpu::resetThreadedCache();
    auto runOnce = [&prog]() {
        mem::GuestMemory memory;
        cpu::CoreConfig cfg;
        cfg.name = "test";
        cfg.timingKind = cpu::TimingKind::Null;
        cpu::Core core(cfg, memory);
        core.loadProgram(prog);
        core.setDispatchTier(DispatchTier::Threaded);
        return core.run(10'000).exitCode;
    };
    // The first run COW-clones before patching; a second fresh core must
    // get the pristine shared translation back and see the same result.
    EXPECT_EQ(runOnce(), 42);
    EXPECT_EQ(runOnce(), 42);
    EXPECT_EQ(cpu::threadedCacheStats().compiles, 1u);
}

/** Both tiers must throw the same fatal for the same bad control flow. */
std::string
fatalMessageOf(const std::string &text, DispatchTier tier)
{
    mem::GuestMemory memory;
    cpu::CoreConfig cfg;
    cfg.name = "test";
    cfg.timingKind = cpu::TimingKind::Null;
    cpu::Core core(cfg, memory);
    core.loadProgram(isa::assembleText(text));
    core.setDispatchTier(tier);
    try {
        core.run(10'000);
    } catch (const FatalError &e) {
        return e.what();
    }
    return "<no fatal>";
}

TEST(DispatchTier, FaultsMatchTheReferenceTier)
{
    // A computed jump out of text faults at the next fetch; a fall off
    // the end of text faults at text end; ebreak traps in place.
    const std::vector<std::string> programs = {
        "li t0, 0x999000\njr t0\n",
        "addi t0, t0, 1\naddi t0, t0, 2\n",
        "nop\nebreak\n",
    };
    for (const std::string &text : programs) {
        SCOPED_TRACE(text);
        std::string ref = fatalMessageOf(text, DispatchTier::Switch);
        std::string fast = fatalMessageOf(text, DispatchTier::Threaded);
        EXPECT_NE(ref, "<no fatal>");
        EXPECT_EQ(ref, fast);
    }
}

TEST(DispatchTier, ReplayProducerOnThreadedTierIsByteIdentical)
{
    ExperimentPlan plan;
    for (VmKind vm : {VmKind::Rlua, VmKind::Sjs}) {
        for (core::Scheme scheme : kSchemes) {
            ExperimentPoint p;
            p.vm = vm;
            p.workload = &workload("fibo");
            p.size = InputSize::Test;
            p.scheme = scheme;
            p.machine = minorConfig();
            plan.add(std::move(p));
        }
    }
    RunOptions ref;
    ref.jobs = 2;
    ref.dispatchTier = DispatchTier::Switch;
    RunOptions fast = ref;
    fast.dispatchTier = DispatchTier::Threaded;
    ExperimentSet a = runPlan(plan, ref);
    ExperimentSet b = runPlan(plan, fast);
    ASSERT_EQ(a.points.size(), b.points.size());
    for (size_t i = 0; i < a.points.size(); ++i) {
        SCOPED_TRACE(a.points[i].label());
        EXPECT_EQ(a.at(i).run.cycles, b.at(i).run.cycles);
        EXPECT_EQ(a.at(i).run.instructions, b.at(i).run.instructions);
        EXPECT_EQ(a.at(i).output, b.at(i).output);
        EXPECT_EQ(a.at(i).stats.all(), b.at(i).stats.all());
    }
    obs::StatsSink refSink("dispatch_tier_test", "test");
    obs::StatsSink fastSink("dispatch_tier_test", "test");
    exportSet(refSink, "grid", a);
    exportSet(fastSink, "grid", b);
    EXPECT_EQ(refSink.render(), fastSink.render());
}

} // namespace
