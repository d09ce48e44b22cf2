#include "inorder_timing.hh"

#include <algorithm>

#include "common/bitutil.hh"
#include "common/logging.hh"
#include "isa/instruction.hh"

namespace scd::cpu
{

// obs/trace.hh mirrors this value so the trace library stays independent
// of the cpu headers; keep them in lockstep.
static_assert(uint8_t(BranchClass::IndirectDispatch) ==
              obs::kTraceDispatchClass);

InOrderTiming::InOrderTiming(const CoreConfig &config)
    : config_(config),
      width_(config.issueWidth),
      fetchBlockShift_(floorLog2(config.icache.blockBytes)),
      itlb_(config.itlbEntries),
      dtlb_(config.dtlbEntries)
{
    latency_[size_t(LatClass::Alu)] = config.aluLatency;
    latency_[size_t(LatClass::Mul)] = config.mulLatency;
    latency_[size_t(LatClass::Div)] = config.divLatency;
    latency_[size_t(LatClass::Fp)] = config.fpLatency;
    latency_[size_t(LatClass::FpDiv)] = config.fpDivLatency;
    latency_[size_t(LatClass::Load)] = 0; // from the data access
    frontend_ = branch::makeFrontendModel(config.frontend, config.btb);
    // Devirtualize the default path. Gate on the configuration, not on
    // idealBtb() alone: FDIP-over-ideal forwards idealBtb() for
    // component access but must keep its FTQ timing in the loop.
    if (config.frontend.kind == branch::FrontendKind::Ideal &&
        !config.frontend.fdip) {
        idealFast_ = frontend_->idealBtb();
    }
    if (config.scdDedicatedTable) {
        dedicatedJtes_ =
            std::make_unique<branch::JteTable>(config.dedicatedJteEntries);
    }
    if (config.ittageEnabled)
        ittage_ = std::make_unique<branch::Ittage>();
    if (config.predictor == PredictorKind::Tournament) {
        direction_ = std::make_unique<branch::TournamentPredictor>(
            config.globalPredictorEntries, config.localPredictorEntries);
    } else {
        direction_ =
            std::make_unique<branch::GsharePredictor>(config.gshareEntries);
    }
    ras_ = std::make_unique<branch::ReturnAddressStack>(config.rasDepth);
    vbbi_ = std::make_unique<branch::FrontendVbbi>(*frontend_);
    icache_ = std::make_unique<cache::Cache>(config.icache);
    dcache_ = std::make_unique<cache::Cache>(config.dcache);
    if (config.hasL2)
        l2cache_ = std::make_unique<cache::Cache>(config.l2cache);
}

std::optional<uint64_t>
InOrderTiming::jteLookup(uint8_t bank, uint64_t opcode)
{
    if (dedicatedJtes_)
        return dedicatedJtes_->lookup(bank, opcode);
    if (idealFast_)
        return idealFast_->lookupJte(bank, opcode);
    branch::FrontendProbe p = frontend_->probeJte(bank, opcode);
    cycle_ += p.bubbles;
    if (p.falseHit) {
        // A partial-tag alias dispatched fetch to another opcode's
        // handler. The JTE target contract (architecturally exact) is
        // broken, so the dispatch falls back to the slow path — the
        // caller sees a miss and retires the same stream as one — and
        // the wrong-path fetch costs a full resteer.
        ++jteFalseResteers_;
        cycle_ += config_.mispredictPenalty;
        return std::nullopt;
    }
    return p.target;
}

void
InOrderTiming::jteInsert(uint8_t bank, uint64_t opcode, uint64_t target)
{
    if (dedicatedJtes_) {
        dedicatedJtes_->insert(bank, opcode, target);
        return;
    }
    if (idealFast_) {
        idealFast_->insertJte(bank, opcode, target);
        return;
    }
    frontend_->insertJte(bank, opcode, target);
}

void
InOrderTiming::jteFlush()
{
    frontend_->flushJtes();
    if (dedicatedJtes_)
        dedicatedJtes_->flush();
}

void
InOrderTiming::fetchBlock(uint64_t pc, uint64_t block)
{
    lastFetchBlock_ = block;
    uint64_t page = pc >> 12;
    if (page != lastFetchPage_) {
        lastFetchPage_ = page;
        if (!itlb_.access(pc))
            cycle_ += config_.tlbMissPenalty;
    }
    if (!icache_->access(pc)) {
        unsigned penalty = config_.memLatency;
        if (l2cache_) {
            penalty = l2cache_->access(pc)
                          ? config_.l2HitLatency
                          : config_.l2HitLatency + config_.memLatency;
        }
        cycle_ += penalty;
    }
}

uint64_t
InOrderTiming::dataAccess(uint64_t addr, bool write)
{
    uint64_t page = addr >> 12;
    if (page != lastDataPage_) {
        lastDataPage_ = page;
        if (!dtlb_.access(addr))
            cycle_ += config_.tlbMissPenalty;
    }
    if (dcache_->access(addr, write))
        return config_.loadHitLatency;
    unsigned penalty = config_.memLatency;
    if (l2cache_) {
        penalty = l2cache_->access(addr)
                      ? config_.l2HitLatency
                      : config_.l2HitLatency + config_.memLatency;
    }
    return config_.loadHitLatency + penalty;
}

void
InOrderTiming::redirect(unsigned penalty)
{
    cycle_ += penalty;
    issuedThisCycle_ = width_; // next instruction starts a cycle
}

void
InOrderTiming::attachTrace(obs::TraceBuffer *trace)
{
    trace_ = trace;
    frontend_->setTrace(trace);
}

void
InOrderTiming::recordMiss(const RetireInfo &ri, bool mispredicted)
{
    if (mispredicted) {
        ++branchMisses_[size_t(ri.cls)];
        SCD_TRACE_HOOK(trace_, obs::TraceEventKind::Mispredict, ri.pc, 0,
                       ri.op, uint8_t(ri.cls));
    }
}

void
InOrderTiming::retire(const RetireInfo &ri)
{
    chargeFetch(ri.pc);

    // ---- issue ----------------------------------------------------------
    const uint32_t flags = ri.flags;
    bool isMem = flags & (isa::FlagLoad | isa::FlagStore);
    bool isCtrl = flags & (isa::FlagBranch | isa::FlagJump);
    uint64_t start = cycle_;
    if (issuedThisCycle_ >= width_ ||
        (isMem && memIssuedThisCycle_) ||
        (isCtrl && branchIssuedThisCycle_)) {
        start = cycle_ + 1;
    }
    uint64_t issueAt = start;
    if (flags & isa::FlagReadsRs1)
        issueAt = std::max(issueAt, intReady_[ri.rs1]);
    if (flags & isa::FlagReadsRs2)
        issueAt = std::max(issueAt, intReady_[ri.rs2]);
    if (flags & isa::FlagFpReadsRs1)
        issueAt = std::max(issueAt, fpReady_[ri.rs1]);
    if (flags & isa::FlagFpReadsRs2)
        issueAt = std::max(issueAt, fpReady_[ri.rs2]);
    loadUseStalls_ += issueAt - start;
    SCD_TRACE_SET_CYCLE(trace_, issueAt);
    SCD_TRACE_HOOK(trace_, obs::TraceEventKind::Retire, ri.pc, 0, ri.op,
                   ri.ctrl == CtrlKind::None ? obs::kTraceNoClass
                                             : uint8_t(ri.cls));
    if (issueAt > start) {
        SCD_TRACE_HOOK(trace_, obs::TraceEventKind::LoadUseStall, ri.pc,
                       issueAt - start, ri.op);
    }
    if (issueAt > cycle_) {
        issuedThisCycle_ = 1;
        memIssuedThisCycle_ = isMem;
        branchIssuedThisCycle_ = isCtrl;
    } else {
        ++issuedThisCycle_;
        memIssuedThisCycle_ |= isMem;
        branchIssuedThisCycle_ |= isCtrl;
    }
    cycle_ = issueAt;

    // ---- execute: memory and result latency ------------------------------
    uint64_t resultLatency = ri.lat == LatClass::Load
                                 ? dataAccess(ri.memAddr, false)
                                 : latency_[size_t(ri.lat)];
    if (ri.memIsStore) {
        uint64_t lat = dataAccess(ri.memAddr, true);
        // A store miss stalls the (blocking) memory stage.
        if (lat > config_.loadHitLatency)
            cycle_ += lat - config_.loadHitLatency;
    }

    // ---- control flow: prediction and redirects --------------------------
    switch (ri.ctrl) {
      case CtrlKind::None:
        break;

      case CtrlKind::Conditional: {
        bool predTaken = direction_->predict(ri.pc);
        bool effectiveTaken = false;
        bool falseTarget = false;
        if (predTaken) {
            branch::FrontendProbe p = fetchProbe(ri.pc);
            cycle_ += p.bubbles;
            effectiveTaken = p.target.has_value();
            falseTarget = p.falseHit;
        }
        // A false hit steered a predicted-taken fetch to an aliased
        // target: wrong even when the direction guess was right.
        bool mispredict =
            effectiveTaken != ri.taken || (effectiveTaken && falseTarget);
        direction_->update(ri.pc, ri.taken);
        if (ri.taken)
            fetchInsert(ri.pc, ri.nextPc);
        recordMiss(ri, mispredict);
        if (mispredict)
            redirect(config_.mispredictPenalty);
        break;
      }

      case CtrlKind::Jal: {
        branch::FrontendProbe p = fetchProbe(ri.pc);
        cycle_ += p.bubbles;
        bool hit = p.target.has_value() && !p.falseHit;
        fetchInsert(ri.pc, ri.nextPc);
        if (ri.rd == isa::reg::ra)
            ras_->push(ri.pc + 4);
        recordMiss(ri, !hit);
        if (!hit) {
            // An aliased hit fetched down a wrong path and costs a full
            // execute-stage redirect; a plain miss only the decode one.
            redirect(p.falseHit ? config_.mispredictPenalty
                                : config_.btbMissTakenPenalty);
        }
        break;
      }

      case CtrlKind::Jalr: {
        bool mispredict;
        if (ri.isReturn) {
            mispredict = ras_->pop() != ri.nextPc;
        } else if (config_.vbbiEnabled && ri.hintReg >= 0) {
            auto pred = vbbi_->predict(ri.pc, ri.hintValue);
            mispredict = !pred || *pred != ri.nextPc;
            vbbi_->update(ri.pc, ri.hintValue, ri.nextPc);
        } else if (config_.ittageEnabled) {
            auto pred = ittage_->predict(ri.pc);
            mispredict = !pred || *pred != ri.nextPc;
            ittage_->update(ri.pc, ri.nextPc);
        } else {
            branch::FrontendProbe p = fetchProbe(ri.pc);
            cycle_ += p.bubbles;
            mispredict = !p.target || *p.target != ri.nextPc;
            fetchInsert(ri.pc, ri.nextPc);
        }
        if (ri.rd == isa::reg::ra)
            ras_->push(ri.pc + 4);
        recordMiss(ri, mispredict);
        if (mispredict)
            redirect(config_.mispredictPenalty);
        break;
      }

      case CtrlKind::Bop:
        // The fetch stage stalled until Rop became forwardable; the JTE
        // probe itself happened architecturally (never a redirect).
        cycle_ += ri.ropStall;
        ropStallCycles_ += ri.ropStall;
        if (ri.ropStall > 0) {
            SCD_TRACE_HOOK(trace_, obs::TraceEventKind::RopStall, ri.pc,
                           ri.ropStall, ri.op);
        }
        break;

      case CtrlKind::Jru: {
        branch::FrontendProbe p = fetchProbe(ri.pc);
        cycle_ += p.bubbles;
        bool mispredict = !p.target || *p.target != ri.nextPc;
        fetchInsert(ri.pc, ri.nextPc);
        if (ri.jteInsert) {
            SCD_TRACE_HOOK(trace_, obs::TraceEventKind::JteInsert, ri.pc,
                           ri.jteOpcode, ri.op, uint8_t(ri.cls));
            jteInsert(ri.bank, ri.jteOpcode, ri.nextPc);
        }
        recordMiss(ri, mispredict);
        if (mispredict)
            redirect(config_.mispredictPenalty);
        break;
      }

      case CtrlKind::JteFlush:
        SCD_TRACE_HOOK(trace_, obs::TraceEventKind::JteFlush, ri.pc, 0,
                       ri.op);
        jteFlush();
        break;
    }

    // ---- writeback -------------------------------------------------------
    if (ri.writesInt)
        intReady_[ri.rd] = cycle_ + resultLatency;
    if (ri.writesFp)
        fpReady_[ri.rd] = cycle_ + resultLatency;
}

void
InOrderTiming::exportStats(StatGroup &group) const
{
    for (size_t c = 0; c < size_t(BranchClass::NumClasses); ++c) {
        std::string name = branchClassName(BranchClass(c));
        group.counter("branch." + name + ".mispredicted") = branchMisses_[c];
    }
    group.counter("scd.ropStallCycles") = ropStallCycles_;
    group.counter("loadUseStalls") = loadUseStalls_;
    icache_->exportStats(group);
    dcache_->exportStats(group);
    if (l2cache_)
        l2cache_->exportStats(group);
    group.counter("itlb.misses") = itlb_.misses();
    group.counter("dtlb.misses") = dtlb_.misses();
    frontend_->exportStats(group);
    // Only non-ideal organizations can resteer on a false JTE hit; the
    // counters stay out of the default export so the ideal frontend's
    // rendered documents remain byte-identical to the pre-refactor ones.
    if (config_.frontend.kind != branch::FrontendKind::Ideal ||
        config_.frontend.fdip) {
        group.counter("frontend.jteFalseResteers") = jteFalseResteers_;
        group.counter("frontend.jteFalseResteerCycles") =
            jteFalseResteers_ * config_.mispredictPenalty;
    }
}

WideInOrderTiming::WideInOrderTiming(const CoreConfig &config,
                                     unsigned width)
    : InOrderTiming(config)
{
    SCD_ASSERT(width >= 1, "issue width must be at least 1");
    setIssueWidth(width);
}

} // namespace scd::cpu
