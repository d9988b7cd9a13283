#include "gpu/compute_unit.hh"

#include <algorithm>

#include "gpu/coalescer.hh"
#include "sim/logging.hh"

namespace migc
{

ComputeUnit::ComputeUnit(std::string name, EventQueue &eq,
                         PacketPool &pool, const GpuConfig &cfg,
                         unsigned cu_id)
    : SimObject(std::move(name), eq, ClockDomain(cfg.clockPeriod)),
      pktPool_(pool), cfg_(cfg), cuId_(cu_id),
      slots_(static_cast<std::size_t>(cfg.simdsPerCu) *
             cfg.wfSlotsPerSimd),
      simdBusyUntil_(cfg.simdsPerCu, 0),
      simdRoundRobin_(cfg.simdsPerCu, 0),
      simdReady_(cfg.simdsPerCu, 0),
      simdNeedLines_(cfg.simdsPerCu, 0), memQueue_(cfg.memQueueDepth),
      memPort_(this->name() + ".mem", *this),
      tickEvent_([this] { tick(); }, this->name() + ".tick",
                 Event::cpuTickPriority, EventCategory::gpu)
{
    fatal_if(slots_.size() >= Packet::noRoute,
             "more wavefront slots than a packet route can name");
    fatal_if(cu_id > INT16_MAX, "CU id %u does not fit a packet", cu_id);
    fatal_if(cfg.lineSize > UINT16_MAX, "line size %u does not fit a packet",
             cfg.lineSize);
}

unsigned
ComputeUnit::freeWfSlots() const
{
    unsigned free_slots = 0;
    for (const auto &wf : slots_) {
        if (!wf.active)
            ++free_slots;
    }
    return free_slots;
}

void
ComputeUnit::startWorkgroup(std::uint32_t wg_id,
                            std::vector<WavefrontProgram> programs)
{
    panic_if(programs.size() > freeWfSlots(),
             "workgroup dispatched to a full CU");
    panic_if(workgroupLive(wg_id),
             "workgroup %u already live on %s", wg_id, name().c_str());

    for (std::size_t i = 0; i < programs.size(); ++i) {
        // Place each wavefront on the SIMD with the most free slots
        // to spread issue bandwidth.
        unsigned best_simd = 0;
        unsigned best_free = 0;
        for (unsigned s = 0; s < cfg_.simdsPerCu; ++s) {
            unsigned free_here = 0;
            for (unsigned k = 0; k < cfg_.wfSlotsPerSimd; ++k) {
                if (!slots_[s * cfg_.wfSlotsPerSimd + k].active)
                    ++free_here;
            }
            if (free_here > best_free) {
                best_free = free_here;
                best_simd = s;
            }
        }
        panic_if(best_free == 0, "no free slot despite capacity check");

        for (unsigned k = 0; k < cfg_.wfSlotsPerSimd; ++k) {
            auto idx = best_simd * cfg_.wfSlotsPerSimd + k;
            if (!slots_[idx].active) {
                Wavefront &wf = slots_[idx];
                wf.reset();
                wf.active = true;
                wf.wgId = wg_id;
                wf.wfId = static_cast<std::uint32_t>(i);
                wf.program = std::move(programs[i]);
                if (!wf.instructionsDone())
                    ++simdReady_[best_simd];
                simdNeedLines_[best_simd] = 0;
                ++liveWavefronts_;
                ++statWavefrontsRun_;
                break;
            }
        }
    }
    signalWork();
}

bool
ComputeUnit::idle() const
{
    return liveWavefronts_ == 0 && memQueue_.empty() &&
           outstandingLoads_ == 0 && outstandingStores_ == 0;
}

bool
ComputeUnit::workgroupLive(std::uint32_t wg) const
{
    for (const auto &wf : slots_) {
        if (wf.active && wf.wgId == wg)
            return true;
    }
    return false;
}

void
ComputeUnit::reset()
{
    panic_if(!idle(), "resetting CU %u with work in flight", cuId_);
    for (auto &wf : slots_)
        wf.reset();
    std::fill(simdBusyUntil_.begin(), simdBusyUntil_.end(), 0);
    std::fill(simdRoundRobin_.begin(), simdRoundRobin_.end(), 0u);
    std::fill(simdReady_.begin(), simdReady_.end(), 0u);
    std::fill(simdNeedLines_.begin(), simdNeedLines_.end(), 0);
    memQueue_.clear();
    portBlocked_ = false;
    outstandingLoads_ = 0;
    outstandingStores_ = 0;
    liveWavefronts_ = 0;

    statVops_.reset();
    statLoadReqs_.reset();
    statStoreReqs_.reset();
    statLdsCycles_.reset();
    statActiveCycles_.reset();
    statWavefrontsRun_.reset();
}

void
ComputeUnit::signalWork()
{
    if (!tickEvent_.scheduled())
        eventQueue().schedule(&tickEvent_, clockEdge(Cycles(0)));
}

void
ComputeUnit::tick()
{
    ++statActiveCycles_;

    // A skipped SIMD is one whose scan would issue nothing and change
    // nothing: it has no ready wavefront, or all of them need more
    // queue space than is free (see simdNeedLines_).
    for (unsigned s = 0; s < cfg_.simdsPerCu; ++s) {
        if (simdBusyUntil_[s] <= curTick() && simdReady_[s] > 0 &&
            simdNeedLines_[s] <= cfg_.memQueueDepth - memQueue_.size())
            issueFromSimd(s);
    }

    issueMemory();

    // Re-arm only while issueable work exists; blocked wavefronts are
    // woken by memory responses, port retries free the queue.
    bool more = !memQueue_.empty() && !portBlocked_;
    for (unsigned s = 0; !more && s < cfg_.simdsPerCu; ++s)
        more = simdReady_[s] > 0;
    // A workgroup completion inside this tick may have re-armed the
    // event via the dispatcher's startWorkgroup -> signalWork chain.
    if (more && !tickEvent_.scheduled())
        eventQueue().schedule(&tickEvent_, clockEdge(Cycles(1)));
}

bool
ComputeUnit::issueFromSimd(unsigned simd)
{
    unsigned base = simd * cfg_.wfSlotsPerSimd;
    std::size_t need = SIZE_MAX;
    for (unsigned n = 0; n < cfg_.wfSlotsPerSimd; ++n) {
        unsigned k = (simdRoundRobin_[simd] + n) % cfg_.wfSlotsPerSimd;
        int idx = static_cast<int>(base + k);
        Wavefront &wf = slots_[static_cast<std::size_t>(idx)];
        if (!wf.active || wf.instructionsDone() || wf.waitingMem)
            continue;
        if (executeOp(idx, wf)) {
            simdRoundRobin_[simd] = (k + 1) % cfg_.wfSlotsPerSimd;
            simdNeedLines_[simd] = 0;
            return true;
        }
        // Not parked at waitLoads, so blocked on queue space.
        if (!wf.waitingMem)
            need = std::min(need, wf.coalesced.size());
    }
    simdNeedLines_[simd] = need;
    return false;
}

bool
ComputeUnit::executeOp(int slot_index, Wavefront &wf)
{
    const GpuOp &op = wf.program[wf.pcIdx];
    unsigned simd = static_cast<unsigned>(slot_index) /
                    cfg_.wfSlotsPerSimd;

    switch (op.type) {
      case GpuOpType::valu:
        statVops_ += op.vops;
        simdBusyUntil_[simd] = clockEdge(Cycles(op.cycles));
        ++wf.pcIdx;
        break;

      case GpuOpType::lds:
        statLdsCycles_ += op.cycles;
        simdBusyUntil_[simd] = clockEdge(Cycles(op.cycles));
        ++wf.pcIdx;
        break;

      case GpuOpType::vload:
      case GpuOpType::vstore: {
        if (wf.coalescedPc != wf.pcIdx) {
            coalesceInto(op, cfg_.lineSize, wf.coalesced);
            wf.coalescedPc = wf.pcIdx;
        }
        const std::vector<Addr> &lines = wf.coalesced;
        if (memQueue_.size() + lines.size() > cfg_.memQueueDepth)
            return false; // try again when the queue drains
        bool is_load = op.type == GpuOpType::vload;
        for (Addr line : lines) {
            memQueue_.push_back(
                PendingLine{line, is_load, op.pc, slot_index});
            if (is_load) {
                ++wf.outstandingLoads;
                ++statLoadReqs_;
            } else {
                ++outstandingStores_;
                ++statStoreReqs_;
            }
        }
        simdBusyUntil_[simd] = clockEdge(Cycles(op.cycles));
        ++wf.pcIdx;
        break;
      }

      case GpuOpType::waitLoads:
        if (wf.outstandingLoads > 0) {
            wf.waitingMem = true;
            --simdReady_[simd];
            return false;
        }
        simdBusyUntil_[simd] = clockEdge(Cycles(op.cycles));
        ++wf.pcIdx;
        break;
    }

    if (wf.instructionsDone())
        --simdReady_[simd];
    if (wf.complete())
        wavefrontFinished(slot_index);
    return true;
}

void
ComputeUnit::issueMemory()
{
    unsigned sent = 0;
    while (!memQueue_.empty() && !portBlocked_ &&
           sent < cfg_.memIssueWidth) {
        const PendingLine &pl = memQueue_.front();
        Packet *pkt = pktPool_.alloc(pl.isLoad ? MemCmd::ReadReq
                                               : MemCmd::WriteReq,
                                     pl.addr, cfg_.lineSize, curTick());
        pkt->pc = pl.pc;
        pkt->cuId = static_cast<std::int16_t>(cuId_);
        if (pl.isLoad) {
            pkt->loadSlot = static_cast<std::uint16_t>(pl.slot);
            ++outstandingLoads_;
        }

        if (!memPort_.sendTimingReq(pkt)) {
            if (pl.isLoad)
                --outstandingLoads_;
            pktPool_.release(pkt);
            portBlocked_ = true;
            return;
        }
        memQueue_.pop_front();
        ++sent;
    }
}

void
ComputeUnit::handleResponse(PacketPtr pkt)
{
    switch (pkt->cmd) {
      case MemCmd::ReadResp: {
        int slot = pkt->loadSlot;
        panic_if(outstandingLoads_ == 0 ||
                     static_cast<std::size_t>(slot) >= slots_.size(),
                 "load response for unknown %s", pkt->print().c_str());
        --outstandingLoads_;
        Wavefront &wf = slots_[static_cast<std::size_t>(slot)];
        panic_if(wf.outstandingLoads == 0, "spurious load response");
        --wf.outstandingLoads;
        if (wf.waitingMem && wf.outstandingLoads == 0) {
            wf.waitingMem = false;
            const unsigned simd =
                static_cast<unsigned>(slot) / cfg_.wfSlotsPerSimd;
            ++simdReady_[simd];
            simdNeedLines_[simd] = 0;
            signalWork();
        }
        if (wf.complete())
            wavefrontFinished(slot);
        pktPool_.release(pkt);
        break;
      }
      case MemCmd::WriteResp:
        panic_if(outstandingStores_ == 0, "spurious store ack");
        --outstandingStores_;
        pktPool_.release(pkt);
        break;
      default:
        panic("unexpected response %s at CU %u", pkt->print().c_str(),
              cuId_);
    }
}

void
ComputeUnit::wavefrontFinished(int slot_index)
{
    Wavefront &wf = slots_[static_cast<std::size_t>(slot_index)];
    std::uint32_t wg = wf.wgId;
    wf.reset();
    panic_if(liveWavefronts_ == 0, "wavefront underflow");
    --liveWavefronts_;

    // The workgroup retires with its last wavefront.
    if (!workgroupLive(wg) && wgCompleteCb_)
        wgCompleteCb_(cuId_);
}

void
ComputeUnit::regStats(StatGroup &group)
{
    group.addScalar("vops", "vector ALU operations", &statVops_);
    group.addScalar("load_reqs", "coalesced line loads issued",
                    &statLoadReqs_);
    group.addScalar("store_reqs", "coalesced line stores issued",
                    &statStoreReqs_);
    group.addScalar("lds_cycles", "cycles spent on LDS ops",
                    &statLdsCycles_);
    group.addScalar("active_cycles", "cycles with issueable work",
                    &statActiveCycles_);
    group.addScalar("wavefronts", "wavefronts executed",
                    &statWavefrontsRun_);
}

} // namespace migc
