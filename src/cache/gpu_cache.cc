#include "cache/gpu_cache.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace migc
{

GpuCache::GpuCache(const GpuCacheConfig &cfg, EventQueue &eq,
                   PacketPool &pool, const AddressMap *addr_map,
                   ReusePredictor *predictor, PolicyEngine *engine,
                   CacheLevel level)
    : SimObject(cfg.name, eq, ClockDomain(cfg.clockPeriod)), cfg_(cfg),
      pktPool_(pool), addrMap_(addr_map), predictor_(predictor),
      engine_(engine), level_(level),
      tags_(cfg.size, cfg.assoc, cfg.lineSize, cfg.repl, cfg.seed,
            cfg.bankInterleaveBits),
      mshrs_(cfg.mshrs, cfg.targetsPerMshr),
      cpuPort_(cfg.name + ".cpu_side", *this),
      memPort_(cfg.name + ".mem_side", *this),
      respQueue_(eq, cpuPort_, cfg.name + ".respq"),
      memQueue_(eq, memPort_, cfg.name + ".memq", cfg.memQueueDepth),
      bypassPending_(cfg.bypassEntries),
      wbDrainEvent_([this] { drainWritebacks(); }, cfg.name + ".wbdrain",
                    Event::defaultPriority, EventCategory::cache),
      retryEvent_(
          [this] {
              if (retryNeeded_) {
                  retryNeeded_ = false;
                  cpuPort_.sendReqRetry();
              }
          },
          cfg.name + ".retry", Event::defaultPriority,
          EventCategory::cache)
{
    fatal_if(cfg.rinsing && addr_map == nullptr,
             "cache rinsing requires a DRAM address map for row ids");
    fatal_if(cfg.lineSize > UINT16_MAX, "line size %u does not fit a packet",
             cfg.lineSize);
    // The DBI is always built (it is tiny) and only consulted when
    // cfg_.rinsing is set, so reset() can flip rinsing on or off
    // without allocating or invalidating registered stats.
    dbi_ = std::make_unique<DirtyBlockIndex>(cfg.dbiRows);

    memQueue_.onSpaceFreed([this] {
        if (!wbQueue_.empty() && !wbDrainEvent_.scheduled())
            eventQueue().schedule(&wbDrainEvent_, curTick());
        maybeSendRetry();
    });
}

GpuCache::~GpuCache() = default;

// ---------------------------------------------------------------------
// Flow control
// ---------------------------------------------------------------------

bool
GpuCache::reject(RejectReason reason, bool counted_stall)
{
    ++statRejects_;
    switch (reason) {
      case RejectReason::port:
        ++statRejectPort_;
        break;
      case RejectReason::mshrFull:
      case RejectReason::targetsFull:
        ++statRejectMshr_;
        break;
      case RejectReason::bypassFull:
      case RejectReason::memQueueFull:
        ++statRejectMemq_;
        break;
      case RejectReason::allocBlocked:
      case RejectReason::writeBufFull:
        ++statAllocBlockedRejects_;
        break;
    }

    if (counted_stall) {
        if (!stalled_) {
            stalled_ = true;
            stallStart_ = curTick();
        }
    } else if (!backpressured_) {
        backpressured_ = true;
        backpressureStart_ = curTick();
    }
    retryNeeded_ = true;

    // Port-occupancy rejections resolve by themselves at a known
    // tick; resource rejections resolve when the resource frees.
    if (reason == RejectReason::port && !retryEvent_.scheduled())
        eventQueue().schedule(&retryEvent_,
                              std::max(nextPortFree_, curTick() + 1));
    return false;
}

void
GpuCache::accepted()
{
    if (stalled_) {
        statStallCycles_ +=
            static_cast<double>((curTick() - stallStart_) /
                                clockDomain().period());
        stalled_ = false;
    }
    if (backpressured_) {
        statBackpressureCycles_ +=
            static_cast<double>((curTick() - backpressureStart_) /
                                clockDomain().period());
        backpressured_ = false;
    }
}

void
GpuCache::maybeSendRetry()
{
    if (retryNeeded_ && !retryEvent_.scheduled()) {
        eventQueue().schedule(&retryEvent_,
                              std::max(nextPortFree_, curTick()));
    }
}

void
GpuCache::occupyPort()
{
    nextPortFree_ = clockEdge(Cycles(1));
}

// ---------------------------------------------------------------------
// Request paths
// ---------------------------------------------------------------------

bool
GpuCache::storeAllocates(Addr addr)
{
    if (engine_ == nullptr || !engine_->duelingActive(level_))
        return true;
    return engine_->cacheStore(
        engine_->duelRole(tags_.setIndex(addr), tags_.numSets()));
}

bool
GpuCache::occupancyPreBypass(PacketPtr pkt)
{
    return engine_ != nullptr && engine_->occupancyBypassActive() &&
           engine_->occupancyBypass(tags_.busyWays(pkt->addr),
                                    cfg_.assoc);
}

void
GpuCache::noteDuelCost(Addr addr, DuelRole charged_role)
{
    if (engine_ == nullptr || !engine_->duelingActive(level_))
        return;
    unsigned set = tags_.setIndex(addr);
    if (engine_->duelRole(set, tags_.numSets()) != charged_role)
        return;
    tags_.bumpDuelSample(set);
    if (charged_role == DuelRole::leaderR)
        engine_->noteDuelBypassStore();
    else
        engine_->noteDuelWriteback();
}

bool
GpuCache::handleRequest(PacketPtr pkt)
{
    panic_if(pkt->addr != tags_.lineAlign(pkt->addr),
             "unaligned cache request %s", pkt->print().c_str());

    bool cached_path = false;
    switch (pkt->cmd) {
      case MemCmd::ReadReq:
        cached_path = cfg_.cacheLoads && !pkt->hasFlag(pktFlagBypass);
        break;
      case MemCmd::WriteReq:
        cached_path = cfg_.cacheStores &&
                      !pkt->hasFlag(pktFlagBypass) &&
                      storeAllocates(pkt->addr);
        break;
      default:
        panic("unexpected request %s at cache %s", pkt->print().c_str(),
              name().c_str());
    }

    if (curTick() < nextPortFree_)
        return reject(RejectReason::port, cached_path);

    bool ok;
    if (pkt->cmd == MemCmd::ReadReq)
        ok = cached_path ? cachedRead(pkt) : bypassRead(pkt);
    else
        ok = cached_path ? cachedWrite(pkt) : bypassWrite(pkt);

    if (ok) {
        occupyPort();
        accepted();
    }
    return ok;
}

bool
GpuCache::cachedRead(PacketPtr pkt)
{
    CacheBlk *blk = tags_.findBlock(pkt->addr);

    if (blk && blk->isValid()) {
        ++statHits_;
        tags_.touch(blk);
        if (!blk->reused) {
            blk->reused = true;
            if (predictor_)
                predictor_->trainReuse(blk->insertPc);
        }
        pkt->makeResponse();
        respQueue_.push(pkt, clockEdge(cfg_.lookupLatency));
        return true;
    }

    if (blk && blk->isBusy()) {
        Mshr *mshr = mshrs_.find(pkt->addr);
        panic_if(mshr == nullptr, "busy block without MSHR");
        if (!mshrs_.canCoalesce(*mshr))
            return reject(RejectReason::targetsFull, true);
        ++statMshrCoalesced_;
        mshr->addTarget(pkt);
        return true;
    }

    // Demand miss.
    if (predictor_ && !predictor_->shouldCache(pkt->pc, pkt->addr)) {
        ++statPredictorBypasses_;
        return bypassRead(pkt);
    }

    // Adaptive allocation bypass: convert to a bypass before the set
    // congests, not only once allocation actually blocks below.
    if (occupancyPreBypass(pkt)) {
        ++statAllocBypassed_;
        pkt->setFlag(pktFlagAllocBypassed);
        return bypassRead(pkt);
    }

    if (mshrs_.full())
        return reject(RejectReason::mshrFull, true);
    if (memQueue_.full())
        return reject(RejectReason::memQueueFull, true);

    CacheBlk *victim = tags_.findVictim(pkt->addr);
    if (victim == nullptr) {
        // Every way in the set holds a pending fill: the blocking
        // allocation case of Section VI.C.1.
        if (cfg_.allocationBypass) {
            ++statAllocBypassed_;
            pkt->setFlag(pktFlagAllocBypassed);
            return bypassRead(pkt);
        }
        return reject(RejectReason::allocBlocked, true);
    }

    if (victim->isDirty() && wbQueue_.size() >= cfg_.writeBufDepth) {
        if (cfg_.allocationBypass) {
            ++statAllocBypassed_;
            pkt->setFlag(pktFlagAllocBypassed);
            return bypassRead(pkt);
        }
        return reject(RejectReason::writeBufFull, true);
    }

    ++statMisses_;
    if (victim->isValid())
        evictBlock(victim);

    tags_.insert(victim, pkt->addr, BlkState::busy, pkt->pc);

    Packet *fill = pktPool_.alloc(MemCmd::ReadReq, pkt->addr,
                                  cfg_.lineSize, curTick());
    fill->pc = pkt->pc;
    fill->cuId = pkt->cuId;

    Mshr &mshr = mshrs_.allocate(pkt->addr, victim, fill->id);
    mshr.addTarget(pkt);

    memQueue_.push(fill, clockEdge(cfg_.lookupLatency));
    return true;
}

bool
GpuCache::cachedWrite(PacketPtr pkt)
{
    CacheBlk *blk = tags_.findBlock(pkt->addr);

    if (blk && blk->isValid()) {
        ++statHits_;
        ++statStoresAbsorbed_;
        tags_.touch(blk);
        if (!blk->reused) {
            blk->reused = true;
            if (predictor_)
                predictor_->trainReuse(blk->insertPc);
        }
        if (!blk->isDirty()) {
            tags_.setState(blk, BlkState::dirty);
            if (cfg_.rinsing) {
                auto spilled = dbi_->add(addrMap_->rowId(blk->addr),
                                         blk->addr);
                for (Addr line : spilled) {
                    CacheBlk *sb = tags_.findBlock(line);
                    if (sb && sb->isDirty()) {
                        scheduleWriteback(line, pktFlagRinse);
                        tags_.setState(sb, BlkState::valid);
                    }
                }
            }
        }
        pkt->makeResponse();
        respQueue_.push(pkt, clockEdge(cfg_.lookupLatency));
        return true;
    }

    if (blk && blk->isBusy()) {
        Mshr *mshr = mshrs_.find(pkt->addr);
        panic_if(mshr == nullptr, "busy block without MSHR");
        if (!mshrs_.canCoalesce(*mshr))
            return reject(RejectReason::targetsFull, true);
        ++statMshrCoalesced_;
        mshr->hasStoreTarget = true;
        mshr->addTarget(pkt);
        return true;
    }

    // Store miss: write-validate (allocate dirty, no fetch).
    if (predictor_ && !predictor_->shouldCache(pkt->pc, pkt->addr)) {
        ++statPredictorBypasses_;
        return bypassWrite(pkt);
    }

    if (occupancyPreBypass(pkt)) {
        ++statAllocBypassed_;
        pkt->setFlag(pktFlagAllocBypassed);
        return bypassWrite(pkt);
    }

    CacheBlk *victim = tags_.findVictim(pkt->addr);
    if (victim == nullptr) {
        if (cfg_.allocationBypass) {
            ++statAllocBypassed_;
            pkt->setFlag(pktFlagAllocBypassed);
            return bypassWrite(pkt);
        }
        return reject(RejectReason::allocBlocked, true);
    }

    if (victim->isDirty() && wbQueue_.size() >= cfg_.writeBufDepth) {
        if (cfg_.allocationBypass) {
            ++statAllocBypassed_;
            pkt->setFlag(pktFlagAllocBypassed);
            return bypassWrite(pkt);
        }
        return reject(RejectReason::writeBufFull, true);
    }

    ++statMisses_;
    ++statStoresAbsorbed_;
    if (victim->isValid())
        evictBlock(victim);

    tags_.insert(victim, pkt->addr, BlkState::dirty, pkt->pc);
    if (cfg_.rinsing) {
        auto spilled = dbi_->add(addrMap_->rowId(pkt->addr), pkt->addr);
        for (Addr line : spilled) {
            CacheBlk *sb = tags_.findBlock(line);
            if (sb && sb->isDirty()) {
                scheduleWriteback(line, pktFlagRinse);
                tags_.setState(sb, BlkState::valid);
            }
        }
    }

    pkt->makeResponse();
    respQueue_.push(pkt, clockEdge(cfg_.lookupLatency));
    return true;
}

bool
GpuCache::bypassRead(PacketPtr pkt)
{
    // Bypass requests still probe the tags when this cache can hold
    // data (required for correctness under mixed policies); under a
    // fully uncached policy the tag array is never built up, so the
    // probe trivially misses.
    if (cfg_.cacheLoads || cfg_.cacheStores) {
        CacheBlk *blk = tags_.findBlock(pkt->addr);
        if (blk && blk->isValid()) {
            ++statHits_;
            tags_.touch(blk);
            if (!blk->reused) {
                blk->reused = true;
                if (predictor_)
                    predictor_->trainReuse(blk->insertPc);
            }
            pkt->makeResponse();
            respQueue_.push(pkt, clockEdge(cfg_.lookupLatency));
            return true;
        }
    }

    if (BypassEntry *pending = bypassPending_.find(pkt->addr)) {
        // Coalesce onto the in-flight bypass request (Section III).
        ++statBypassCoalesced_;
        pending->targets.push_back(pkt);
        return true;
    }

    // A bypass request never queries the cache arrays, so waiting for
    // a coalescer slot or queue space is memory back-pressure, not a
    // cache stall in the paper's Section VI.C.1 sense.
    if (bypassPending_.full())
        return reject(RejectReason::bypassFull, false);
    if (memQueue_.full())
        return reject(RejectReason::memQueueFull, false);

    ++statBypassReads_;
    Packet *fwd = pktPool_.alloc(MemCmd::ReadReq, pkt->addr,
                                 cfg_.lineSize, curTick());
    fwd->pc = pkt->pc;
    fwd->cuId = pkt->cuId;
    fwd->flags = pkt->flags;
    fwd->setFlag(pktFlagBypass);

    BypassEntry &entry = bypassPending_.insert(pkt->addr);
    entry.fwdPktId = fwd->id;
    entry.targets.push_back(pkt);

    memQueue_.push(fwd, clockEdge(cfg_.bypassLatency));
    return true;
}

bool
GpuCache::bypassWrite(PacketPtr pkt)
{
    if (cfg_.cacheLoads || cfg_.cacheStores) {
        CacheBlk *blk = tags_.findBlock(pkt->addr);
        if (blk && blk->isDirty()) {
            // The line already holds newer coalesced store data;
            // absorb this store into it rather than racing it to
            // memory.
            ++statHits_;
            ++statStoresAbsorbed_;
            tags_.touch(blk);
            pkt->makeResponse();
            respQueue_.push(pkt, clockEdge(cfg_.lookupLatency));
            return true;
        }
        if (blk && blk->state == BlkState::valid) {
            // Write-through under a clean copy: invalidate it.
            tags_.invalidateBlock(blk);
            ++statInvalidations_;
        }
    }

    if (memQueue_.full())
        return reject(RejectReason::memQueueFull, false);

    ++statBypassWrites_;
    // A store bypassing a CacheR leader set is that constituency's
    // DRAM-write cost in the store-policy duel.
    noteDuelCost(pkt->addr, DuelRole::leaderR);
    // Forward the original packet; the ack routes back through us.
    memQueue_.push(pkt, clockEdge(cfg_.bypassLatency));
    return true;
}

// ---------------------------------------------------------------------
// Eviction and writeback machinery
// ---------------------------------------------------------------------

void
GpuCache::trainOnEviction(const CacheBlk &blk)
{
    if (predictor_ && !blk.reused)
        predictor_->trainNoReuse(blk.insertPc);
}

void
GpuCache::evictBlock(CacheBlk *blk)
{
    panic_if(!blk->isValid(), "evicting an invalid block");
    debug_log("%s: evict %#llx%s", name().c_str(),
              static_cast<unsigned long long>(blk->addr),
              blk->isDirty() ? " (dirty)" : "");

    if (blk->isDirty()) {
        scheduleWriteback(blk->addr, pktFlagNone);
        if (cfg_.rinsing) {
            std::uint64_t row = addrMap_->rowId(blk->addr);
            if (engine_ == nullptr ||
                engine_->rinseRow(dbi_->rowPopulation(row))) {
                // Rinse: push every other dirty line of this DRAM row
                // out with the victim so the controller sees row-
                // clustered writes (Section VII.B). Rinsed lines stay
                // cached clean.
                for (Addr line : dbi_->takeRow(row, blk->addr)) {
                    CacheBlk *rb = tags_.findBlock(line);
                    if (rb && rb->isDirty()) {
                        scheduleWriteback(line, pktFlagRinse);
                        tags_.setState(rb, BlkState::valid);
                    }
                }
            } else {
                // Dynamic threshold says the row is still too sparse
                // to drain: keep its other dirty lines cached and
                // only drop the evicted line from the index.
                ++statRinseDeferred_;
                dbi_->remove(row, blk->addr);
            }
        }
    }

    trainOnEviction(*blk);
    tags_.invalidateBlock(blk);
}

void
GpuCache::scheduleWriteback(Addr line_addr, std::uint32_t flags)
{
    ++statWritebacks_;
    if (flags & pktFlagRinse)
        ++statRinseWritebacks_;
    if (flags & pktFlagFlush)
        ++statFlushWritebacks_;
    // A writeback leaving a CacheRW leader set is that constituency's
    // DRAM-write cost in the store-policy duel.
    noteDuelCost(line_addr, DuelRole::leaderRW);

    wbQueue_.push_back(PendingWb{line_addr, flags});
    ++outstandingWbs_;
    if (!wbDrainEvent_.scheduled())
        eventQueue().schedule(&wbDrainEvent_, clockEdge(Cycles(1)));
}

void
GpuCache::drainWritebacks()
{
    while (!wbQueue_.empty() && !memQueue_.full()) {
        PendingWb wb = wbQueue_.front();
        wbQueue_.pop_front();
        Packet *pkt = pktPool_.alloc(MemCmd::WritebackDirty, wb.lineAddr,
                                     cfg_.lineSize, curTick());
        pkt->flags = wb.flags;
        memQueue_.push(pkt, curTick());
    }
    if (wbQueue_.size() < cfg_.writeBufDepth)
        maybeSendRetry();
}

void
GpuCache::checkFlushDone()
{
    if (flushDone_ && wbQueue_.empty() && outstandingWbs_ == 0) {
        auto done = std::move(flushDone_);
        flushDone_ = nullptr;
        done();
    }
}

// ---------------------------------------------------------------------
// Response paths
// ---------------------------------------------------------------------

void
GpuCache::handleResponse(PacketPtr pkt)
{
    switch (pkt->cmd) {
      case MemCmd::ReadResp: {
        Mshr *mshr = mshrs_.find(pkt->addr);
        if (mshr && mshr->fillPktId == pkt->id) {
            completeFill(pkt);
            return;
        }
        BypassEntry *pending = bypassPending_.find(pkt->addr);
        if (pending && pending->fwdPktId == pkt->id) {
            completeBypassRead(pkt);
            return;
        }
        panic("orphan read response %s at %s", pkt->print().c_str(),
              name().c_str());
      }
      case MemCmd::WriteResp:
        // Ack for a store we forwarded on behalf of the requester.
        respQueue_.push(pkt, clockEdge(cfg_.bypassLatency));
        return;
      case MemCmd::WritebackResp:
        handleWritebackResp(pkt);
        return;
      default:
        panic("unexpected response %s at %s", pkt->print().c_str(),
              name().c_str());
    }
}

void
GpuCache::completeFill(PacketPtr fill_pkt)
{
    Addr line = fill_pkt->addr;
    Mshr *mshr = mshrs_.find(line);
    panic_if(mshr == nullptr, "fill without MSHR");
    debug_log("%s: fill %s (%zu targets)", name().c_str(),
              fill_pkt->print().c_str(),
              static_cast<std::size_t>(mshr->numTargets));
    CacheBlk *blk = mshr->blk;
    panic_if(!blk->isBusy(), "fill into a non-busy block");

    tags_.setState(blk, mshr->hasStoreTarget ? BlkState::dirty
                                             : BlkState::valid);
    if (blk->isDirty() && cfg_.rinsing) {
        auto spilled = dbi_->add(addrMap_->rowId(line), line);
        for (Addr spilled_line : spilled) {
            CacheBlk *sb = tags_.findBlock(spilled_line);
            if (sb && sb->isDirty()) {
                scheduleWriteback(spilled_line, pktFlagRinse);
                tags_.setState(sb, BlkState::valid);
            }
        }
    }

    // Coalesced targets beyond the first observed reuse of the line.
    if (mshr->numTargets > 1 && !blk->reused) {
        blk->reused = true;
        if (predictor_)
            predictor_->trainReuse(blk->insertPc);
    }

    Tick ready = clockEdge(cfg_.responseLatency);
    while (!mshr->targets.empty()) {
        PacketPtr target = mshr->targets.pop_front();
        if (target->cmd == MemCmd::WriteReq)
            ++statStoresAbsorbed_;
        target->makeResponse();
        respQueue_.push(target, ready);
    }

    mshrs_.deallocate(line);
    pktPool_.release(fill_pkt);
    maybeSendRetry();
}

void
GpuCache::completeBypassRead(PacketPtr fwd_pkt)
{
    BypassEntry *pending = bypassPending_.find(fwd_pkt->addr);
    panic_if(pending == nullptr, "bypass completion w/o entry");

    Tick ready = clockEdge(cfg_.bypassLatency);
    while (!pending->targets.empty()) {
        PacketPtr target = pending->targets.pop_front();
        target->makeResponse();
        respQueue_.push(target, ready);
    }
    bypassPending_.erase(fwd_pkt->addr);
    pktPool_.release(fwd_pkt);
    maybeSendRetry();
}

void
GpuCache::handleWritebackResp(PacketPtr pkt)
{
    panic_if(outstandingWbs_ == 0, "writeback ack without writeback");
    --outstandingWbs_;
    pktPool_.release(pkt);
    checkFlushDone();
    maybeSendRetry();
}

// ---------------------------------------------------------------------
// Synchronization operations
// ---------------------------------------------------------------------

std::uint64_t
GpuCache::invalidateClean()
{
    std::uint64_t n = tags_.invalidateClean();
    statInvalidations_ += static_cast<double>(n);
    return n;
}

void
GpuCache::flushDirty(std::function<void()> on_done)
{
    panic_if(flushDone_ != nullptr, "overlapping flushes");
    flushDone_ = std::move(on_done);

    tags_.forEachDirty([this](CacheBlk &blk) {
        scheduleWriteback(blk.addr, pktFlagFlush);
        if (cfg_.rinsing)
            dbi_->remove(addrMap_->rowId(blk.addr), blk.addr);
        tags_.setState(&blk, BlkState::valid);
    });

    checkFlushDone();
}

bool
GpuCache::quiescent() const
{
    return mshrs_.size() == 0 && bypassPending_.empty() &&
           wbQueue_.empty() && outstandingWbs_ == 0 &&
           respQueue_.empty() && memQueue_.empty();
}

void
GpuCache::reset(const PolicyView &pv, ReusePredictor *predictor)
{
    panic_if(!quiescent(), "resetting cache %s with traffic in flight",
             name().c_str());
    fatal_if(pv.rinsing && addrMap_ == nullptr,
             "cache rinsing requires a DRAM address map for row ids");

    // Only the policy flags and the seed may change across runs.
    cfg_.cacheLoads = pv.cacheLoads;
    cfg_.cacheStores = pv.cacheStores;
    cfg_.allocationBypass = pv.allocationBypass;
    cfg_.rinsing = pv.rinsing;
    cfg_.seed = pv.seed;
    predictor_ = predictor;

    tags_.reset(cfg_.seed);
    mshrs_.clear();
    dbi_->reset();
    bypassPending_.clear();
    wbQueue_.clear();
    outstandingWbs_ = 0;
    flushDone_ = nullptr;
    respQueue_.reset();
    memQueue_.reset();

    nextPortFree_ = 0;
    retryNeeded_ = false;
    stalled_ = false;
    stallStart_ = 0;
    backpressured_ = false;
    backpressureStart_ = 0;

    statHits_.reset();
    statMisses_.reset();
    statMshrCoalesced_.reset();
    statBypassReads_.reset();
    statBypassWrites_.reset();
    statBypassCoalesced_.reset();
    statStoresAbsorbed_.reset();
    statWritebacks_.reset();
    statRinseWritebacks_.reset();
    statRinseDeferred_.reset();
    statFlushWritebacks_.reset();
    statAllocBlockedRejects_.reset();
    statAllocBypassed_.reset();
    statPredictorBypasses_.reset();
    statStallCycles_.reset();
    statBackpressureCycles_.reset();
    statRejects_.reset();
    statRejectPort_.reset();
    statRejectMshr_.reset();
    statRejectMemq_.reset();
    statInvalidations_.reset();
}

// ---------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------

void
GpuCache::regStats(StatGroup &group)
{
    group.addScalar("hits", "demand hits", &statHits_);
    group.addScalar("misses", "demand misses (fills issued)",
                    &statMisses_);
    group.addScalar("mshr_coalesced", "requests coalesced onto MSHRs",
                    &statMshrCoalesced_);
    group.addScalar("bypass_reads", "bypass read requests forwarded",
                    &statBypassReads_);
    group.addScalar("bypass_writes", "bypass writes forwarded",
                    &statBypassWrites_);
    group.addScalar("bypass_coalesced",
                    "reads coalesced onto pending bypasses",
                    &statBypassCoalesced_);
    group.addScalar("stores_absorbed", "stores coalesced into the cache",
                    &statStoresAbsorbed_);
    group.addScalar("writebacks", "dirty writebacks issued",
                    &statWritebacks_);
    group.addScalar("rinse_writebacks", "writebacks from DBI rinsing",
                    &statRinseWritebacks_);
    group.addScalar("rinse_deferred",
                    "eviction rows kept cached by the dynamic "
                    "rinse threshold",
                    &statRinseDeferred_);
    group.addScalar("flush_writebacks", "writebacks from scope flushes",
                    &statFlushWritebacks_);
    group.addScalar("alloc_blocked_rejects",
                    "requests stalled on busy sets / full write buffer",
                    &statAllocBlockedRejects_);
    group.addScalar("alloc_bypassed",
                    "requests converted to bypass by AB",
                    &statAllocBypassed_);
    group.addScalar("predictor_bypasses",
                    "requests bypassed by PC prediction",
                    &statPredictorBypasses_);
    group.addScalar("stall_cycles", "cycles a ready request was blocked",
                    &statStallCycles_);
    group.addScalar("backpressure_cycles",
                    "cycles bypass traffic waited on memory queues",
                    &statBackpressureCycles_);
    group.addScalar("rejects", "requests rejected (all reasons)",
                    &statRejects_);
    group.addScalar("rejects_port", "rejects: port busy",
                    &statRejectPort_);
    group.addScalar("rejects_mshr", "rejects: MSHR/targets full",
                    &statRejectMshr_);
    group.addScalar("rejects_memq", "rejects: downstream queue full",
                    &statRejectMemq_);
    group.addScalar("invalidations", "lines self-invalidated",
                    &statInvalidations_);
    group.addFormula("hit_rate", "hits / (hits + misses)", [this] {
        double acc = demandAccesses();
        return acc > 0 ? statHits_.value() / acc : 0.0;
    });
    dbi_->regStats(group.child("dbi"));
}

} // namespace migc
