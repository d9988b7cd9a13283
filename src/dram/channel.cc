#include "dram/channel.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace migc
{

Channel::Channel(std::string name, EventQueue &eq, const DramConfig &cfg,
                 const AddressMap &map, unsigned index,
                 RespondFn respond, SpaceFn space_freed)
    : SimObject(std::move(name), eq, ClockDomain(cfg.tBurst)),
      cfg_(cfg), map_(map), index_(index), respond_(std::move(respond)),
      spaceFreed_(std::move(space_freed)), banks_(cfg.banksPerChannel),
      readQ_(cfg.readQDepth), writeQ_(cfg.writeQDepth),
      serviceEvent_([this] { serviceQueues(); }, this->name() + ".service",
                    Event::defaultPriority, EventCategory::dram)
{}

bool
Channel::enqueue(PacketPtr pkt)
{
    DramCoord coord = map_.decode(pkt->addr);
    panic_if(coord.channel != index_, "packet routed to wrong channel");

    bool is_write = isWriteCmd(pkt->cmd);
    auto &q = is_write ? writeQ_ : readQ_;
    std::size_t depth = is_write ? cfg_.writeQDepth : cfg_.readQDepth;
    if (q.size() >= depth)
        return false;

    // Writes are acked at the queue (point of global visibility) and
    // drain later; the requester may free the packet once the ack
    // arrives, so the queue entry must not retain the pointer.
    q.push_back(QueueEntry{is_write ? nullptr : pkt, coord, curTick()});

    if (is_write) {
        pkt->makeResponse();
        respond_(pkt, curTick() + cfg_.respLatency);
    } else {
        lastReadArrival_ = curTick();
    }

    scheduleNext(curTick());
    return true;
}

void
Channel::scheduleNext(Tick when)
{
    Tick at = std::max(when, curTick());
    if (!serviceEvent_.scheduled())
        eventQueue().schedule(&serviceEvent_, at);
    else if (serviceEvent_.when() > at)
        eventQueue().reschedule(&serviceEvent_, at);
}

std::size_t
Channel::pickFrFcfs(const Ring<QueueEntry> &q) const
{
    std::size_t window = std::min<std::size_t>(q.size(),
                                               cfg_.schedulerWindow);
    // First ready row hit wins (first-ready); otherwise oldest (FCFS).
    for (std::size_t i = 0; i < window; ++i) {
        const auto &e = q[i];
        const Bank &bank = banks_[e.coord.bank];
        if (bank.classify(e.coord.row) == RowOutcome::hit &&
            bank.readyAt() <= curTick()) {
            return i;
        }
    }
    // Second pass: any row hit in the window, even if the bank is
    // still busy; keeping the streak beats strict age order.
    for (std::size_t i = 0; i < window; ++i) {
        const auto &e = q[i];
        if (banks_[e.coord.bank].classify(e.coord.row) == RowOutcome::hit)
            return i;
    }
    return 0;
}

Tick
Channel::issue(QueueEntry &entry, bool is_write)
{
    Bank &bank = banks_[entry.coord.bank];

    RowOutcome outcome = bank.classify(entry.coord.row);
    if (is_write) {
        ++statWrites_;
        if (outcome == RowOutcome::hit)
            ++statWriteRowHits_;
        else if (outcome == RowOutcome::conflict)
            ++statWriteRowConflicts_;
    } else {
        ++statReads_;
        if (outcome == RowOutcome::hit)
            ++statReadRowHits_;
        else if (outcome == RowOutcome::conflict)
            ++statReadRowConflicts_;
    }

    // Command pipelining: CAS commands to an open row issue at the
    // burst rate (tCCD ~= tBurst); only precharge/activate serialize
    // a bank. The data bus transfers one burst per tBurst, so row-hit
    // streaks stream back-to-back while other banks' activations
    // overlap under them (FR-FCFS timing model).
    Tick cmd_ready = std::max(curTick(), bank.readyAt());
    Tick access_lat = bank.access(entry.coord.row, cfg_);

    Tick data_start = std::max(cmd_ready + access_lat, busFreeAt_);
    if (lastWasWrite_ != is_write) {
        data_start += is_write ? cfg_.tRtw : cfg_.tWtr;
        ++statTurnarounds_;
        lastWasWrite_ = is_write;
    }
    Tick done = data_start + cfg_.tBurst;

    busFreeAt_ = done;
    // Next command to this bank: after the activation completes plus
    // one tCCD slot; a row hit therefore frees the bank after one
    // burst slot. Write recovery is folded into an extra tWr for
    // writes (approximation documented in DESIGN.md).
    Tick bank_next = cmd_ready + (access_lat - cfg_.tCas) + cfg_.tBurst;
    if (is_write)
        bank_next += cfg_.tWr / 4;
    bank.setReadyAt(bank_next);
    return done;
}

void
Channel::serviceQueues()
{
    if (readQ_.empty() && writeQ_.empty())
        return;

    // Write drain hysteresis: commit to a write burst at the high
    // watermark, or eagerly when reads are absent and enough writes
    // have accumulated to amortize the bus turnaround. Small write
    // tails drain only after the read stream has been silent for a
    // while (liveness at kernel boundaries).
    if (writeMode_) {
        if (writeQ_.empty() ||
            (writeQ_.size() <= cfg_.writeLowWatermark &&
             !readQ_.empty())) {
            writeMode_ = false;
        }
    } else if (writeQ_.size() >= cfg_.writeHighWatermark) {
        writeMode_ = true;
    } else if (readQ_.empty() && !writeQ_.empty()) {
        if (writeQ_.size() >= cfg_.writeEagerThreshold ||
            curTick() >= lastReadArrival_ + cfg_.writeIdleDrainDelay) {
            writeMode_ = true;
        } else {
            // Defer: wait for reads to resume or the idle timeout.
            scheduleNext(lastReadArrival_ + cfg_.writeIdleDrainDelay);
            return;
        }
    }

    bool service_write = writeMode_ || readQ_.empty();
    if (service_write && writeQ_.empty())
        return; // deferred write tail; reads empty too
    auto &q = service_write ? writeQ_ : readQ_;
    panic_if(q.empty(), "servicing an empty DRAM queue");

    std::size_t idx = pickFrFcfs(q);
    QueueEntry entry = q[idx];
    q.erase(idx);

    Tick done = issue(entry, service_write);

    if (service_write) {
        // Already acked at enqueue; the packet has been consumed by
        // the requester. Nothing more to send.
    } else {
        statReadQueueLatency_.sample(
            static_cast<double>(curTick() - entry.arrival));
        entry.pkt->makeResponse();
        respond_(entry.pkt, done + cfg_.respLatency);
    }

    (void)done;
    if (spaceFreed_)
        spaceFreed_();

    if (!readQ_.empty() || !writeQ_.empty()) {
        // One scheduling decision per burst slot: the bus is the
        // throughput limit; bank activations overlap underneath.
        scheduleNext(curTick() + cfg_.tBurst);
    }
}

void
Channel::reset()
{
    panic_if(!readQ_.empty(), "resetting channel with reads in flight");
    writeQ_.clear();
    for (Bank &bank : banks_)
        bank.reset();
    writeMode_ = false;
    busFreeAt_ = 0;
    lastWasWrite_ = false;
    lastReadArrival_ = 0;

    statReads_.reset();
    statWrites_.reset();
    statReadRowHits_.reset();
    statWriteRowHits_.reset();
    statReadRowConflicts_.reset();
    statWriteRowConflicts_.reset();
    statTurnarounds_.reset();
    statReadQueueLatency_.reset();
}

void
Channel::regStats(StatGroup &group)
{
    group.addScalar("reads", "read bursts serviced", &statReads_);
    group.addScalar("writes", "write bursts serviced", &statWrites_);
    group.addScalar("read_row_hits", "reads hitting an open row",
                    &statReadRowHits_);
    group.addScalar("write_row_hits", "writes hitting an open row",
                    &statWriteRowHits_);
    group.addScalar("read_row_conflicts", "reads closing another row",
                    &statReadRowConflicts_);
    group.addScalar("write_row_conflicts", "writes closing another row",
                    &statWriteRowConflicts_);
    group.addScalar("turnarounds", "bus direction switches",
                    &statTurnarounds_);
    group.addFormula("read_q_latency",
                     "mean ticks a read waited in the queue",
                     [this] { return statReadQueueLatency_.mean(); });
    group.addFormula("row_hit_rate", "row hits / all accesses", [this] {
        double total = statReads_.value() + statWrites_.value();
        return total > 0 ? rowHits() / total : 0.0;
    });
}

} // namespace migc
