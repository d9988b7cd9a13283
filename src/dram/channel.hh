/**
 * @file
 * One DRAM channel: read/write queues, FR-FCFS scheduling, write
 * drain watermarks, and row-buffer statistics.
 *
 * Writes are acknowledged when they enter the channel queue (the
 * point of global visibility in this system); they drain to the
 * banks later, in row-friendly bursts, competing with reads for the
 * data bus exactly as in a real controller.
 */

#ifndef MIGC_DRAM_CHANNEL_HH
#define MIGC_DRAM_CHANNEL_HH

#include <functional>
#include <vector>

#include "dram/address_map.hh"
#include "dram/bank.hh"
#include "dram/dram_config.hh"
#include "mem/packet.hh"
#include "sim/ring.hh"
#include "sim/sim_object.hh"
#include "sim/stats.hh"

namespace migc
{

class Channel : public SimObject
{
  public:
    /** Invoked when a read's data is available (owns routing). */
    using RespondFn = std::function<void(PacketPtr, Tick ready)>;

    /** Invoked when queue space frees (for upstream retries). */
    using SpaceFn = std::function<void()>;

    Channel(std::string name, EventQueue &eq, const DramConfig &cfg,
            const AddressMap &map, unsigned index,
            RespondFn respond, SpaceFn space_freed);

    /**
     * Try to accept @p pkt.
     * Writes are acked immediately via the respond callback; reads
     * respond when serviced. @return false when the queue is full.
     */
    bool enqueue(PacketPtr pkt);

    bool
    idle() const
    {
        return readQ_.empty() && writeQ_.empty();
    }

    /**
     * Drop queued work (acked posted writes may still be draining at
     * run end; their packets were consumed at the ack) and return
     * banks, bus, and stats to the just-constructed state. No read
     * may be in flight. Part of System::reset().
     */
    void reset();

    void regStats(StatGroup &group) override;

    // --- aggregate counters for the experiment harness ---
    double reads() const { return statReads_.value(); }
    double writes() const { return statWrites_.value(); }
    double rowHits() const
    {
        return statReadRowHits_.value() + statWriteRowHits_.value();
    }
    double readRowHits() const { return statReadRowHits_.value(); }
    double writeRowHits() const { return statWriteRowHits_.value(); }

  private:
    struct QueueEntry
    {
        PacketPtr pkt;
        DramCoord coord;
        Tick arrival;
    };

    void scheduleNext(Tick when);
    void serviceQueues();

    /**
     * Pick the FR-FCFS winner in @p q: the oldest row-hit within the
     * scheduler window, else the oldest entry. @return index into q.
     */
    std::size_t pickFrFcfs(const Ring<QueueEntry> &q) const;

    /** Issue one entry to its bank; @return tick the burst completes. */
    Tick issue(QueueEntry &entry, bool is_write);

    const DramConfig &cfg_;
    const AddressMap &map_;
    unsigned index_;
    RespondFn respond_;
    SpaceFn spaceFreed_;

    std::vector<Bank> banks_;
    /** Arrival order; FR-FCFS erases from inside the window. */
    Ring<QueueEntry> readQ_;
    Ring<QueueEntry> writeQ_;

    bool writeMode_ = false;
    Tick busFreeAt_ = 0;
    bool lastWasWrite_ = false;
    Tick lastReadArrival_ = 0;

    EventFunctionWrapper serviceEvent_;

    StatScalar statReads_;
    StatScalar statWrites_;
    StatScalar statReadRowHits_;
    StatScalar statWriteRowHits_;
    StatScalar statReadRowConflicts_;
    StatScalar statWriteRowConflicts_;
    StatScalar statTurnarounds_;
    StatAverage statReadQueueLatency_;
};

} // namespace migc

#endif // MIGC_DRAM_CHANNEL_HH
