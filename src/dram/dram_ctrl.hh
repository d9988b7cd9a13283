/**
 * @file
 * The multi-channel HBM2-like memory controller.
 *
 * Exposes one response port per client (L2 bank); requests are
 * routed to channels by the address map and responses are routed
 * back to the originating client, which the request carries in
 * Packet::dramClient.
 */

#ifndef MIGC_DRAM_DRAM_CTRL_HH
#define MIGC_DRAM_DRAM_CTRL_HH

#include <memory>
#include <vector>

#include "dram/address_map.hh"
#include "dram/channel.hh"
#include "dram/dram_config.hh"
#include "mem/packet_queue.hh"
#include "mem/port.hh"
#include "sim/sim_object.hh"
#include "sim/stats.hh"

namespace migc
{

class DramCtrl : public SimObject
{
  public:
    DramCtrl(std::string name, EventQueue &eq, const DramConfig &cfg,
             unsigned num_clients);

    /** Port facing client @p i (bind to an L2 bank's mem-side port). */
    ResponsePort &clientPort(unsigned i);

    const AddressMap &addressMap() const { return map_; }

    const DramConfig &config() const { return cfg_; }

    void regStats(StatGroup &group) override;

    /** Reset every channel, queue, and stat (System::reset()). */
    void reset();

    // --- aggregates for the experiment harness ---
    double totalReads() const;
    double totalWrites() const;
    double totalAccesses() const { return totalReads() + totalWrites(); }
    double totalRowHits() const;

    /** Row hit fraction over all serviced bursts. */
    double rowHitRate() const;

    bool
    allIdle() const
    {
        for (const auto &ch : channels_) {
            if (!ch->idle())
                return false;
        }
        return true;
    }

  private:
    bool handleRequest(unsigned src, PacketPtr pkt);
    void respond(PacketPtr pkt, Tick ready);
    void handleChannelSpaceFreed();

    class ClientPort : public ResponsePort
    {
      public:
        ClientPort(std::string name, DramCtrl &ctrl, unsigned index)
            : ResponsePort(std::move(name)), ctrl_(ctrl), index_(index)
        {}

        bool
        recvTimingReq(PacketPtr pkt) override
        {
            return ctrl_.handleRequest(index_, pkt);
        }

      private:
        DramCtrl &ctrl_;
        unsigned index_;
    };

    DramConfig cfg_;
    AddressMap map_;

    std::vector<std::unique_ptr<ClientPort>> ports_;
    std::vector<std::unique_ptr<RespPacketQueue>> respQueues_;
    std::vector<std::unique_ptr<Channel>> channels_;

    /** Requests accepted whose response has not been queued. */
    std::size_t inFlight_ = 0;

    /** Clients waiting on a full channel queue. */
    std::vector<bool> clientWaiting_;

    StatScalar statRejects_;
};

} // namespace migc

#endif // MIGC_DRAM_DRAM_CTRL_HH
