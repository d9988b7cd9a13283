#include "dram/dram_ctrl.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace migc
{

DramCtrl::DramCtrl(std::string name, EventQueue &eq, const DramConfig &cfg,
                   unsigned num_clients)
    : SimObject(std::move(name), eq), cfg_(cfg), map_(cfg)
{
    fatal_if(num_clients == 0, "memory controller needs a client");
    fatal_if(num_clients >= Packet::noRoute,
             "memory controller has more clients than a packet route "
             "can name");

    for (unsigned i = 0; i < num_clients; ++i) {
        ports_.push_back(std::make_unique<ClientPort>(
            this->name() + csprintf(".port%u", i), *this, i));
        respQueues_.push_back(std::make_unique<RespPacketQueue>(
            eventQueue(), *ports_.back(),
            this->name() + csprintf(".respq%u", i)));
    }
    clientWaiting_.assign(num_clients, false);

    for (unsigned c = 0; c < cfg_.channels; ++c) {
        channels_.push_back(std::make_unique<Channel>(
            this->name() + csprintf(".ch%u", c), eventQueue(), cfg_, map_,
            c,
            [this](PacketPtr pkt, Tick ready) { respond(pkt, ready); },
            [this] { handleChannelSpaceFreed(); }));
    }
}

ResponsePort &
DramCtrl::clientPort(unsigned i)
{
    panic_if(i >= ports_.size(), "bad DRAM client index %u", i);
    return *ports_[i];
}

bool
DramCtrl::handleRequest(unsigned src, PacketPtr pkt)
{
    DramCoord coord = map_.decode(pkt->addr);
    // Record the return route before enqueueing: writes are acked
    // from inside enqueue().
    pkt->dramClient = static_cast<std::uint16_t>(src);
    ++inFlight_;
    if (!channels_[coord.channel]->enqueue(pkt)) {
        --inFlight_;
        ++statRejects_;
        clientWaiting_[src] = true;
        return false;
    }
    return true;
}

void
DramCtrl::respond(PacketPtr pkt, Tick ready)
{
    unsigned dst = pkt->dramClient;
    panic_if(inFlight_ == 0 || dst >= respQueues_.size(),
             "DRAM response for unknown packet %s", pkt->print().c_str());
    --inFlight_;
    pkt->dramClient = Packet::noRoute;
    respQueues_[dst]->push(pkt, ready);
}

void
DramCtrl::handleChannelSpaceFreed()
{
    for (unsigned i = 0; i < clientWaiting_.size(); ++i) {
        if (clientWaiting_[i]) {
            clientWaiting_[i] = false;
            ports_[i]->sendReqRetry();
        }
    }
}

void
DramCtrl::reset()
{
    panic_if(inFlight_ != 0, "resetting DRAM with unanswered requests");
    for (auto &ch : channels_)
        ch->reset();
    for (auto &rq : respQueues_)
        rq->reset();
    std::fill(clientWaiting_.begin(), clientWaiting_.end(), false);
    statRejects_.reset();
}

void
DramCtrl::regStats(StatGroup &group)
{
    group.addScalar("rejects", "requests rejected on full channel queue",
                    &statRejects_);
    group.addFormula("reads", "total read bursts",
                     [this] { return totalReads(); });
    group.addFormula("writes", "total write bursts",
                     [this] { return totalWrites(); });
    group.addFormula("row_hit_rate", "row hits / accesses",
                     [this] { return rowHitRate(); });
    for (auto &ch : channels_) {
        // Channel names are unique; use the trailing component.
        auto dot = ch->name().rfind('.');
        ch->regStats(group.child(ch->name().substr(dot + 1)));
    }
}

double
DramCtrl::totalReads() const
{
    double v = 0;
    for (const auto &ch : channels_)
        v += ch->reads();
    return v;
}

double
DramCtrl::totalWrites() const
{
    double v = 0;
    for (const auto &ch : channels_)
        v += ch->writes();
    return v;
}

double
DramCtrl::totalRowHits() const
{
    double v = 0;
    for (const auto &ch : channels_)
        v += ch->rowHits();
    return v;
}

double
DramCtrl::rowHitRate() const
{
    double total = totalAccesses();
    return total > 0 ? totalRowHits() / total : 0.0;
}

} // namespace migc
