#include "mem/xbar.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace migc
{

XBar::XBar(std::string name, EventQueue &eq, ClockDomain clock,
           const Config &cfg, std::function<unsigned(Addr)> route)
    : SimObject(std::move(name), eq, clock), cfg_(cfg),
      route_(std::move(route))
{
    fatal_if(cfg_.numInputs == 0 || cfg_.numOutputs == 0,
             "crossbar needs at least one input and one output");
    fatal_if(cfg_.numInputs >= Packet::noRoute,
             "crossbar has more inputs than a packet route can name");

    for (unsigned i = 0; i < cfg_.numInputs; ++i) {
        inputPorts_.push_back(std::make_unique<InputPort>(
            this->name() + csprintf(".in%u", i), *this, i));
        respQueues_.push_back(std::make_unique<RespPacketQueue>(
            eventQueue(), *inputPorts_.back(),
            this->name() + csprintf(".respq%u", i)));
    }
    for (unsigned j = 0; j < cfg_.numOutputs; ++j) {
        outputPorts_.push_back(std::make_unique<OutputPort>(
            this->name() + csprintf(".out%u", j), *this, j));
        reqQueues_.push_back(std::make_unique<ReqPacketQueue>(
            eventQueue(), *outputPorts_.back(),
            this->name() + csprintf(".reqq%u", j), cfg_.queueDepth));
        reqQueues_.back()->onSpaceFreed(
            [this, j] { handleOutputSpaceFreed(j); });
    }
    outputNextFree_.assign(cfg_.numOutputs, 0);
    inputNextFree_.assign(cfg_.numInputs, 0);
    // A waiter list holds each input at most once, so reserving every
    // list (and the wake-up scratch it swaps with) to numInputs keeps
    // reject/retry traffic allocation-free.
    waitingInputs_.assign(cfg_.numOutputs, {});
    for (auto &waiters : waitingInputs_)
        waiters.reserve(cfg_.numInputs);
    toWake_.reserve(cfg_.numInputs);
}

ResponsePort &
XBar::cpuSidePort(unsigned i)
{
    panic_if(i >= inputPorts_.size(), "bad xbar input index %u", i);
    return *inputPorts_[i];
}

RequestPort &
XBar::memSidePort(unsigned j)
{
    panic_if(j >= outputPorts_.size(), "bad xbar output index %u", j);
    return *outputPorts_[j];
}

bool
XBar::handleRequest(unsigned src, PacketPtr pkt)
{
    unsigned out = route_(pkt->addr);
    panic_if(out >= cfg_.numOutputs, "xbar route out of range");

    if (reqQueues_[out]->full()) {
        ++statRejects_;
        auto &waiters = waitingInputs_[out];
        if (std::find(waiters.begin(), waiters.end(), src) == waiters.end())
            waiters.push_back(src);
        return false;
    }

    ++statReqPackets_;
    Tick ready = std::max(clockEdge(cfg_.latency), outputNextFree_[out]);
    outputNextFree_[out] = ready + cyclesToTicks(cfg_.outputGap);
    pkt->xbarInput = static_cast<std::uint16_t>(src);
    ++inFlight_;
    reqQueues_[out]->push(pkt, ready);
    return true;
}

void
XBar::handleResponse(unsigned dst_output, PacketPtr pkt)
{
    (void)dst_output;
    unsigned src = pkt->xbarInput;
    panic_if(inFlight_ == 0 || src >= cfg_.numInputs,
             "xbar response for unknown packet %s", pkt->print().c_str());
    --inFlight_;
    pkt->xbarInput = Packet::noRoute;

    ++statRespPackets_;
    Tick ready = std::max(clockEdge(cfg_.latency), inputNextFree_[src]);
    inputNextFree_[src] = ready + cyclesToTicks(cfg_.outputGap);
    respQueues_[src]->push(pkt, ready);
}

void
XBar::handleOutputSpaceFreed(unsigned output)
{
    auto &waiters = waitingInputs_[output];
    if (waiters.empty())
        return;
    // Wake every waiter; rejected ones will re-register. Waking all
    // (rather than one) avoids starvation when several L1s contend
    // for one hot bank. Swapping with the member scratch keeps both
    // lists' storage. A retry only re-sends into a queue, which
    // drains from its own event, so no wake-up nests in this loop.
    panic_if(!toWake_.empty(), "nested crossbar wake-up");
    toWake_.swap(waiters);
    for (unsigned src : toWake_)
        inputPorts_[src]->sendReqRetry();
    toWake_.clear();
}

void
XBar::reset()
{
    panic_if(inFlight_ != 0,
             "resetting crossbar with requests in flight");
    for (auto &q : reqQueues_)
        q->reset();
    for (auto &q : respQueues_)
        q->reset();
    std::fill(outputNextFree_.begin(), outputNextFree_.end(), 0);
    std::fill(inputNextFree_.begin(), inputNextFree_.end(), 0);
    for (auto &waiters : waitingInputs_)
        waiters.clear();

    statReqPackets_.reset();
    statRespPackets_.reset();
    statRejects_.reset();
}

void
XBar::regStats(StatGroup &group)
{
    group.addScalar("req_packets", "requests routed", &statReqPackets_);
    group.addScalar("resp_packets", "responses routed", &statRespPackets_);
    group.addScalar("rejects", "requests rejected (output queue full)",
                    &statRejects_);
}

} // namespace migc
