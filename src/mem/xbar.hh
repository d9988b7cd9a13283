/**
 * @file
 * A simple address-routed crossbar between the per-CU L1 caches and
 * the banked shared L2.
 *
 * Requests are routed by a caller-supplied address->output mapping;
 * each output has a bounded queue with a fixed traversal latency and
 * a minimum inter-packet gap (one packet per cycle), so over-driven
 * banks push back on the L1s via retries. Responses are routed back
 * to the originating input port, which the request carries in
 * Packet::xbarInput.
 */

#ifndef MIGC_MEM_XBAR_HH
#define MIGC_MEM_XBAR_HH

#include <functional>
#include <memory>
#include <vector>

#include "mem/packet_queue.hh"
#include "mem/port.hh"
#include "sim/sim_object.hh"
#include "sim/stats.hh"

namespace migc
{

class XBar : public SimObject
{
  public:
    struct Config
    {
        unsigned numInputs = 1;
        unsigned numOutputs = 1;
        /** One-way traversal latency in this object's cycles. */
        Cycles latency{8};
        /** Minimum gap between packets on one output, in cycles. */
        Cycles outputGap{1};
        /** Depth of each output request queue. */
        std::size_t queueDepth = 16;
    };

    XBar(std::string name, EventQueue &eq, ClockDomain clock,
         const Config &cfg, std::function<unsigned(Addr)> route);

    /** Port facing requester @p i (bind to an L1 mem-side port). */
    ResponsePort &cpuSidePort(unsigned i);

    /** Port facing device @p j (bind to an L2 bank cpu-side port). */
    RequestPort &memSidePort(unsigned j);

    void regStats(StatGroup &group) override;

    /** Reset routing state, queues, and stats (System::reset()). */
    void reset();

  private:
    bool handleRequest(unsigned src, PacketPtr pkt);
    void handleResponse(unsigned dst_output, PacketPtr pkt);
    void handleOutputSpaceFreed(unsigned output);

    class InputPort : public ResponsePort
    {
      public:
        InputPort(std::string name, XBar &xbar, unsigned index)
            : ResponsePort(std::move(name)), xbar_(xbar), index_(index)
        {}

        bool
        recvTimingReq(PacketPtr pkt) override
        {
            return xbar_.handleRequest(index_, pkt);
        }

      private:
        XBar &xbar_;
        unsigned index_;
    };

    class OutputPort : public RequestPort
    {
      public:
        OutputPort(std::string name, XBar &xbar, unsigned index)
            : RequestPort(std::move(name)), xbar_(xbar), index_(index)
        {}

        void
        recvTimingResp(PacketPtr pkt) override
        {
            xbar_.handleResponse(index_, pkt);
        }

        void
        recvReqRetry() override
        {
            xbar_.reqQueues_[index_]->retry();
        }

      private:
        XBar &xbar_;
        unsigned index_;
    };

    Config cfg_;
    std::function<unsigned(Addr)> route_;

    std::vector<std::unique_ptr<InputPort>> inputPorts_;
    std::vector<std::unique_ptr<OutputPort>> outputPorts_;
    std::vector<std::unique_ptr<ReqPacketQueue>> reqQueues_;
    std::vector<std::unique_ptr<RespPacketQueue>> respQueues_;

    /** Earliest tick the next packet may occupy each output. */
    std::vector<Tick> outputNextFree_;
    /** Earliest tick the next response may use each input. */
    std::vector<Tick> inputNextFree_;

    /** Requests routed whose response has not come back. */
    std::size_t inFlight_ = 0;

    /** Inputs waiting for a retry, per output. */
    std::vector<std::vector<unsigned>> waitingInputs_;

    /** Waiters being woken, swapped in from a waiter list. */
    std::vector<unsigned> toWake_;

    StatScalar statReqPackets_;
    StatScalar statRespPackets_;
    StatScalar statRejects_;
};

} // namespace migc

#endif // MIGC_MEM_XBAR_HH
