/** @file Tests for packets, ports, packet queues, and the crossbar. */

#include <gtest/gtest.h>

#include "mem/packet.hh"
#include "mem/packet_queue.hh"
#include "mem/port.hh"
#include "mem/xbar.hh"
#include "test_util.hh"

using namespace migc;
using namespace migc::test;

TEST(Packet, IdsAreUniqueAndMonotonic)
{
    Packet a(MemCmd::ReadReq, 0, 64, 0);
    Packet b(MemCmd::ReadReq, 0, 64, 0);
    EXPECT_LT(a.id, b.id);
}

TEST(Packet, MakeResponseConvertsCommands)
{
    Packet r(MemCmd::ReadReq, 0x40, 64, 0);
    EXPECT_TRUE(r.isRequest());
    r.makeResponse();
    EXPECT_EQ(r.cmd, MemCmd::ReadResp);
    EXPECT_TRUE(r.isResponse());

    Packet w(MemCmd::WriteReq, 0x40, 64, 0);
    w.makeResponse();
    EXPECT_EQ(w.cmd, MemCmd::WriteResp);

    Packet wb(MemCmd::WritebackDirty, 0x40, 64, 0);
    EXPECT_TRUE(wb.isWrite());
    wb.makeResponse();
    EXPECT_EQ(wb.cmd, MemCmd::WritebackResp);
}

TEST(Packet, Flags)
{
    Packet p(MemCmd::ReadReq, 0, 64, 0);
    EXPECT_FALSE(p.hasFlag(pktFlagBypass));
    p.setFlag(pktFlagBypass);
    p.setFlag(pktFlagRinse);
    EXPECT_TRUE(p.hasFlag(pktFlagBypass));
    EXPECT_TRUE(p.hasFlag(pktFlagRinse));
    EXPECT_FALSE(p.hasFlag(pktFlagFlush));
}

TEST(Ports, RoundTripThroughMockMem)
{
    EventQueue eq;
    MockMem mem(eq, 500);
    MockCpu cpu(eq);
    cpu.bind(mem);

    cpu.send(MemCmd::ReadReq, 0x1000);
    cpu.send(MemCmd::WriteReq, 0x2000);
    eq.run();

    ASSERT_EQ(cpu.responses.size(), 2u);
    EXPECT_EQ(cpu.responses[0].cmd, MemCmd::ReadResp);
    EXPECT_EQ(cpu.responses[1].cmd, MemCmd::WriteResp);
    EXPECT_EQ(mem.reads, 1u);
    EXPECT_EQ(mem.writes, 1u);
}

TEST(Ports, RetryFlowDeliversEventually)
{
    EventQueue eq;
    MockMem mem(eq, 100, /*capacity=*/1, /*manual=*/true);
    MockCpu cpu(eq);
    cpu.bind(mem);

    cpu.send(MemCmd::ReadReq, 0x40);
    cpu.send(MemCmd::ReadReq, 0x80); // rejected: capacity 1
    EXPECT_FALSE(cpu.allSent());
    EXPECT_GE(mem.rejected, 1u);

    mem.releaseOne(); // frees space and sends retry
    eq.run();
    mem.releaseAll();
    eq.run();
    EXPECT_EQ(cpu.responses.size(), 2u);
}

TEST(RespPacketQueue, DeliversAtReadyTickInOrder)
{
    EventQueue eq;
    MockCpu cpu(eq);
    CallbackResponsePort dev("dev", [](PacketPtr) { return true; });
    cpu.bind(dev);
    RespPacketQueue q(eq, dev, "q");

    auto *p1 = new Packet(MemCmd::ReadReq, 0x40, 64, 0);
    auto *p2 = new Packet(MemCmd::ReadReq, 0x80, 64, 0);
    p1->makeResponse();
    p2->makeResponse();
    q.push(p2, 200);
    q.push(p1, 100);
    eq.run();
    ASSERT_EQ(cpu.responses.size(), 2u);
    EXPECT_EQ(cpu.responses[0].addr, 0x40u);
    EXPECT_EQ(cpu.responses[1].addr, 0x80u);
}

TEST(ReqPacketQueue, RespectsCapacityAndRetries)
{
    EventQueue eq;
    MockMem mem(eq, 10, /*capacity=*/1, /*manual=*/true);

    CallbackRequestPort port("p", [](PacketPtr) {},
                             [] {});
    // Use a dedicated request port wired to the queue's retry.
    struct QPort : RequestPort
    {
        explicit QPort(ReqPacketQueue *&q) : RequestPort("qp"), q(q) {}
        void recvTimingResp(PacketPtr pkt) override { delete pkt; }
        void recvReqRetry() override { q->retry(); }
        ReqPacketQueue *&q;
    };
    ReqPacketQueue *qptr = nullptr;
    QPort qport(qptr);
    qport.bind(mem);
    ReqPacketQueue q(eq, qport, "q", 4);
    qptr = &q;

    int freed = 0;
    q.onSpaceFreed([&] { ++freed; });

    for (int i = 0; i < 4; ++i)
        q.push(new Packet(MemCmd::ReadReq, 0x40u * i, 64, 0), 0);
    EXPECT_TRUE(q.full());
    eq.run();
    // One accepted by mem (capacity 1), three stuck waiting retry.
    EXPECT_EQ(mem.held(), 1u);
    mem.releaseAll();
    eq.run();
    mem.releaseAll();
    eq.run();
    mem.releaseAll();
    eq.run();
    mem.releaseAll();
    eq.run();
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(freed, 4);
}

class XBarTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        XBar::Config cfg;
        cfg.numInputs = 2;
        cfg.numOutputs = 2;
        cfg.latency = Cycles(2);
        cfg.queueDepth = 8;
        xbar = std::make_unique<XBar>(
            "xbar", eq, ClockDomain(1000), cfg,
            [](Addr a) { return unsigned((a >> 6) & 1); });
        for (int i = 0; i < 2; ++i) {
            cpus.push_back(std::make_unique<MockCpu>(eq));
            cpus[i]->bind(xbar->cpuSidePort(i));
            mems.push_back(std::make_unique<MockMem>(eq, 100));
            xbar->memSidePort(i).bind(*mems[i]);
        }
    }

    EventQueue eq;
    std::unique_ptr<XBar> xbar;
    std::vector<std::unique_ptr<MockCpu>> cpus;
    std::vector<std::unique_ptr<MockMem>> mems;
};

TEST_F(XBarTest, RoutesByAddress)
{
    cpus[0]->send(MemCmd::ReadReq, 0x000); // line 0 -> output 0
    cpus[0]->send(MemCmd::ReadReq, 0x040); // line 1 -> output 1
    eq.run();
    EXPECT_EQ(mems[0]->reads, 1u);
    EXPECT_EQ(mems[1]->reads, 1u);
}

TEST_F(XBarTest, ResponsesReturnToOriginatingInput)
{
    cpus[0]->send(MemCmd::ReadReq, 0x040);
    cpus[1]->send(MemCmd::ReadReq, 0x0c0);
    eq.run();
    EXPECT_EQ(cpus[0]->responses.size(), 1u);
    EXPECT_EQ(cpus[1]->responses.size(), 1u);
    EXPECT_EQ(cpus[0]->responses[0].addr, 0x040u);
    EXPECT_EQ(cpus[1]->responses[0].addr, 0x0c0u);
}

TEST_F(XBarTest, ManyRequestsAllComplete)
{
    for (int i = 0; i < 64; ++i)
        cpus[i % 2]->send(MemCmd::ReadReq, 0x40u * i);
    eq.run();
    EXPECT_EQ(cpus[0]->responses.size(), 32u);
    EXPECT_EQ(cpus[1]->responses.size(), 32u);
}

// The crossbar keeps no table of routed packets: each request carries
// its input in Packet::xbarInput, and an in-flight count backs the
// crossbar's checks.

TEST_F(XBarTest, ResponseWithNothingInFlightPanics)
{
    Packet stray(MemCmd::ReadReq, 0x40, 64, 0);
    stray.xbarInput = 0; // a valid route: only the in-flight count is off
    stray.makeResponse();
    EXPECT_DEATH(mems[1]->sendTimingResp(&stray),
                 "xbar response for unknown packet");
}

TEST_F(XBarTest, ResponseWithOutOfRangeRoutePanics)
{
    cpus[0]->send(MemCmd::ReadReq, 0x040); // one request in flight
    Packet stray(MemCmd::ReadReq, 0x40, 64, 0);
    stray.makeResponse();
    stray.xbarInput = 2; // the crossbar has inputs 0 and 1
    EXPECT_DEATH(mems[1]->sendTimingResp(&stray),
                 "xbar response for unknown packet");
    eq.run();
    EXPECT_EQ(cpus[0]->responses.size(), 1u);
}

TEST_F(XBarTest, ResetWithRequestsInFlightPanics)
{
    cpus[0]->send(MemCmd::ReadReq, 0x040);
    EXPECT_DEATH(xbar->reset(), "resetting crossbar with requests in flight");
    eq.run();
    xbar->reset(); // answered: the crossbar is idle again
}

TEST_F(XBarTest, RouteIsClearedOnTheWayBack)
{
    cpus[1]->send(MemCmd::ReadReq, 0x0c0);
    eq.run();
    ASSERT_EQ(cpus[1]->responses.size(), 1u);
    EXPECT_EQ(cpus[1]->responses[0].xbarInput, Packet::noRoute);
}
