/** @file Tests for address mapping, banks, channels, and the DRAM
 *  controller. */

#include <gtest/gtest.h>

#include <set>

#include "dram/address_map.hh"
#include "dram/bank.hh"
#include "dram/dram_ctrl.hh"
#include "sim/rng.hh"
#include "test_util.hh"

using namespace migc;
using namespace migc::test;

namespace
{

DramConfig
smallDram()
{
    DramConfig cfg;
    cfg.channels = 4;
    cfg.banksPerChannel = 4;
    cfg.rowBytes = 1024;
    cfg.readQDepth = 8;
    cfg.writeQDepth = 16;
    cfg.writeHighWatermark = 8;
    cfg.writeLowWatermark = 2;
    cfg.writeEagerThreshold = 4;
    cfg.writeIdleDrainDelay = 10'000;
    return cfg;
}

} // namespace

TEST(AddressMap, SequentialLinesStripeChannels)
{
    DramConfig cfg = smallDram();
    AddressMap map(cfg);
    for (unsigned i = 0; i < 16; ++i) {
        DramCoord c = map.decode(i * 64);
        EXPECT_EQ(c.channel, i % 4);
    }
}

TEST(AddressMap, ColumnThenBankProgression)
{
    DramConfig cfg = smallDram();
    cfg.bankXorHash = false;
    AddressMap map(cfg);
    unsigned lines_per_row = cfg.rowBytes / cfg.burstBytes;
    EXPECT_EQ(map.linesPerRow(), lines_per_row);
    // Walk channel 0: 64 * channels stride.
    DramCoord first = map.decode(0);
    DramCoord last_col =
        map.decode((lines_per_row - 1) * 64ULL * cfg.channels);
    EXPECT_EQ(first.bank, last_col.bank);
    EXPECT_EQ(first.row, last_col.row);
    EXPECT_EQ(last_col.column, lines_per_row - 1);
    DramCoord next_bank =
        map.decode(lines_per_row * 64ULL * cfg.channels);
    EXPECT_NE(next_bank.bank, first.bank);
}

TEST(AddressMap, RowIdsUniquePerRow)
{
    DramConfig cfg = smallDram();
    AddressMap map(cfg);
    std::set<std::uint64_t> ids;
    // 64 distinct (channel, bank, row) coordinates.
    for (unsigned i = 0; i < 64; ++i)
        ids.insert(map.rowId(i * 64ULL));
    // All lines in one channel-row share a row id.
    Addr a = 0;
    Addr same_row = a + 64ULL * cfg.channels; // next column, same row
    EXPECT_EQ(map.rowId(a), map.rowId(same_row));
}

TEST(AddressMap, BankXorDecorrelatesAlignedBuffers)
{
    DramConfig cfg = smallDram();
    cfg.bankXorHash = true;
    AddressMap map(cfg);
    // Two buffers at a large power-of-two offset should not all land
    // in identical banks.
    unsigned same = 0, total = 32;
    for (unsigned i = 0; i < total; ++i) {
        Addr a = i * 4096ULL;
        Addr b = a + (1ULL << 28);
        if (map.decode(a).bank == map.decode(b).bank)
            ++same;
    }
    EXPECT_LT(same, total);
}

TEST(Bank, ClassifyAndAccessLatencies)
{
    DramConfig cfg = smallDram();
    Bank bank;
    EXPECT_EQ(bank.classify(5), RowOutcome::closedMiss);
    Tick lat = bank.access(5, cfg);
    EXPECT_EQ(lat, cfg.tRcd + cfg.tCas);
    EXPECT_EQ(bank.classify(5), RowOutcome::hit);
    EXPECT_EQ(bank.access(5, cfg), cfg.tCas);
    EXPECT_EQ(bank.classify(9), RowOutcome::conflict);
    EXPECT_EQ(bank.access(9, cfg), cfg.tRp + cfg.tRcd + cfg.tCas);
    bank.close();
    EXPECT_EQ(bank.classify(9), RowOutcome::closedMiss);
}

class DramCtrlTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        ctrl = std::make_unique<DramCtrl>("dram", eq, smallDram(), 2);
        for (int i = 0; i < 2; ++i) {
            cpus.push_back(std::make_unique<MockCpu>(eq));
            cpus[i]->bind(ctrl->clientPort(i));
        }
    }

    EventQueue eq;
    std::unique_ptr<DramCtrl> ctrl;
    std::vector<std::unique_ptr<MockCpu>> cpus;
};

TEST_F(DramCtrlTest, ReadCompletesWithData)
{
    cpus[0]->send(MemCmd::ReadReq, 0x1000);
    eq.run();
    ASSERT_EQ(cpus[0]->responses.size(), 1u);
    EXPECT_EQ(cpus[0]->responses[0].cmd, MemCmd::ReadResp);
    EXPECT_EQ(ctrl->totalReads(), 1.0);
    EXPECT_TRUE(ctrl->allIdle());
}

TEST_F(DramCtrlTest, WriteAckedAtQueueThenDrained)
{
    cpus[0]->send(MemCmd::WriteReq, 0x2000);
    eq.run();
    ASSERT_EQ(cpus[0]->responses.size(), 1u);
    EXPECT_EQ(cpus[0]->responses[0].cmd, MemCmd::WriteResp);
    // The drain happened by the time the queue is empty.
    EXPECT_EQ(ctrl->totalWrites(), 1.0);
    EXPECT_TRUE(ctrl->allIdle());
}

TEST_F(DramCtrlTest, WritebacksCountAsWrites)
{
    cpus[1]->send(MemCmd::WritebackDirty, 0x3000);
    eq.run();
    ASSERT_EQ(cpus[1]->responses.size(), 1u);
    EXPECT_EQ(cpus[1]->responses[0].cmd, MemCmd::WritebackResp);
    EXPECT_EQ(ctrl->totalWrites(), 1.0);
}

TEST_F(DramCtrlTest, SequentialStreamHitsRows)
{
    // 256 sequential lines: after the first access per row, hits.
    for (int i = 0; i < 256; ++i)
        cpus[0]->send(MemCmd::ReadReq, 0x40ULL * i);
    eq.run();
    EXPECT_EQ(ctrl->totalReads(), 256.0);
    EXPECT_GT(ctrl->rowHitRate(), 0.85);
}

TEST_F(DramCtrlTest, RandomStreamMissesRows)
{
    Rng rng(3);
    for (int i = 0; i < 256; ++i)
        cpus[0]->send(MemCmd::ReadReq, (rng.below(1 << 20)) * 64ULL);
    eq.run();
    EXPECT_EQ(ctrl->totalReads(), 256.0);
    EXPECT_LT(ctrl->rowHitRate(), 0.5);
}

TEST_F(DramCtrlTest, ResponsesRouteToCorrectClient)
{
    cpus[0]->send(MemCmd::ReadReq, 0x40);
    cpus[1]->send(MemCmd::ReadReq, 0x80);
    eq.run();
    EXPECT_EQ(cpus[0]->responses.size(), 1u);
    EXPECT_EQ(cpus[1]->responses.size(), 1u);
    EXPECT_EQ(cpus[0]->responses[0].addr, 0x40u);
    EXPECT_EQ(cpus[1]->responses[0].addr, 0x80u);
}

TEST_F(DramCtrlTest, BackpressureRetriesOnFullQueue)
{
    // Flood one channel's read queue (depth 8) from one client.
    for (int i = 0; i < 64; ++i)
        cpus[0]->send(MemCmd::ReadReq, 0x40ULL * 4 * i); // channel 0
    eq.run();
    EXPECT_EQ(cpus[0]->responses.size(), 64u);
    EXPECT_EQ(ctrl->totalReads(), 64.0);
}

TEST_F(DramCtrlTest, MixedTrafficDrainsCompletely)
{
    for (int i = 0; i < 128; ++i) {
        cpus[i % 2]->send(i % 3 == 0 ? MemCmd::WriteReq
                                     : MemCmd::ReadReq,
                          0x40ULL * i);
    }
    eq.run();
    EXPECT_TRUE(ctrl->allIdle());
    EXPECT_EQ(ctrl->totalAccesses(), 128.0);
}

// The controller keeps no table of accepted packets: each request
// carries its client in Packet::dramClient, and an in-flight count
// backs the controller's checks. Its own channels produce
// every response, so the reachable forgery is a route rewritten while
// the request waits in a channel queue.

namespace
{

/** Sends one packet it owns and keeps a handle on it in flight. */
class HeldRequester : public RequestPort
{
  public:
    HeldRequester() : RequestPort("held"), pkt(MemCmd::ReadReq, 0x40, 64, 0)
    {}

    void recvTimingResp(PacketPtr) override { ++responses; }

    void recvReqRetry() override {}

    Packet pkt;
    int responses = 0;
};

} // namespace

TEST(DramCtrlDeath, ResponseWithOutOfRangeRoutePanics)
{
    EventQueue eq;
    DramCtrl ctrl("dram", eq, smallDram(), 2);
    HeldRequester req;
    req.bind(ctrl.clientPort(0));
    ASSERT_TRUE(req.sendTimingReq(&req.pkt));
    EXPECT_EQ(req.pkt.dramClient, 0u);
    req.pkt.dramClient = 2; // the controller has clients 0 and 1
    EXPECT_DEATH(eq.run(), "DRAM response for unknown packet");
}

TEST(DramCtrlDeath, ResetWithRequestsInFlightPanics)
{
    EventQueue eq;
    DramCtrl ctrl("dram", eq, smallDram(), 2);
    HeldRequester req;
    req.bind(ctrl.clientPort(0));
    ASSERT_TRUE(req.sendTimingReq(&req.pkt));
    EXPECT_DEATH(ctrl.reset(), "resetting DRAM with unanswered requests");
    eq.run();
    EXPECT_EQ(req.responses, 1);
    EXPECT_EQ(req.pkt.dramClient, Packet::noRoute);
    ctrl.reset(); // answered: nothing is in flight any more
}

/** Property sweep: every geometry decodes losslessly. */
class AddressMapSweep
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned,
                                                 unsigned>>
{};

TEST_P(AddressMapSweep, DecodeCoversAllCoordinates)
{
    auto [channels, banks, row_bytes] = GetParam();
    DramConfig cfg;
    cfg.channels = channels;
    cfg.banksPerChannel = banks;
    cfg.rowBytes = row_bytes;
    cfg.bankXorHash = false;
    AddressMap map(cfg);

    std::set<std::tuple<unsigned, unsigned, std::uint64_t, unsigned>>
        seen;
    std::uint64_t lines =
        static_cast<std::uint64_t>(channels) * banks *
        (row_bytes / cfg.burstBytes) * 2; // two rows per bank
    for (std::uint64_t i = 0; i < lines; ++i) {
        DramCoord c = map.decode(i * 64);
        seen.insert({c.channel, c.bank, c.row, c.column});
    }
    // A bijection: every line lands on a distinct coordinate.
    EXPECT_EQ(seen.size(), lines);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, AddressMapSweep,
    ::testing::Combine(::testing::Values(1u, 2u, 4u, 8u, 16u),
                       ::testing::Values(2u, 4u, 16u),
                       ::testing::Values(1024u, 2048u)));
