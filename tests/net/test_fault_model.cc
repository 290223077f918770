/** @file Unit tests for the unreliable-network fault model. */

#include <gtest/gtest.h>

#include <vector>

#include "net/fault_model.hh"
#include "net/network.hh"

namespace tt
{
namespace
{

Message
mkMsg(NodeId src, NodeId dst, HandlerId h = 1)
{
    Message m;
    m.src = src;
    m.dst = dst;
    m.handler = h;
    return m;
}

TEST(FaultSpec, ParsesEveryKey)
{
    const FaultParams p = parseFaultSpec(
        "drop=0.1,dup=0.05,reorder=0.2:32,partition=0.01:500,"
        "pause=0.02:200,cut=1-3,seed=99");
    EXPECT_DOUBLE_EQ(p.drop, 0.1);
    EXPECT_DOUBLE_EQ(p.dup, 0.05);
    EXPECT_DOUBLE_EQ(p.reorder, 0.2);
    EXPECT_EQ(p.reorderMax, 32u);
    EXPECT_DOUBLE_EQ(p.partition, 0.01);
    EXPECT_EQ(p.partitionMax, 500u);
    EXPECT_DOUBLE_EQ(p.pause, 0.02);
    EXPECT_EQ(p.pauseMax, 200u);
    EXPECT_EQ(p.seed, 99u);
    // cut=A-B severs both directions.
    ASSERT_EQ(p.cuts.size(), 2u);
    EXPECT_EQ(p.cuts[0], (std::pair<NodeId, NodeId>{1, 3}));
    EXPECT_EQ(p.cuts[1], (std::pair<NodeId, NodeId>{3, 1}));
    EXPECT_TRUE(p.any());
}

TEST(FaultSpec, RejectsBadInput)
{
    EXPECT_THROW(parseFaultSpec("drop=2"), std::runtime_error);
    EXPECT_THROW(parseFaultSpec("drop=-0.5"), std::runtime_error);
    EXPECT_THROW(parseFaultSpec("nonsense=1"), std::runtime_error);
    EXPECT_THROW(parseFaultSpec("drop"), std::runtime_error);
    EXPECT_THROW(parseFaultSpec("cut=5"), std::runtime_error);
    EXPECT_THROW(parseFaultSpec("reorder=0.1:0"), std::runtime_error);
    // A spec that injects nothing is a usage error, not a silent no-op.
    EXPECT_THROW(parseFaultSpec("drop=0,seed=3"), std::runtime_error);
    EXPECT_THROW(parseFaultSpec(""), std::runtime_error);
}

TEST(FaultSpec, EveryNumberParsesWhole)
{
    // Each of these once ran: a node id of 0 from "abc", a prefix of
    // "0.01xyz", seed 0 from "abc", a 0-0 self-link cut from "a-b".
    for (const char* bad :
         {"crash@30000:abc,seed=5", "drop=0.01xyz,seed=1",
          "drop=0.01,seed=abc", "cut=a-b,seed=1", "cut=1-,seed=1",
          "crash@30000x:1", "crash@30000:", "reorder=0.1:8q",
          "drop=,seed=1", "drop=nan", "seed=-1,drop=0.1"})
        EXPECT_THROW(parseFaultSpec(bad), FatalError) << bad;
}

TEST(FaultSpec, CompleteSpecsKeepTheirMeaning)
{
    // Ticks and seeds keep base-0 parsing (0x.. hex, 0.. octal).
    const FaultParams p = parseFaultSpec(
        "crash@0x7530:3,crash@30000:-1,reorder=1e-1:0x20,seed=0x10");
    ASSERT_EQ(p.crashes.size(), 2u);
    EXPECT_EQ(p.crashes[0], (std::pair<Tick, NodeId>{30000, 3}));
    // An out-of-machine node is MachineConfig::validate()'s to report.
    EXPECT_EQ(p.crashes[1], (std::pair<Tick, NodeId>{30000, -1}));
    EXPECT_DOUBLE_EQ(p.reorder, 0.1);
    EXPECT_EQ(p.reorderMax, 32u);
    EXPECT_EQ(p.seed, 16u);
    EXPECT_EQ(parseFaultSpec("drop=1,seed=010").seed, 8u);
    EXPECT_EQ(parseFaultSpec("cut=0-7").cuts[1],
              (std::pair<NodeId, NodeId>{7, 0}));
}

TEST(SeededFaultModel, SameSeedReplaysBitIdentically)
{
    FaultParams p;
    p.drop = 0.2;
    p.dup = 0.2;
    p.reorder = 0.3;
    p.partition = 0.05;
    p.pause = 0.05;
    p.seed = 42;

    StatSet s1, s2;
    SeededFaultModel a(4, p, s1);
    SeededFaultModel b(4, p, s2);
    for (int i = 0; i < 500; ++i) {
        const Message m = mkMsg(i % 4, (i + 1) % 4);
        const Tick when = static_cast<Tick>(i) * 7;
        const auto va = a.onMessage(m, when, when + 12);
        const auto vb = b.onMessage(m, when, when + 12);
        EXPECT_EQ(va.drop, vb.drop) << "at message " << i;
        EXPECT_EQ(va.arrive, vb.arrive) << "at message " << i;
        EXPECT_EQ(va.dupArrive, vb.dupArrive) << "at message " << i;
    }
    EXPECT_EQ(a.injected(), b.injected());
    EXPECT_GT(a.injected(), 0u);
}

TEST(SeededFaultModel, DifferentSeedsDiverge)
{
    FaultParams p;
    p.drop = 0.5;
    p.seed = 1;
    StatSet s1, s2;
    SeededFaultModel a(4, p, s1);
    p.seed = 2;
    SeededFaultModel b(4, p, s2);
    int differ = 0;
    for (int i = 0; i < 200; ++i) {
        const Message m = mkMsg(0, 1);
        differ += a.onMessage(m, i, i + 12).drop !=
                  b.onMessage(m, i, i + 12).drop;
    }
    EXPECT_GT(differ, 0);
}

TEST(SeededFaultModel, CutLinkDropsEveryMessageBothWaysOnly)
{
    FaultParams p;
    p.cuts = {{0, 1}, {1, 0}};
    p.seed = 5;
    StatSet stats;
    SeededFaultModel f(4, p, stats);
    EXPECT_TRUE(f.onMessage(mkMsg(0, 1), 0, 12).drop);
    EXPECT_TRUE(f.onMessage(mkMsg(1, 0), 0, 12).drop);
    EXPECT_FALSE(f.onMessage(mkMsg(2, 3), 0, 12).drop);
    EXPECT_FALSE(f.onMessage(mkMsg(0, 2), 0, 12).drop);
    EXPECT_EQ(stats.get("net.faults.partition_drops"), 2u);
}

TEST(SeededFaultModel, CertainDuplicationYieldsLaterSecondCopy)
{
    FaultParams p;
    p.dup = 1.0;
    p.seed = 9;
    StatSet stats;
    SeededFaultModel f(4, p, stats);
    const auto v = f.onMessage(mkMsg(0, 1), 0, 12);
    EXPECT_FALSE(v.drop);
    EXPECT_EQ(v.arrive, 12u);
    EXPECT_GT(v.dupArrive, v.arrive);
    EXPECT_EQ(stats.get("net.faults.dups"), 1u);
}

TEST(SeededFaultModel, ReorderDelaysWithinBound)
{
    FaultParams p;
    p.reorder = 1.0;
    p.reorderMax = 8;
    p.seed = 3;
    StatSet stats;
    SeededFaultModel f(4, p, stats);
    for (int i = 0; i < 100; ++i) {
        const auto v = f.onMessage(mkMsg(0, 1), 0, 12);
        EXPECT_GT(v.arrive, 12u);
        EXPECT_LE(v.arrive, 12u + 1 + 8);
    }
}

// Integration: a fault model on a real Network drops / duplicates
// actual deliveries, while fault-off behavior is untouched (the rest
// of this binary's Network tests run with no model attached).
struct FaultNetFixture : ::testing::Test
{
    EventQueue eq;
    StatSet stats;
    NetworkParams params{};
    Network net{eq, 4, params, stats};
    std::vector<std::pair<Tick, Message>> received;

    void
    SetUp() override
    {
        for (NodeId n = 0; n < 4; ++n) {
            net.setReceiver(n, [this](Message&& m) {
                received.emplace_back(eq.now(), std::move(m));
            });
        }
    }
};

TEST_F(FaultNetFixture, CertainDropSuppressesDelivery)
{
    FaultParams p;
    p.drop = 1.0;
    p.seed = 1;
    SeededFaultModel f(4, p, stats);
    net.setFaults(&f);
    net.send(mkMsg(0, 1), 0);
    eq.run();
    EXPECT_TRUE(received.empty());
    // The message was still charged to the fabric at the send side.
    EXPECT_EQ(stats.get("net.messages"), 1u);
    EXPECT_EQ(stats.get("net.faults.drops"), 1u);
}

TEST_F(FaultNetFixture, CertainDuplicationDeliversTwice)
{
    FaultParams p;
    p.dup = 1.0;
    p.seed = 1;
    SeededFaultModel f(4, p, stats);
    net.setFaults(&f);
    net.send(mkMsg(0, 1, 77), 0);
    eq.run();
    ASSERT_EQ(received.size(), 2u);
    EXPECT_EQ(received[0].second.handler, 77u);
    EXPECT_EQ(received[1].second.handler, 77u);
    EXPECT_GT(received[1].first, received[0].first);
}

TEST_F(FaultNetFixture, LocalMessagesAreNeverFaulted)
{
    FaultParams p;
    p.drop = 1.0;
    p.seed = 1;
    SeededFaultModel f(4, p, stats);
    net.setFaults(&f);
    net.send(mkMsg(2, 2), 0);
    eq.run();
    EXPECT_EQ(received.size(), 1u);
    EXPECT_EQ(stats.get("net.faults.drops"), 0u);
}

} // namespace
} // namespace tt
