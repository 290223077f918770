/** @file Unit tests for the interconnect model. */

#include <gtest/gtest.h>

#include <cstdlib>
#include <new>
#include <vector>

#include "net/network.hh"

// Counting global allocator: the in-flight path must not allocate per
// message (NetAlloc below). Counting is off except inside that test.
namespace
{
bool g_countAllocs = false;
std::size_t g_allocs = 0;
} // namespace

void*
operator new(std::size_t n)
{
    if (g_countAllocs)
        ++g_allocs;
    if (void* p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

// Out of line, so the compiler never sees new's pointer reach free().
[[gnu::noinline]] void
operator delete(void* p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void* p, std::size_t) noexcept
{
    std::free(p);
}

namespace tt
{
namespace
{

struct NetFixture : ::testing::Test
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

    Message
    makeMsg(NodeId src, NodeId dst, HandlerId h)
    {
        Message m;
        m.src = src;
        m.dst = dst;
        m.handler = h;
        return m;
    }
};

TEST_F(NetFixture, DeliversAfterLatencyPlusInjection)
{
    net.send(makeMsg(0, 1, 42), /*when=*/100);
    eq.run();
    ASSERT_EQ(received.size(), 1u);
    // 1 packet: inject 1 cycle, then 11 cycles latency.
    EXPECT_EQ(received[0].first, 100u + 1 + 11);
    EXPECT_EQ(received[0].second.handler, 42u);
}

TEST_F(NetFixture, LocalMessagesShortCircuitFabric)
{
    net.send(makeMsg(2, 2, 7), 50);
    eq.run();
    ASSERT_EQ(received.size(), 1u);
    EXPECT_EQ(received[0].first, 51u); // injection only, no latency
}

TEST_F(NetFixture, InjectionSerializesSameSource)
{
    net.send(makeMsg(0, 1, 1), 10);
    net.send(makeMsg(0, 2, 2), 10);
    net.send(makeMsg(0, 3, 3), 10);
    eq.run();
    ASSERT_EQ(received.size(), 3u);
    EXPECT_EQ(received[0].first, 10u + 1 + 11);
    EXPECT_EQ(received[1].first, 10u + 2 + 11);
    EXPECT_EQ(received[2].first, 10u + 3 + 11);
}

TEST_F(NetFixture, DistinctSourcesDoNotSerialize)
{
    net.send(makeMsg(0, 3, 1), 10);
    net.send(makeMsg(1, 3, 2), 10);
    eq.run();
    ASSERT_EQ(received.size(), 2u);
    EXPECT_EQ(received[0].first, received[1].first);
}

TEST_F(NetFixture, MultiPacketMessagesPayPerPacket)
{
    Message m = makeMsg(0, 1, 9);
    m.data.assign(128, 0); // 33 words -> 2 packets
    net.send(std::move(m), 0);
    eq.run();
    ASSERT_EQ(received.size(), 1u);
    EXPECT_EQ(received[0].first, 0u + 2 + 11);
}

TEST_F(NetFixture, MessageOrderPreservedBetweenPair)
{
    // FIFO between a fixed (src,dst) pair follows from deterministic
    // latency + injection serialization.
    for (int i = 0; i < 5; ++i)
        net.send(makeMsg(1, 2, static_cast<HandlerId>(i)), 20);
    eq.run();
    ASSERT_EQ(received.size(), 5u);
    for (int i = 0; i < 5; ++i)
        EXPECT_EQ(received[i].second.handler, static_cast<HandlerId>(i));
}

TEST_F(NetFixture, StatsCountTraffic)
{
    net.send(makeMsg(0, 1, 1), 0);
    Message m = makeMsg(1, 0, 2);
    m.vnet = VNet::Response;
    m.data.assign(32, 0);
    net.send(std::move(m), 0);
    eq.run();
    EXPECT_EQ(stats.get("net.messages"), 2u);
    EXPECT_EQ(stats.get("net.req_messages"), 1u);
    EXPECT_EQ(stats.get("net.resp_messages"), 1u);
    EXPECT_EQ(stats.get("net.words"), 1u + 9u);
}

TEST(NetContention, EjectionPortSerializesInboundPackets)
{
    EventQueue eq;
    StatSet stats;
    NetworkParams p;
    p.ejectPerPacket = 4;
    Network net(eq, 4, p, stats);
    std::vector<Tick> arrivals;
    for (NodeId n = 0; n < 4; ++n)
        net.setReceiver(n, [&](Message&&) {
            arrivals.push_back(eq.now());
        });
    // Three sources blast node 3 simultaneously.
    for (NodeId src = 0; src < 3; ++src) {
        Message m;
        m.src = src;
        m.dst = 3;
        m.handler = 1;
        net.send(std::move(m), 0);
    }
    eq.run();
    ASSERT_EQ(arrivals.size(), 3u);
    std::sort(arrivals.begin(), arrivals.end());
    // Base arrival 0+1+11=12 plus 4 eject; subsequent packets queue
    // 4 cycles apart.
    EXPECT_EQ(arrivals[0], 16u);
    EXPECT_EQ(arrivals[1], 20u);
    EXPECT_EQ(arrivals[2], 24u);
    EXPECT_EQ(stats.get("net.eject_queued"), 2u);
}

TEST(NetContention, ZeroEjectCostReproducesPaperModel)
{
    EventQueue eq;
    StatSet stats;
    Network net(eq, 2, NetworkParams{}, stats);
    std::vector<Tick> arrivals;
    net.setReceiver(1, [&](Message&&) { arrivals.push_back(eq.now()); });
    net.setReceiver(0, [](Message&&) {});
    for (int i = 0; i < 3; ++i) {
        Message m;
        m.src = 0;
        m.dst = 1;
        m.handler = 1;
        net.send(std::move(m), 0);
    }
    eq.run();
    // Only injection serialization (1 apart), no inbound queueing.
    ASSERT_EQ(arrivals.size(), 3u);
    EXPECT_EQ(arrivals[1] - arrivals[0], 1u);
    EXPECT_EQ(stats.get("net.eject_queued"), 0u);
}

TEST_F(NetFixture, PayloadIntegrity)
{
    Message m = makeMsg(3, 0, 5);
    m.args = {10, 20};
    m.data = {1, 2, 3, 4};
    net.send(std::move(m), 0);
    eq.run();
    ASSERT_EQ(received.size(), 1u);
    const Message& r = received[0].second;
    EXPECT_EQ(r.args, (Message::Args{10, 20}));
    EXPECT_EQ(r.data, (Message::Data{1, 2, 3, 4}));
    EXPECT_EQ(r.src, 3);
}

TEST_F(NetFixture, SendFromInvalidSourcePanics)
{
    // Injection occupancy is charged to the source link, so every
    // message must carry a real source node — there is no broadcast
    // or host-injection convention.
    EXPECT_THROW(net.send(makeMsg(kNoNode, 1, 1), 0), std::logic_error);
    EXPECT_THROW(net.send(makeMsg(4, 1, 1), 0), std::logic_error);
}

TEST_F(NetFixture, InFlightSlotsAreReused)
{
    // Three messages in flight hold three slots; once they deliver,
    // later traffic reuses those slots instead of growing the pool.
    for (NodeId d = 1; d < 4; ++d)
        net.send(makeMsg(0, d, d), 0);
    EXPECT_EQ(net.inflight(), 3);
    eq.run();
    EXPECT_EQ(net.inflight(), 0);
    const std::size_t footprint = net.footprintBytes();
    for (int i = 0; i < 100; ++i) {
        net.send(makeMsg(i % 4, (i + 1) % 4, 9), eq.now());
        if (i % 3 == 2)
            eq.run();
    }
    eq.run();
    EXPECT_EQ(received.size(), 103u);
    EXPECT_EQ(net.inflight(), 0);
    EXPECT_EQ(net.footprintBytes(), footprint);
}

/** Duplicates every remote message, the copy @p lag ticks later. */
struct DupAll : FaultModel
{
    Tick lag = 5;

    Verdict
    onMessage(const Message&, Tick, Tick arrive) override
    {
        return Verdict{false, arrive, arrive + lag};
    }
};

TEST_F(NetFixture, DupCopyAndOriginalBothDeliver)
{
    DupAll dup;
    net.setFaults(&dup);
    Message m = makeMsg(0, 1, 77);
    m.args = {1, 2, 3, 4};
    net.send(std::move(m), 0);
    EXPECT_EQ(net.inflight(), 2); // original and copy, one slot each
    eq.run();
    ASSERT_EQ(received.size(), 2u);
    EXPECT_EQ(received[0].first, 12u);
    EXPECT_EQ(received[1].first, 17u);
    for (const auto& [tick, r] : received) {
        EXPECT_EQ(r.handler, 77u);
        EXPECT_EQ(r.args, (Message::Args{1, 2, 3, 4}));
    }
    EXPECT_EQ(net.inflight(), 0);
}

TEST_F(NetFixture, ResetForRecoveryEmptiesThePool)
{
    // A crash rollback drops every pending delivery event, then
    // resets the fabric: no slot may stay live, and sending resumes.
    for (int i = 0; i < 5; ++i)
        net.send(makeMsg(i % 4, (i + 1) % 4, 1), 0);
    EXPECT_EQ(net.inflight(), 5);
    eq.clearPending();
    net.resetForRecovery();
    EXPECT_EQ(net.inflight(), 0);
    net.send(makeMsg(2, 3, 8), eq.now());
    EXPECT_EQ(net.inflight(), 1);
    eq.run();
    ASSERT_EQ(received.size(), 1u);
    EXPECT_EQ(received[0].second.handler, 8u);
    EXPECT_EQ(net.inflight(), 0);
}

/**
 * Allocations made by @p trips send -> deliver round trips of a
 * 4-word, 32-byte message on a warmed-up fabric.
 */
std::size_t
allocsPerRoundTrips(int trips)
{
    EventQueue eq;
    StatSet stats;
    Network net(eq, 2, NetworkParams{}, stats);
    std::uint64_t delivered = 0;
    net.setReceiver(0, [&](Message&&) { ++delivered; });
    net.setReceiver(1, [&](Message&&) { ++delivered; });
    auto trip = [&] {
        Message m;
        m.src = 0;
        m.dst = 1;
        m.handler = 3;
        m.args = {1, 2, 3, 4};
        m.data.resize(32);
        net.send(std::move(m), eq.now());
        eq.run();
    };
    for (int i = 0; i < 1000; ++i) // warm the calendar and the pool
        trip();
    g_allocs = 0;
    g_countAllocs = true;
    for (int i = 0; i < trips; ++i)
        trip();
    g_countAllocs = false;
    EXPECT_EQ(delivered, 1000u + static_cast<std::uint64_t>(trips));
    return g_allocs;
}

TEST(NetAlloc, InFlightMessagesDoNotAllocate)
{
    // A bounded count, independent of the number of messages: the
    // delivery closure captures {this, slot}, not the Message.
    const std::size_t small = allocsPerRoundTrips(1000);
    const std::size_t large = allocsPerRoundTrips(10000);
    EXPECT_LE(small, 4u);
    EXPECT_LE(large, 4u);
}

} // namespace
} // namespace tt
