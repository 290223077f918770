/**
 * @file
 * Tests of the NP activity in the flight recorder's per-node rings:
 * exact HandlerDone / Resume / BulkPacket sequences for the canonical
 * Stache flows, and the section 6 miss-path audit counts.
 */

#include <gtest/gtest.h>

#include <vector>

#include "tests/helpers.hh"

namespace tt
{
namespace
{

using test::StacheRig;

/** A two-node Stache rig whose Typhoon NPs feed a FlightRecorder. */
struct TracedRig
{
    FlightRecorder rec{2, 1024};
    StacheRig rig{2};

    TracedRig() { rig.mem->setRecorder(&rec); }
};

/** Node @p n's NP activity records, oldest first. */
std::vector<TraceRecord>
npActivity(const FlightRecorder& rec, NodeId n)
{
    std::vector<TraceRecord> out;
    for (const TraceRecord& r : rec.ringOf(n)) {
        if (r.kind == RecKind::HandlerDone || r.kind == RecKind::Resume ||
            r.kind == RecKind::BulkPacket)
            out.push_back(r);
    }
    return out;
}

bool
isHandler(const TraceRecord& r, ActKind act, std::uint64_t id = 0)
{
    return r.kind == RecKind::HandlerDone &&
           r.sub == static_cast<std::uint8_t>(act) && r.addr == id;
}

TEST(TyphoonTrace, RemoteReadMissProducesTheCanonicalSequence)
{
    TracedRig t;
    Addr a = t.rig.stache->shmalloc(4096, 0);
    t.rig.run([&](Cpu& cpu) -> Task<void> {
        if (cpu.id() == 1)
            co_await cpu.read<int>(a);
    });

    // Requester: page fault (CPU) -> BAF handler (GetRO sent) -> data
    // arrival handler, which resumes the CPU before it finishes.
    const auto req = npActivity(t.rec, 1);
    ASSERT_EQ(req.size(), 4u);
    EXPECT_TRUE(isHandler(req[0], ActKind::Page));
    EXPECT_TRUE(isHandler(req[1], ActKind::Baf, Stache::kModeStache));
    EXPECT_EQ(req[2].kind, RecKind::Resume);
    EXPECT_TRUE(isHandler(req[3], ActKind::Msg, Stache::kDataRO));
    // Home: the GetRO handler, between the two requester activations.
    const auto home = npActivity(t.rec, 0);
    ASSERT_EQ(home.size(), 1u);
    EXPECT_TRUE(isHandler(home[0], ActKind::Msg, Stache::kGetRO));

    EXPECT_GE(home[0].tick, req[1].tick + req[1].t2);
    EXPECT_GE(req[3].tick, home[0].tick + home[0].t2);
    // The resume lands inside the arrival handler's occupancy.
    EXPECT_GT(req[2].tick, req[3].tick);
    EXPECT_LE(req[2].tick, req[3].tick + req[3].t2);
}

TEST(TyphoonTrace, WriteAfterReadShowsUpgradeFlow)
{
    TracedRig t;
    Addr a = t.rig.stache->shmalloc(4096, 0);
    t.rig.run([&](Cpu& cpu) -> Task<void> {
        if (cpu.id() == 1) {
            co_await cpu.read<int>(a);
            co_await cpu.write<int>(a, 9);
        }
    });
    // The requester's tail: BAF(write) -> resume -> DataRW arrival;
    // the home's last activation is the GetRW.
    const auto req = npActivity(t.rec, 1);
    ASSERT_GE(req.size(), 3u);
    const auto n = req.size();
    EXPECT_TRUE(isHandler(req[n - 3], ActKind::Baf, Stache::kModeStache));
    EXPECT_EQ(req[n - 2].kind, RecKind::Resume);
    EXPECT_TRUE(isHandler(req[n - 1], ActKind::Msg, Stache::kDataRW));
    const auto home = npActivity(t.rec, 0);
    ASSERT_FALSE(home.empty());
    EXPECT_TRUE(isHandler(home.back(), ActKind::Msg, Stache::kGetRW));
}

TEST(TyphoonTrace, BulkPacketsAreTraced)
{
    TracedRig t;
    Addr src = t.rig.stache->shmalloc(4096, 0);
    Addr dst = t.rig.stache->shmalloc(4096, 1);
    t.rig.mem->tempest(0).setupCtx().bulkTransfer(src, 1, dst, 256, 0);
    t.rig.run([&](Cpu& cpu) -> Task<void> {
        co_await cpu.compute(10000);
    });
    int bulk = 0;
    for (const TraceRecord& r : npActivity(t.rec, 0)) {
        if (r.kind != RecKind::BulkPacket)
            continue;
        ++bulk;
        EXPECT_EQ(r.arg, 64u); // bytes per packet
        EXPECT_EQ(r.t2, t.rig.tp.bulkPacketCost);
    }
    EXPECT_EQ(bulk, 4); // 256 bytes / 64-byte chunks
}

TEST(TyphoonTrace, MissPathAuditMatchesSection6Counts)
{
    // Section 6's audit on the warm fast path: per miss, 14 cycles to
    // request, 36.7 to respond and 23 on arrival (EXPERIMENTS.md).
    const test::MissPathAudit audit = test::runMissPathAudit();
    EXPECT_EQ(audit.baf.activations, 504u);
    EXPECT_EQ(audit.baf.cycles, 7056u);
    EXPECT_EQ(audit.getRO.activations, 504u);
    EXPECT_EQ(audit.getRO.cycles, 18480u);
    EXPECT_EQ(audit.dataRO.activations, 504u);
    EXPECT_EQ(audit.dataRO.cycles, 11592u);
    EXPECT_EQ(audit.other.activations, 0u);
}

} // namespace
} // namespace tt
