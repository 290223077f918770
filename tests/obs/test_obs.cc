/**
 * @file
 * Flight-recorder tests (DESIGN.md §9): ring retention semantics,
 * causal send/deliver id pairing, trace determinism (same seed and
 * config => byte-identical Perfetto JSON on every target system),
 * zero impact of tracing on simulated results, transaction ids across
 * a re-faulted access, and the crash tail in failure reports.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "apps/workloads.hh"
#include "config/builders.hh"
#include "obs/txn.hh"
#include "tests/helpers.hh"

namespace tt
{
namespace
{

using test::FnApp;

std::string
slurp(const std::string& path)
{
    std::ifstream f(path, std::ios::binary);
    std::ostringstream oss;
    oss << f.rdbuf();
    return oss.str();
}

/** A scratch file removed on scope exit. */
struct TempFile
{
    std::string path;
    explicit TempFile(const std::string& p) : path(p) {}
    ~TempFile() { std::remove(path.c_str()); }
};

MachineConfig
smallConfig()
{
    MachineConfig cfg;
    cfg.core.nodes = 8;
    return cfg;
}

RunResult
runEm3d(TargetMachine& t, const std::string& system)
{
    const auto app =
        makeTargetApp(system, "em3d", DataSet::Tiny, 8, 0.2, t);
    return t.run(*app);
}

// --- ring / recorder units --------------------------------------------

TEST(ObsRecorder, RingKeepsNewestOldestFirst)
{
    FlightRecorder rec(1, 4);
    for (Tick t = 1; t <= 10; ++t)
        rec.resume(0, t);
    EXPECT_EQ(rec.recordCount(), 10u);
    const auto ring = rec.ringOf(0);
    ASSERT_EQ(ring.size(), 4u);
    for (std::size_t i = 0; i < 4; ++i) {
        EXPECT_EQ(ring[i].tick, Tick(7 + i));
        EXPECT_EQ(ring[i].kind, RecKind::Resume);
    }
}

TEST(ObsRecorder, RingIsPartialBeforeWrap)
{
    FlightRecorder rec(2, 8);
    rec.resume(1, 5);
    rec.resume(1, 6);
    EXPECT_TRUE(rec.ringOf(0).empty());
    const auto ring = rec.ringOf(1);
    ASSERT_EQ(ring.size(), 2u);
    EXPECT_EQ(ring[0].tick, 5u);
    EXPECT_EQ(ring[1].tick, 6u);
}

TEST(ObsRecorder, MsgSendStampsMonotonicCausalIds)
{
    FlightRecorder rec(2, 8);
    Message m;
    m.src = 0;
    m.dst = 1;
    rec.msgSend(m, 10, 21);
    EXPECT_EQ(m.obsId, 1u);
    rec.msgSend(m, 12, 23);
    EXPECT_EQ(m.obsId, 2u);
    EXPECT_EQ(rec.lastMsgId(), 2u);
}

TEST(ObsRecorder, HandlerNamesAndFallback)
{
    FlightRecorder rec(1, 4);
    rec.nameHandler(7, "proto.fetch");
    EXPECT_STREQ(rec.handlerName(7), "proto.fetch");
    EXPECT_STREQ(rec.handlerName(9), "handler_9");
    // Fallback names are cached: repeated queries return the same
    // stable storage.
    EXPECT_EQ(rec.handlerName(9), rec.handlerName(9));
}

TEST(ObsRecorder, DumpTailIsDeterministicText)
{
    FlightRecorder rec(1, 8);
    Message m;
    m.src = 0;
    m.dst = 0;
    m.handler = 3;
    rec.nameHandler(3, "x.y");
    rec.msgSend(m, 100, 111);
    rec.msgDeliver(0, m, 111);
    rec.tagChange(0, 0x1000, AccessTag::ReadWrite, 115);
    std::ostringstream a, b;
    rec.dumpTail(a);
    rec.dumpTail(b);
    EXPECT_EQ(a.str(), b.str());
    EXPECT_NE(a.str().find("x.y"), std::string::npos);
    EXPECT_NE(a.str().find("msg=1"), std::string::npos);
    EXPECT_NE(a.str().find("node 0"), std::string::npos);
}

TEST(ObsRecorder, ReFaultOnSameSuspendedAccessKeepsOneMiss)
{
    // The retried access's MissStart after a BlockFault on the same
    // node is one transaction; MissEnd closes it, and the next fault
    // opens a fresh one that stays open when the run ends.
    StatSet stats;
    FlightRecorder rec(2, 16);
    rec.enableTxn(stats, 32, 4096);
    rec.blockFault(1, 0x1000, true, 0, 5);
    rec.missStart(1, 0x1000, true, 6);
    rec.missEnd(1, 0x1000, true, 30);
    rec.blockFault(1, 0x2000, false, 0, 40);

    const auto ring = rec.ringOf(1);
    ASSERT_EQ(ring.size(), 4u);
    EXPECT_NE(ring[0].txn, 0u);
    EXPECT_EQ(ring[1].txn, ring[0].txn);
    EXPECT_EQ(ring[2].txn, ring[0].txn);
    EXPECT_NE(ring[3].txn, 0u);
    EXPECT_NE(ring[3].txn, ring[0].txn);
    EXPECT_EQ(rec.txnFor(1), ring[3].txn);
    EXPECT_EQ(rec.txnFor(0), 0u);

    rec.finalize();
    const TxnTracer::Summary sum = rec.txn()->summarize();
    EXPECT_EQ(sum.opened, 2u);
    EXPECT_EQ(sum.completed, 1u);
    ASSERT_EQ(rec.txn()->results().size(), 1u);
    EXPECT_EQ(rec.txn()->results()[0].start, 5u);
    EXPECT_EQ(rec.txn()->results()[0].end, 30u);
}

// --- whole-system properties ------------------------------------------

TEST(ObsTrace, ByteIdenticalAcrossRunsAllSystems)
{
    for (const char* system :
         {"dirnnb", "stache", "migratory", "update"}) {
        std::string first;
        for (int run = 0; run < 2; ++run) {
            TempFile tf(std::string("obs_det_") + system + ".json");
            MachineConfig cfg = smallConfig();
            cfg.obs.traceFile = tf.path;
            TargetMachine t = buildTarget(system, cfg);
            runEm3d(t, system);
            t.obs->finalize();
            const std::string bytes = slurp(tf.path);
            ASSERT_FALSE(bytes.empty()) << system;
            if (run == 0)
                first = bytes;
            else
                EXPECT_EQ(first, bytes)
                    << system << ": trace not deterministic";
        }
    }
}

TEST(ObsTrace, TracingDoesNotChangeSimulatedResults)
{
    for (const char* system : {"dirnnb", "stache"}) {
        TargetMachine bare = buildTarget(system, smallConfig());
        const RunResult r0 = runEm3d(bare, system);

        TempFile tf(std::string("obs_off_") + system + ".json");
        MachineConfig cfg = smallConfig();
        cfg.obs.traceFile = tf.path;
        cfg.obs.samplePeriod = 1000;
        TargetMachine traced = buildTarget(system, cfg);
        const RunResult r1 = runEm3d(traced, system);

        EXPECT_EQ(r0.execTime, r1.execTime) << system;
        EXPECT_EQ(r0.events, r1.events) << system;
    }
}

TEST(ObsTrace, EveryDeliverPairsWithASend)
{
    // Huge rings so nothing is evicted, then check that the set of
    // delivered causal ids is a subset of the sent ids on every node.
    // The trace file only makes buildTarget attach a recorder.
    TempFile tf("obs_pairs.json");
    MachineConfig cfg = smallConfig();
    cfg.obs.traceFile = tf.path;
    cfg.obs.ringCapacity = 1u << 20;
    TargetMachine t = buildTyphoonStache(cfg);
    runEm3d(t, "stache");

    std::set<std::uint32_t> sent, delivered;
    for (NodeId n = 0; n < t.obs->nodes(); ++n) {
        for (const TraceRecord& r : t.obs->ringOf(n)) {
            if (r.kind == RecKind::MsgSend)
                sent.insert(r.id);
            else if (r.kind == RecKind::MsgDeliver)
                delivered.insert(r.id);
        }
    }
    ASSERT_FALSE(sent.empty());
    EXPECT_EQ(sent.size(), delivered.size());
    EXPECT_TRUE(sent == delivered);
    // Ids are dense: the highest id equals the number of sends.
    EXPECT_EQ(*sent.rbegin(), t.obs->lastMsgId());
}

TEST(ObsCrash, ViolationReportIncludesRecorderTail)
{
    MachineConfig cfg = smallConfig();
    cfg.core.nodes = 2;
    cfg.check.enable = true; // rings attach even without --trace
    cfg.stache.faultSkipDowngrade = true;
    TargetMachine t = buildTyphoonStache(cfg);
    Addr a = t.protocol->shmalloc(4096, 0);
    FnApp app([&t, a](Cpu& cpu) -> Task<void> {
        if (cpu.id() == 1)
            co_await cpu.write<int>(a, 42);
        co_await t.m().barrier().wait(cpu);
        if (cpu.id() == 0)
            co_await cpu.read<int>(a);
    });
    t.run(app);
    t.checker->finalize();
    ASSERT_FALSE(t.checker->violations().empty());

    ASSERT_NE(t.obs, nullptr);
    std::ostringstream oss;
    t.obs->dumpTail(oss);
    const std::string tail = oss.str();
    // The tail shows the causal history: the write's protocol
    // traffic and tag changes that led to the stale read.
    EXPECT_NE(tail.find("node 0"), std::string::npos);
    EXPECT_NE(tail.find("node 1"), std::string::npos);
    EXPECT_NE(tail.find("stache.get_rw"), std::string::npos);
    EXPECT_NE(tail.find("tag"), std::string::npos);
}

/** Counts the access and message notifications the recorder forwards. */
struct CountingHooks final : CheckHooks
{
    std::uint64_t accesses = 0, sends = 0, delivers = 0;

    void onTagChange(NodeId, Addr, AccessTag) override {}
    void onPageTags(NodeId, Addr, AccessTag) override {}
    void onPageMap(NodeId, Addr, std::uint8_t) override {}
    void onPageUnmap(NodeId, Addr) override {}
    void
    onAccess(NodeId, Addr, unsigned, bool, const void*) override
    {
        ++accesses;
    }
    void onBackdoorWrite(Addr, const void*, std::size_t) override {}
    void onBlockEvent(NodeId, Addr, const char*) override {}
    void onMsgSend(const Message&) override { ++sends; }
    void onMsgDeliver(const Message&) override { ++delivers; }
    void onEventEnd() override {}
};

TEST(ObsSeam, EveryAccessAndMessageReachesTheCheckerOnce)
{
    // The recorder is the checker's only feed, so every completed
    // access, every protocol send and every handler dispatch must
    // reach it exactly once; a producer site dropped from the seam
    // breaks one of these identities.
    for (const char* app : {"em3d", "mp3d"}) {
        for (const std::string& system : targetSystems(app)) {
            const std::string label = system + "/" + app;
            MachineConfig cfg = smallConfig();
            cfg.obs.analyze = true; // any consumer attaches a recorder
            TargetMachine t = buildTarget(system, cfg);
            CountingHooks count;
            t.obs->setChecker(&count);
            const auto a =
                makeTargetApp(system, app, DataSet::Tiny, 1, 0.2, t);
            t.run(*a);

            const StatSet& s = t.m().stats();
            EXPECT_GT(count.accesses, 0u) << label;
            EXPECT_EQ(count.accesses,
                      s.get("cpu.loads") + s.get("cpu.stores"))
                << label;
            EXPECT_EQ(count.sends, s.get("net.messages")) << label;
            EXPECT_EQ(count.delivers,
                      s.get(t.dir ? "net.messages" : "np.msg_handled"))
                << label;
        }
    }
}

TEST(ObsConfig, RecorderAbsentWhenDisabled)
{
    TargetMachine t = buildTyphoonStache(smallConfig());
    EXPECT_EQ(t.obs, nullptr);
}

} // namespace
} // namespace tt
