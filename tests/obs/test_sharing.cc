/**
 * @file
 * SharingAnalyzer tests (DESIGN.md §11): the per-block access-pattern
 * classifier on synthetic record streams, the false-sharing detector,
 * heatmap histogram boundary semantics, the protocol advisor, report
 * determinism (byte-identical across identical runs), and zero impact
 * of analysis on simulated results.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "apps/workloads.hh"
#include "config/builders.hh"
#include "obs/recorder.hh"
#include "obs/sharing.hh"

namespace tt
{
namespace
{

constexpr Addr kBase = 0x4000'0000;

TraceRecord
accessRec(NodeId node, Addr va, std::uint32_t size, bool write)
{
    TraceRecord r;
    r.kind = RecKind::BlockAccess;
    r.addr = va;
    r.arg = size;
    r.node = node;
    r.sub = write ? 1 : 0;
    return r;
}

TraceRecord
invalRec(NodeId home, Addr blk, std::uint32_t fanout, InvKind kind)
{
    TraceRecord r;
    r.kind = RecKind::InvalSent;
    r.addr = blk;
    r.arg = fanout;
    r.node = home;
    r.sub = static_cast<std::uint8_t>(kind);
    return r;
}

TraceRecord
dirRec(NodeId home, Addr blk, std::uint8_t from, std::uint8_t to)
{
    TraceRecord r;
    r.kind = RecKind::DirTrans;
    r.addr = blk;
    r.arg = from;
    r.node = home;
    r.sub = to;
    return r;
}

TraceRecord
doneRec(NodeId node, Tick charged)
{
    TraceRecord r;
    r.kind = RecKind::HandlerDone;
    r.t2 = charged;
    r.node = node;
    return r;
}

// --- classifier --------------------------------------------------------

TEST(SharingClassify, UntouchedAndPrivate)
{
    SharingAnalyzer sa(4);
    EXPECT_EQ(sa.classifyBlock(kBase), SharePattern::Untouched);
    sa.fold(accessRec(2, kBase, 8, false));
    sa.fold(accessRec(2, kBase + 8, 8, true));
    EXPECT_EQ(sa.classifyBlock(kBase), SharePattern::Private);
}

TEST(SharingClassify, ReadOnly)
{
    SharingAnalyzer sa(4);
    for (NodeId n = 0; n < 4; ++n)
        sa.fold(accessRec(n, kBase, 8, false));
    EXPECT_EQ(sa.classifyBlock(kBase), SharePattern::ReadOnly);
}

TEST(SharingClassify, ProducerConsumerNeedsFanout)
{
    // One writer, two consumers, invalidation rounds that fan out to
    // both: a produced value serves multiple readers.
    SharingAnalyzer sa(4);
    for (int round = 0; round < 3; ++round) {
        sa.fold(accessRec(0, kBase, 8, true));
        sa.fold(invalRec(0, kBase, 2, InvKind::Inval));
        sa.fold(accessRec(1, kBase, 8, false));
        sa.fold(accessRec(2, kBase, 8, false));
    }
    EXPECT_EQ(sa.classifyBlock(kBase), SharePattern::ProducerConsumer);
}

TEST(SharingClassify, SingleWriterPairwiseBouncingIsWriteShared)
{
    // One writer, one bouncing consumer: every conflict round recalls
    // or invalidates a single copy — pairwise read-write interleaving.
    SharingAnalyzer sa(4);
    for (int round = 0; round < 4; ++round) {
        sa.fold(accessRec(0, kBase, 8, true));
        sa.fold(invalRec(0, kBase, 1, InvKind::Inval));
        sa.fold(accessRec(1, kBase, 8, false));
        sa.fold(invalRec(0, kBase, 1, InvKind::Recall));
    }
    EXPECT_EQ(sa.classifyBlock(kBase), SharePattern::WriteShared);
}

TEST(SharingClassify, SingleWriterUpdatePushesAreProducerConsumer)
{
    SharingAnalyzer sa(4);
    for (int round = 0; round < 3; ++round) {
        sa.fold(accessRec(0, kBase, 8, true));
        sa.fold(invalRec(0, kBase, 1, InvKind::Update));
        sa.fold(accessRec(3, kBase, 8, false));
    }
    EXPECT_EQ(sa.classifyBlock(kBase), SharePattern::ProducerConsumer);
}

TEST(SharingClassify, MigratoryHandoffChain)
{
    // Ownership hops 0 -> 1 -> 2 -> 3; between writes only the next
    // writer reads. The canonical migratory object.
    SharingAnalyzer sa(4);
    for (NodeId n = 0; n < 4; ++n) {
        sa.fold(accessRec(n, kBase, 8, false));
        sa.fold(accessRec(n, kBase, 8, true));
    }
    EXPECT_EQ(sa.classifyBlock(kBase), SharePattern::Migratory);
}

TEST(SharingClassify, MultiWriterInterleavedReadersIsWriteShared)
{
    // Two writers but every handoff happens with a third-party reader
    // in between: not migratory.
    SharingAnalyzer sa(4);
    for (int round = 0; round < 3; ++round) {
        sa.fold(accessRec(0, kBase, 8, true));
        sa.fold(accessRec(2, kBase, 8, false));
        sa.fold(accessRec(3, kBase, 8, false));
        sa.fold(accessRec(1, kBase, 8, true));
        sa.fold(accessRec(2, kBase, 8, false));
        sa.fold(accessRec(3, kBase, 8, false));
    }
    EXPECT_EQ(sa.classifyBlock(kBase), SharePattern::WriteShared);
}

// --- false sharing -----------------------------------------------------

TEST(SharingFalse, DisjointFootprintsWithConflictsAreFlagged)
{
    SharingAnalyzer sa(2);
    // Node 0 writes bytes [0,8), node 1 reads+writes bytes [16,24);
    // the copies still bounce through invalidations.
    for (int round = 0; round < 2; ++round) {
        sa.fold(accessRec(0, kBase, 8, true));
        sa.fold(invalRec(0, kBase, 1, InvKind::Inval));
        sa.fold(accessRec(1, kBase + 16, 8, true));
        sa.fold(invalRec(0, kBase, 1, InvKind::Recall));
    }
    const auto* b = sa.blockOf(kBase);
    ASSERT_NE(b, nullptr);
    EXPECT_TRUE(sa.falselyShared(*b));
    const auto s = sa.summarize();
    EXPECT_EQ(s.falseSharingBlocks, 1u);
    EXPECT_EQ(s.falseSharingInvals, 4u);
}

TEST(SharingFalse, OverlappingFootprintsAreTrueSharing)
{
    SharingAnalyzer sa(2);
    for (int round = 0; round < 2; ++round) {
        sa.fold(accessRec(0, kBase, 8, true));
        sa.fold(invalRec(0, kBase, 1, InvKind::Inval));
        sa.fold(accessRec(1, kBase, 8, false)); // reads written bytes
    }
    const auto* b = sa.blockOf(kBase);
    ASSERT_NE(b, nullptr);
    EXPECT_FALSE(sa.falselyShared(*b));
    EXPECT_EQ(sa.summarize().falseSharingBlocks, 0u);
}

TEST(SharingFalse, NoConflictRoundsNoFlag)
{
    // Disjoint footprints alone are fine — without invalidations
    // nobody paid for the colocation.
    SharingAnalyzer sa(2);
    sa.fold(accessRec(0, kBase, 8, true));
    sa.fold(accessRec(1, kBase + 16, 8, true));
    const auto* b = sa.blockOf(kBase);
    ASSERT_NE(b, nullptr);
    EXPECT_FALSE(sa.falselyShared(*b));
}

// --- heatmap histograms ------------------------------------------------

TEST(SharingHeatmap, FanoutHistogramBoundaries)
{
    // HomeStats::fanout has width 1.0 and 16 buckets: fan-out f lands
    // in bucket f, and f >= 16 overflows.
    SharingAnalyzer sa(4);
    sa.fold(invalRec(1, kBase, 0, InvKind::Inval));
    sa.fold(invalRec(1, kBase, 1, InvKind::Inval));
    sa.fold(invalRec(1, kBase, 15, InvKind::Inval));
    sa.fold(invalRec(1, kBase, 16, InvKind::Inval));
    sa.fold(invalRec(1, kBase, 100, InvKind::Inval));
    const auto& h = sa.homeOf(1);
    ASSERT_EQ(h.fanout.bucketCount(), 16u);
    EXPECT_EQ(h.fanout.buckets()[0], 1u);
    EXPECT_EQ(h.fanout.buckets()[1], 1u);
    EXPECT_EQ(h.fanout.buckets()[15], 1u);
    EXPECT_EQ(h.fanout.overflow(), 2u);
    EXPECT_EQ(h.invalRounds, 5u);
    EXPECT_EQ(h.fanoutMax, 100u);
    // Other homes untouched.
    EXPECT_EQ(sa.homeOf(0).invalRounds, 0u);
}

TEST(SharingHeatmap, OccupancyHistogramBoundaries)
{
    // HomeStats::busy has width 8.0 and 32 buckets: an activation of
    // t ticks lands in bucket t/8, [i*8, (i+1)*8) exactly.
    SharingAnalyzer sa(4);
    sa.fold(doneRec(2, 0));
    sa.fold(doneRec(2, 7));
    sa.fold(doneRec(2, 8));
    sa.fold(doneRec(2, 255));
    sa.fold(doneRec(2, 256));
    const auto& h = sa.homeOf(2);
    ASSERT_EQ(h.busy.bucketCount(), 32u);
    EXPECT_EQ(h.busy.buckets()[0], 2u);
    EXPECT_EQ(h.busy.buckets()[1], 1u);
    EXPECT_EQ(h.busy.buckets()[31], 1u);
    EXPECT_EQ(h.busy.overflow(), 1u);
    EXPECT_EQ(h.occupancy, 0u + 7 + 8 + 255 + 256);
}

TEST(SharingHeatmap, DirTransLearnsHomeAndCounts)
{
    SharingAnalyzer sa(4);
    sa.fold(dirRec(3, kBase, 0, 2));
    sa.fold(dirRec(3, kBase, 2, 0));
    EXPECT_EQ(sa.homeOf(3).dirTransitions, 2u);
}

// --- summary & advisor -------------------------------------------------

TEST(SharingSummary, DominantPattern)
{
    SharingAnalyzer sa(4);
    // Two read-only shared blocks, one private block.
    for (NodeId n = 0; n < 2; ++n) {
        sa.fold(accessRec(n, kBase, 8, false));
        sa.fold(accessRec(n, kBase + 32, 8, false));
    }
    sa.fold(accessRec(0, kBase + 64, 8, true));
    const auto s = sa.summarize();
    EXPECT_EQ(s.blocks, 3u);
    EXPECT_EQ(s.blocksByPattern[static_cast<int>(
                  SharePattern::ReadOnly)],
              2u);
    EXPECT_EQ(s.dominant(), SharePattern::ReadOnly);
}

TEST(SharingSummary, DominantFallsBackToPrivate)
{
    SharingAnalyzer sa(4);
    sa.fold(accessRec(0, kBase, 8, true));
    EXPECT_EQ(sa.summarize().dominant(), SharePattern::Private);
    EXPECT_EQ(SharingAnalyzer(4).summarize().dominant(),
              SharePattern::Untouched);
}

TEST(SharingAdvisor, MigratoryRegionRankedFirst)
{
    SharingAnalyzer sa(4, SharingParams{32, 4096});
    // Page 0: a migratory block with heavy handoff traffic.
    for (int round = 0; round < 8; ++round) {
        const NodeId n = round % 4;
        sa.fold(accessRec(n, kBase, 8, false));
        sa.fold(accessRec(n, kBase, 8, true));
        sa.fold(invalRec(0, kBase, 1, InvKind::Recall));
    }
    // Page 1: a quiet private block.
    sa.fold(accessRec(1, kBase + 4096, 8, true));
    const auto advice = sa.advise();
    ASSERT_GE(advice.size(), 2u);
    EXPECT_EQ(advice[0].pattern, SharePattern::Migratory);
    EXPECT_GT(advice[0].estSavedMsgs, 0u);
    EXPECT_GE(advice[0].estSavedMsgs, advice[1].estSavedMsgs);
}

// --- determinism & zero impact ----------------------------------------

MachineConfig
analyzeConfig()
{
    MachineConfig cfg;
    cfg.core.nodes = 8;
    cfg.obs.analyze = true;
    return cfg;
}

std::string
runAndReport(double* checksum = nullptr, Tick* cycles = nullptr)
{
    TargetMachine t = buildTyphoonStache(analyzeConfig());
    Em3dApp app(em3dParams(DataSet::Tiny, 0.2, 8));
    const RunResult r = t.run(app);
    if (checksum)
        *checksum = app.checksum();
    if (cycles)
        *cycles = r.execTime;
    std::ostringstream report;
    t.obs->sharing()->writeReport(report);
    std::ostringstream json;
    t.obs->sharing()->writeJson(json);
    return report.str() + "\n---\n" + json.str();
}

TEST(SharingEndToEnd, ReportByteIdenticalAcrossRuns)
{
    const std::string a = runAndReport();
    const std::string b = runAndReport();
    EXPECT_EQ(a, b);
    EXPECT_NE(a.find("dominant sharing pattern: producer-consumer"),
              std::string::npos);
    EXPECT_NE(a.find("=== protocol advisor ==="), std::string::npos);
}

TEST(SharingEndToEnd, AnalyzerDoesNotChangeSimulation)
{
    double withCk = 0, withoutCk = 0;
    Tick withCy = 0;
    runAndReport(&withCk, &withCy);

    MachineConfig cfg;
    cfg.core.nodes = 8;
    TargetMachine t = buildTyphoonStache(cfg);
    EXPECT_EQ(t.obs, nullptr); // analyzer off => no recorder at all
    Em3dApp app(em3dParams(DataSet::Tiny, 0.2, 8));
    const RunResult r = t.run(app);
    EXPECT_EQ(r.execTime, withCy);
    EXPECT_EQ(app.checksum(), withCk);
    withoutCk = app.checksum();
    EXPECT_EQ(withCk, withoutCk);
}

} // namespace
} // namespace tt
