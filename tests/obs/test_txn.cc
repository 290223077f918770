/**
 * @file
 * Coherence-transaction tracer tests (DESIGN.md §14): end-to-end
 * transaction spans on all four target systems, the critical-path
 * partition identity (segments sum to measured wall latency),
 * retransmitted and duplicate-suppressed messages staying tied to
 * their originating transaction under --faults, the fault-off
 * negative control, the sharing-pattern join, and byte-determinism
 * of every tracer output.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "apps/workloads.hh"
#include "config/builders.hh"
#include "obs/sharing.hh"
#include "obs/txn.hh"

namespace tt
{
namespace
{

std::string
slurp(const std::string& path)
{
    std::ifstream f(path, std::ios::binary);
    std::ostringstream oss;
    oss << f.rdbuf();
    return oss.str();
}

struct TempFile
{
    std::string path;
    explicit TempFile(const std::string& p) : path(p) {}
    ~TempFile() { std::remove(path.c_str()); }
};

MachineConfig
txnConfig()
{
    MachineConfig cfg;
    cfg.core.nodes = 8;
    cfg.obs.txn = true;
    // Huge rings so the span-level assertions below see every record.
    cfg.obs.ringCapacity = 1u << 20;
    return cfg;
}

RunResult
runEm3d(TargetMachine& t, const std::string& system)
{
    const auto app =
        makeTargetApp(system, "em3d", DataSet::Tiny, 8, 0.2, t);
    return t.run(*app);
}

// --- end-to-end spans + the partition identity ------------------------

TEST(ObsTxn, SpansCoverAllSystemsAndPartitionSumsToWall)
{
    for (const char* system :
         {"dirnnb", "stache", "migratory", "update"}) {
        TargetMachine t = buildTarget(system, txnConfig());
        runEm3d(t, system);
        t.obs->finalize();

        ASSERT_NE(t.obs->txn(), nullptr) << system;
        const TxnTracer& tx = *t.obs->txn();
        const TxnTracer::Summary s = tx.summarize();
        ASSERT_GT(s.completed, 0u) << system;
        EXPECT_EQ(s.opened, s.completed)
            << system << ": a clean run leaves no transaction open";

        std::uint64_t wall = 0, spanned = 0;
        for (const TxnTracer::Result& r : tx.results()) {
            // The acceptance criterion: per-transaction latency
            // attribution sums exactly to the measured wall latency.
            Tick sum = 0;
            for (Tick c : r.cat)
                sum += c;
            ASSERT_EQ(sum, r.wall()) << system << " txn " << r.id;
            EXPECT_GT(r.wall(), 0u) << system << " txn " << r.id;
            wall += r.wall();
            spanned += r.sends;
        }
        EXPECT_EQ(wall, s.wallTicks) << system;
        // Remote misses derive protocol messages; the spans made it
        // from origin through the network back into the transaction.
        EXPECT_GT(spanned, 0u) << system;
        const std::uint64_t attributed =
            s.catTicks[0] + s.catTicks[1] + s.catTicks[2];
        EXPECT_GT(attributed, 0u)
            << system << ": request/network/directory all empty";
    }
}

TEST(ObsTxn, StatsCountersMatchSummary)
{
    TargetMachine t = buildTarget("stache", txnConfig());
    runEm3d(t, "stache");
    t.obs->finalize();
    const TxnTracer::Summary s = t.obs->txn()->summarize();
    StatSet& st = t.machine->stats();
    EXPECT_EQ(st.get("obs.txn.opened"), s.opened);
    EXPECT_EQ(st.get("obs.txn.completed"), s.completed);
    EXPECT_EQ(st.get("obs.txn.wall_ticks"), s.wallTicks);
    std::uint64_t catSum = 0;
    for (int c = 0; c < kTxnCats; ++c) {
        const std::string name = std::string("obs.txn.") +
                                 txnCatName(static_cast<TxnCat>(c)) +
                                 "_ticks";
        EXPECT_EQ(st.get(name),
                  s.catTicks[static_cast<std::size_t>(c)])
            << name;
        catSum += s.catTicks[static_cast<std::size_t>(c)];
    }
    EXPECT_EQ(catSum, s.wallTicks);
}

// --- the sharing-pattern join -----------------------------------------

TEST(ObsTxn, Em3dWallTimeIsDominatedByProducerConsumer)
{
    TargetMachine t = buildTarget("stache", txnConfig());
    runEm3d(t, "stache");
    t.obs->finalize();
    const TxnTracer& tx = *t.obs->txn();
    EXPECT_EQ(tx.dominantPattern(),
              static_cast<int>(SharePattern::ProducerConsumer));
    const auto& agg = tx.byPattern()[static_cast<std::size_t>(
        SharePattern::ProducerConsumer)];
    EXPECT_GT(agg.txns, 0u);
    EXPECT_GT(agg.wallTicks, 0u);
}

// --- --trace-critical x --faults --------------------------------------

MachineConfig
faultyConfig()
{
    MachineConfig cfg = txnConfig();
    cfg.faults =
        parseFaultSpec("drop=0.02,dup=0.02,reorder=0.05,seed=7");
    return cfg;
}

TEST(ObsTxn, RetransmitsAndSuppressionsLinkToTheirTransaction)
{
    TargetMachine t = buildTarget("stache", faultyConfig());
    runEm3d(t, "stache");
    t.obs->finalize();

    // Every transaction id ever opened, from the record stream itself.
    std::set<std::uint32_t> opened;
    for (NodeId n = 0; n < t.obs->nodes(); ++n) {
        for (const TraceRecord& r : t.obs->ringOf(n)) {
            if (r.kind == RecKind::BlockFault ||
                r.kind == RecKind::MissStart)
                opened.insert(r.txn);
        }
    }
    ASSERT_FALSE(opened.empty());

    std::size_t retxSpans = 0, supSpans = 0;
    for (NodeId n = 0; n < t.obs->nodes(); ++n) {
        for (const TraceRecord& r : t.obs->ringOf(n)) {
            if (r.kind == RecKind::MsgSend &&
                (r.flags & kRecRetransmit)) {
                ++retxSpans;
                // The acceptance criterion: for a seeded --faults run
                // every retransmit span links to its transaction.
                ASSERT_NE(r.txn, 0u);
                EXPECT_TRUE(opened.count(r.txn));
            }
            if (r.kind == RecKind::MsgSup) {
                ++supSpans;
                ASSERT_NE(r.txn, 0u);
                EXPECT_TRUE(opened.count(r.txn));
            }
        }
    }
    ASSERT_GT(retxSpans, 0u) << "fault mix produced no retransmits";
    ASSERT_GT(supSpans, 0u) << "fault mix produced no dups";

    // The tracer saw the same episodes the raw stream shows.
    const TxnTracer::Summary s = t.obs->txn()->summarize();
    EXPECT_GT(s.retxTxns, 0u);
    EXPECT_EQ(s.supArrivals, supSpans);
    EXPECT_GT(s.catTicks[static_cast<std::size_t>(TxnCat::Retransmit)],
              0u);
}

TEST(ObsTxn, FaultFreeRunCarriesNoFaultArtifacts)
{
    // Negative control: with faults off, the record stream contains
    // no retransmit/drop flags and no suppressed arrivals, so the
    // trace is identical to one taken before loss repair existed.
    TargetMachine t = buildTarget("stache", txnConfig());
    runEm3d(t, "stache");
    t.obs->finalize();
    for (NodeId n = 0; n < t.obs->nodes(); ++n) {
        for (const TraceRecord& r : t.obs->ringOf(n)) {
            ASSERT_EQ(r.flags, 0u);
            ASSERT_NE(r.kind, RecKind::MsgSup);
        }
    }
    const TxnTracer::Summary s = t.obs->txn()->summarize();
    EXPECT_EQ(s.retxTxns, 0u);
    EXPECT_EQ(s.supArrivals, 0u);
    EXPECT_EQ(s.catTicks[static_cast<std::size_t>(TxnCat::Retransmit)],
              0u);
}

// --- determinism ------------------------------------------------------

TEST(ObsTxn, ReportAndJsonAreByteDeterministic)
{
    std::string report0, json0;
    for (int run = 0; run < 2; ++run) {
        TargetMachine t = buildTarget("stache", faultyConfig());
        runEm3d(t, "stache");
        t.obs->finalize();
        std::ostringstream rep, js;
        t.obs->txn()->writeReport(rep);
        t.obs->txn()->writeJson(js);
        if (run == 0) {
            report0 = rep.str();
            json0 = js.str();
            EXPECT_NE(report0.find("critical path"), std::string::npos);
        } else {
            EXPECT_EQ(report0, rep.str());
            EXPECT_EQ(json0, js.str());
        }
    }
}

TEST(ObsTxn, TracingDoesNotChangeSimulatedResults)
{
    MachineConfig bareCfg;
    bareCfg.core.nodes = 8;
    TargetMachine bare = buildTarget("stache", bareCfg);
    const RunResult r0 = runEm3d(bare, "stache");

    TargetMachine traced = buildTarget("stache", txnConfig());
    const RunResult r1 = runEm3d(traced, "stache");
    EXPECT_EQ(r0.execTime, r1.execTime);
    EXPECT_EQ(r0.events, r1.events);
}

TEST(ObsTxn, TxnOffTraceFileHasNoTransactionArtifacts)
{
    // A --trace run without --trace-critical must stay byte-identical
    // to the pre-transaction-tracing exporter: no txn args, no flow
    // events, no suppressed-arrival instants.
    TempFile tf("obs_txn_off.trace.json");
    MachineConfig cfg;
    cfg.core.nodes = 8;
    cfg.obs.traceFile = tf.path;
    TargetMachine t = buildTarget("stache", cfg);
    runEm3d(t, "stache");
    t.obs->finalize();
    const std::string bytes = slurp(tf.path);
    ASSERT_FALSE(bytes.empty());
    EXPECT_EQ(bytes.find("\"txn\""), std::string::npos);
    EXPECT_EQ(bytes.find("msg.suppressed"), std::string::npos);
    EXPECT_EQ(bytes.find("\"ph\": \"s\""), std::string::npos);
}

TEST(ObsTxn, TxnOnTraceFileIsByteDeterministicWithFlows)
{
    std::string first;
    for (int run = 0; run < 2; ++run) {
        TempFile tf("obs_txn_on.trace.json");
        MachineConfig cfg = txnConfig();
        cfg.obs.traceFile = tf.path;
        TargetMachine t = buildTarget("stache", cfg);
        runEm3d(t, "stache");
        t.obs->finalize();
        const std::string bytes = slurp(tf.path);
        ASSERT_FALSE(bytes.empty());
        // Flow events tie the spans together in the Perfetto UI.
        EXPECT_NE(bytes.find("\"ph\": \"s\""), std::string::npos);
        EXPECT_NE(bytes.find("\"ph\": \"f\""), std::string::npos);
        EXPECT_NE(bytes.find("\"txn\""), std::string::npos);
        if (run == 0)
            first = bytes;
        else
            EXPECT_EQ(first, bytes);
    }
}

} // namespace
} // namespace tt
