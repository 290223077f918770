/**
 * @file
 * Fault-campaign runner tests: byte-identical replay of the same
 * (seed, faults) campaign, the positive run (reliable transport keeps
 * every system clean over a lossy fabric), and the negative control
 * (without the transport the same campaign must fail — proving the
 * fault injection has teeth). Also guards the fault-off hot path:
 * a machine built without faults carries none of the robustness
 * machinery.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "config/campaign.hh"

namespace tt
{
namespace
{

FaultParams
mix()
{
    FaultParams p;
    p.drop = 0.02;
    p.dup = 0.02;
    p.reorder = 0.05;
    p.seed = 20260807;
    return p;
}

CampaignConfig
smallCampaign()
{
    CampaignConfig cc;
    cc.base.core.nodes = 8;
    cc.base.faults = mix();
    cc.systems = {"stache"};
    cc.runs = 2;
    cc.app = "em3d";
    cc.dataset = DataSet::Tiny;
    cc.scale = 4;
    cc.progress = false;
    return cc;
}

std::string
serialize(const CampaignReport& rep)
{
    std::ostringstream os;
    rep.writeJson(os);
    return os.str();
}

TEST(Campaign, SeedDerivationIsPureAndDecorrelated)
{
    EXPECT_EQ(campaignSeed(7, 0), campaignSeed(7, 0));
    EXPECT_NE(campaignSeed(7, 0), campaignSeed(7, 1));
    EXPECT_NE(campaignSeed(7, 0), campaignSeed(8, 0));
}

TEST(Campaign, ReliableTransportKeepsLossyCampaignClean)
{
    const CampaignConfig cc = smallCampaign();
    const CampaignReport rep = runCampaign(cc);
    ASSERT_EQ(rep.runs.size(), 2u);
    EXPECT_TRUE(rep.allOk()) << serialize(rep);
    // The fabric really was lossy and the transport really worked.
    std::uint64_t faults = 0, retx = 0;
    for (const auto& r : rep.runs) {
        faults += r.faultsInjected;
        retx += r.retransmits;
        EXPECT_EQ(r.violations, 0u);
        EXPECT_EQ(r.watchdogTrips, 0u);
    }
    EXPECT_GT(faults, 0u);
    EXPECT_GT(retx, 0u);
}

TEST(Campaign, SameSeedCampaignIsByteIdentical)
{
    const CampaignConfig cc = smallCampaign();
    CampaignReport a = runCampaign(cc);
    CampaignReport b = runCampaign(cc);
    a.faultSpec = b.faultSpec = "test-mix";
    EXPECT_EQ(serialize(a), serialize(b));
}

TEST(Campaign, RemoteFractionReachesEverySystem)
{
    // --remote shapes the EM3D graph on every system, not only on
    // the update protocol.
    auto cyclesAt = [](double remoteFrac) {
        CampaignConfig cc = smallCampaign();
        cc.runs = 1;
        cc.remoteFrac = remoteFrac;
        const CampaignReport rep = runCampaign(cc);
        EXPECT_TRUE(rep.allOk()) << serialize(rep);
        return rep.runs.at(0).cycles;
    };
    EXPECT_NE(cyclesAt(0.4), cyclesAt(0.2));
}

TEST(Campaign, ShardUnionEqualsUnshardedCampaign)
{
    // --campaign-shard=I/N: seeds derive from the run index, never
    // the shard, so the union of the N shard reports must be exactly
    // the unsharded report, run for run.
    CampaignConfig cc = smallCampaign();
    cc.runs = 4;
    const CampaignReport whole = runCampaign(cc);
    ASSERT_EQ(whole.runs.size(), 4u);

    std::vector<CampaignRun> merged;
    for (int shard = 0; shard < 2; ++shard) {
        CampaignConfig part = cc;
        part.shardIndex = shard;
        part.shardCount = 2;
        const CampaignReport rep = runCampaign(part);
        EXPECT_EQ(rep.shardIndex, shard);
        EXPECT_EQ(rep.shardCount, 2);
        EXPECT_EQ(rep.runs.size(), 2u);
        for (const CampaignRun& r : rep.runs) {
            EXPECT_EQ(r.index % 2, shard);
            merged.push_back(r);
        }
    }
    std::sort(merged.begin(), merged.end(),
              [](const CampaignRun& a, const CampaignRun& b) {
                  return a.index < b.index;
              });
    ASSERT_EQ(merged.size(), whole.runs.size());
    for (std::size_t i = 0; i < merged.size(); ++i) {
        const CampaignRun& m = merged[i];
        const CampaignRun& w = whole.runs[i];
        EXPECT_EQ(m.index, w.index);
        EXPECT_EQ(m.system, w.system);
        EXPECT_EQ(m.seed, w.seed);
        EXPECT_EQ(m.outcome, w.outcome);
        EXPECT_EQ(m.cycles, w.cycles);
        EXPECT_EQ(m.checksum, w.checksum);
        EXPECT_EQ(m.faultsInjected, w.faultsInjected);
        EXPECT_EQ(m.retransmits, w.retransmits);
        EXPECT_EQ(m.violations, w.violations);
    }
}

TEST(Campaign, CrashCampaignSurvivesAndCountsRecoveries)
{
    // A crash-stop failure in every run of a lossy campaign: all runs
    // must still come back ok, with the recovery tally in the report.
    CampaignConfig cc = smallCampaign();
    cc.base.faults.crashes.emplace_back(30'000, 3);
    const CampaignReport rep = runCampaign(cc);
    ASSERT_EQ(rep.runs.size(), 2u);
    EXPECT_TRUE(rep.allOk()) << serialize(rep);
    for (const auto& r : rep.runs) {
        EXPECT_EQ(r.crashesInjected, 1u);
        EXPECT_EQ(r.recoveries, 1u);
        EXPECT_EQ(r.violations, 0u);
    }
    const std::string json = serialize(rep);
    EXPECT_NE(json.find("\"recovery\""), std::string::npos);
    EXPECT_NE(json.find("\"crashes_survived\""), std::string::npos);
}

TEST(Campaign, NegativeControlFailsWithoutReliableTransport)
{
    CampaignConfig cc = smallCampaign();
    cc.base.reliable.enable = false;
    // Tighten the horizon so a wedged run is detected quickly.
    cc.base.watchdog.horizon = 20'000;
    const CampaignReport rep = runCampaign(cc);
    ASSERT_EQ(rep.runs.size(), 2u);
    // Dropped protocol messages with nobody retransmitting must
    // surface as watchdog trips, deadlock panics, or checker
    // violations — never a clean pass.
    EXPECT_FALSE(rep.allOk()) << serialize(rep);
    for (const auto& r : rep.runs)
        EXPECT_NE(r.outcome, "ok") << serialize(rep);
}

TEST(Campaign, FaultFreeBuildCarriesNoRobustnessMachinery)
{
    MachineConfig cfg;
    cfg.core.nodes = 8;
    TargetMachine t = buildTyphoonStache(cfg);
    EXPECT_EQ(t.faults, nullptr);
    EXPECT_EQ(t.transport, nullptr);
    EXPECT_EQ(t.watchdog, nullptr);
    auto app = makeWorkload("em3d", DataSet::Tiny, 4);
    t.run(*app);
    // No transport/fault counters may even exist in a fault-off run:
    // the stats dump is part of the bit-identical seed output.
    const StatSet& stats = t.machine->stats();
    EXPECT_FALSE(stats.hasCounter("net.retransmits"));
    EXPECT_FALSE(stats.hasCounter("net.acks"));
    EXPECT_FALSE(stats.hasCounter("net.faults.drops"));
    EXPECT_FALSE(stats.hasCounter("obs.watchdog.trips"));
}

} // namespace
} // namespace tt
