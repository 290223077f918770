/**
 * @file
 * Seam self-test: the benchmark's forwarding App and MemorySystem
 * must be invisible to the simulation, and its fault-campaign
 * simulations must reproduce runCampaign.
 *
 *  - On all four systems, EM3D tiny with and without a crash-stop
 *    fault: a traced runSimulation leaves cycles, checksum and the
 *    whole StatSet byte-identical to a plain builder + Machine::run.
 *  - The app inputs built from an explicit seed equal makeWorkload's
 *    at the apps' default seeds.
 *  - The fault-campaign simulations, untraced and traced, reproduce
 *    runCampaign's outcomes and cycles for the same seeds, and split
 *    run_s into the same number of slices.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <tuple>

#include "config/campaign.hh"
#include "harness.hh"
#include "sim/logging.hh"

namespace ttbench
{
namespace
{

constexpr std::uint64_t kEm3dDefaultSeed = tt::Em3dApp::Params{}.seed;
constexpr std::uint64_t kMp3dDefaultSeed = tt::Mp3dApp::Params{}.seed;

SimSpec
em3dTiny(const std::string& system, bool crash)
{
    SimSpec s;
    s.system = system;
    s.app = "em3d";
    s.dataset = tt::DataSet::Tiny;
    s.appSeed = kEm3dDefaultSeed;
    if (crash)
        s.cfg.faults = tt::parseFaultSpec("crash@30000:3,seed=5");
    return s;
}

struct Plain
{
    tt::Tick cycles = 0;
    double checksum = 0;
    std::string stats;
};

/** The same simulation with no benchmark code between the layers. */
Plain
plainRun(const SimSpec& spec)
{
    tt::TargetMachine t = buildSystem(spec.system, spec.cfg);
    std::unique_ptr<tt::BenchApp> app = makeApp(spec, t);
    const tt::RunResult r = t.run(*app);
    if (t.recovery)
        t.recovery->finalizeStats();
    std::ostringstream os;
    t.m().stats().writeJson(os);
    return Plain{r.execTime, app->checksum(), os.str()};
}

class SeamTransparency
    : public ::testing::TestWithParam<std::tuple<std::string, bool>>
{
};

TEST_P(SeamTransparency, TracedRunIsByteIdenticalToPlainRun)
{
    tt::setLogVerbosity(0);
    const auto& [system, crash] = GetParam();
    const SimSpec spec = em3dTiny(system, crash);
    const Plain plain = plainRun(spec);

    SpanLog log;
    RunOptions opt;
    opt.spans = &log;
    const SimResult traced = runSimulation(spec, opt);

    ASSERT_EQ(traced.outcome, "ok") << traced.detail;
    EXPECT_EQ(traced.cycles, plain.cycles);
    EXPECT_EQ(traced.checksum, plain.checksum);
    EXPECT_EQ(traced.statsJson, plain.stats);
    EXPECT_GT(traced.access.calls, 0u);
    EXPECT_GT(traced.access.sampled, 0u);
    EXPECT_EQ(traced.counts.at("recovery.recoveries"), crash ? 1 : 0);
    if (crash) {
        EXPECT_GT(traced.counts.at("net.retransmits") +
                      traced.counts.at("net.acks"),
                  0);
    }
    // Every seam left a span: sim, build, run, setup, finish, teardown.
    EXPECT_GE(log.spans().size(), 6u);
}

INSTANTIATE_TEST_SUITE_P(
    AllSystems, SeamTransparency,
    ::testing::Combine(::testing::Values("dirnnb", "stache", "migratory",
                                         "update"),
                       ::testing::Bool()));

TEST(SeamInputs, ExplicitSeedMatchesMakeWorkloadDefaults)
{
    tt::setLogVerbosity(0);
    for (const std::string app : {"em3d", "mp3d"}) {
        SimSpec spec;
        spec.system = "stache";
        spec.app = app;
        spec.dataset = tt::DataSet::Tiny;
        spec.appSeed = app == "em3d" ? kEm3dDefaultSeed : kMp3dDefaultSeed;

        tt::TargetMachine t = buildSystem(spec.system, spec.cfg);
        std::unique_ptr<tt::BenchApp> ref =
            tt::makeWorkload(app, tt::DataSet::Tiny);
        const tt::RunResult r = t.run(*ref);

        const SimResult ours = runSimulation(spec, RunOptions{});
        ASSERT_EQ(ours.outcome, "ok");
        EXPECT_EQ(ours.cycles, r.execTime) << app;
        EXPECT_EQ(ours.checksum, ref->checksum()) << app;
    }
}

TEST(SeamCampaign, ReproducesRunCampaign)
{
    tt::setLogVerbosity(0);
    const std::uint64_t base = 11;
    // runCampaign runs the apps at their default input seed.
    std::vector<SimSpec> sims = workloadSims("fault-campaign", base);
    for (SimSpec& s : sims)
        s.appSeed = kEm3dDefaultSeed;

    tt::CampaignConfig cc;
    cc.base.faults = tt::parseFaultSpec(kCampaignFaults);
    cc.base.faults.seed = base;
    cc.systems = campaignSystems();
    cc.runs = static_cast<int>(sims.size() / campaignSystems().size());
    cc.app = "em3d";
    cc.dataset = tt::DataSet::Tiny;
    cc.progress = false;
    const tt::CampaignReport rep = tt::runCampaign(cc);
    ASSERT_EQ(sims.size(), rep.runs.size());
    for (std::size_t i = 0; i < sims.size(); ++i) {
        const tt::CampaignRun& want = rep.runs[i];
        ASSERT_EQ(sims[i].system, want.system);
        ASSERT_EQ(sims[i].cfg.faults.seed, want.seed);
        std::size_t slices = 0;
        for (bool traced : {false, true}) {
            SpanLog log;
            RunOptions opt;
            opt.spans = traced ? &log : nullptr;
            const SimResult got = runSimulation(sims[i], opt);
            // run_s splits into the same slices in every repetition.
            double sum = 0;
            for (const double v : got.slices)
                sum += v;
            EXPECT_NEAR(sum, got.runS, 1e-9 * (1 + got.runS));
            EXPECT_GT(got.slices.size(), 2u);
            if (!traced)
                slices = got.slices.size();
            EXPECT_EQ(got.slices.size(), slices) << want.system << i;
            EXPECT_EQ(got.outcome, want.outcome) << want.system << i;
            EXPECT_EQ(got.cycles, want.cycles) << want.system << i;
            EXPECT_EQ(got.checksum, want.checksum) << want.system << i;
            EXPECT_EQ(got.counts.at("check.violations"),
                      static_cast<double>(want.violations));
            EXPECT_EQ(got.counts.at("recovery.recoveries"),
                      static_cast<double>(want.recoveries));
            EXPECT_EQ(got.counts.at("obs.txn_completed"),
                      static_cast<double>(want.txnCompleted));
        }
    }
}

} // namespace
} // namespace ttbench
