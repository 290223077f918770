/**
 * @file
 * Crash-stop recovery acceptance tests (DESIGN.md §15): a crash
 * mid-run on each of the four memory systems is detected, the
 * machine rolls back to the last in-memory snapshot, and the run
 * completes with the crash-free checksum and a clean checker. A
 * second crash during recovery is unrecoverable; a crash scheduled
 * past the application's end is ignored.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "apps/workloads.hh"
#include "config/builders.hh"
#include "recovery/coordinator.hh"
#include "tests/helpers.hh"

namespace tt
{
namespace
{

constexpr const char* kSystems[] = {"dirnnb", "stache", "migratory",
                                    "update"};

std::unique_ptr<BenchApp>
mkApp(const std::string& system, TargetMachine& t)
{
    return makeTargetApp(system, "em3d", DataSet::Tiny, 1, 0.2, t);
}

struct Baseline
{
    Tick cycles = 0;
    double checksum = 0;
};

/** Crash-free reference run (checker on, no faults). */
Baseline
baselineOf(const std::string& system, int nodes = 8)
{
    MachineConfig cfg;
    cfg.core.nodes = nodes;
    cfg.check.enable = true;
    TargetMachine t = buildTarget(system, cfg);
    auto app = mkApp(system, t);
    const RunResult r = t.run(*app);
    return {r.execTime, app->checksum()};
}

MachineConfig
crashConfig(Tick tick, NodeId victim, int nodes = 8)
{
    MachineConfig cfg;
    cfg.core.nodes = nodes;
    cfg.check.enable = true;
    cfg.faults.crashes.emplace_back(tick, victim);
    cfg.faults.seed = 1;
    return cfg;
}

TEST(Recovery, CrashMidRunRecoversOnAllSystems)
{
    for (const char* system : kSystems) {
        const Baseline base = baselineOf(system);
        ASSERT_GT(base.cycles, 0u) << system;

        TargetMachine t =
            buildTarget(system, crashConfig(base.cycles / 2, 2));
        ASSERT_NE(t.recovery, nullptr) << system;
        auto app = mkApp(system, t);
        const RunResult r = t.run(*app);

        EXPECT_EQ(t.recovery->crashesInjected(), 1u) << system;
        EXPECT_EQ(t.recovery->recoveriesDone(), 1u) << system;
        // Rolled-back recomputation reproduces the exact result.
        EXPECT_EQ(app->checksum(), base.checksum) << system;
        // The crash + rollback cost simulated time.
        EXPECT_GT(r.execTime, base.cycles) << system;
        // SWMR and friends held through the recovery.
        ASSERT_NE(t.checker, nullptr) << system;
        EXPECT_TRUE(t.checker->violations().empty()) << system;
        // Rollback had at least the post-setup snapshot to land on.
        EXPECT_GE(t.m().stats().get("rec.snapshots"), 1u) << system;
    }
}

TEST(Recovery, CrashWithMultiPageAllocationsRecoversOnAllSystems)
{
    // On four nodes each EM3D array spans several pages, so every
    // rollback snapshot reads, and every restore writes, multi-page
    // ranges whose blocks have different owners.
    for (const char* system : kSystems) {
        const Baseline base = baselineOf(system, 4);
        TargetMachine t = buildTarget(system, crashConfig(3000, 1, 4));
        auto app = mkApp(system, t);
        t.run(*app);
        EXPECT_EQ(t.recovery->crashesInjected(), 1u) << system;
        EXPECT_EQ(t.recovery->recoveriesDone(), 1u) << system;
        EXPECT_EQ(app->checksum(), base.checksum) << system;
        EXPECT_TRUE(t.checker->violations().empty()) << system;
    }
}

TEST(Recovery, SecondCrashDuringOutageIsUnrecoverable)
{
    const Baseline base = baselineOf("stache");
    const Tick mid = base.cycles / 2;
    // Victim two goes down while victim one is still unrecovered
    // (crash detection waits out the deterministic 2000-tick probe).
    MachineConfig cfg = crashConfig(mid, 2);
    cfg.faults.crashes.emplace_back(mid + 1000, 3);

    TargetMachine t = buildTarget("stache", cfg);
    auto app = mkApp("stache", t);
    // The throw unwinds out of run() abandoning suspended coroutine
    // frames by design.
    test::ExpectLeaksInScope leaks;
    EXPECT_THROW(t.run(*app), UnrecoverableCrash);
    EXPECT_EQ(t.recovery->crashesInjected(), 1u);
    EXPECT_EQ(t.recovery->recoveriesDone(), 0u);
}

TEST(Recovery, CrashAfterAppFinishIsIgnored)
{
    const Baseline base = baselineOf("dirnnb");
    // The crash tick lands far past the application's end; the event
    // still fires in the final queue drain and must be a no-op.
    TargetMachine t =
        buildTarget("dirnnb", crashConfig(base.cycles * 4, 2));
    auto app = mkApp("dirnnb", t);
    // (No exec-time comparison: the crash-configured build carries
    // the reliable transport, whose charged acks shift timing even
    // when the crash itself is a no-op.)
    t.run(*app);
    EXPECT_EQ(app->checksum(), base.checksum);
    EXPECT_EQ(t.recovery->crashesInjected(), 0u);
    EXPECT_EQ(t.recovery->recoveriesDone(), 0u);
}

TEST(Recovery, CrashRecoveryComposesWithMessageFaults)
{
    // Crash-stop plus a lossy fabric: the reliable transport repairs
    // the losses, the coordinator repairs the crash, and the result
    // still matches the fault-free run.
    const Baseline base = baselineOf("stache");
    MachineConfig cfg = crashConfig(base.cycles / 2, 5);
    cfg.faults.drop = 0.002;
    cfg.faults.dup = 0.002;

    TargetMachine t = buildTarget("stache", cfg);
    auto app = mkApp("stache", t);
    t.run(*app);
    EXPECT_EQ(t.recovery->crashesInjected(), 1u);
    EXPECT_EQ(t.recovery->recoveriesDone(), 1u);
    EXPECT_EQ(app->checksum(), base.checksum);
    EXPECT_TRUE(t.checker->violations().empty());
}

TEST(Recovery, CrashFreeBuildCarriesNoRecoveryMachinery)
{
    MachineConfig cfg;
    cfg.core.nodes = 8;
    TargetMachine t = buildTyphoonStache(cfg);
    EXPECT_EQ(t.recovery, nullptr);
    EXPECT_EQ(t.checkpoint, nullptr);
    EXPECT_FALSE(t.m().stats().hasCounter("rec.snapshots"));
    EXPECT_FALSE(t.m().stats().hasCounter("rec.crashes"));
}

} // namespace
} // namespace tt
