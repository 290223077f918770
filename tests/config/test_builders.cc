/**
 * @file
 * Tests of the machine builders and Table 2 configuration printing:
 * each builder wires a complete, runnable target; parameter knobs
 * reach the right subsystems.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "apps/workloads.hh"
#include "config/builders.hh"
#include "tests/helpers.hh"

namespace tt
{
namespace
{

Task<void>
touchSomeMemory(Cpu& cpu, Addr a)
{
    co_await cpu.write<int>(a + cpu.id() * 64, cpu.id());
    int v = co_await cpu.read<int>(a + cpu.id() * 64);
    EXPECT_EQ(v, cpu.id());
}

TEST(Builders, AllFourTargetsRun)
{
    MachineConfig cfg;
    cfg.core.nodes = 4;
    for (int which = 0; which < 4; ++which) {
        TargetMachine t;
        switch (which) {
          case 0:
            t = buildDirNNB(cfg);
            break;
          case 1:
            t = buildTyphoonStache(cfg);
            break;
          case 2:
            t = buildTyphoonMigratory(cfg);
            break;
          case 3:
            t = buildTyphoonEm3dUpdate(cfg);
            break;
        }
        Addr a = t.m().memsys().shmalloc(4096, 0);
        test::FnApp app([a](Cpu& cpu) -> Task<void> {
            return touchSomeMemory(cpu, a);
        });
        const RunResult r = t.run(app);
        EXPECT_GT(r.execTime, 0u) << "target " << which;
    }
}

TEST(Builders, BuildTargetCoversEverySystem)
{
    MachineConfig cfg;
    cfg.core.nodes = 4;
    struct Run
    {
        std::string memsys;
        Tick cycles;
        double checksum;
    };
    auto runOn = [](const std::string& system, TargetMachine t) {
        const auto app =
            makeTargetApp(system, "em3d", DataSet::Tiny, 1, 0.2, t);
        const RunResult r = t.run(*app);
        return Run{t.m().memsys().name(), r.execTime, app->checksum()};
    };
    const std::pair<const char*, TargetMachine (*)(const MachineConfig&)>
        named[] = {{"dirnnb", buildDirNNB},
                   {"stache", buildTyphoonStache},
                   {"migratory", buildTyphoonMigratory},
                   {"update", buildTyphoonEm3dUpdate}};
    for (const auto& [system, build] : named) {
        const Run a = runOn(system, buildTarget(system, cfg));
        const Run b = runOn(system, build(cfg));
        EXPECT_EQ(a.memsys, b.memsys) << system;
        EXPECT_EQ(a.cycles, b.cycles) << system;
        EXPECT_EQ(a.checksum, b.checksum) << system;
    }
    EXPECT_EQ(targetSystems("em3d"),
              (std::vector<std::string>{"dirnnb", "stache", "migratory",
                                        "update"}));
    EXPECT_EQ(targetSystems("mp3d").size(), 3u);

    EXPECT_THROW(buildTarget("nope", cfg), FatalError);
    TargetMachine update = buildTarget("update", cfg);
    EXPECT_THROW(
        makeTargetApp("update", "mp3d", DataSet::Tiny, 1, 0.2, update),
        FatalError);
}

TEST(Builders, TargetNamesIdentifyProtocol)
{
    MachineConfig cfg;
    cfg.core.nodes = 2;
    EXPECT_EQ(buildDirNNB(cfg).m().memsys().name(), "DirNNB");
    EXPECT_EQ(buildTyphoonStache(cfg).m().memsys().name(),
              "Typhoon/Stache");
    EXPECT_EQ(buildTyphoonMigratory(cfg).m().memsys().name(),
              "Typhoon/Migratory");
    EXPECT_EQ(buildTyphoonEm3dUpdate(cfg).m().memsys().name(),
              "Typhoon/Em3dUpdate");
}

TEST(Builders, ConfigKnobsReachSubsystems)
{
    MachineConfig cfg;
    cfg.core.nodes = 3;
    cfg.core.cacheSize = 8192;
    cfg.core.blockSize = 64;
    auto t = buildTyphoonStache(cfg);
    EXPECT_EQ(t.typhoon->cpuCacheOf(0).sizeBytes(), 8192u);
    EXPECT_EQ(t.typhoon->cpuCacheOf(2).blockSize(), 64u);
    EXPECT_EQ(t.m().nodes(), 3);
}

TEST(Builders, NetworkLatencyKnobChangesRemoteMissCost)
{
    auto missAt = [](Tick latency) {
        MachineConfig cfg;
        cfg.core.nodes = 2;
        cfg.net.latency = latency;
        auto t = buildDirNNB(cfg);
        Addr a = t.m().memsys().shmalloc(4096, 1);
        Tick cost = 0;
        test::FnApp app([&](Cpu& cpu) -> Task<void> {
            if (cpu.id() != 0)
                co_return;
            const Tick t0 = cpu.localTime();
            co_await cpu.read<int>(a);
            cost = cpu.localTime() - t0;
        });
        t.run(app);
        return cost;
    };
    // Two network hops: doubling latency adds exactly 2x the delta.
    EXPECT_EQ(missAt(22) - missAt(11), 2u * 11);
}

TEST(Builders, Table2PrinterMentionsEveryParameterGroup)
{
    std::ostringstream oss;
    MachineConfig cfg;
    printTable2(oss, cfg);
    const std::string out = oss.str();
    for (const char* needle :
         {"Common", "DirNNB only", "Typhoon only", "Network latency",
          "Barrier latency", "Directory op base", "NP D-cache",
          "RTLB"}) {
        EXPECT_NE(out.find(needle), std::string::npos) << needle;
    }
}

TEST(Builders, SeedChangesNothingObservableButIsHonored)
{
    // Different seeds change random replacement decisions; with a
    // direct-mapped-ish tiny cache the timing may shift, but results
    // must not.
    auto checksumAt = [](std::uint64_t seed) {
        MachineConfig cfg;
        cfg.core.nodes = 4;
        cfg.core.seed = seed;
        cfg.core.cacheSize = 512;
        auto t = buildTyphoonStache(cfg);
        auto a = makeWorkload("ocean", DataSet::Tiny);
        t.run(*a);
        return a->checksum();
    };
    EXPECT_EQ(checksumAt(1), checksumAt(999));
}

TEST(Builders, ValidateReportsEveryGeometryError)
{
    MachineConfig ok;
    ok.core.nodes = 3; // node counts need not be powers of two
    EXPECT_TRUE(ok.validate().empty());

    MachineConfig bad;
    bad.core.nodes = 0;
    bad.core.blockSize = 33;
    bad.core.cacheSize = 3072;
    EXPECT_EQ(bad.validate().size(), 3u);

    MachineConfig big;
    big.core.blockSize = 8192; // larger than the 4 KB page
    big.core.cacheSize = 1024; // and no 4-way set of it fits
    EXPECT_EQ(big.validate().size(), 2u);

    // Page and block numbers are shifts, so pages are powers of two.
    MachineConfig oddPage;
    oddPage.core.pageSize = 3000;
    EXPECT_EQ(oddPage.validate().size(), 1u);
    oddPage.core.pageSize = 0; // and then no block fits in a page
    EXPECT_EQ(oddPage.validate().size(), 2u);

    // Fault specs name nodes of the machine: one error per crash@ or
    // cut= outside [0, nodes), a cut once for both of its directions.
    MachineConfig faulty;
    faulty.core.nodes = 8;
    faulty.faults = parseFaultSpec("crash@100:7,cut=0-7,seed=1");
    EXPECT_TRUE(faulty.validate().empty());
    faulty.faults =
        parseFaultSpec("crash@100:8,crash@200:-1,cut=0-99,seed=1");
    EXPECT_EQ(faulty.validate().size(), 3u);

    // The builders refuse an invalid machine as a user error.
    EXPECT_THROW(buildDirNNB(bad), FatalError);
    EXPECT_THROW(buildTyphoonStache(big), FatalError);
    EXPECT_THROW(buildTyphoonStache(faulty), FatalError);
    EXPECT_THROW(buildTyphoonStache(oddPage), FatalError);
}

/** runTarget on a checked tiny run of @p app on 8 nodes of @p system. */
TargetRun
checkedRun(const std::string& system, const std::string& app,
           MachineConfig cfg)
{
    cfg.core.nodes = 8;
    cfg.check.enable = true;
    TargetMachine t = buildTarget(system, cfg);
    auto a = makeTargetApp(system, app, DataSet::Tiny, 1, 0.2, t);
    return runTarget(t, *a);
}

TEST(Builders, RunTargetSortsEveryEndingIntoAnOutcome)
{
    const TargetRun ok = checkedRun("stache", "em3d", {});
    EXPECT_EQ(ok.outcome, "ok");
    EXPECT_GT(ok.result.execTime, 0u);
    EXPECT_NE(ok.checksum, 0.0);

    // A completed run the checker faults is a violation, not an abort.
    MachineConfig inval;
    inval.dir.faultSkipInvalidate = true;
    const TargetRun v = checkedRun("dirnnb", "em3d", inval);
    EXPECT_EQ(v.outcome, "violation");
    EXPECT_GT(v.result.execTime, 0u);
    EXPECT_FALSE(v.detail.empty());

    // An internal assertion aborts the run: a panic, with no result.
    MachineConfig down;
    down.stache.faultSkipDowngrade = true;
    const TargetRun p = checkedRun("stache", "mp3d", down);
    EXPECT_EQ(p.outcome, "panic");
    EXPECT_EQ(p.result.execTime, 0u);
    EXPECT_EQ(p.checksum, 0.0);
    EXPECT_NE(p.detail.find("assertion failed"), std::string::npos);

    // A user error is no outcome: it propagates.
    MachineConfig cfg;
    cfg.core.nodes = 9;
    TargetMachine t = buildTarget("stache", cfg);
    auto a = makeTargetApp("stache", "em3d", DataSet::Small, 4000, 0.2, t);
    EXPECT_THROW(runTarget(t, *a), FatalError);
}

TEST(Builders, RunTargetFoldsTelemetryOnEveryEnding)
{
    // runTarget's last telemetry sample folds peak bytes per node into
    // the stats, so an aborted run's --stats-json holds it too.
    for (const bool abort : {false, true}) {
        MachineConfig cfg;
        cfg.core.nodes = 8;
        cfg.check.enable = true;
        cfg.obs.telemetry = true;
        cfg.stache.faultSkipDowngrade = abort;
        TargetMachine t = buildTarget("stache", cfg);
        auto a = makeTargetApp("stache", "mp3d", DataSet::Tiny, 1, 0.2, t);
        EXPECT_EQ(runTarget(t, *a).outcome, abort ? "panic" : "ok");
        const std::size_t peak = t.telemetry->totalPeakBytes();
        EXPECT_GT(peak, 0u);
        EXPECT_EQ(
            t.m().stats().get("obs.telemetry.mem.peak_bytes_per_node"),
            peak / 8)
            << (abort ? "panic" : "ok");
    }
}

} // namespace
} // namespace tt
