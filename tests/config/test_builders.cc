/**
 * @file
 * Tests of the machine builders and Table 2 configuration printing:
 * each builder wires a complete, runnable target; parameter knobs
 * reach the right subsystems.
 */

#include <gtest/gtest.h>

#include <sstream>

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

    // The builders refuse an invalid machine as a user error.
    EXPECT_THROW(buildDirNNB(bad), FatalError);
    EXPECT_THROW(buildTyphoonStache(big), FatalError);
}

} // namespace
} // namespace tt
