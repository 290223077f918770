/**
 * @file
 * Whole-machine runs over a faulty fabric: the progress watchdog trips
 * on a permanently cut link, with the memory-system and transport
 * probes (DESIGN.md §10.3) pinned to exact ticks on both protocol
 * families, and dead-link declarations revived by late acks leave the
 * application result unchanged.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "apps/workloads.hh"
#include "config/builders.hh"
#include "sim/watchdog.hh"

namespace tt
{
namespace
{

struct Trip
{
    Tick oldest = 0;
    Tick now = 0;
    Tick memsysProbe = 0;
    Tick transportProbe = 0;
};

/**
 * Run tiny EM3D on 8 nodes with link 0->1 cut for good and a 20k-tick
 * horizon: node 0's miss to node 1 can never complete, so the watchdog
 * must trip. The probes are read again after the throw, on the state
 * the watchdog saw.
 */
Trip
cutLinkTrip(const std::string& system)
{
    MachineConfig cfg;
    cfg.core.nodes = 8;
    cfg.core.seed = 1;
    cfg.faults.cuts.push_back({0, 1});
    cfg.watchdog.horizon = 20'000;
    TargetMachine t = system == "dirnnb" ? buildDirNNB(cfg)
                                         : buildTyphoonStache(cfg);
    auto app = makeWorkload("em3d", DataSet::Tiny, 1);
    Trip trip;
    try {
        t.run(*app);
        ADD_FAILURE() << system << ": the watchdog did not trip";
    } catch (const WatchdogTimeout& e) {
        trip.oldest = e.oldest;
        trip.now = e.now;
    }
    trip.memsysProbe = t.m().memsys().oldestPendingSince();
    trip.transportProbe = t.transport->oldestUnackedSince();
    EXPECT_EQ(t.m().stats().get("obs.watchdog.trips"), 1u) << system;
    return trip;
}

TEST(FaultedRuns, WatchdogTripsOnCutLinkStache)
{
    const Trip t = cutLinkTrip("stache");
    EXPECT_EQ(t.oldest, 1992u);
    EXPECT_EQ(t.now, 25'000u);
    // The suspended miss is older than any unacked message, so the
    // memory-system probe supplies the trip's "oldest".
    EXPECT_EQ(t.memsysProbe, 1992u);
    EXPECT_EQ(t.transportProbe, 2224u);
}

TEST(FaultedRuns, WatchdogTripsOnCutLinkDirnnb)
{
    const Trip t = cutLinkTrip("dirnnb");
    EXPECT_EQ(t.oldest, 1230u);
    EXPECT_EQ(t.now, 25'000u);
    EXPECT_EQ(t.memsysProbe, 1230u);
    EXPECT_EQ(t.transportProbe, 1278u);
}

struct RunOut
{
    double checksum = 0;
    std::uint64_t deadLinks = 0;
};

RunOut
runStache(const MachineConfig& base)
{
    MachineConfig cfg = base;
    cfg.core.nodes = 8;
    TargetMachine t = buildTyphoonStache(cfg);
    auto app = makeWorkload("em3d", DataSet::Tiny, 1);
    t.run(*app);
    RunOut out;
    out.checksum = app->checksum();
    if (t.m().stats().hasCounter("net.dead_links"))
        out.deadLinks = t.m().stats().get("net.dead_links");
    return out;
}

TEST(FaultedRuns, DeadLinkRevivalChurnKeepsFaultFreeChecksum)
{
    // A hair-trigger retry cap over a reordering, duplicating fabric:
    // the ack for a message routinely arrives after its channel was
    // declared dead, so links die and are revived by late acks all
    // run long (transport.cc handleAck). Nothing is ever lost (no
    // drop faults), so the run must compute the fault-free result.
    MachineConfig cfg;
    cfg.faults = parseFaultSpec("reorder=0.05:64,dup=0.02,seed=11");
    cfg.reliable.rto = 2;
    cfg.reliable.rtoMax = 2;
    cfg.reliable.maxRetries = 1;
    const RunOut churn = runStache(cfg);
    const RunOut clean = runStache(MachineConfig{});
    EXPECT_GT(churn.deadLinks, 0u); // links really did die mid-run
    EXPECT_EQ(churn.checksum, clean.checksum);
}

} // namespace
} // namespace tt
