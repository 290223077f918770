/**
 * @file
 * End-to-end determinism regression: a seeded workload must produce
 * bit-identical results (a) across repeated runs and (b) whether the
 * event queue runs its calendar fast path or the reference heap.
 * This is the guard that keeps performance work on the simulation
 * core from silently changing simulated behaviour.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "config/bench_harness.hh"
#include "config/builders.hh"
#include "sim/event_queue.hh"

namespace tt
{
namespace
{

struct RunRecord
{
    Tick cycles = 0;
    std::uint64_t events = 0;
    double checksum = 0;
    std::string stats;

    bool
    operator==(const RunRecord& o) const
    {
        return cycles == o.cycles && events == o.events &&
               checksum == o.checksum && stats == o.stats;
    }
};

RunRecord
runOnce(const std::string& system, const std::string& app)
{
    MachineConfig cfg;
    cfg.core.nodes = 8;

    TargetMachine target = buildTarget(system, cfg);
    const auto a =
        makeTargetApp(system, app, DataSet::Tiny, 1, 0.2, target);
    const RunResult r = target.run(*a);

    RunRecord rec;
    rec.cycles = r.execTime;
    rec.events = r.events;
    rec.checksum = a->checksum();
    std::ostringstream os;
    target.m().stats().dump(os);
    rec.stats = os.str();
    return rec;
}

class ReferenceHeapScope
{
  public:
    ReferenceHeapScope() : _saved(EventQueue::defaultMode())
    {
        EventQueue::setDefaultMode(EventQueue::Mode::ReferenceHeap);
    }
    ~ReferenceHeapScope() { EventQueue::setDefaultMode(_saved); }

  private:
    EventQueue::Mode _saved;
};

TEST(Determinism, RepeatedRunsAreBitIdentical)
{
    for (const char* system : {"dirnnb", "stache", "migratory"}) {
        for (const char* app : {"mp3d", "em3d"}) {
            const RunRecord a = runOnce(system, app);
            const RunRecord b = runOnce(system, app);
            EXPECT_EQ(a, b) << system << "/" << app;
        }
    }
}

TEST(Determinism, CalendarQueueMatchesReferenceHeap)
{
    for (const char* system : {"dirnnb", "stache"}) {
        for (const char* app : {"mp3d", "em3d"}) {
            const RunRecord cal = runOnce(system, app);
            RunRecord ref;
            {
                ReferenceHeapScope scope;
                ref = runOnce(system, app);
            }
            EXPECT_EQ(cal, ref) << system << "/" << app;
        }
    }
}

TEST(Determinism, BenchHarnessReportsSimulatedResultsFaithfully)
{
    // The wall-clock harness must not perturb simulation: its cycles
    // and checksum equal a plain run's.
    const RunRecord plain = runOnce("stache", "mp3d");
    MachineConfig cfg;
    cfg.core.nodes = 8;
    const BenchCase c =
        runBenchCase("stache", "mp3d", DataSet::Tiny, 1, cfg);
    EXPECT_EQ(c.cycles, plain.cycles);
    EXPECT_EQ(c.events, plain.events);
    EXPECT_EQ(c.checksum, plain.checksum);
    EXPECT_GT(c.wallMs, 0.0);
}

} // namespace
} // namespace tt
