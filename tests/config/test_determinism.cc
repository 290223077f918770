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
#include <utility>

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

/**
 * One tiny run of @p app on 8 nodes of @p system: a plain
 * TargetMachine::run, or runTarget's lifecycle when @p lifecycle.
 */
RunRecord
runOnce(const std::string& system, const std::string& app,
        bool lifecycle = false)
{
    MachineConfig cfg;
    cfg.core.nodes = 8;

    TargetMachine target = buildTarget(system, cfg);
    const auto a =
        makeTargetApp(system, app, DataSet::Tiny, 1, 0.2, target);
    RunRecord rec;
    RunResult r;
    if (lifecycle) {
        const TargetRun run = runTarget(target, *a);
        EXPECT_EQ(run.outcome, "ok") << run.detail;
        r = run.result;
        rec.checksum = run.checksum;
    } else {
        r = target.run(*a);
        rec.checksum = a->checksum();
    }
    rec.cycles = r.execTime;
    rec.events = r.events;
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

TEST(Determinism, RunTargetReportsSimulatedResultsFaithfully)
{
    // bench_simcore times runTarget: its lifecycle must not perturb
    // simulation, so cycles, events, checksum and every stat equal a
    // plain run's.
    for (const auto& [system, app] :
         {std::pair{"stache", "mp3d"}, std::pair{"dirnnb", "em3d"}}) {
        EXPECT_EQ(runOnce(system, app, true), runOnce(system, app))
            << system << "/" << app;
    }
}

} // namespace
} // namespace tt
