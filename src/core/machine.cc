#include "core/machine.hh"

#include "sim/logging.hh"

namespace tt
{

Task<void>
Machine::bodyWrap(Cpu& c, int i)
{
    co_await _app->body(c);
    _cpuFinish[i] = c.localTime();
    ++_finished;
}

void
Machine::spawnBodies(Tick when, const std::vector<int>& order)
{
    // One spawn event per CPU, inserted in @p order: same-tick event
    // order is insertion order, so the respawn order fully determines
    // how the bodies interleave at the spawn tick.
    for (int id : order) {
        _eq.schedule(when, [this, id] {
            Cpu* c = _cpus[id].get();
            c->syncTo(_eq.now());
            _bodies[id] = bodyWrap(*c, id);
            _bodies[id].start();
        });
    }
}

void
Machine::respawnBodies(std::uint64_t episodes,
                       const std::vector<int>& order)
{
    tt_assert(_app, "respawnBodies outside run()");
    tt_assert(_eq.pending() == 0,
              "respawnBodies with pending events (clearPending first)");
    _barrier.clearWaiters();
    _barrier.setEpisodes(episodes);
    _bodies.clear(); // cancels every suspended call tree
    _bodies.resize(nodes());
    _cpuFinish.assign(nodes(), kTickMax);
    _finished = 0;
    _app->setStartEpoch(episodes);
    spawnBodies(_eq.now(), order);
}

RunResult
Machine::run(App& app, const RestartPlan* plan)
{
    tt_assert(_memsys, "no memory system installed");
    _app = &app;
    app.setup(*this);
    // The post-shmalloc canonical state exists exactly here; let the
    // memory system record its allocator watermarks (DESIGN.md §15).
    _memsys->setupComplete();

    const int n = nodes();
    _cpuFinish.assign(n, kTickMax);
    _finished = 0;
    _bodies.clear();
    _bodies.resize(n);

    // Scheduling at the current tick (not 0) lets one machine run
    // several apps back-to-back (warm-up + measured runs).
    Tick start = _eq.now();
    std::vector<int> order;
    if (plan) {
        tt_assert(app.supportsEpochRestart(),
                  "app '", app.name(), "' cannot restart from an epoch");
        _eq.jumpTo(plan->tick);
        start = plan->tick;
        _barrier.setEpisodes(plan->episodes);
        app.setStartEpoch(plan->episodes);
        if (plan->applyState)
            _eq.schedule(start, [plan] { plan->applyState(); });
        order = plan->order;
    } else {
        order.reserve(n);
        for (int i = 0; i < n; ++i)
            order.push_back(i);
    }
    spawnBodies(start, order);
    _eq.run();

    for (auto& b : _bodies) {
        if (b.valid() && b.error()) {
            std::exception_ptr ep = b.error();
            _bodies.clear();
            _app = nullptr;
            std::rethrow_exception(ep);
        }
    }

    if (_finished != n) {
        for (int i = 0; i < n; ++i) {
            if (_cpuFinish[i] == kTickMax)
                tt_warn("cpu ", i, " never finished (deadlock)");
        }
        tt_panic("event queue drained with ", n - _finished,
                 " unfinished processors — protocol deadlock");
    }

    RunResult result;
    result.cpuFinish = _cpuFinish;
    result.execTime = 0;
    for (Tick t : result.cpuFinish)
        if (t > result.execTime)
            result.execTime = t;
    result.events = _eq.executed();

    _bodies.clear();
    app.finish(*this);
    _app = nullptr;
    return result;
}

} // namespace tt
