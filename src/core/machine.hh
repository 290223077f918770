/**
 * @file
 * The assembled target machine: N processing nodes over one event
 * queue, a memory system, and the application-run harness.
 */

#ifndef TT_CORE_MACHINE_HH
#define TT_CORE_MACHINE_HH

#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/cpu.hh"
#include "core/memsys.hh"
#include "core/params.hh"
#include "core/sync.hh"
#include "sim/event_queue.hh"
#include "sim/random.hh"
#include "sim/stats.hh"
#include "sim/task.hh"

namespace tt
{

class Machine;

/**
 * A parallel application. setup() allocates and initializes shared
 * data at zero simulated cost; body() is the per-processor SPMD
 * coroutine; finish() extracts/validates results after the run.
 */
class App
{
  public:
    virtual ~App() = default;
    virtual std::string name() const = 0;
    virtual void setup(Machine& m) { (void)m; }
    virtual Task<void> body(Cpu& cpu) = 0;
    virtual void finish(Machine& m) { (void)m; }

    /**
     * Epoch restart support (checkpoint/restore and crash recovery,
     * DESIGN.md §15). An app that structures body() as a loop of
     * barrier episodes can implement setStartEpoch() so a freshly
     * spawned body resumes from a given episode count; shared data is
     * reconstructed by setup() + a memory-snapshot poke, so the body
     * only needs to skip the already-completed episodes.
     */
    virtual bool supportsEpochRestart() const { return false; }
    virtual void setStartEpoch(std::uint64_t episodes)
    {
        (void)episodes;
    }
};

/** Outcome of Machine::run(). */
struct RunResult
{
    Tick execTime = 0;            ///< max over CPUs of finish time
    std::vector<Tick> cpuFinish;  ///< per-CPU finish times
    std::uint64_t events = 0;     ///< events executed by the kernel
};

class Machine
{
  public:
    explicit Machine(const CoreParams& params)
        : _params(params),
          _rng(params.seed),
          _barrier(_eq, params.nodes, params.barrierLatency)
    {
        _cpus.reserve(params.nodes);
        for (int i = 0; i < params.nodes; ++i) {
            _cpus.push_back(
                std::make_unique<Cpu>(_eq, _params, i, _stats));
        }
    }

    const CoreParams& params() const { return _params; }
    EventQueue& eq() { return _eq; }
    StatSet& stats() { return _stats; }
    Rng& rng() { return _rng; }
    int nodes() const { return _params.nodes; }

    Cpu& cpu(int i) { return *_cpus.at(i); }

    /** The application-level global barrier. */
    Barrier& barrier() { return _barrier; }

    /** Install the memory system (not owned). */
    void
    setMemSystem(MemorySystem* ms)
    {
        _memsys = ms;
        for (auto& c : _cpus)
            c->bindMemSystem(ms);
    }

    MemorySystem& memsys() { return *_memsys; }

    /**
     * Checkpoint-restore plan (src/recovery). When passed to run(),
     * the initial body spawn is replaced by: jump simulated time to
     * @p tick, apply the snapshot state (canonicalize + memory poke +
     * stat restore, packaged in @p applyState), restore the barrier
     * episode count, and spawn bodies — in the recorded barrier
     * arrival @p order, so same-tick event order continues exactly as
     * the checkpointing run's release event would have resumed them.
     */
    struct RestartPlan
    {
        Tick tick = 0;
        std::uint64_t episodes = 0;
        std::vector<int> order;
        std::function<void()> applyState;
    };

    /**
     * Run @p app to completion on all nodes. Throws if any node's
     * coroutine threw, or panics if the event queue drains with
     * unfinished processors (a protocol deadlock). With @p plan the
     * run continues from a checkpoint instead of starting fresh.
     */
    RunResult run(App& app, const RestartPlan* plan = nullptr);

    /**
     * Crash-recovery rollback (src/recovery, DESIGN.md §15): cancel
     * every body coroutine (destroying the owned Task cascades down
     * the suspended call tree), drop parked barrier waiters, restore
     * the episode count, and respawn fresh bodies at the current tick
     * in @p order. Only legal inside run(), from a scheduled event,
     * after EventQueue::clearPending() — no pending event may
     * reference the destroyed frames.
     */
    void respawnBodies(std::uint64_t episodes,
                       const std::vector<int>& order);

    /** The app currently inside run() (nullptr outside). */
    App* runningApp() { return _app; }

    /**
     * True once every body coroutine has completed (only meaningful
     * inside run()). Crash injection consults this: a crash scheduled
     * past the application's end fires during the final event drain
     * and must not roll a finished run back (DESIGN.md §15).
     */
    bool allFinished() const { return _finished == _params.nodes; }

  private:
    /**
     * Wrapper coroutine owning one processor's body: records the
     * finish time and completion count. Owning the wrapper (rather
     * than detaching it) is what makes bodies cancellable.
     */
    Task<void> bodyWrap(Cpu& c, int i);

    /** Schedule one spawn event per CPU at @p when, in @p order. */
    void spawnBodies(Tick when, const std::vector<int>& order);

    CoreParams _params;
    EventQueue _eq;
    StatSet _stats;
    Rng _rng;
    std::vector<std::unique_ptr<Cpu>> _cpus;
    Barrier _barrier;
    MemorySystem* _memsys = nullptr;

    // Live only during run().
    App* _app = nullptr;
    std::vector<Task<void>> _bodies;
    std::vector<Tick> _cpuFinish;
    int _finished = 0;
};

} // namespace tt

#endif // TT_CORE_MACHINE_HH
