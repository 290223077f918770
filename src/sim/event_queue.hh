/**
 * @file
 * Discrete-event simulation core. A single global-ordered queue of
 * (tick, sequence, closure) triples drives the whole target machine;
 * ties break deterministically on insertion order so every run is
 * exactly reproducible.
 *
 * The queue is two-level. Nearly every event a memory-system
 * simulation schedules lands within a few hundred ticks of now
 * (link latencies, cache occupancies, quantum boundaries), so those
 * go into a calendar of one-tick buckets covering a kWindow-tick
 * window; insertion is an append and the (tick, seq) order falls out
 * of append order. Far-future events (and, before the window next
 * drains, anything past its edge) go to a conventional binary
 * min-heap on (tick, seq) and are promoted in bulk — only ever into
 * a fully drained window, which is what keeps the two structures'
 * orderings from interleaving. A heap-only reference mode
 * (Mode::ReferenceHeap, or env TT_EVENTQ_REFERENCE=1) runs the same
 * workload through just the heap so tests can cross-check that both
 * paths execute the identical event sequence.
 */

#ifndef TT_SIM_EVENT_QUEUE_HH
#define TT_SIM_EVENT_QUEUE_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sim/host_timer.hh"
#include "sim/logging.hh"
#include "sim/random.hh"
#include "sim/small_function.hh"
#include "sim/types.hh"

namespace tt
{

/**
 * A deterministic discrete-event queue.
 *
 * Events are closures scheduled at absolute ticks. run() pops events in
 * (tick, insertion-sequence) order until the queue drains or a stop is
 * requested. Scheduling in the past is a simulator bug (panic).
 */
class EventQueue
{
  public:
    using Callback = SmallFunction;

    /** Which queue structure executes events (same order either way). */
    enum class Mode
    {
        Calendar,      ///< bucketed near window + far heap (fast path)
        ReferenceHeap, ///< single binary heap (reference for testing)
    };

    explicit EventQueue(Mode mode = defaultMode())
        : _useCalendar(mode == Mode::Calendar),
          _buckets(kWindow),
          _occ(kWindow / 64, 0)
    {
    }

    EventQueue(const EventQueue&) = delete;
    EventQueue& operator=(const EventQueue&) = delete;

    /**
     * Process-wide default mode for new queues; initialized from the
     * TT_EVENTQ_REFERENCE environment variable on first use.
     */
    static Mode defaultMode();

    /** Override the process-wide default (tests, ablations). */
    static void setDefaultMode(Mode m);

    Mode
    mode() const
    {
        return _useCalendar ? Mode::Calendar : Mode::ReferenceHeap;
    }

    /** Current simulated time (tick of the most recently popped event). */
    Tick now() const { return _now; }

    /**
     * Schedule callable @p f to run at absolute tick @p when. The
     * closure is constructed directly in its bucket (or heap entry),
     * never in a temporary Callback that is then relocated.
     */
    template <typename F>
    void
    schedule(Tick when, F&& f)
    {
        tt_assert(when >= _now, "scheduling event in the past: ", when,
                  " < ", _now);
        const std::uint64_t seq = _nextSeq++;
        ++_pending;
        // _windowBase <= _now whenever user code runs (see rebase()),
        // so the offset below cannot underflow.
        const Tick off = when - _windowBase;
        if (_useCalendar && off < kWindow) {
            _buckets[off].emplace_back(std::forward<F>(f));
            _occ[off >> 6] |= 1ull << (off & 63);
            if (off < _cursor) {
                // runUntil() scanned past this (then-empty) bucket, or
                // parked on a later one without consuming from it (a
                // partially drained bucket implies _now has reached it,
                // which contradicts off >= _now - _windowBase < _cursor).
                tt_assert(!_inBucket || _bucketPos == 0,
                          "schedule behind a partially drained bucket");
                _cursor = static_cast<std::uint32_t>(off);
                _inBucket = false;
            }
        } else {
            const std::uint64_t prio = _perturb ? _prng.next() : 0;
            _heap.push_back(
                FarEntry{when, prio, seq, Callback(std::forward<F>(f))});
            std::push_heap(_heap.begin(), _heap.end(), FarAfter{});
        }
    }

    /** Schedule callable @p f to run @p delta ticks from now. */
    template <typename F>
    void
    scheduleIn(Tick delta, F&& f)
    {
        schedule(_now + delta, std::forward<F>(f));
    }

    /** Number of pending events. */
    std::size_t pending() const { return _pending; }

    bool empty() const { return _pending == 0; }

    /**
     * Run until the queue drains or stop() is called.
     * @return the tick of the last executed event.
     */
    Tick run();

    /**
     * Run events with tick <= @p limit.
     * @return the tick of the last executed event.
     */
    Tick runUntil(Tick limit);

    /** Execute at most one event. @return false if the queue was empty. */
    bool step();

    /** Request that run() return after the current event completes. */
    void stop() { _stopRequested = true; }

    /** Total number of events executed since construction. */
    std::uint64_t executed() const { return _executed; }

    /**
     * Reset time and drop all pending events (containers are cleared
     * wholesale, not popped entry by entry). Only meaningful between
     * complete simulations.
     */
    void reset();

    /**
     * Drop every pending event while keeping simulated time, sequence
     * numbering, and the executed count. This is the crash-recovery
     * rollback primitive (DESIGN.md §15): after a crash-stop failure
     * the coordinator discards all in-flight work — message
     * deliveries, retransmit timers, suspended-coroutine resumes —
     * wholesale, then reconstructs machine state from the last
     * checkpoint and respawns the computation. Dropping the events
     * (rather than guarding every closure with a generation check) is
     * what makes the rollback safe: no stale closure can ever run
     * against rolled-back state or a destroyed coroutine frame.
     */
    void clearPending();

    /**
     * Jump simulated time forward to @p t (checkpoint restore). The
     * queue must be empty; the restore event is then scheduled at the
     * checkpoint tick so everything resumes exactly there.
     */
    void
    jumpTo(Tick t)
    {
        tt_assert(_pending == 0, "jumpTo with pending events");
        tt_assert(t >= _now, "jumpTo into the past: ", t, " < ", _now);
        _now = t;
        _windowBase = t;
        _cursor = 0;
        _bucketPos = 0;
        _inBucket = false;
    }

    /**
     * Schedule-perturbation mode (the --perturb harness): same-tick
     * events execute in a pseudo-random permutation drawn from
     * @p seed instead of insertion order. Any legal interleaving a
     * real machine could exhibit within a tick is fair game, so
     * protocol invariants must hold under every permutation; the
     * seed makes any failure exactly replayable. Only supported in
     * ReferenceHeap mode (the calendar fast path derives same-tick
     * order from bucket append order, which cannot be permuted
     * without rebuilding buckets).
     */
    void
    setPerturb(std::uint64_t seed)
    {
        tt_assert(!_useCalendar,
                  "perturbation requires ReferenceHeap mode");
        _perturb = true;
        _prng = Rng(seed);
    }

    bool perturbed() const { return _perturb; }

    /**
     * Attach the self-telemetry event counter (DESIGN.md §16). step()
     * then calls eventStart() before every callback, which polls the
     * memory probes every HostTimer::kMemSample events; null (the
     * default) costs one branch per event.
     */
    void setTelemetry(HostTimer* t) { _telem = t; }

    /**
     * Resident bytes of the queue structures themselves (capacities,
     * not live entries — what the host actually holds). Deterministic
     * for a fixed workload; feeds the telemetry memory probes.
     */
    std::size_t
    footprintBytes() const
    {
        std::size_t b = _buckets.capacity() * sizeof(_buckets[0]) +
                        _occ.capacity() * sizeof(std::uint64_t) +
                        _heap.capacity() * sizeof(FarEntry);
        for (const auto& bucket : _buckets)
            b += bucket.capacity() * sizeof(Callback);
        return b;
    }

  private:
    /** Ticks covered by the calendar window; one bucket per tick. */
    static constexpr std::uint32_t kWindow = 4096;

    struct FarEntry
    {
        Tick when;
        std::uint64_t prio; ///< 0 normally; random under perturbation
        std::uint64_t seq;
        Callback cb;
    };

    /** Heap comparator: true if a executes after b (min-heap order). */
    struct FarAfter
    {
        bool
        operator()(const FarEntry& a, const FarEntry& b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            if (a.prio != b.prio)
                return a.prio > b.prio;
            return a.seq > b.seq;
        }
    };

    /**
     * Advance lazy bucket finalization and report the tick of the next
     * event without consuming it. Leaves the cursor parked on that
     * bucket when the next event is calendar-resident.
     * @return false iff the queue is empty.
     */
    bool nextWhen(Tick* when);

    /**
     * Move the window to the earliest far-heap event and promote every
     * heap entry that now falls inside it. Pops arrive in (when, seq)
     * order, so per-bucket append order remains seq order. Only legal
     * when the window is fully drained.
     */
    void rebase();

    /** Pop the heap minimum (reference mode / promotion). */
    FarEntry popHeap();

    /** Index of the first occupied bucket at or after @p from; -1 if none. */
    int findOccupied(std::uint32_t from) const;

    const bool _useCalendar;

    // Calendar level: window [_windowBase, _windowBase + kWindow), one
    // vector of callbacks per tick, plus an occupancy bitmap so the
    // scan for the next non-empty bucket is a word walk + ctz.
    std::vector<std::vector<Callback>> _buckets;
    std::vector<std::uint64_t> _occ;
    Tick _windowBase = 0;
    std::uint32_t _cursor = 0;    ///< scan position within the window
    std::uint32_t _bucketPos = 0; ///< next entry within current bucket
    bool _inBucket = false;       ///< cursor parked on an occupied bucket

    // Far level: binary min-heap on (when, seq).
    std::vector<FarEntry> _heap;

    std::size_t _pending = 0;
    Tick _now = 0;
    std::uint64_t _nextSeq = 0;
    std::uint64_t _executed = 0;
    bool _stopRequested = false;

    // Perturbation (heap mode only; see setPerturb()).
    bool _perturb = false;
    Rng _prng;

    // Self-telemetry event counter; null unless --telemetry (§16).
    HostTimer* _telem = nullptr;
};

} // namespace tt

#endif // TT_SIM_EVENT_QUEUE_HH
