/**
 * @file
 * Progress watchdog (DESIGN.md §10). Under an unreliable network a
 * wedged protocol no longer reliably drains the event queue (the
 * reliable transport's retransmission timers can tick forever), so
 * Machine::run's drained-queue deadlock panic is not enough. The
 * watchdog periodically probes for the oldest still-open operation
 * (suspended miss, pending BAF, unacked transport message) and fails
 * fast — with a WatchdogTimeout the campaign runner can catch, after
 * an on-trip callback that dumps the flight-recorder tail — when one
 * has been open past a configurable horizon, or when the queue has no
 * events left that could ever close it.
 *
 * The watchdog is opt-in and lives entirely off the hot path: nothing
 * references it unless a builder arms it, and its periodic check is
 * one probe call every horizon/4 ticks. The shipped probes
 * (ReliableTransport::oldestUnackedSince,
 * {Typhoon,Dir}MemSystem::oldestPendingSince) compute their answer
 * when called, by scanning the open operations per node or channel,
 * so the mutation sites on the miss path carry no bookkeeping.
 */

#ifndef TT_SIM_WATCHDOG_HH
#define TT_SIM_WATCHDOG_HH

#include <functional>
#include <stdexcept>
#include <string>

#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

namespace tt
{

/** Thrown out of EventQueue::run() when the watchdog trips. */
struct WatchdogTimeout : std::runtime_error
{
    WatchdogTimeout(Tick oldest_, Tick now_)
        : std::runtime_error(
              "watchdog: no progress — operation open since tick " +
              std::to_string(oldest_) + ", now " + std::to_string(now_)),
          oldest(oldest_),
          now(now_)
    {
    }

    Tick oldest; ///< tick the oldest stalled operation opened at
    Tick now;    ///< tick the watchdog tripped at
};

class Watchdog
{
  public:
    /**
     * @return the tick at which the oldest still-open operation
     * started, or kTickMax when nothing is pending.
     */
    using Probe = std::function<Tick()>;

    /** Invoked once just before WatchdogTimeout is thrown. */
    using TripFn = std::function<void(Tick oldest, Tick now)>;

    Watchdog(EventQueue& eq, Tick horizon, Probe probe,
             TripFn onTrip = {})
        : _eq(eq),
          _horizon(horizon),
          _period(std::max<Tick>(1, horizon / 4)),
          _probe(std::move(probe)),
          _onTrip(std::move(onTrip))
    {
        tt_assert(horizon > 0, "watchdog horizon must be > 0");
    }

    Tick horizon() const { return _horizon; }
    std::uint64_t trips() const { return _trips; }

    /** Schedule the first check; call once, before the run. */
    void
    arm()
    {
        _eq.schedule(_eq.now() + _period, [this] { check(); });
    }

  private:
    void
    check()
    {
        const Tick oldest = _probe();
        if (oldest != kTickMax) {
            // Trip on age — or immediately when no event remains that
            // could ever complete the operation (the queue would
            // otherwise drain into Machine::run's deadlock panic with
            // no forensics). pending() excludes this running event.
            const bool tooOld =
                _eq.now() >= oldest && _eq.now() - oldest >= _horizon;
            if (tooOld || _eq.empty()) {
                ++_trips;
                if (_onTrip)
                    _onTrip(oldest, _eq.now());
                throw WatchdogTimeout(oldest, _eq.now());
            }
        }
        // Keep watching while anything else is scheduled; once the
        // queue is otherwise empty with nothing open, the run is over
        // and rescheduling would keep it alive artificially.
        if (!_eq.empty())
            _eq.schedule(_eq.now() + _period, [this] { check(); });
    }

    EventQueue& _eq;
    Tick _horizon;
    Tick _period;
    Probe _probe;
    TripFn _onTrip;
    std::uint64_t _trips = 0;
};

} // namespace tt

#endif // TT_SIM_WATCHDOG_HH
