/**
 * @file
 * Hot-path primitive of the simulator self-telemetry subsystem
 * (DESIGN.md §16): a sampled, scoped host-time attribution timer.
 *
 * The full telemetry layer (memory probes, report writer, stat fold)
 * lives in src/obs/telemetry; this header holds only the state machine
 * that the event kernel and the instrumented subsystems touch, so that
 * src/net, src/core, and the protocol libraries can carry timing
 * scopes without depending on tt_obs.
 *
 * Cost model: when telemetry is off no HostTimer exists and every hook
 * site is a single null-pointer branch. When on, eventStart() is a
 * counter increment plus two predictable modulo tests; only every
 * kTimeSample-th event enters *timing mode*, where category scopes
 * read the TSC. Sampling keeps the measured overhead under the 5%
 * budget while the x(kTimeSample) extrapolation stays statistically
 * faithful for runs of millions of events.
 *
 * Timing mode is entered and left only by EventQueue::step(); the
 * simulator is single-threaded, so the state here is plain data.
 */

#ifndef TT_SIM_HOST_TIMER_HH
#define TT_SIM_HOST_TIMER_HH

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

namespace tt
{

class HostTimer
{
  public:
    /** Host-time attribution categories (DESIGN.md §16). */
    enum class Cat : std::uint8_t {
        Dispatch = 0, ///< event callback outside any tagged scope
        Handler,      ///< protocol handler work (NP / directory / Stache)
        Net,          ///< network delivery
        Checker,      ///< coherence-sanitizer hooks
        Transport,    ///< reliable-transport send/arrive/timeout
    };
    static constexpr std::size_t kCats = 5;

    /** Every kTimeSample-th executed event is timed with the TSC. */
    static constexpr std::uint64_t kTimeSample = 8;
    /** Memory probes are polled every kMemSample executed events. */
    static constexpr std::uint64_t kMemSample = 4096;

    /** Raw timestamp: TSC on x86, steady_clock ns elsewhere. */
    static std::uint64_t
    nowTsc()
    {
#if defined(__x86_64__) || defined(__i386__)
        return __rdtsc();
#else
        return static_cast<std::uint64_t>(
            std::chrono::steady_clock::now().time_since_epoch()
                .count());
#endif
    }

    /**
     * Called by the event kernel before each callback. Deterministic
     * in what it counts: the event ordinal alone decides whether this
     * event is timed and whether the memory probes fire.
     */
    void
    eventStart()
    {
        const std::uint64_t n = ++_events;
        if (n % kMemSample == 0 && _memSample)
            _memSample();
        if (n % kTimeSample == 0) {
            _cat = Cat::Dispatch;
            _evTsc = _lastTsc = nowTsc();
            _timing = true;
        }
    }

    /** Called by the event kernel after each callback. */
    void
    eventEnd()
    {
        if (!_timing)
            return;
        const std::uint64_t t = nowTsc();
        _catTsc[idx(_cat)] += t - _lastTsc;
        _evElapsed += t - _evTsc;
        ++_timedEvents;
        _timing = false;
    }

    /** True while the current event is being timed. */
    bool timing() const { return _timing; }

    /**
     * Charge the interval since the last switch to the current
     * category and make @p c current. @return the previous category,
     * so a scope can restore it.
     */
    Cat
    switchCat(Cat c)
    {
        const std::uint64_t t = nowTsc();
        _catTsc[idx(_cat)] += t - _lastTsc;
        _lastTsc = t;
        const Cat prev = _cat;
        _cat = c;
        return prev;
    }

    /** Installed by the telemetry layer; fired every kMemSample events. */
    void setMemSampleFn(std::function<void()> f)
    {
        _memSample = std::move(f);
    }

    // Read-out for the telemetry layer.
    std::uint64_t events() const { return _events; }
    std::uint64_t timedEvents() const { return _timedEvents; }
    std::uint64_t eventTsc() const { return _evElapsed; }
    std::uint64_t catTsc(Cat c) const { return _catTsc[idx(c)]; }

  private:
    static std::size_t idx(Cat c)
    {
        return static_cast<std::size_t>(c);
    }

    std::uint64_t _events = 0;
    std::uint64_t _timedEvents = 0;
    std::uint64_t _evTsc = 0;      ///< timed event's start stamp
    std::uint64_t _lastTsc = 0;    ///< last category-switch stamp
    std::uint64_t _evElapsed = 0;  ///< total tsc inside timed events
    std::uint64_t _catTsc[kCats] = {};
    bool _timing = false;
    Cat _cat = Cat::Dispatch;
    std::function<void()> _memSample;
};

/**
 * RAII category scope. Free when the timer is null (telemetry off) or
 * the current event is not sampled; otherwise charges enclosed time to
 * @p c and restores the enclosing category on destruction, so nested
 * scopes (e.g. checker hooks inside a handler) attribute correctly.
 */
class TelemScope
{
  public:
    TelemScope(HostTimer* t, HostTimer::Cat c)
    {
        if (t && t->timing()) {
            _t = t;
            _prev = t->switchCat(c);
        }
    }

    TelemScope(const TelemScope&) = delete;
    TelemScope& operator=(const TelemScope&) = delete;

    ~TelemScope()
    {
        if (_t)
            _t->switchCat(_prev);
    }

  private:
    HostTimer* _t = nullptr;
    HostTimer::Cat _prev = HostTimer::Cat::Dispatch;
};

} // namespace tt

#endif // TT_SIM_HOST_TIMER_HH
