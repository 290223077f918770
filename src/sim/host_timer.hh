/**
 * @file
 * Hot-path hook of the simulator self-telemetry subsystem (DESIGN.md
 * §16): an executed-event counter that polls the memory probes every
 * kMemSample events, plus the raw host timestamp that the external
 * benchmark harness (perfbench) reads.
 *
 * The full telemetry layer (memory probes, report writer, stat fold)
 * lives in src/obs/telemetry; this header holds only what the event
 * kernel touches, so src/sim does not depend on tt_obs.
 *
 * The simulator never times itself: the poll points are event
 * ordinals, so everything telemetry reports is deterministic. Host
 * time is measured from outside the simulator (perfbench/run.py
 * --trace 1 times each layer seam).
 *
 * Cost model: when telemetry is off no HostTimer exists and the hook
 * is a single null-pointer branch per event. When on, eventStart() is
 * a counter increment plus one predictable modulo test.
 */

#ifndef TT_SIM_HOST_TIMER_HH
#define TT_SIM_HOST_TIMER_HH

#include <chrono>
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
     * Called by the event kernel before each callback. The event
     * ordinal alone decides whether the memory probes fire.
     */
    void
    eventStart()
    {
        if (++_events % kMemSample == 0 && _memSample)
            _memSample();
    }

    /** Installed by the telemetry layer; fired every kMemSample events. */
    void setMemSampleFn(std::function<void()> f)
    {
        _memSample = std::move(f);
    }

  private:
    std::uint64_t _events = 0;
    std::function<void()> _memSample;
};

} // namespace tt

#endif // TT_SIM_HOST_TIMER_HH
