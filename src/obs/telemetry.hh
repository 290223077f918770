/**
 * @file
 * Simulator self-telemetry (DESIGN.md §16): per-subsystem memory
 * accounting behind `ttsim --telemetry[=FILE]`.
 *
 * Each subsystem exposes a deterministic footprintBytes() computed
 * from its container capacities; the builders register one named
 * probe per subsystem here. Probes are polled at deterministic points
 * (run begin/end plus every HostTimer::kMemSample executed events),
 * tracking current and peak bytes per probe and the peak of the
 * total.
 *
 * Determinism: everything this layer reports (the report and the
 * `obs.telemetry.*` counters) is a function of the configuration
 * alone. Host time is not measured here; perfbench times the
 * simulator's layers from outside.
 */

#ifndef TT_OBS_TELEMETRY_HH
#define TT_OBS_TELEMETRY_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "sim/host_timer.hh"
#include "sim/types.hh"

namespace tt
{

class StatSet;

class Telemetry
{
  public:
    /**
     * @param stats the machine's StatSet; telemetry stat handles are
     *              registered eagerly at construction-time callers
     *              (registerStats()) so checkpoint restore sees
     *              identical key sets on both sides
     * @param nodes simulated node count, for bytes-per-node
     */
    Telemetry(StatSet& stats, int nodes);

    /** The event counter handed to the event kernel. */
    HostTimer& timer() { return _timer; }

    // --- memory accounting -------------------------------------------

    using MemProbe = std::function<std::size_t()>;

    /** Register a named subsystem probe (builders, before run). */
    void addMemProbe(const std::string& name, MemProbe probe);

    /**
     * Register every stat handle this run will write. Must be called
     * after the last addMemProbe() and before run(), so
     * the StatSet key set is fixed up front (checkpoint restore
     * asserts matching key sets).
     */
    void registerStats();

    /** Poll all probes; update current/peak and the counter tracks. */
    void sampleMemory();

    // --- run lifecycle -----------------------------------------------

    /** Take the first memory sample. */
    void runBegin();

    /**
     * Take the final memory sample, fix the probe results and fold
     * them into the StatSet (obs.telemetry.mem.*), ready for any
     * --stats-json write.
     */
    void runEnd();

    // --- report -------------------------------------------------------

    /** Write the telemetry report as a JSON document. */
    void writeReport(std::ostream& os) const;
    bool writeReportFile(const std::string& path) const;

    /** One-paragraph human summary for stdout. */
    void printSummary(std::ostream& os) const;

    // --- read-out for the bench harness ------------------------------

    struct ProbeResult
    {
        std::string name;
        std::size_t finalBytes = 0;
        std::size_t peakBytes = 0;
    };

    const std::vector<ProbeResult>& probeResults() const
    {
        return _results;
    }
    std::size_t totalPeakBytes() const { return _totalPeak; }
    double
    peakBytesPerNode() const
    {
        return _nodes ? static_cast<double>(_totalPeak) / _nodes : 0.0;
    }
    std::uint64_t memSamples() const { return _memSamples; }

  private:
    struct Probe
    {
        std::string name;
        MemProbe fn;
        std::size_t cur = 0;
        std::size_t peak = 0;
    };

    void refreshCounters();

    StatSet& _stats;
    int _nodes;
    HostTimer _timer;

    std::vector<Probe> _probes;
    std::size_t _totalPeak = 0;
    std::uint64_t _memSamples = 0;
    bool _ran = false;

    std::vector<ProbeResult> _results;
};

} // namespace tt

#endif // TT_OBS_TELEMETRY_HH
