#include "obs/telemetry.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "sim/logging.hh"
#include "sim/stats.hh"

namespace tt
{

namespace
{

void
jsonNum(std::ostream& os, double v)
{
    if (!std::isfinite(v)) {
        os << "null";
        return;
    }
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    os << buf;
}

} // namespace

Telemetry::Telemetry(StatSet& stats, int nodes)
    : _stats(stats), _nodes(nodes)
{
    _timer.setMemSampleFn([this] { sampleMemory(); });
}

void
Telemetry::addMemProbe(const std::string& name, MemProbe probe)
{
    tt_assert(!_ran, "memory probes must be registered before run()");
    _probes.push_back(Probe{name, std::move(probe), 0, 0});
}

void
Telemetry::registerStats()
{
    // Eager registration: checkpoint restore asserts that both sides
    // of a restore hold identical stat key sets, so every handle this
    // run may write must exist before the run starts.
    for (const Probe& p : _probes) {
        _stats.counter("obs.telemetry.mem." + p.name + ".cur_bytes");
        _stats.counter("obs.telemetry.mem." + p.name + ".peak_bytes");
    }
    _stats.counter("obs.telemetry.mem.total_peak_bytes");
    _stats.counter("obs.telemetry.mem.peak_bytes_per_node");
    _stats.counter("obs.telemetry.mem.samples");
}

void
Telemetry::sampleMemory()
{
    std::size_t total = 0;
    for (Probe& p : _probes) {
        p.cur = p.fn ? p.fn() : 0;
        p.peak = std::max(p.peak, p.cur);
        total += p.cur;
    }
    _totalPeak = std::max(_totalPeak, total);
    ++_memSamples;
    refreshCounters();
}

void
Telemetry::refreshCounters()
{
    // Keep the registered counters current at every sample point so
    // the flight recorder's interval sampler exports them as Perfetto
    // counter tracks on the --trace stream.
    for (const Probe& p : _probes) {
        _stats.counter("obs.telemetry.mem." + p.name + ".cur_bytes")
            .set(p.cur);
        _stats.counter("obs.telemetry.mem." + p.name + ".peak_bytes")
            .set(p.peak);
    }
    _stats.counter("obs.telemetry.mem.total_peak_bytes").set(_totalPeak);
    _stats.counter("obs.telemetry.mem.samples").set(_memSamples);
}

void
Telemetry::runBegin()
{
    _ran = true;
    sampleMemory();
}

void
Telemetry::runEnd()
{
    sampleMemory();
    _results.clear();
    for (const Probe& p : _probes)
        _results.push_back(ProbeResult{p.name, p.cur, p.peak});
}

void
Telemetry::finalize()
{
    refreshCounters();
    _stats.counter("obs.telemetry.mem.peak_bytes_per_node")
        .set(static_cast<std::uint64_t>(peakBytesPerNode()));
}

void
Telemetry::writeReport(std::ostream& os) const
{
    os << "{\n  \"nodes\": " << _nodes << ",\n";
    os << "  \"mem\": {\n";
    os << "    \"samples\": " << _memSamples << ",\n";
    os << "    \"total_peak_bytes\": " << _totalPeak << ",\n";
    os << "    \"peak_bytes_per_node\": ";
    jsonNum(os, peakBytesPerNode());
    os << ",\n    \"subsystems\": {";
    bool first = true;
    for (const ProbeResult& r : _results) {
        os << (first ? "\n" : ",\n");
        first = false;
        os << "      \"" << r.name << "\": {\"final_bytes\": "
           << r.finalBytes << ", \"peak_bytes\": " << r.peakBytes
           << "}";
    }
    os << (first ? "}" : "\n    }") << "\n  }\n}\n";
}

bool
Telemetry::writeReportFile(const std::string& path) const
{
    std::ofstream f(path);
    if (!f)
        return false;
    writeReport(f);
    return f.good();
}

void
Telemetry::printSummary(std::ostream& os) const
{
    os << "telemetry      : peak " << _totalPeak << " bytes across "
       << _probes.size() << " subsystems ("
       << static_cast<std::uint64_t>(peakBytesPerNode())
       << " B/node, " << _memSamples << " samples)\n";
}

} // namespace tt
