#include "config/bench_harness.hh"

#include <chrono>
#include <cstdio>
#include <fstream>

#include "sim/logging.hh"
#include "sim/stats.hh"

namespace tt
{

std::uint64_t
BenchReport::totalEvents() const
{
    std::uint64_t n = 0;
    for (const auto& c : cases)
        n += c.events;
    return n;
}

double
BenchReport::totalWallMs() const
{
    double ms = 0;
    for (const auto& c : cases)
        ms += c.wallMs;
    return ms;
}

double
BenchReport::eventsPerSec() const
{
    const double ms = totalWallMs();
    return ms > 0 ? totalEvents() / (ms / 1000.0) : 0;
}

double
BenchReport::checkerFastEventsPerSec() const
{
    return checkerFastWallMs > 0
               ? checkerFastEvents / (checkerFastWallMs / 1000.0)
               : 0;
}

double
BenchReport::checkerParanoidEventsPerSec() const
{
    return checkerParanoidWallMs > 0
               ? checkerParanoidEvents / (checkerParanoidWallMs / 1000.0)
               : 0;
}

double
BenchReport::traceOnEventsPerSec() const
{
    return traceOnWallMs > 0 ? traceOnEvents / (traceOnWallMs / 1000.0)
                             : 0;
}

double
BenchReport::analyzeOnEventsPerSec() const
{
    return analyzeOnWallMs > 0
               ? analyzeOnEvents / (analyzeOnWallMs / 1000.0)
               : 0;
}

double
BenchReport::txnOnEventsPerSec() const
{
    return txnOnWallMs > 0 ? txnOnEvents / (txnOnWallMs / 1000.0) : 0;
}

double
BenchReport::transportOnEventsPerSec() const
{
    return transportOnWallMs > 0
               ? transportOnEvents / (transportOnWallMs / 1000.0)
               : 0;
}

double
BenchReport::telemetryOnEventsPerSec() const
{
    return telemetryOnWallMs > 0
               ? telemetryOnEvents / (telemetryOnWallMs / 1000.0)
               : 0;
}

void
BenchReport::printTable(std::ostream& os) const
{
    char line[256];
    std::snprintf(line, sizeof line, "%-10s %-8s %-7s %14s %12s %9s\n",
                  "system", "app", "dataset", "cycles", "events",
                  "wall ms");
    os << line;
    for (const auto& c : cases) {
        std::snprintf(line, sizeof line,
                      "%-10s %-8s %-7s %14llu %12llu %9.1f\n",
                      c.system.c_str(), c.app.c_str(),
                      c.dataset.c_str(),
                      static_cast<unsigned long long>(c.cycles),
                      static_cast<unsigned long long>(c.events),
                      c.wallMs);
        os << line;
    }
    std::snprintf(line, sizeof line,
                  "total: %llu events in %.1f ms = %.0f events/sec\n",
                  static_cast<unsigned long long>(totalEvents()),
                  totalWallMs(), eventsPerSec());
    os << line;
    if (checkerFastWallMs > 0) {
        std::snprintf(line, sizeof line,
                      "checker on (fast): %.0f events/sec (%.2fx "
                      "slower than checker off)\n",
                      checkerFastEventsPerSec(),
                      eventsPerSec() / checkerFastEventsPerSec());
        os << line;
    }
    if (checkerParanoidWallMs > 0) {
        std::snprintf(line, sizeof line,
                      "checker on (paranoid): %.0f events/sec (%.2fx "
                      "slower than checker off)\n",
                      checkerParanoidEventsPerSec(),
                      eventsPerSec() / checkerParanoidEventsPerSec());
        os << line;
    }
    if (traceOnWallMs > 0) {
        std::snprintf(line, sizeof line,
                      "trace on: %.0f events/sec (%.2fx slower "
                      "than trace off)\n",
                      traceOnEventsPerSec(),
                      eventsPerSec() / traceOnEventsPerSec());
        os << line;
    }
    if (analyzeOnWallMs > 0) {
        std::snprintf(line, sizeof line,
                      "analyze on: %.0f events/sec (%.2fx slower "
                      "than analyze off)\n",
                      analyzeOnEventsPerSec(),
                      eventsPerSec() / analyzeOnEventsPerSec());
        os << line;
    }
    if (txnOnWallMs > 0) {
        std::snprintf(line, sizeof line,
                      "txn tracer on: %.0f events/sec (%.2fx slower "
                      "than tracer off)\n",
                      txnOnEventsPerSec(),
                      eventsPerSec() / txnOnEventsPerSec());
        os << line;
    }
    if (transportOnWallMs > 0) {
        std::snprintf(line, sizeof line,
                      "faults+transport on: %.0f events/sec (%.2fx "
                      "slower than faults off, %llu retransmits)\n",
                      transportOnEventsPerSec(),
                      eventsPerSec() / transportOnEventsPerSec(),
                      static_cast<unsigned long long>(
                          transportOnRetransmits));
        os << line;
    }
    if (telemetryOnWallMs > 0) {
        std::snprintf(line, sizeof line,
                      "telemetry on: %.0f events/sec (%.2fx slower "
                      "than telemetry off)\n",
                      telemetryOnEventsPerSec(),
                      eventsPerSec() / telemetryOnEventsPerSec());
        os << line;
    }
    if (!memFootprint.empty()) {
        os << "memory footprint (em3d/small, telemetry probes):\n";
        for (const auto& e : memFootprint) {
            std::snprintf(line, sizeof line,
                          "  %-8s nodes=%-4d peak %12llu bytes "
                          "(%.0f B/node)\n",
                          e.system.c_str(), e.nodes,
                          static_cast<unsigned long long>(
                              e.totalPeakBytes),
                          e.peakBytesPerNode);
            os << line;
        }
    }
}

namespace
{

void
jsonEscape(std::ostream& os, const std::string& s)
{
    os << '"';
    for (char ch : s) {
        if (ch == '"' || ch == '\\')
            os << '\\';
        os << ch;
    }
    os << '"';
}

void
jsonNumber(std::ostream& os, double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    os << buf;
}

} // namespace

void
BenchReport::writeJson(std::ostream& os) const
{
    os << "{\n";
    os << "  \"nodes\": " << nodes << ",\n";
    os << "  \"scale\": " << scale << ",\n";
    os << "  \"cases\": [\n";
    for (std::size_t i = 0; i < cases.size(); ++i) {
        const BenchCase& c = cases[i];
        os << "    {\"system\": ";
        jsonEscape(os, c.system);
        os << ", \"app\": ";
        jsonEscape(os, c.app);
        os << ", \"dataset\": ";
        jsonEscape(os, c.dataset);
        os << ", \"cycles\": " << c.cycles;
        os << ", \"events\": " << c.events;
        os << ", \"wall_ms\": ";
        jsonNumber(os, c.wallMs);
        os << ", \"checksum\": ";
        jsonNumber(os, c.checksum);
        os << ", \"net_messages\": " << c.netMessages;
        os << ", \"net_words\": " << c.netWords;
        os << "}" << (i + 1 < cases.size() ? "," : "") << "\n";
    }
    os << "  ],\n";
    os << "  \"total_events\": " << totalEvents() << ",\n";
    os << "  \"total_wall_ms\": ";
    jsonNumber(os, totalWallMs());
    os << ",\n  \"events_per_sec\": ";
    jsonNumber(os, eventsPerSec());
    if (checkerFastWallMs > 0 || checkerParanoidWallMs > 0) {
        os << ",\n  \"checker_overhead_v2\": {";
        bool first = true;
        if (checkerFastWallMs > 0) {
            os << "\n    \"fast\": {\"events\": " << checkerFastEvents
               << ", \"wall_ms\": ";
            jsonNumber(os, checkerFastWallMs);
            os << ", \"events_per_sec_check_on\": ";
            jsonNumber(os, checkerFastEventsPerSec());
            os << ", \"slowdown_vs_check_off\": ";
            jsonNumber(os, eventsPerSec() / checkerFastEventsPerSec());
            os << "}";
            first = false;
        }
        if (checkerParanoidWallMs > 0) {
            os << (first ? "" : ",") << "\n    \"paranoid\": {\"events\": "
               << checkerParanoidEvents << ", \"wall_ms\": ";
            jsonNumber(os, checkerParanoidWallMs);
            os << ", \"events_per_sec_check_on\": ";
            jsonNumber(os, checkerParanoidEventsPerSec());
            os << ", \"slowdown_vs_check_off\": ";
            jsonNumber(os,
                       eventsPerSec() / checkerParanoidEventsPerSec());
            os << "}";
        }
        os << "\n  }";
    }
    if (traceOnWallMs > 0) {
        os << ",\n  \"trace_overhead\": {\"events\": " << traceOnEvents
           << ", \"wall_ms\": ";
        jsonNumber(os, traceOnWallMs);
        os << ", \"events_per_sec_trace_on\": ";
        jsonNumber(os, traceOnEventsPerSec());
        os << ", \"slowdown_vs_trace_off\": ";
        jsonNumber(os, eventsPerSec() / traceOnEventsPerSec());
        os << "}";
    }
    if (analyzeOnWallMs > 0) {
        os << ",\n  \"analyze_overhead\": {\"events\": "
           << analyzeOnEvents << ", \"wall_ms\": ";
        jsonNumber(os, analyzeOnWallMs);
        os << ", \"events_per_sec_analyze_on\": ";
        jsonNumber(os, analyzeOnEventsPerSec());
        os << ", \"slowdown_vs_analyze_off\": ";
        jsonNumber(os, eventsPerSec() / analyzeOnEventsPerSec());
        os << "}";
    }
    if (txnOnWallMs > 0) {
        os << ",\n  \"txn_trace_overhead\": {\"events\": "
           << txnOnEvents << ", \"wall_ms\": ";
        jsonNumber(os, txnOnWallMs);
        os << ", \"events_per_sec_txn_on\": ";
        jsonNumber(os, txnOnEventsPerSec());
        os << ", \"slowdown_vs_txn_off\": ";
        jsonNumber(os, eventsPerSec() / txnOnEventsPerSec());
        os << "}";
    }
    if (transportOnWallMs > 0) {
        os << ",\n  \"reliable_transport_overhead\": {\"faults\": ";
        jsonEscape(os, transportFaultSpec);
        os << ", \"events\": " << transportOnEvents
           << ", \"wall_ms\": ";
        jsonNumber(os, transportOnWallMs);
        os << ", \"events_per_sec_faults_on\": ";
        jsonNumber(os, transportOnEventsPerSec());
        os << ", \"slowdown_vs_faults_off\": ";
        jsonNumber(os, eventsPerSec() / transportOnEventsPerSec());
        os << ", \"retransmits\": " << transportOnRetransmits << "}";
    }
    if (telemetryOnWallMs > 0) {
        os << ",\n  \"telemetry_overhead\": {\"events\": "
           << telemetryOnEvents << ", \"wall_ms\": ";
        jsonNumber(os, telemetryOnWallMs);
        os << ", \"events_per_sec_telemetry_on\": ";
        jsonNumber(os, telemetryOnEventsPerSec());
        os << ", \"slowdown_vs_telemetry_off\": ";
        jsonNumber(os, eventsPerSec() / telemetryOnEventsPerSec());
        os << "}";
    }
    if (!memFootprint.empty()) {
        os << ",\n  \"mem_footprint\": {\"app\": \"em3d\", "
              "\"dataset\": \"small\", \"host_cores\": "
           << hostCores << ", \"entries\": [\n";
        for (std::size_t i = 0; i < memFootprint.size(); ++i) {
            const MemFootprintEntry& e = memFootprint[i];
            os << "    {\"system\": ";
            jsonEscape(os, e.system);
            os << ", \"nodes\": " << e.nodes
               << ", \"total_peak_bytes\": " << e.totalPeakBytes
               << ", \"peak_bytes_per_node\": ";
            jsonNumber(os, e.peakBytesPerNode);
            os << ", \"subsystems\": {";
            for (std::size_t j = 0; j < e.subsystems.size(); ++j) {
                os << (j ? ", " : "");
                jsonEscape(os, e.subsystems[j].name);
                os << ": " << e.subsystems[j].peakBytes;
            }
            os << "}}" << (i + 1 < memFootprint.size() ? "," : "")
               << "\n";
        }
        os << "  ]}";
    }
    os << "\n}\n";
}

bool
BenchReport::writeJsonFile(const std::string& path) const
{
    std::ofstream f(path);
    if (!f)
        return false;
    writeJson(f);
    return f.good();
}

BenchCase
runBenchCase(const std::string& system, const std::string& appName,
             DataSet ds, int scale, const MachineConfig& cfg,
             BenchTelemetry* telem)
{
    TargetMachine target;
    std::unique_ptr<BenchApp> app;

    if (system == "dirnnb") {
        target = buildDirNNB(cfg);
    } else if (system == "stache") {
        target = buildTyphoonStache(cfg);
    } else if (system == "migratory") {
        target = buildTyphoonMigratory(cfg);
    } else if (system == "update") {
        tt_assert(appName == "em3d",
                  "system 'update' supports only em3d");
        target = buildTyphoonEm3dUpdate(cfg);
    } else {
        tt_fatal("unknown bench system: ", system);
    }

    if (system == "update") {
        app = std::make_unique<Em3dApp>(em3dParams(ds, 0.2, scale),
                                        Em3dApp::Mode::Update,
                                        target.em3d);
    } else {
        app = makeWorkload(appName, ds, scale);
    }

    if (target.telemetry)
        target.telemetry->runBegin();
    const auto t0 = std::chrono::steady_clock::now();
    const RunResult r = target.run(*app);
    const auto t1 = std::chrono::steady_clock::now();
    if (target.telemetry) {
        target.telemetry->runEnd();
        target.telemetry->finalize();
        if (telem) {
            telem->present = true;
            telem->totalPeakBytes = target.telemetry->totalPeakBytes();
            telem->peakBytesPerNode =
                target.telemetry->peakBytesPerNode();
            telem->subsystems = target.telemetry->probeResults();
        }
    }

    BenchCase c;
    c.system = system;
    c.app = appName;
    c.dataset = dataSetName(ds);
    c.cycles = r.execTime;
    c.events = r.events;
    c.wallMs =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    c.checksum = app->checksum();
    if (target.obs)
        target.obs->finalize();
    const StatSet& stats = target.machine->stats();
    c.netMessages = stats.get("net.messages");
    c.netWords = stats.get("net.words");
    c.netRetransmits = stats.get("net.retransmits");
    return c;
}

} // namespace tt
