#include "bench/bench_report.hh"

#include <cstdio>
#include <fstream>

namespace tt::bench
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
BenchPass::eventsPerSec() const
{
    return wallMs > 0 ? events / (wallMs / 1000.0) : 0;
}

double
BenchReport::slowdown(const BenchPass& p) const
{
    return eventsPerSec() / p.eventsPerSec();
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
    for (const BenchPass& p : passes) {
        if (p.wallMs <= 0)
            continue;
        std::snprintf(line, sizeof line,
                      "%s pass: %.0f events/sec, %.2fx slower than the "
                      "base pass",
                      p.label.c_str(), p.eventsPerSec(), slowdown(p));
        os << line;
        if (!p.faults.empty())
            os << ", " << p.retransmits << " retransmits";
        os << "\n";
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
    // Consecutive passes that share a group nest inside one object.
    std::string group; // the open group ("" = top level)
    for (const BenchPass& p : passes) {
        if (p.wallMs <= 0)
            continue;
        const bool opens = p.group != group;
        if (opens) {
            if (!group.empty())
                os << "\n  }";
            group = p.group;
            if (!group.empty())
                os << ",\n  \"" << group << "\": {";
        }
        if (group.empty())
            os << ",\n  \"";
        else
            os << (opens ? "" : ",") << "\n    \"";
        os << p.key << "\": {";
        if (!p.faults.empty()) {
            os << "\"faults\": ";
            jsonEscape(os, p.faults);
            os << ", ";
        }
        os << "\"events\": " << p.events << ", \"wall_ms\": ";
        jsonNumber(os, p.wallMs);
        os << ", \"events_per_sec_" << p.tag << "_on\": ";
        jsonNumber(os, p.eventsPerSec());
        os << ", \"slowdown_vs_" << p.tag << "_off\": ";
        jsonNumber(os, slowdown(p));
        if (!p.faults.empty())
            os << ", \"retransmits\": " << p.retransmits;
        os << "}";
    }
    if (!group.empty())
        os << "\n  }";
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

} // namespace tt::bench
