/**
 * @file
 * bench_simcore's report: the simulator's own wall-clock throughput
 * (not the simulated machine's), how many kernel events per second
 * the host executes, as a human table and a machine-readable JSON
 * report, so optimisation work on the simulation core can be tracked
 * against a recorded baseline.
 *
 * Each case's wall time is one runTarget call (config/builders.hh):
 * app setup, the run, the app's finish, and the end-of-run work of
 * whatever the case switched on (the telemetry probes' samples, the
 * checker's audit, the recorder's fold). Building the target is
 * excluded. Simulated results (cycles, checksum) are reported
 * alongside so a speedup can never come from simulating less.
 */

#ifndef TT_BENCH_BENCH_REPORT_HH
#define TT_BENCH_BENCH_REPORT_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "obs/telemetry.hh"
#include "sim/types.hh"

namespace tt::bench
{

/** One timed simulation run. */
struct BenchCase
{
    std::string system;       ///< dirnnb | stache | migratory | update
    std::string app;
    std::string dataset;
    Tick cycles = 0;          ///< simulated execution time
    std::uint64_t events = 0; ///< kernel events executed
    double wallMs = 0;        ///< host wall-clock for runTarget()
    double checksum = 0;      ///< application result checksum

    // Pulled straight from the run's StatSet (machine-readable stat
    // handles, not re-parsed dump() text).
    std::uint64_t netMessages = 0;
    std::uint64_t netWords = 0;
    std::uint64_t netRetransmits = 0; ///< 0 unless faults are on
};

/**
 * One instrumented pass: the base grid re-run with one observer or a
 * fault mix switched on (a row of bench_simcore's pass table). Its
 * JSON object is "key" at the top level, or inside "group" when set,
 * with events_per_sec_<tag>_on and slowdown_vs_<tag>_off against the
 * base pass. A lossy-fabric pass (non-empty faults) also records its
 * fault spec and retransmits.
 */
struct BenchPass
{
    std::string label;       ///< human name ("trace", "checker (fast)")
    std::string group = {};  ///< enclosing JSON object ("" = top level)
    std::string key;         ///< JSON key of this pass's object
    std::string tag;         ///< <tag> of the rate and slowdown keys
    std::string faults = {}; ///< fault spec ("" = lossless fabric)
    std::uint64_t events = 0;
    double wallMs = 0;
    std::uint64_t retransmits = 0;

    double eventsPerSec() const;
};

/** An aggregated report over a set of cases. */
struct BenchReport
{
    int nodes = 0;
    int scale = 0;
    std::vector<BenchCase> cases;

    /**
     * The instrumented passes over the same grid, in run order. A
     * pass with wall_ms == 0 was not measured; the print and JSON
     * skip it.
     */
    std::vector<BenchPass> passes;

    /**
     * Per-subsystem resident-memory sweep (DESIGN.md §16): em3d/small
     * at increasing node counts on both systems, with the telemetry
     * memory probes recording peak bytes by subsystem. An empty
     * vector means "not measured" and the JSON omits the section.
     */
    struct MemFootprintEntry
    {
        std::string system;
        int nodes = 0;
        std::uint64_t totalPeakBytes = 0;
        double peakBytesPerNode = 0;
        std::vector<Telemetry::ProbeResult> subsystems;
    };
    std::vector<MemFootprintEntry> memFootprint;
    /** std::thread::hardware_concurrency() at measurement time. */
    unsigned hostCores = 0;

    std::uint64_t totalEvents() const;
    double totalWallMs() const;
    double eventsPerSec() const;
    /** Base-pass events/sec over @p p's: above 1 means slower. */
    double slowdown(const BenchPass& p) const;

    /** Pretty per-case table for humans. */
    void printTable(std::ostream& os) const;
    /** Machine-readable report (stable key order). */
    void writeJson(std::ostream& os) const;
    /** writeJson to @p path; returns false on I/O failure. */
    bool writeJsonFile(const std::string& path) const;
};

} // namespace tt::bench

#endif // TT_BENCH_BENCH_REPORT_HH
