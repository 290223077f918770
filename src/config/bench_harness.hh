/**
 * @file
 * Wall-clock benchmarking of the simulator itself (not the simulated
 * machine): how many kernel events per second the host executes.
 *
 * Used by bench/bench_simcore.cpp to produce a machine-readable JSON
 * report, so optimisation work on the simulation core can be tracked
 * against a recorded baseline.
 *
 * Timing methodology: each case builds a fresh target machine, then
 * wall-clocks Machine::run() only (construction and workload setup
 * are excluded). Simulated results (cycles, checksum) are reported
 * alongside so a speedup can never come from simulating less.
 */

#ifndef TT_CONFIG_BENCH_HARNESS_HH
#define TT_CONFIG_BENCH_HARNESS_HH

#include <ostream>
#include <string>
#include <vector>

#include "apps/workloads.hh"
#include "config/builders.hh"

namespace tt
{

/** One timed simulation run. */
struct BenchCase
{
    std::string system;       ///< dirnnb | stache | migratory | update
    std::string app;
    std::string dataset;
    Tick cycles = 0;          ///< simulated execution time
    std::uint64_t events = 0; ///< kernel events executed
    double wallMs = 0;        ///< host wall-clock for Machine::run()
    double checksum = 0;      ///< application result checksum

    // Pulled straight from the run's StatSet (machine-readable stat
    // handles, not re-parsed dump() text).
    std::uint64_t netMessages = 0;
    std::uint64_t netWords = 0;
    std::uint64_t netRetransmits = 0; ///< 0 unless faults are on
};

/** An aggregated report over a set of cases. */
struct BenchReport
{
    int nodes = 0;
    int scale = 0;
    std::vector<BenchCase> cases;

    /**
     * Coherence-sanitizer overhead (bench_simcore): the same grid
     * re-run with the checker attached, once per mode (DESIGN.md
     * §13). `fast` is the default shadow engine — the one the ≤4x
     * always-on bound applies to; `paranoid` is the byte-granular
     * oracle, recorded for reference. wall_ms == 0 means "not
     * measured" and the JSON omits that half of the
     * `checker_overhead_v2` entry.
     */
    double checkerFastWallMs = 0;
    std::uint64_t checkerFastEvents = 0;
    double checkerParanoidWallMs = 0;
    std::uint64_t checkerParanoidEvents = 0;

    /**
     * Flight-recorder overhead: the same grid re-run with a recorder
     * attached (rings + trace stream). Same "0 = not measured"
     * convention as the checker entry.
     */
    double traceOnWallMs = 0;
    std::uint64_t traceOnEvents = 0;

    /**
     * Sharing-analyzer overhead: the same grid re-run with the
     * recorder attached and the analyzer folding every access
     * (--analyze, DESIGN.md §11). Same "0 = not measured" convention.
     */
    double analyzeOnWallMs = 0;
    std::uint64_t analyzeOnEvents = 0;

    /**
     * Transaction-tracer overhead: the same grid re-run with the
     * coherence-transaction tracer folding the record stream
     * (--trace-critical, DESIGN.md §14; implies the sharing
     * analyzer). Must stay at or below the flight-recorder
     * (`trace_overhead`) slowdown. Same "0 = not measured"
     * convention.
     */
    double txnOnWallMs = 0;
    std::uint64_t txnOnEvents = 0;

    /**
     * Reliable-transport-over-lossy-fabric overhead: the same grid
     * re-run with a fault mix injected and the user-level transport
     * repairing it (DESIGN.md §10). Unlike the checker/trace passes
     * the simulated cycle counts legitimately differ (retransmission
     * traffic is real); application checksums must still match.
     * Same "0 = not measured" convention.
     */
    double transportOnWallMs = 0;
    std::uint64_t transportOnEvents = 0;
    std::uint64_t transportOnRetransmits = 0;
    std::string transportFaultSpec;

    /**
     * Self-telemetry overhead (--telemetry, DESIGN.md §16): the same
     * grid re-run with the telemetry module attached (memory probes +
     * counter refresh). The bound is ≤1.05x — telemetry must be cheap
     * enough to leave on in any measurement run. Same "0 = not
     * measured" convention.
     */
    double telemetryOnWallMs = 0;
    std::uint64_t telemetryOnEvents = 0;

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
    double checkerFastEventsPerSec() const;
    double checkerParanoidEventsPerSec() const;
    double traceOnEventsPerSec() const;
    double analyzeOnEventsPerSec() const;
    double txnOnEventsPerSec() const;
    double transportOnEventsPerSec() const;
    double telemetryOnEventsPerSec() const;

    /** Pretty per-case table for humans. */
    void printTable(std::ostream& os) const;
    /** Machine-readable report (stable key order). */
    void writeJson(std::ostream& os) const;
    /** writeJson to @p path; returns false on I/O failure. */
    bool writeJsonFile(const std::string& path) const;
};

/**
 * Telemetry read-out of one bench run (the TargetMachine is torn down
 * inside runBenchCase, so the probe results are copied out here).
 * present stays false unless cfg.obs.telemetry was set.
 */
struct BenchTelemetry
{
    bool present = false;
    std::uint64_t totalPeakBytes = 0;
    double peakBytesPerNode = 0;
    std::vector<Telemetry::ProbeResult> subsystems;
};

/**
 * Build the named target system, run @p app name on it, and wall-clock
 * the run. Systems follow the ttsim names; "update" requires em3d.
 * When @p telem is non-null and cfg.obs.telemetry is on, the memory
 * probe results are copied into it before the machine is destroyed.
 */
BenchCase runBenchCase(const std::string& system,
                       const std::string& appName, DataSet ds,
                       int scale, const MachineConfig& cfg,
                       BenchTelemetry* telem = nullptr);

} // namespace tt

#endif // TT_CONFIG_BENCH_HARNESS_HH
