/**
 * @file
 * Simulator-throughput benchmark: wall-clocks the fig3 workload grid
 * ({dirnnb, stache} x the five Table 3 applications, small data set)
 * and reports host events/sec, writing a machine-readable JSON
 * report. This measures the *simulator*, not the simulated machine —
 * simulated cycles and checksums ride along so any speedup can be
 * checked against bit-identical results.
 *
 * After the base pass, every row of kPasses re-runs the same grid
 * with one observer or a fault mix switched on; adding a pass means
 * adding a row.
 *
 * Environment:
 *   TT_SCALE            problem-size divisor (default 4)
 *   TT_NODES            simulated nodes (default 32)
 *   TT_APPS             comma list of apps (default all five)
 *   TT_BENCH_JSON       output path (default BENCH_simcore.json)
 *   TT_TELEMETRY_BOUND  telemetry slowdown bound (default 1.05)
 *   TT_FOOTPRINT_NODES  memory-sweep node counts (default 32,128,256)
 */

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <thread>

#include "bench/bench_common.hh"
#include "config/bench_harness.hh"

using namespace tt;
using namespace tt::bench;

namespace
{

constexpr const char* kSystems[] = {"dirnnb", "stache"};

/** Fault mix for the reliable-transport overhead pass. */
constexpr const char* kFaultMix =
    "drop=0.02,dup=0.02,reorder=0.05,seed=1";

/** The trace pass streams its trace here; every pass deletes it. */
constexpr const char* kTraceScratch = "bench_trace_scratch.json";

/** One instrumented pass over the grid. */
struct PassRow
{
    BenchPass pass;               ///< label and JSON naming
    void (*edit)(MachineConfig&); ///< what the pass switches on
    /// cycles must equal the base pass's too (checksums always must)
    bool sameCycles;
    /// largest slowdown the pass may show (nullptr = unbounded)
    double (*bound)(const BenchReport&);
};

/** The transaction tracer folds the recorder's stream: it may be no
 *  slower than the trace pass. */
double
traceSlowdown(const BenchReport& rep)
{
    for (const BenchPass& p : rep.passes) {
        if (p.key == "trace_overhead")
            return rep.slowdown(p);
    }
    tt_panic("bench_simcore: the trace pass must run first");
}

/** Telemetry must be cheap enough to leave on in any measurement
 *  run. */
double
telemetryBound(const BenchReport&)
{
    const char* env = std::getenv("TT_TELEMETRY_BOUND");
    return env ? std::atof(env) : 1.05;
}

/**
 * The pass table, in run (and JSON) order: {label, JSON group, JSON
 * key, key tag[, fault spec]}, then the config edit. Every pass only
 * observes, so simulated results must be bit-identical to the base
 * pass, except over the lossy fabric: retransmission traffic is real
 * simulated work, so there only the application checksums must match.
 */
const PassRow kPasses[] = {
    // The coherence sanitizer, once per mode (DESIGN.md §13): `fast`
    // is the default shadow engine whose always-on ≤4x bound the JSON
    // records, `paranoid` the byte-granular oracle for reference.
    {{"checker (fast)", "checker_overhead_v2", "fast", "check"},
     [](MachineConfig& c) { c.check.enable = true; }, true, nullptr},
    {{"checker (paranoid)", "checker_overhead_v2", "paranoid", "check"},
     [](MachineConfig& c) {
         c.check.enable = true;
         c.check.mode = ProtocolChecker::Mode::Paranoid;
     },
     true, nullptr},
    // The flight recorder: rings plus a trace stream (--trace).
    {{"trace", "", "trace_overhead", "trace"},
     [](MachineConfig& c) {
         c.obs.enable = true;
         c.obs.traceFile = kTraceScratch;
     },
     true, nullptr},
    // The sharing analyzer folding every access (--analyze, §11).
    {{"analyze", "", "analyze_overhead", "analyze"},
     [](MachineConfig& c) { c.obs.analyze = true; }, true, nullptr},
    // The coherence-transaction tracer (--trace-critical, §14; it
    // implies the sharing analyzer).
    {{"txn tracer", "", "txn_trace_overhead", "txn"},
     [](MachineConfig& c) { c.obs.txn = true; }, true, traceSlowdown},
    // A lossy fabric with the user-level reliable transport
    // repairing it (§10).
    {{"faults+transport", "", "reliable_transport_overhead", "faults",
      kFaultMix},
     [](MachineConfig& c) { c.faults = parseFaultSpec(kFaultMix); },
     false, nullptr},
    // Self-telemetry: memory probes and counter refresh (--telemetry,
    // §16); TT_TELEMETRY_BOUND overrides the 1.05x bound.
    {{"telemetry", "", "telemetry_overhead", "telemetry"},
     [](MachineConfig& c) { c.obs.telemetry = true; }, true,
     telemetryBound},
};

/** Run every (system, app) case of the grid under @p cfg. */
std::vector<BenchCase>
runGrid(const MachineConfig& cfg, const std::vector<std::string>& apps,
        int scale)
{
    std::vector<BenchCase> cases;
    for (const char* system : kSystems) {
        for (const auto& app : apps) {
            cases.push_back(
                runBenchCase(system, app, DataSet::Small, scale, cfg));
            const BenchCase& c = cases.back();
            std::printf("%-8s %-8s %9.1f ms  %12llu events\n",
                        c.system.c_str(), c.app.c_str(), c.wallMs,
                        static_cast<unsigned long long>(c.events));
            std::fflush(stdout);
        }
    }
    return cases;
}

} // namespace

static int
runDriver()
{
    const int scale = envInt("TT_SCALE", 4);
    const int nodes = envInt("TT_NODES", 32);
    const auto apps = envList(
        "TT_APPS", {"appbt", "barnes", "mp3d", "ocean", "em3d"});
    const char* jsonPath = std::getenv("TT_BENCH_JSON");

    std::printf("bench_simcore: simulator throughput, nodes=%d "
                "scale=1/%d\n\n",
                nodes, scale);

    BenchReport rep;
    rep.nodes = nodes;
    rep.scale = scale;

    MachineConfig cfg;
    cfg.core.nodes = nodes;
    rep.cases = runGrid(cfg, apps, scale);

    for (const PassRow& row : kPasses) {
        std::printf("\n%s pass:\n", row.pass.label.c_str());
        MachineConfig pcfg = cfg;
        row.edit(pcfg);
        const std::vector<BenchCase> cases = runGrid(pcfg, apps, scale);
        std::remove(kTraceScratch);
        BenchPass pass = row.pass;
        for (std::size_t i = 0; i < cases.size(); ++i) {
            const BenchCase& c = cases[i];
            const BenchCase& base = rep.cases[i];
            if (c.checksum != base.checksum ||
                (row.sameCycles && c.cycles != base.cycles)) {
                std::fprintf(stderr,
                             "%s pass changed simulated results for "
                             "%s/%s\n",
                             pass.label.c_str(), c.system.c_str(),
                             c.app.c_str());
                return 1;
            }
            pass.events += c.events;
            pass.wallMs += c.wallMs;
            pass.retransmits += c.netRetransmits;
        }
        rep.passes.push_back(pass);
        if (row.bound && rep.slowdown(pass) > row.bound(rep)) {
            std::fprintf(stderr,
                         "%s slowdown (%.3fx) exceeds the bound "
                         "(%.2fx)\n",
                         pass.label.c_str(), rep.slowdown(pass),
                         row.bound(rep));
            return 1;
        }
    }

    // Per-subsystem resident-memory sweep (DESIGN.md §16): em3d/small
    // on both systems at increasing node counts, with the telemetry
    // probes recording where the bytes live. This is a capacity
    // check, not a throughput one — the JSON records peak bytes by
    // subsystem and bytes per simulated node so footprint regressions
    // show up in bench_diff like throughput ones do.
    std::printf("\nmem-footprint sweep:\n");
    rep.hostCores = std::thread::hardware_concurrency();
    for (const auto& ns :
         envList("TT_FOOTPRINT_NODES", {"32", "128", "256"})) {
        const int n = parseNum("TT_FOOTPRINT_NODES", ns, 1,
                               std::numeric_limits<int>::max());
        for (const char* system : kSystems) {
            MachineConfig scfg;
            scfg.core.nodes = n;
            scfg.obs.telemetry = true;
            BenchTelemetry bt;
            runBenchCase(system, "em3d", DataSet::Small, scale, scfg,
                         &bt);
            BenchReport::MemFootprintEntry e;
            e.system = system;
            e.nodes = n;
            e.totalPeakBytes = bt.totalPeakBytes;
            e.peakBytesPerNode = bt.peakBytesPerNode;
            e.subsystems = bt.subsystems;
            rep.memFootprint.push_back(e);
            std::printf("  %-8s nodes=%-4d peak %12llu bytes "
                        "(%.0f B/node)\n",
                        system, n,
                        static_cast<unsigned long long>(bt.totalPeakBytes),
                        bt.peakBytesPerNode);
            std::fflush(stdout);
        }
    }

    std::printf("\n");
    rep.printTable(std::cout);

    const std::string out = jsonPath ? jsonPath : "BENCH_simcore.json";
    if (!rep.writeJsonFile(out)) {
        std::fprintf(stderr, "cannot write %s\n", out.c_str());
        return 1;
    }
    std::printf("wrote %s\n", out.c_str());
    return 0;
}

int
main()
{
    return guardMain(runDriver);
}
