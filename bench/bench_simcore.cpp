/**
 * @file
 * Simulator-throughput benchmark: wall-clocks the fig3 workload grid
 * ({dirnnb, stache} x the five Table 3 applications, small data set)
 * and reports host events/sec, writing a machine-readable JSON
 * report. This measures the *simulator*, not the simulated machine —
 * simulated cycles and checksums ride along so any speedup can be
 * checked against bit-identical results.
 *
 * Each case is built through the case factory (buildTarget,
 * makeTargetApp) and only its runTarget call is timed (bench_report.hh
 * says what that holds). A case that does not end ok stops the driver
 * with exit 1. After the base pass, every row of kPasses re-runs the
 * same grid with one observer or a fault mix switched on; adding a
 * pass means adding a row.
 *
 * Environment:
 *   TT_SCALE            problem-size divisor (default 4)
 *   TT_NODES            simulated nodes (default 32)
 *   TT_APPS             comma list of apps (default all five)
 *   TT_BENCH_JSON       output path (default BENCH_simcore.json)
 *   TT_TELEMETRY_BOUND  telemetry slowdown bound, at least 1
 *                       (default 1.05)
 *   TT_FOOTPRINT_NODES  memory-sweep node counts (default 32,128,256)
 *
 * Every knob is parsed before the first case runs.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <thread>

#include "bench/bench_common.hh"
#include "bench/bench_report.hh"

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
    /// largest slowdown the pass may show, given the report so far
    /// and TT_TELEMETRY_BOUND (nullptr = unbounded)
    double (*bound)(const BenchReport&, double telemetryBound);
};

/** The transaction tracer folds the recorder's stream: it may be no
 *  slower than the trace pass. */
double
traceSlowdown(const BenchReport& rep, double)
{
    for (const BenchPass& p : rep.passes) {
        if (p.key == "trace_overhead")
            return rep.slowdown(p);
    }
    tt_panic("bench_simcore: the trace pass must run first");
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
     [](MachineConfig& c) { c.obs.traceFile = kTraceScratch; },
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
    // §16). It must be cheap enough to leave on in any measurement
    // run: TT_TELEMETRY_BOUND (default 1.05x) bounds it.
    {{"telemetry", "", "telemetry_overhead", "telemetry"},
     [](MachineConfig& c) { c.obs.telemetry = true; }, true,
     [](const BenchReport&, double bound) { return bound; }},
};

/**
 * False, after saying why on stderr, unless @p run of @p system/@p app
 * in pass @p pass ended ok.
 */
bool
endedOk(const std::string& pass, const std::string& system,
        const std::string& app, const TargetRun& run)
{
    if (run.outcome == "ok")
        return true;
    std::fprintf(stderr, "%s: %s/%s ended %s: %s\n", pass.c_str(),
                 system.c_str(), app.c_str(), run.outcome.c_str(),
                 run.detail.c_str());
    return false;
}

/**
 * Run every (system, app) case of the grid under @p cfg into @p cases,
 * wall-clocking each runTarget call; false when a case of pass
 * @p pass did not end ok.
 */
bool
runGrid(const std::string& pass, const MachineConfig& cfg,
        const std::vector<std::string>& apps, int scale,
        std::vector<BenchCase>& cases)
{
    for (const char* system : kSystems) {
        for (const auto& app : apps) {
            TargetMachine target = buildTarget(system, cfg);
            const auto a = makeTargetApp(system, app, DataSet::Small,
                                         scale, 0.2, target);
            const auto t0 = std::chrono::steady_clock::now();
            const TargetRun run = runTarget(target, *a);
            const auto t1 = std::chrono::steady_clock::now();
            if (!endedOk(pass, system, app, run))
                return false;

            BenchCase c;
            c.system = system;
            c.app = app;
            c.dataset = dataSetName(DataSet::Small);
            c.cycles = run.result.execTime;
            c.events = run.result.events;
            c.wallMs =
                std::chrono::duration<double, std::milli>(t1 - t0)
                    .count();
            c.checksum = run.checksum;
            const StatSet& stats = target.m().stats();
            c.netMessages = stats.get("net.messages");
            c.netWords = stats.get("net.words");
            c.netRetransmits = stats.get("net.retransmits");
            cases.push_back(c);
            std::printf("%-8s %-8s %9.1f ms  %12llu events\n",
                        c.system.c_str(), c.app.c_str(), c.wallMs,
                        static_cast<unsigned long long>(c.events));
            std::fflush(stdout);
        }
    }
    return true;
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
    const char* boundEnv = std::getenv("TT_TELEMETRY_BOUND");
    const double telemetryBound =
        boundEnv ? parseNum("TT_TELEMETRY_BOUND", boundEnv, 1.0,
                            std::numeric_limits<double>::max())
                 : 1.05;
    std::vector<int> footprintNodes;
    for (const auto& ns :
         envList("TT_FOOTPRINT_NODES", {"32", "128", "256"}))
        footprintNodes.push_back(parseNum("TT_FOOTPRINT_NODES", ns, 1,
                                          std::numeric_limits<int>::max()));

    std::printf("bench_simcore: simulator throughput, nodes=%d "
                "scale=1/%d\n\n",
                nodes, scale);

    BenchReport rep;
    rep.nodes = nodes;
    rep.scale = scale;

    MachineConfig cfg;
    cfg.core.nodes = nodes;
    if (!runGrid("base", cfg, apps, scale, rep.cases))
        return 1;

    for (const PassRow& row : kPasses) {
        std::printf("\n%s pass:\n", row.pass.label.c_str());
        MachineConfig pcfg = cfg;
        row.edit(pcfg);
        std::vector<BenchCase> cases;
        const bool ok = runGrid(row.pass.label, pcfg, apps, scale, cases);
        std::remove(kTraceScratch);
        if (!ok)
            return 1;
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
        if (row.bound &&
            rep.slowdown(pass) > row.bound(rep, telemetryBound)) {
            std::fprintf(stderr,
                         "%s slowdown (%.3fx) exceeds the bound "
                         "(%.2fx)\n",
                         pass.label.c_str(), rep.slowdown(pass),
                         row.bound(rep, telemetryBound));
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
    for (const int n : footprintNodes) {
        for (const char* system : kSystems) {
            MachineConfig scfg;
            scfg.core.nodes = n;
            scfg.obs.telemetry = true;
            TargetMachine target = buildTarget(system, scfg);
            const auto a = makeTargetApp(system, "em3d", DataSet::Small,
                                         scale, 0.2, target);
            if (!endedOk("mem-footprint", system, "em3d",
                         runTarget(target, *a)))
                return 1;
            const Telemetry& telem = *target.telemetry;
            BenchReport::MemFootprintEntry e;
            e.system = system;
            e.nodes = n;
            e.totalPeakBytes = telem.totalPeakBytes();
            e.peakBytesPerNode = telem.peakBytesPerNode();
            e.subsystems = telem.probeResults();
            rep.memFootprint.push_back(e);
            std::printf("  %-8s nodes=%-4d peak %12llu bytes "
                        "(%.0f B/node)\n",
                        system, n,
                        static_cast<unsigned long long>(e.totalPeakBytes),
                        e.peakBytesPerNode);
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
