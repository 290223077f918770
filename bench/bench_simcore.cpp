/**
 * @file
 * Simulator-throughput benchmark: wall-clocks the fig3 workload grid
 * ({dirnnb, stache} x the five Table 3 applications, small data set)
 * and reports host events/sec, writing a machine-readable JSON
 * report. This measures the *simulator*, not the simulated machine —
 * simulated cycles and checksums ride along so any speedup can be
 * checked against bit-identical results.
 *
 * Environment:
 *   TT_SCALE          problem-size divisor (default 4)
 *   TT_NODES          simulated nodes (default 32)
 *   TT_APPS           comma list of apps (default all five)
 *   TT_BENCH_JSON     output path (default BENCH_simcore.json)
 */

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <thread>

#include "bench/bench_common.hh"
#include "config/bench_harness.hh"

using namespace tt;
using namespace tt::bench;

/** Fault mix for the reliable-transport overhead pass. */
constexpr const char* kFaultMix =
    "drop=0.02,dup=0.02,reorder=0.05,seed=1";

int
main()
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

    for (const char* system : {"dirnnb", "stache"}) {
        for (const auto& app : apps) {
            rep.cases.push_back(runBenchCase(
                system, app, DataSet::Small, scale, cfg));
            const BenchCase& c = rep.cases.back();
            std::printf("%-8s %-8s %9.1f ms  %12llu events\n",
                        c.system.c_str(), c.app.c_str(), c.wallMs,
                        static_cast<unsigned long long>(c.events));
            std::fflush(stdout);
        }
    }

    // The same grid with the coherence sanitizer attached, once per
    // checker mode (DESIGN.md §13): `fast` is the default shadow
    // engine whose always-on ≤4x bound the JSON records, `paranoid`
    // the byte-granular oracle for reference. Implicitly this also
    // proves the checker-off hot path above carries only dead
    // branches. Simulated results must not change in either mode.
    for (const auto mode : {ProtocolChecker::Mode::Fast,
                            ProtocolChecker::Mode::Paranoid}) {
        const bool fast = mode == ProtocolChecker::Mode::Fast;
        std::printf("\nchecker-on pass (%s):\n",
                    fast ? "fast" : "paranoid");
        MachineConfig ccfg = cfg;
        ccfg.check.enable = true;
        ccfg.check.mode = mode;
        std::size_t i = 0;
        for (const char* system : {"dirnnb", "stache"}) {
            for (const auto& app : apps) {
                const BenchCase c = runBenchCase(
                    system, app, DataSet::Small, scale, ccfg);
                const BenchCase& base = rep.cases[i++];
                if (c.cycles != base.cycles ||
                    c.checksum != base.checksum) {
                    std::fprintf(stderr,
                                 "checker changed simulated results "
                                 "for %s/%s\n",
                                 system, app.c_str());
                    return 1;
                }
                (fast ? rep.checkerFastEvents
                      : rep.checkerParanoidEvents) += c.events;
                (fast ? rep.checkerFastWallMs
                      : rep.checkerParanoidWallMs) += c.wallMs;
                std::printf("%-8s %-8s %9.1f ms\n", system,
                            app.c_str(), c.wallMs);
                std::fflush(stdout);
            }
        }
    }

    // The same grid again with the flight recorder attached (rings +
    // trace stream to a scratch file, no counter sampler): the
    // --trace overhead. Again, simulated results must be bit-identical
    // to the trace-off pass.
    std::printf("\ntrace-on pass:\n");
    {
        MachineConfig tcfg = cfg;
        tcfg.obs.enable = true;
        tcfg.obs.traceFile = "bench_trace_scratch.json";
        std::size_t i = 0;
        for (const char* system : {"dirnnb", "stache"}) {
            for (const auto& app : apps) {
                const BenchCase c = runBenchCase(
                    system, app, DataSet::Small, scale, tcfg);
                const BenchCase& base = rep.cases[i++];
                if (c.cycles != base.cycles ||
                    c.checksum != base.checksum) {
                    std::fprintf(stderr,
                                 "tracing changed simulated results "
                                 "for %s/%s\n",
                                 system, app.c_str());
                    return 1;
                }
                rep.traceOnEvents += c.events;
                rep.traceOnWallMs += c.wallMs;
                std::printf("%-8s %-8s %9.1f ms\n", system,
                            app.c_str(), c.wallMs);
                std::fflush(stdout);
            }
        }
        std::remove("bench_trace_scratch.json");
    }

    // The same grid with the sharing analyzer folding every access
    // (--analyze, DESIGN.md §11): measures the analyzer-on cost.
    // Simulated results must again be bit-identical — the analyzer
    // only observes.
    std::printf("\nanalyze-on pass:\n");
    {
        MachineConfig acfg = cfg;
        acfg.obs.analyze = true;
        std::size_t i = 0;
        for (const char* system : {"dirnnb", "stache"}) {
            for (const auto& app : apps) {
                const BenchCase c = runBenchCase(
                    system, app, DataSet::Small, scale, acfg);
                const BenchCase& base = rep.cases[i++];
                if (c.cycles != base.cycles ||
                    c.checksum != base.checksum) {
                    std::fprintf(stderr,
                                 "analyzer changed simulated results "
                                 "for %s/%s\n",
                                 system, app.c_str());
                    return 1;
                }
                rep.analyzeOnEvents += c.events;
                rep.analyzeOnWallMs += c.wallMs;
                std::printf("%-8s %-8s %9.1f ms\n", system,
                            app.c_str(), c.wallMs);
                std::fflush(stdout);
            }
        }
    }

    // The same grid with the coherence-transaction tracer folding the
    // record stream (--trace-critical, DESIGN.md §14; implies the
    // sharing analyzer). Its slowdown must stay at or below the
    // flight-recorder pass above — the tracer consumes the same
    // stream, just with per-transaction folding on top. Simulated
    // results must be bit-identical to the tracer-off pass.
    std::printf("\ntxn-tracer-on pass:\n");
    {
        MachineConfig xcfg = cfg;
        xcfg.obs.txn = true;
        std::size_t i = 0;
        for (const char* system : {"dirnnb", "stache"}) {
            for (const auto& app : apps) {
                const BenchCase c = runBenchCase(
                    system, app, DataSet::Small, scale, xcfg);
                const BenchCase& base = rep.cases[i++];
                if (c.cycles != base.cycles ||
                    c.checksum != base.checksum) {
                    std::fprintf(stderr,
                                 "txn tracer changed simulated "
                                 "results for %s/%s\n",
                                 system, app.c_str());
                    return 1;
                }
                rep.txnOnEvents += c.events;
                rep.txnOnWallMs += c.wallMs;
                std::printf("%-8s %-8s %9.1f ms\n", system,
                            app.c_str(), c.wallMs);
                std::fflush(stdout);
            }
        }
        if (rep.traceOnWallMs > 0 &&
            rep.txnOnEventsPerSec() < rep.traceOnEventsPerSec()) {
            std::fprintf(stderr,
                         "txn tracer slowdown (%.2fx) exceeds the "
                         "flight-recorder bound (%.2fx)\n",
                         rep.eventsPerSec() / rep.txnOnEventsPerSec(),
                         rep.eventsPerSec() /
                             rep.traceOnEventsPerSec());
            return 1;
        }
    }

    // The same grid over a lossy fabric with the user-level reliable
    // transport repairing it (DESIGN.md §10). Cycle counts
    // legitimately change — retransmission traffic is real simulated
    // work — but application checksums must not: the protocols still
    // compute the right answer over an unreliable network.
    std::printf("\nfaults+transport-on pass:\n");
    {
        MachineConfig fcfg = cfg;
        fcfg.faults = parseFaultSpec(kFaultMix);
        rep.transportFaultSpec = kFaultMix;
        std::size_t i = 0;
        for (const char* system : {"dirnnb", "stache"}) {
            for (const auto& app : apps) {
                const BenchCase c = runBenchCase(
                    system, app, DataSet::Small, scale, fcfg);
                const BenchCase& base = rep.cases[i++];
                if (c.checksum != base.checksum) {
                    std::fprintf(stderr,
                                 "lossy fabric changed application "
                                 "results for %s/%s\n",
                                 system, app.c_str());
                    return 1;
                }
                rep.transportOnEvents += c.events;
                rep.transportOnWallMs += c.wallMs;
                rep.transportOnRetransmits += c.netRetransmits;
                std::printf("%-8s %-8s %9.1f ms\n", system,
                            app.c_str(), c.wallMs);
                std::fflush(stdout);
            }
        }
    }

    // The same grid with self-telemetry attached (--telemetry,
    // DESIGN.md §16): memory probes + counter refresh. Simulated
    // results must be bit-identical — telemetry only observes — and
    // the slowdown must stay within TT_TELEMETRY_BOUND (default
    // 1.05x): cheap enough to leave on in any measurement run.
    std::printf("\ntelemetry-on pass:\n");
    {
        MachineConfig mcfg = cfg;
        mcfg.obs.telemetry = true;
        std::size_t i = 0;
        for (const char* system : {"dirnnb", "stache"}) {
            for (const auto& app : apps) {
                const BenchCase c = runBenchCase(
                    system, app, DataSet::Small, scale, mcfg);
                const BenchCase& base = rep.cases[i++];
                if (c.cycles != base.cycles ||
                    c.checksum != base.checksum) {
                    std::fprintf(stderr,
                                 "telemetry changed simulated "
                                 "results for %s/%s\n",
                                 system, app.c_str());
                    return 1;
                }
                rep.telemetryOnEvents += c.events;
                rep.telemetryOnWallMs += c.wallMs;
                std::printf("%-8s %-8s %9.1f ms\n", system,
                            app.c_str(), c.wallMs);
                std::fflush(stdout);
            }
        }
        const char* boundEnv = std::getenv("TT_TELEMETRY_BOUND");
        const double bound = boundEnv ? std::atof(boundEnv) : 1.05;
        const double slow =
            rep.eventsPerSec() / rep.telemetryOnEventsPerSec();
        if (slow > bound) {
            std::fprintf(stderr,
                         "telemetry slowdown (%.3fx) exceeds the "
                         "bound (%.2fx)\n",
                         slow, bound);
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
    {
        rep.hostCores = std::thread::hardware_concurrency();
        for (const auto& ns :
             envList("TT_FOOTPRINT_NODES", {"32", "128", "256"})) {
            const int n = std::atoi(ns.c_str());
            for (const char* system : {"dirnnb", "stache"}) {
                MachineConfig scfg;
                scfg.core.nodes = n;
                scfg.obs.telemetry = true;
                BenchTelemetry bt;
                runBenchCase(system, "em3d", DataSet::Small, scale,
                             scfg, &bt);
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
                            static_cast<unsigned long long>(
                                bt.totalPeakBytes),
                            bt.peakBytesPerNode);
                std::fflush(stdout);
            }
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
