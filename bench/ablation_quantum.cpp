/**
 * @file
 * Methodology ablation: the WWT-style local-time window (quantum).
 * Sweeps the run-ahead bound from 0 (fully event-ordered, slowest) to
 * 128 cycles and reports both simulated results (which must stay
 * checksum-identical) and the timing perturbation, bounding the
 * technique's accuracy cost.
 */

#include <chrono>
#include <cstdio>

#include "bench/bench_common.hh"

using namespace tt;
using namespace tt::bench;

static int
runDriver()
{
    const int scale = envInt("TT_SCALE", 8);
    const int nodes = envInt("TT_NODES", 32);
    std::printf("Methodology ablation: local-time quantum (EM3D "
                "small, Typhoon/Stache, nodes=%d scale=1/%d)\n\n",
                nodes, scale);
    std::printf("%-9s %14s %11s %14s\n", "quantum", "sim cycles",
                "vs q=0", "host ms");

    double base = 0;
    double checksum0 = 0;
    for (Tick q : {0u, 8u, 32u, 128u}) {
        MachineConfig cfg;
        cfg.core.nodes = nodes;
        cfg.core.quantum = q;
        TargetMachine t = buildTarget("stache", cfg);
        const auto a =
            makeTargetApp("stache", "em3d", DataSet::Small, scale, 0.2, t);
        const auto t0 = std::chrono::steady_clock::now();
        RunOutcome o = runApp(t, *a);
        const auto ms =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                std::chrono::steady_clock::now() - t0)
                .count();
        if (q == 0) {
            base = static_cast<double>(o.cycles);
            checksum0 = o.checksum;
        } else if (o.checksum != checksum0) {
            std::printf("CHECKSUM CHANGED at quantum %llu\n",
                        (unsigned long long)q);
            return 1;
        }
        std::printf("%-9llu %14llu %10.3f%% %14lld\n",
                    (unsigned long long)q,
                    (unsigned long long)o.cycles,
                    100.0 * (static_cast<double>(o.cycles) - base) /
                        base,
                    static_cast<long long>(ms));
        std::fflush(stdout);
    }
    return 0;
}

int
main()
{
    return guardMain(runDriver);
}
