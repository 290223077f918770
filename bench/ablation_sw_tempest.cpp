/**
 * @file
 * Methodology ablation: what Typhoon's hardware RTLB buys. Section 2
 * mentions a "native" software Tempest for the CM-5 (realized later
 * as Blizzard-S): fine-grain access control by inline checks that
 * executable rewriting inserts before every shared access. This
 * sweeps the per-access check cost (0 = Typhoon hardware) and shows
 * how quickly software checking erodes — and eventually erases —
 * Stache's advantage over DirNNB.
 */

#include <cstdio>

#include "bench/bench_common.hh"

using namespace tt;
using namespace tt::bench;

static int
runDriver()
{
    const int scale = envInt("TT_SCALE", 8);
    const int nodes = envInt("TT_NODES", 32);
    std::printf("Software fine-grain access control: per-access "
                "check cost sweep (EM3D small, 4K CPU cache, "
                "nodes=%d scale=1/%d)\n\n",
                nodes, scale);
    std::printf("%-11s %14s %14s %9s\n", "check cyc", "DirNNB",
                "SW-Tempest", "relative");

    MachineConfig base;
    base.core.nodes = nodes;
    base.core.cacheSize = 4 * 1024; // the regime where Stache wins

    const RunOutcome dir =
        runCase("dirnnb", "em3d", DataSet::Small, scale, base);

    for (Tick chk : {0u, 1u, 2u, 4u, 8u}) {
        MachineConfig cfg = base;
        cfg.typhoon.swCheckCost = chk;
        const RunOutcome sw =
            runCase("stache", "em3d", DataSet::Small, scale, cfg);
        if (sw.checksum != dir.checksum) {
            std::printf("CHECKSUM MISMATCH at check=%llu\n",
                        (unsigned long long)chk);
            return 1;
        }
        std::printf("%-11llu %14llu %14llu %9.3f%s\n",
                    (unsigned long long)chk,
                    (unsigned long long)dir.cycles,
                    (unsigned long long)sw.cycles,
                    double(sw.cycles) / double(dir.cycles),
                    chk == 0 ? "   <- Typhoon hardware" : "");
        std::fflush(stdout);
    }
    return 0;
}

int
main()
{
    return guardMain(runDriver);
}
