/**
 * @file
 * Ablation A4: network latency sensitivity. Section 6 notes the
 * 11-cycle latency "will tend to favor DirNNB by making Typhoon's
 * overhead relatively larger" — as latency grows, the fixed software
 * handler cost is amortized and Typhoon/Stache closes in (and its
 * locality advantage grows).
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
    std::printf("Ablation A4: network latency sweep, EM3D small "
                "(nodes=%d scale=1/%d)\n\n",
                nodes, scale);
    std::printf("%-9s %14s %14s %9s\n", "latency", "DirNNB",
                "Stache", "relative");

    for (Tick lat : {5u, 11u, 25u, 50u, 100u}) {
        MachineConfig cfg;
        cfg.core.nodes = nodes;
        cfg.net.latency = lat;
        const RunOutcome dir =
            runCase("dirnnb", "em3d", DataSet::Small, scale, cfg);
        const RunOutcome stache =
            runCase("stache", "em3d", DataSet::Small, scale, cfg);
        if (dir.checksum != stache.checksum) {
            std::printf("CHECKSUM MISMATCH at latency %llu\n",
                        (unsigned long long)lat);
            return 1;
        }
        std::printf("%-9llu %14llu %14llu %9.3f\n",
                    (unsigned long long)lat,
                    (unsigned long long)dir.cycles,
                    (unsigned long long)stache.cycles,
                    double(stache.cycles) / double(dir.cycles));
        std::fflush(stdout);
    }
    return 0;
}

int
main()
{
    return guardMain(runDriver);
}
