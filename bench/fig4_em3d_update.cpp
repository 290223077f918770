/**
 * @file
 * Figure 4: EM3D cycles per edge as the fraction of non-local edges
 * sweeps 0..50%, for DirNNB, Typhoon/Stache, and Typhoon with the
 * custom update protocol, on the large data set (192,000 nodes,
 * degree 15). The paper's shape: the update protocol is lowest and
 * nearly flat; at 50% remote edges it beats DirNNB by ~35%.
 *
 * Environment: TT_SCALE (default 8 for a quick run; 1 = paper size),
 * TT_NODES (default 32).
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

    std::printf("Figure 4: EM3D update-protocol performance, large "
                "data set\n");
    std::printf("nodes=%d scale=1/%d\n\n", nodes, scale);
    std::printf("%-10s %12s %16s %16s\n", "%% remote", "DirNNB",
                "Typhoon/Stache", "Typhoon/Update");
    std::printf("%-10s %12s %16s %16s   (cycles per edge)\n", "", "",
                "", "");

    for (int pct = 0; pct <= 50; pct += 10) {
        const double frac = pct / 100.0;
        auto cyclesPerEdge = [&](RunOutcome o) {
            // Per-processor work: each node computes its share of the
            // edges each iteration.
            return static_cast<double>(o.cycles) * nodes /
                   static_cast<double>(o.workUnits);
        };

        MachineConfig cfg;
        cfg.core.nodes = nodes;
        cfg.core.cacheSize = 256 * 1024;

        auto run = [&](const char* system) {
            return runCase(system, "em3d", DataSet::Large, scale, cfg,
                           frac);
        };
        const RunOutcome dir = run("dirnnb");
        const RunOutcome stache = run("stache");
        const RunOutcome upd = run("update");
        if (dir.checksum != stache.checksum ||
            dir.checksum != upd.checksum) {
            std::printf("CHECKSUM MISMATCH at %d%% remote\n", pct);
            return 1;
        }
        std::printf("%-10d %12.1f %16.1f %16.1f\n", pct,
                    cyclesPerEdge(dir), cyclesPerEdge(stache),
                    cyclesPerEdge(upd));
        std::fflush(stdout);
    }
    return 0;
}

int
main()
{
    return guardMain(runDriver);
}
