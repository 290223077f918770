/**
 * @file
 * Methodology ablation: the paper's simulations "do not accurately
 * model network and bus contention." This bench turns on a finite
 * ejection port (cycles per inbound packet per node) and measures
 * how much the contention-free assumption flatters each system — a
 * hot home node is the natural victim.
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
    std::printf("Methodology ablation: ejection-port contention "
                "(EM3D small, nodes=%d scale=1/%d)\n\n",
                nodes, scale);
    std::printf("%-12s %14s %14s %9s %14s\n", "eject cyc/pkt",
                "DirNNB", "Stache", "relative", "pkts queued(S)");

    double cs = 0;
    for (Tick eject : {0u, 1u, 2u, 4u, 8u}) {
        MachineConfig cfg;
        cfg.core.nodes = nodes;
        cfg.net.ejectPerPacket = eject;
        const RunOutcome dir =
            runCase("dirnnb", "em3d", DataSet::Small, scale, cfg);
        RunOutcome stache;
        std::uint64_t queued = 0;
        {
            TargetMachine t = buildTarget("stache", cfg);
            const auto a = makeTargetApp("stache", "em3d", DataSet::Small,
                                         scale, 0.2, t);
            stache = runApp(t, *a);
            queued = t.m().stats().get("net.eject_queued");
        }
        if (cs == 0)
            cs = dir.checksum;
        if (dir.checksum != stache.checksum || dir.checksum != cs) {
            std::printf("CHECKSUM MISMATCH at eject=%llu\n",
                        (unsigned long long)eject);
            return 1;
        }
        std::printf("%-12llu %14llu %14llu %9.3f %14llu\n",
                    (unsigned long long)eject,
                    (unsigned long long)dir.cycles,
                    (unsigned long long)stache.cycles,
                    double(stache.cycles) / double(dir.cycles),
                    (unsigned long long)queued);
        std::fflush(stdout);
    }
    return 0;
}

int
main()
{
    return guardMain(runDriver);
}
