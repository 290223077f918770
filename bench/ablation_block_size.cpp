/**
 * @file
 * Ablation A2: coherence block size. Section 2.4 says fine-grain
 * blocks are "typically 32-128 bytes"; this sweeps 32/64/128 bytes on
 * both targets for EM3D and Ocean (bigger blocks amortize transfer
 * overhead but raise false sharing and message size).
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
    std::printf("Ablation A2: coherence block size (nodes=%d "
                "scale=1/%d)\n\n",
                nodes, scale);
    std::printf("%-8s %-7s %14s %14s %9s\n", "app", "block",
                "DirNNB", "Stache", "relative");

    for (const char* app : {"em3d", "ocean"}) {
        for (std::uint32_t bs : {32u, 64u, 128u}) {
            MachineConfig cfg;
            cfg.core.nodes = nodes;
            cfg.core.blockSize = bs;
            const RunOutcome dir =
                runCase("dirnnb", app, DataSet::Small, scale, cfg);
            const RunOutcome stache =
                runCase("stache", app, DataSet::Small, scale, cfg);
            if (dir.checksum != stache.checksum) {
                std::printf("CHECKSUM MISMATCH %s bs=%u\n", app, bs);
                return 1;
            }
            std::printf("%-8s %-7u %14llu %14llu %9.3f\n", app, bs,
                        (unsigned long long)dir.cycles,
                        (unsigned long long)stache.cycles,
                        double(stache.cycles) / double(dir.cycles));
            std::fflush(stdout);
        }
    }
    return 0;
}

int
main()
{
    return guardMain(runDriver);
}
