/**
 * @file
 * Ablation A1: DirNNB page placement — round-robin (the paper's
 * default) vs. first-touch (the Stenstrom et al. improvement the
 * paper cites as narrowing the gap). Typhoon/Stache needs no such
 * help: its stache pages replicate data regardless of homes.
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
    std::printf("Ablation A1: DirNNB round-robin vs first-touch page "
                "placement (nodes=%d scale=1/%d)\n\n",
                nodes, scale);
    std::printf("%-8s %14s %14s %14s %18s\n", "app", "DirNNB rr",
                "DirNNB ft", "Stache", "ft speedup (rr/ft)");

    for (const char* app : {"ocean", "em3d", "appbt"}) {
        MachineConfig cfg;
        cfg.core.nodes = nodes;
        MachineConfig ftCfg = cfg;
        ftCfg.dir.firstTouch = true;
        const RunOutcome rr =
            runCase("dirnnb", app, DataSet::Small, scale, cfg);
        const RunOutcome ft =
            runCase("dirnnb", app, DataSet::Small, scale, ftCfg);
        const RunOutcome stache =
            runCase("stache", app, DataSet::Small, scale, cfg);
        if (rr.checksum != ft.checksum ||
            rr.checksum != stache.checksum) {
            std::printf("CHECKSUM MISMATCH for %s\n", app);
            return 1;
        }
        std::printf("%-8s %14llu %14llu %14llu %18.3f\n", app,
                    (unsigned long long)rr.cycles,
                    (unsigned long long)ft.cycles,
                    (unsigned long long)stache.cycles,
                    double(rr.cycles) / double(ft.cycles));
        std::fflush(stdout);
    }
    return 0;
}

int
main()
{
    return guardMain(runDriver);
}
