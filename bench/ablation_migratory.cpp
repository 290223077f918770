/**
 * @file
 * Extension bench: the migratory-sharing custom protocol (a second
 * user-level protocol beside the paper's EM3D update protocol,
 * supporting the same thesis). MP3D's locked read-modify-write cell
 * updates are the textbook migratory pattern: classification +
 * read-promotion eliminates most upgrade round trips.
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
    std::printf("Migratory protocol vs plain Stache vs DirNNB "
                "(nodes=%d scale=1/%d)\n\n",
                nodes, scale);
    std::printf("%-8s %-7s %12s %12s %12s %10s %10s\n", "app", "set",
                "DirNNB", "Stache", "Migratory", "mig/dir",
                "mig/stache");

    for (const char* app : {"mp3d", "ocean", "em3d"}) {
        for (DataSet ds : {DataSet::Small}) {
            MachineConfig cfg;
            cfg.core.nodes = nodes;
            const RunOutcome dir = runCase("dirnnb", app, ds, scale, cfg);
            const RunOutcome stache =
                runCase("stache", app, ds, scale, cfg);
            RunOutcome mig;
            std::uint64_t promos = 0;
            {
                TargetMachine t = buildTarget("migratory", cfg);
                const auto a =
                    makeTargetApp("migratory", app, ds, scale, 0.2, t);
                mig = runApp(t, *a);
                promos = t.migratory->promotions();
            }
            if (dir.checksum != stache.checksum ||
                dir.checksum != mig.checksum) {
                std::printf("CHECKSUM MISMATCH for %s\n", app);
                return 1;
            }
            std::printf("%-8s %-7s %12llu %12llu %12llu %10.3f "
                        "%10.3f   (%llu promotions)\n",
                        app, dataSetName(ds),
                        (unsigned long long)dir.cycles,
                        (unsigned long long)stache.cycles,
                        (unsigned long long)mig.cycles,
                        double(mig.cycles) / double(dir.cycles),
                        double(mig.cycles) / double(stache.cycles),
                        (unsigned long long)promos);
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
