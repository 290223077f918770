/**
 * @file
 * Figure 3: execution time of Typhoon/Stache relative to DirNNB for
 * the five applications, across {small data set x 4K/16K/64K/256K CPU
 * cache} and {large data set x 256K cache} — plus the custom-protocol
 * EM3D bar the paper overlays. Bars below 1.0 mean Typhoon/Stache is
 * faster. Checksums are cross-verified between the targets on every
 * cell.
 *
 * Environment: TT_SCALE (default 8; 1 = full Table 3 sizes),
 * TT_NODES (default 32), TT_APPS (comma list).
 */

#include <cstdio>

#include "bench/bench_common.hh"

using namespace tt;
using namespace tt::bench;

namespace
{

struct Cell
{
    DataSet ds;
    std::uint64_t cache;
    const char* label;
};

const Cell kCells[] = {
    {DataSet::Small, 4 * 1024, "small/4K"},
    {DataSet::Small, 16 * 1024, "small/16K"},
    {DataSet::Small, 64 * 1024, "small/64K"},
    {DataSet::Small, 256 * 1024, "small/256K"},
    {DataSet::Large, 256 * 1024, "large/256K"},
};

} // namespace

static int
runDriver()
{
    const int scale = envInt("TT_SCALE", 8);
    const int nodes = envInt("TT_NODES", 32);
    const auto apps = envList(
        "TT_APPS", {"appbt", "barnes", "mp3d", "ocean", "em3d"});

    std::printf("Figure 3: Typhoon/Stache execution time relative to "
                "DirNNB (lower is better for Typhoon)\n");
    std::printf("nodes=%d scale=1/%d (TT_SCALE=1 for paper sizes)\n\n",
                nodes, scale);
    std::printf("%-8s %-11s %14s %14s %9s\n", "app", "config",
                "DirNNB cycles", "Stache cycles", "relative");

    for (const auto& appName : apps) {
        for (const Cell& cell : kCells) {
            MachineConfig cfg;
            cfg.core.nodes = nodes;
            cfg.core.cacheSize = cell.cache;

            const RunOutcome dir =
                runCase("dirnnb", appName, cell.ds, scale, cfg);
            const RunOutcome stache =
                runCase("stache", appName, cell.ds, scale, cfg);
            if (dir.checksum != stache.checksum) {
                std::printf("CHECKSUM MISMATCH for %s %s: %.17g vs "
                            "%.17g\n",
                            appName.c_str(), cell.label, dir.checksum,
                            stache.checksum);
                return 1;
            }
            std::printf("%-8s %-11s %14llu %14llu %9.3f\n",
                        appName.c_str(), cell.label,
                        static_cast<unsigned long long>(dir.cycles),
                        static_cast<unsigned long long>(stache.cycles),
                        static_cast<double>(stache.cycles) /
                            static_cast<double>(dir.cycles));
            std::fflush(stdout);
        }
    }

    // The EM3D custom-protocol bars (the paper overlays them on
    // Figure 3 for the em3d columns).
    bool wantEm3d = false;
    for (const auto& a : apps)
        wantEm3d |= a == "em3d";
    if (wantEm3d) {
        std::printf("\nEM3D with the custom update protocol "
                    "(Typhoon/Update vs DirNNB):\n");
        for (const Cell& cell : kCells) {
            MachineConfig cfg;
            cfg.core.nodes = nodes;
            cfg.core.cacheSize = cell.cache;

            const RunOutcome dir =
                runCase("dirnnb", "em3d", cell.ds, scale, cfg);
            const RunOutcome upd =
                runCase("update", "em3d", cell.ds, scale, cfg);
            if (dir.checksum != upd.checksum) {
                std::printf("CHECKSUM MISMATCH (update) %s\n",
                            cell.label);
                return 1;
            }
            std::printf("%-8s %-11s %14llu %14llu %9.3f\n",
                        "em3d-upd", cell.label,
                        static_cast<unsigned long long>(dir.cycles),
                        static_cast<unsigned long long>(upd.cycles),
                        static_cast<double>(upd.cycles) /
                            static_cast<double>(dir.cycles));
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
