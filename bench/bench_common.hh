/**
 * @file
 * Shared bench plumbing: environment-variable knobs and run helpers.
 *
 *  TT_SCALE   divide problem sizes by this factor (default 4; set 1
 *             for the paper's full Table 3 sizes)
 *  TT_NODES   target machine size (default 32, the paper's)
 *  TT_APPS    comma list filtering which apps run (fig3)
 *  TT_ITERS   override application iteration count (0 = default)
 */

#ifndef TT_BENCH_COMMON_HH
#define TT_BENCH_COMMON_HH

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "apps/workloads.hh"
#include "config/builders.hh"
#include "sim/parse_num.hh"

namespace tt::bench
{

/** Integer knob @p name, or @p def when unset; must parse whole. */
inline int
envInt(const char* name, int def)
{
    const char* v = std::getenv(name);
    return v ? parseNum(name, v, std::numeric_limits<int>::min(),
                        std::numeric_limits<int>::max())
             : def;
}

/**
 * Run a driver's body, mapping a user error (tt_fatal, which has
 * already printed its message: a malformed TT_* knob, a zero scale,
 * an unbuildable machine) to exit 2 as ttsim does, not to an abort.
 */
template <typename F>
int
guardMain(F body)
{
    try {
        return body();
    } catch (const FatalError&) {
        return 2;
    }
}

inline std::vector<std::string>
envList(const char* name, std::vector<std::string> def)
{
    const char* v = std::getenv(name);
    if (!v)
        return def;
    std::vector<std::string> out;
    std::string cur;
    for (const char* p = v;; ++p) {
        if (*p == ',' || *p == '\0') {
            if (!cur.empty())
                out.push_back(cur);
            cur.clear();
            if (*p == '\0')
                break;
        } else {
            cur += *p;
        }
    }
    return out;
}

struct RunOutcome
{
    Tick cycles = 0;
    double checksum = 0;
    std::uint64_t workUnits = 0;
};

/**
 * Run @p app on @p target through runTarget; returns cycles +
 * checksum. A run that does not end ok is a tt_panic that names the
 * outcome and its detail.
 */
inline RunOutcome
runApp(TargetMachine& target, BenchApp& app)
{
    const TargetRun run = runTarget(target, app);
    if (run.outcome != "ok")
        tt_panic(app.name(), " run ended ", run.outcome, ": ",
                 run.detail);
    return RunOutcome{run.result.execTime, run.checksum,
                      app.workUnits()};
}

/**
 * Build @p system from @p cfg and run @p app on it, both through the
 * case factory (buildTarget, makeTargetApp); EM3D gets @p remoteFrac
 * remote edges.
 */
inline RunOutcome
runCase(const std::string& system, const std::string& app, DataSet ds,
        int scale, const MachineConfig& cfg, double remoteFrac = 0.2)
{
    TargetMachine t = buildTarget(system, cfg);
    const auto a = makeTargetApp(system, app, ds, scale, remoteFrac, t);
    return runApp(t, *a);
}

} // namespace tt::bench

#endif // TT_BENCH_COMMON_HH
