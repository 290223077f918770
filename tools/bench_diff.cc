/**
 * @file
 * bench_diff — the perf-regression gate: compares a fresh
 * bench_simcore report against the committed baseline and fails on
 * throughput or memory-footprint regressions.
 *
 *   bench_diff BASELINE.json FRESH.json [--tol-evsec=F] [--tol-mem=F]
 *
 * Comparison rules:
 *   - the two reports must describe the same experiment (equal
 *     "nodes" and "scale"), otherwise the comparison is refused
 *     (exit 2) instead of producing a meaningless verdict;
 *   - overall events_per_sec must not drop by more than --tol-evsec
 *     (default 0.30 — wall-clock throughput on a shared host is
 *     noisy, so the gate only catches real cliffs; see DESIGN.md
 *     §16 for the tolerance rationale);
 *   - per-case events/sec, matched by (system, app, dataset), must
 *     not drop by more than the same tolerance; a
 *     case present only in the baseline is a failure (coverage
 *     lost), one only in the fresh run is reported informationally;
 *   - per-case simulated cycles and events are deterministic for a
 *     fixed configuration: a mismatch is reported as a warning (the
 *     simulation changed — fine if intended, but never silent);
 *   - mem_footprint entries, matched by (system, nodes), must not
 *     grow total_peak_bytes by more than --tol-mem (default 0.10 —
 *     the probes are deterministic, so the budget is tight);
 *     missing entries follow the per-case presence rules.
 *
 * Exit status: 0 = within tolerance, 1 = regression, 2 = usage/IO/
 * incomparable inputs.
 */

#include <cmath>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "json_mini.hh"

using jmini::JsonValue;

namespace
{

double
numOr(const JsonValue* obj, const char* key, double fallback)
{
    const JsonValue* v = obj ? obj->find(key) : nullptr;
    return v && v->isNumber() ? v->number : fallback;
}

std::string
strOr(const JsonValue& obj, const char* key)
{
    const JsonValue* v = obj.find(key);
    return v && v->isString() ? v->str : std::string();
}

/** (system, app, dataset) identity of one bench case. */
std::string
caseKey(const JsonValue& c)
{
    return strOr(c, "system") + '/' + strOr(c, "app") + '/' +
           strOr(c, "dataset");
}

double
caseEvSec(const JsonValue& c)
{
    const double wall = numOr(&c, "wall_ms", 0);
    return wall > 0 ? numOr(&c, "events", 0) / (wall / 1000.0) : 0;
}

bool
load(const char* path, JsonValue& out)
{
    if (jmini::readJsonFile("bench_diff", path, out))
        return false;
    if (!out.isObject()) {
        std::fprintf(stderr, "%s: top level is not an object\n", path);
        return false;
    }
    return true;
}

} // namespace

int
main(int argc, char** argv)
{
    const char* basePath = nullptr;
    const char* freshPath = nullptr;
    double tolEvsec = 0.30;
    double tolMem = 0.10;

    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--tol-evsec=", 12) == 0) {
            tolEvsec = std::atof(argv[i] + 12);
        } else if (std::strncmp(argv[i], "--tol-mem=", 10) == 0) {
            tolMem = std::atof(argv[i] + 10);
        } else if (!basePath) {
            basePath = argv[i];
        } else if (!freshPath) {
            freshPath = argv[i];
        } else {
            std::fprintf(stderr, "bench_diff: unexpected argument %s\n",
                         argv[i]);
            return 2;
        }
    }
    if (!basePath || !freshPath || tolEvsec <= 0 || tolMem <= 0) {
        std::fprintf(stderr,
                     "usage: bench_diff BASELINE.json FRESH.json "
                     "[--tol-evsec=F] [--tol-mem=F]\n");
        return 2;
    }

    JsonValue base, fresh;
    if (!load(basePath, base) || !load(freshPath, fresh))
        return 2;

    if (numOr(&base, "nodes", -1) != numOr(&fresh, "nodes", -2) ||
        numOr(&base, "scale", -1) != numOr(&fresh, "scale", -2)) {
        std::fprintf(stderr,
                     "bench_diff: reports are not comparable "
                     "(nodes %g/%g, scale %g/%g)\n",
                     numOr(&base, "nodes", 0), numOr(&fresh, "nodes", 0),
                     numOr(&base, "scale", 0),
                     numOr(&fresh, "scale", 0));
        return 2;
    }

    int regressions = 0;
    int warnings = 0;

    // Overall throughput.
    const double baseEv = numOr(&base, "events_per_sec", 0);
    const double freshEv = numOr(&fresh, "events_per_sec", 0);
    if (baseEv > 0) {
        const double ratio = freshEv / baseEv;
        std::printf("events_per_sec: %.0f -> %.0f (%.2fx, tolerance "
                    "-%.0f%%)\n",
                    baseEv, freshEv, ratio, tolEvsec * 100);
        if (ratio < 1.0 - tolEvsec) {
            std::fprintf(stderr,
                         "REGRESSION: overall events/sec dropped "
                         "%.0f%% (tolerance %.0f%%)\n",
                         (1.0 - ratio) * 100, tolEvsec * 100);
            ++regressions;
        }
    }

    // Per-case throughput + determinism cross-check.
    const JsonValue* baseCases = base.find("cases");
    const JsonValue* freshCases = fresh.find("cases");
    if (baseCases && baseCases->isArray() && freshCases &&
        freshCases->isArray()) {
        for (const JsonValue& bc : baseCases->items) {
            const std::string key = caseKey(bc);
            const JsonValue* fc = nullptr;
            for (const JsonValue& c : freshCases->items)
                if (caseKey(c) == key) {
                    fc = &c;
                    break;
                }
            if (!fc) {
                std::fprintf(stderr,
                             "REGRESSION: case %s missing from the "
                             "fresh report\n",
                             key.c_str());
                ++regressions;
                continue;
            }
            const double be = caseEvSec(bc), fe = caseEvSec(*fc);
            if (be > 0 && fe / be < 1.0 - tolEvsec) {
                std::fprintf(stderr,
                             "REGRESSION: %s events/sec dropped "
                             "%.0f%% (%.0f -> %.0f)\n",
                             key.c_str(), (1.0 - fe / be) * 100, be,
                             fe);
                ++regressions;
            }
            if (numOr(&bc, "cycles", -1) != numOr(fc, "cycles", -2) ||
                numOr(&bc, "events", -1) != numOr(fc, "events", -2)) {
                std::fprintf(stderr,
                             "warning: %s simulated "
                             "cycles/events changed — the "
                             "simulation itself differs\n",
                             key.c_str());
                ++warnings;
            }
        }
        for (const JsonValue& c : freshCases->items) {
            const std::string key = caseKey(c);
            bool found = false;
            for (const JsonValue& bc : baseCases->items)
                if (caseKey(bc) == key)
                    found = true;
            if (!found)
                std::printf("note: new case %s (no baseline)\n",
                            key.c_str());
        }
    }

    // Memory footprint, matched by (system, nodes). The probes are
    // deterministic for a fixed configuration, so the budget is much
    // tighter than the wall-clock one.
    const JsonValue* baseMem = base.find("mem_footprint");
    const JsonValue* freshMem = fresh.find("mem_footprint");
    const JsonValue* baseEntries =
        baseMem ? baseMem->find("entries") : nullptr;
    const JsonValue* freshEntries =
        freshMem ? freshMem->find("entries") : nullptr;
    if (baseEntries && baseEntries->isArray()) {
        for (const JsonValue& be : baseEntries->items) {
            std::ostringstream os;
            os << strOr(be, "system") << "/n"
               << static_cast<long long>(numOr(&be, "nodes", 0));
            const std::string key = os.str();
            const JsonValue* fe = nullptr;
            if (freshEntries && freshEntries->isArray())
                for (const JsonValue& e : freshEntries->items)
                    if (strOr(e, "system") == strOr(be, "system") &&
                        numOr(&e, "nodes", -1) ==
                            numOr(&be, "nodes", -2)) {
                        fe = &e;
                        break;
                    }
            if (!fe) {
                std::fprintf(stderr,
                             "REGRESSION: mem_footprint entry %s "
                             "missing from the fresh report\n",
                             key.c_str());
                ++regressions;
                continue;
            }
            const double bb = numOr(&be, "total_peak_bytes", 0);
            const double fb = numOr(fe, "total_peak_bytes", 0);
            if (bb > 0 && fb / bb > 1.0 + tolMem) {
                std::fprintf(stderr,
                             "REGRESSION: %s total_peak_bytes grew "
                             "%.0f%% (%.0f -> %.0f, tolerance "
                             "+%.0f%%)\n",
                             key.c_str(), (fb / bb - 1.0) * 100, bb,
                             fb, tolMem * 100);
                ++regressions;
            }
        }
    }

    if (regressions) {
        std::fprintf(stderr, "bench_diff: %d regression(s)\n",
                     regressions);
        return 1;
    }
    std::printf("bench_diff: ok (%d warning(s))\n", warnings);
    return 0;
}
