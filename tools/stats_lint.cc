/**
 * @file
 * stats_lint — schema validator for ttsim's machine-readable JSON:
 * the --stats-json dump and the --telemetry report.
 *
 *   stats_lint [--stats] stats.json [...]
 *   stats_lint --telemetry telem.json [...]
 *
 * A mode flag applies to every following file; the default is
 * --stats. Checks, per --stats file:
 *   - top level is an object with "counters", "averages", and
 *     "histograms" objects (all three present, even when empty);
 *   - every counter is a non-negative integer;
 *   - every average has mean/count/min/max/variance/stddev, each a
 *     finite number or null (the exporter writes null for
 *     non-finite values, e.g. a NaN-poisoned mean); count is a
 *     non-negative integer;
 *   - every histogram has width > 0, a non-empty "buckets" array of
 *     non-negative integers, non-negative underflow/overflow
 *     integers, and a "summary" shaped like an average whose count
 *     never exceeds buckets+underflow+overflow (non-finite samples
 *     count as underflow but stay out of the summary).
 *
 * Per --telemetry file:
 *   - "nodes" is a positive integer; "mem" and "host" objects exist;
 *   - mem.samples/total_peak_bytes are non-negative integers,
 *     mem.subsystems maps names to {final_bytes, peak_bytes} with
 *     peak >= final, and total_peak_bytes >= every subsystem peak
 *     (the total is the peak of the sum);
 *   - host has wall_ms/sample_every/events/timed_events/
 *     attributed_pct and a categories_ms object holding exactly
 *     dispatch/handler/net/checker/transport/engine, every value a
 *     non-negative number or null; attributed_pct <= 100.5 (the
 *     extrapolation is clamped to the measured wall time).
 *
 * Exit status: 0 = all files clean, 1 = lint errors, 2 = usage/IO.
 */

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "json_mini.hh"

using jmini::JsonParser;
using jmini::JsonValue;

namespace
{

struct Lint
{
    const char* file;
    int errors = 0;

    void fail(const std::string& where, const std::string& msg)
    {
        std::fprintf(stderr, "%s: %s: %s\n", file, where.c_str(),
                     msg.c_str());
        ++errors;
    }
};

bool
isCount(const JsonValue& v)
{
    return v.isNumber() && v.number >= 0 &&
           v.number == std::floor(v.number);
}

/** Non-negative number, or the exporter's null-for-non-finite. */
bool
isStatNum(const JsonValue* v)
{
    return v && (v->kind == JsonValue::Kind::Null ||
                 (v->isNumber() && std::isfinite(v->number)));
}

void
lintSummary(Lint& lint, const std::string& where, const JsonValue& s)
{
    if (!s.isObject()) {
        lint.fail(where, "summary is not an object");
        return;
    }
    for (const char* key :
         {"mean", "count", "min", "max", "variance", "stddev"}) {
        const JsonValue* v = s.find(key);
        if (!v) {
            lint.fail(where, std::string("missing \"") + key + "\"");
            continue;
        }
        if (!isStatNum(v))
            lint.fail(where, std::string("\"") + key +
                                 "\" is not a finite number or null");
    }
    const JsonValue* count = s.find("count");
    if (count && count->isNumber() && !isCount(*count))
        lint.fail(where, "count is not a non-negative integer");
}

int
lintStats(const char* path, const JsonValue& root)
{
    Lint lint{path};
    if (!root.isObject()) {
        lint.fail("top", "not an object");
        return 1;
    }
    for (const char* section : {"counters", "averages", "histograms"}) {
        if (!root.find(section) || !root.find(section)->isObject())
            lint.fail("top", std::string("missing \"") + section +
                                 "\" object");
    }
    if (lint.errors)
        return 1;

    for (const auto& [name, v] : root.find("counters")->fields) {
        if (!isCount(v))
            lint.fail("counter " + name,
                      "not a non-negative integer");
    }
    for (const auto& [name, v] : root.find("averages")->fields)
        lintSummary(lint, "average " + name, v);
    for (const auto& [name, h] : root.find("histograms")->fields) {
        const std::string where = "histogram " + name;
        if (!h.isObject()) {
            lint.fail(where, "not an object");
            continue;
        }
        const JsonValue* width = h.find("width");
        if (!width || !width->isNumber() || width->number <= 0)
            lint.fail(where, "width is not a positive number");
        const JsonValue* buckets = h.find("buckets");
        double inBuckets = 0;
        if (!buckets || !buckets->isArray() || buckets->items.empty()) {
            lint.fail(where, "missing non-empty \"buckets\" array");
        } else {
            for (const JsonValue& b : buckets->items) {
                if (!isCount(b)) {
                    lint.fail(where,
                              "bucket is not a non-negative integer");
                    break;
                }
                inBuckets += b.number;
            }
        }
        double under = 0, over = 0;
        for (const char* key : {"underflow", "overflow"}) {
            const JsonValue* v = h.find(key);
            if (!v || !isCount(*v))
                lint.fail(where, std::string("\"") + key +
                                     "\" is not a non-negative "
                                     "integer");
            else
                (std::strcmp(key, "underflow") == 0 ? under : over) =
                    v->number;
        }
        const JsonValue* summary = h.find("summary");
        if (!summary) {
            lint.fail(where, "missing \"summary\"");
            continue;
        }
        lintSummary(lint, where + " summary", *summary);
        // Non-finite samples land in underflow but stay out of the
        // summary, so the summary can only undershoot the bucket sum.
        const JsonValue* count = summary->find("count");
        if (count && count->isNumber() &&
            count->number > inBuckets + under + over)
            lint.fail(where, "summary count exceeds "
                             "buckets + underflow + overflow");
    }

    if (lint.errors) {
        std::fprintf(stderr, "%s: %d lint error(s)\n", path,
                     lint.errors);
        return 1;
    }
    std::printf("%s: ok (%zu counters, %zu averages, %zu "
                "histograms)\n",
                path, root.find("counters")->fields.size(),
                root.find("averages")->fields.size(),
                root.find("histograms")->fields.size());
    return 0;
}

int
lintTelemetry(const char* path, const JsonValue& root)
{
    Lint lint{path};
    if (!root.isObject()) {
        lint.fail("top", "not an object");
        return 1;
    }
    const JsonValue* nodes = root.find("nodes");
    if (!nodes || !isCount(*nodes) || nodes->number < 1)
        lint.fail("top", "\"nodes\" is not a positive integer");

    const JsonValue* mem = root.find("mem");
    if (!mem || !mem->isObject()) {
        lint.fail("top", "missing \"mem\" object");
    } else {
        for (const char* key : {"samples", "total_peak_bytes"}) {
            const JsonValue* v = mem->find(key);
            if (!v || !isCount(*v))
                lint.fail("mem", std::string("\"") + key +
                                     "\" is not a non-negative "
                                     "integer");
        }
        if (!isStatNum(mem->find("peak_bytes_per_node")))
            lint.fail("mem", "\"peak_bytes_per_node\" is not a "
                             "finite number or null");
        const JsonValue* subs = mem->find("subsystems");
        const JsonValue* total = mem->find("total_peak_bytes");
        if (!subs || !subs->isObject()) {
            lint.fail("mem", "missing \"subsystems\" object");
        } else {
            for (const auto& [name, s] : subs->fields) {
                const std::string where = "mem.subsystems." + name;
                const JsonValue* fin =
                    s.isObject() ? s.find("final_bytes") : nullptr;
                const JsonValue* peak =
                    s.isObject() ? s.find("peak_bytes") : nullptr;
                if (!fin || !peak || !isCount(*fin) || !isCount(*peak)) {
                    lint.fail(where, "needs integer final_bytes and "
                                     "peak_bytes");
                    continue;
                }
                if (peak->number < fin->number)
                    lint.fail(where, "peak_bytes < final_bytes");
                // total(t) >= cur_i(t) at every sample, so the peak
                // of the total dominates every subsystem peak.
                if (total && total->isNumber() &&
                    peak->number > total->number)
                    lint.fail(where,
                              "peak_bytes exceeds total_peak_bytes");
            }
        }
    }

    const JsonValue* host = root.find("host");
    if (!host || !host->isObject()) {
        lint.fail("top", "missing \"host\" object");
    } else {
        for (const char* key :
             {"wall_ms", "sample_every", "events", "timed_events",
              "attributed_pct"}) {
            if (!isStatNum(host->find(key)))
                lint.fail("host", std::string("\"") + key +
                                      "\" is not a finite number or "
                                      "null");
        }
        const JsonValue* pct = host->find("attributed_pct");
        if (pct && pct->isNumber() &&
            (pct->number < 0 || pct->number > 100.5))
            lint.fail("host", "attributed_pct outside [0, 100]");
        const JsonValue* cats = host->find("categories_ms");
        if (!cats || !cats->isObject()) {
            lint.fail("host", "missing \"categories_ms\" object");
        } else {
            for (const char* key : {"dispatch", "handler", "net",
                                    "checker", "transport", "engine"}) {
                const JsonValue* v = cats->find(key);
                if (!isStatNum(v) ||
                    (v->isNumber() && v->number < 0))
                    lint.fail("host.categories_ms",
                              std::string("\"") + key +
                                  "\" is not a non-negative number "
                                  "or null");
            }
        }
    }

    if (lint.errors) {
        std::fprintf(stderr, "%s: %d lint error(s)\n", path,
                     lint.errors);
        return 1;
    }
    std::printf("%s: ok (telemetry)\n", path);
    return 0;
}

int
lintFile(const char* path, bool telemetry)
{
    std::ifstream f(path);
    if (!f) {
        std::fprintf(stderr, "stats_lint: cannot open %s\n", path);
        return 2;
    }
    std::ostringstream buf;
    buf << f.rdbuf();
    const std::string text = buf.str();

    JsonValue root;
    std::string err;
    if (!JsonParser(text).parse(root, err)) {
        std::fprintf(stderr, "%s: JSON parse error: %s\n", path,
                     err.c_str());
        return 1;
    }
    return telemetry ? lintTelemetry(path, root)
                     : lintStats(path, root);
}

} // namespace

int
main(int argc, char** argv)
{
    if (argc < 2) {
        std::fprintf(stderr,
                     "usage: stats_lint [--stats|--telemetry] "
                     "FILE.json [...]\n");
        return 2;
    }
    bool telemetry = false;
    bool any = false;
    int worst = 0;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--stats") == 0) {
            telemetry = false;
            continue;
        }
        if (std::strcmp(argv[i], "--telemetry") == 0) {
            telemetry = true;
            continue;
        }
        any = true;
        const int rc = lintFile(argv[i], telemetry);
        if (rc > worst)
            worst = rc;
    }
    if (!any) {
        std::fprintf(stderr, "stats_lint: no input files\n");
        return 2;
    }
    return worst;
}
