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
 *   - top level is an object whose only member is a "counters"
 *     object (present even when empty);
 *   - every counter is a non-negative integer.
 *
 * Per --telemetry file (memory accounting only, so every value is
 * deterministic):
 *   - top level is an object holding exactly "nodes" and "mem"; any
 *     other key fails, including the host-time "host" section that
 *     telemetry no longer writes;
 *   - "nodes" is a positive integer;
 *   - mem.samples/total_peak_bytes are non-negative integers,
 *     mem.subsystems maps names to {final_bytes, peak_bytes} with
 *     peak >= final, and total_peak_bytes >= every subsystem peak
 *     (the total is the peak of the sum).
 *
 * Exit status: 0 = all files clean, 1 = lint errors, 2 = usage/IO.
 */

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>

#include "json_mini.hh"

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

int
lintStats(const char* path, const JsonValue& root)
{
    Lint lint{path};
    const JsonValue* counters = root.isObject() ? root.find("counters")
                                                : nullptr;
    if (!counters || !counters->isObject() || root.fields.size() != 1) {
        lint.fail("top", "not an object holding exactly one "
                         "\"counters\" object");
        return 1;
    }
    for (const auto& [name, v] : counters->fields) {
        if (!isCount(v))
            lint.fail("counter " + name,
                      "not a non-negative integer");
    }

    if (lint.errors) {
        std::fprintf(stderr, "%s: %d lint error(s)\n", path,
                     lint.errors);
        return 1;
    }
    std::printf("%s: ok (%zu counters)\n", path,
                counters->fields.size());
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
    for (const auto& field : root.fields) {
        if (field.first != "nodes" && field.first != "mem")
            lint.fail("top", "unexpected key \"" + field.first +
                                 "\" (the schema is exactly "
                                 "{nodes, mem})");
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
    JsonValue root;
    if (const int rc = jmini::readJsonFile("stats_lint", path, root))
        return rc;
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
