/**
 * @file
 * Measuring program behind perfbench/run.py. Runs one workload's
 * simulations through the harness's timed path and writes every
 * repetition's raw measurements as one JSON document on stdout; the
 * Python front end takes medians, checks results and reports.
 *
 *   ttbench measure   --workload=W --seed=N --seconds=S --trace=0|1
 *                     [--spans=FILE]
 *   ttbench reference --workload=W --seed=N
 *
 * measure repeats the workload instance until S seconds have passed
 * (at least kMinReps times per repetition kind), adding set-up-only
 * passes after each untraced repetition, and reports run_s_fastest:
 * the untraced repetitions' run_s taken slice by slice at its
 * fastest. With --trace=1 it alternates
 * untraced ("plain") and traced repetitions, adds the campaign's
 * checker-off and observers-off toggle passes, and ends with one
 * repetition carrying the --telemetry memory probes.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "harness.hh"
#include "sim/logging.hh"

#ifndef TTBENCH_BUILD_TYPE
#define TTBENCH_BUILD_TYPE "unknown"
#endif

namespace
{

using namespace ttbench;

#if defined(__clang__)
constexpr const char* kCompiler = "clang " __clang_version__;
#else
constexpr const char* kCompiler = "gcc " __VERSION__;
#endif

constexpr int kMinReps = 3;
constexpr int kSetupPasses = 4; ///< set-up-only passes per repetition

struct Args
{
    std::string mode;
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10;
    bool trace = false;
    std::string spansFile;
};

[[noreturn]] void
usage(const std::string& why)
{
    std::fprintf(stderr, "ttbench: %s\n", why.c_str());
    std::exit(2);
}

Args
parseArgs(int argc, char** argv)
{
    Args a;
    if (argc < 2)
        usage("missing mode (measure|reference)");
    a.mode = argv[1];
    if (a.mode != "measure" && a.mode != "reference")
        usage("unknown mode '" + a.mode + "'");
    bool haveSeed = false;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        const std::size_t eq = arg.find('=');
        if (arg.rfind("--", 0) != 0 || eq == std::string::npos)
            usage("bad argument '" + arg + "' (want --key=value)");
        const std::string key = arg.substr(2, eq - 2);
        const std::string v = arg.substr(eq + 1);
        char* end = nullptr;
        if (key == "workload") {
            a.workload = v;
        } else if (key == "seed") {
            a.seed = std::strtoull(v.c_str(), &end, 10);
            haveSeed = !v.empty() && *end == '\0';
            if (!haveSeed)
                usage("--seed wants an unsigned integer");
        } else if (key == "seconds") {
            a.seconds = std::strtod(v.c_str(), &end);
        } else if (key == "trace") {
            a.trace = v == "1";
        } else if (key == "spans") {
            a.spansFile = v;
        } else {
            usage("unknown flag --" + key);
        }
    }
    if (a.workload.empty() || !haveSeed)
        usage("--workload and --seed are required");
    if (!(a.seconds > 0))
        usage("--seconds must be positive");
    return a;
}

/** Peak resident set of this process so far, in KiB. */
long
maxRssKb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_maxrss;
}

/** One repetition of the workload instance. */
struct Rep
{
    std::string kind;
    std::vector<SimResult> sims;
    std::size_t firstSpan = 0; ///< this rep's spans in the SpanLog:
    std::size_t endSpan = 0;   ///< [firstSpan, endSpan)
};

Rep
runInstance(const std::vector<SimSpec>& sims, const std::string& kind,
            SpanLog* log)
{
    Rep rep;
    rep.kind = kind;
    rep.firstSpan = log ? log->spans().size() : 0;
    RunOptions opt;
    opt.spans = kind == "traced" ? log : nullptr;
    opt.telemetry = kind == "telemetry";
    for (std::size_t i = 0; i < sims.size(); ++i) {
        opt.simId = static_cast<int>(i);
        rep.sims.push_back(runSimulation(sims[i], opt));
    }
    rep.endSpan = log ? log->spans().size() : 0;
    return rep;
}

/** @p s as a JSON string literal (exception texts may hold quotes). */
std::string
jsonString(const std::string& s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char esc[8];
            std::snprintf(esc, sizeof esc, "\\u%04x",
                          static_cast<unsigned>(c));
            out += esc;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

void
writeHex(std::ostream& os, double v)
{
    std::uint64_t bits = 0;
    static_assert(sizeof bits == sizeof v);
    std::memcpy(&bits, &v, sizeof v);
    char buf[24];
    std::snprintf(buf, sizeof buf, "\"%016llx\"",
                  static_cast<unsigned long long>(bits));
    os << buf;
}

void
writeResults(std::ostream& os, const std::vector<SimResult>& sims)
{
    os << "[";
    for (std::size_t i = 0; i < sims.size(); ++i) {
        const SimResult& r = sims[i];
        os << (i ? ", " : "") << "{\"outcome\": \"" << r.outcome
           << "\", \"cycles\": " << r.cycles << ", \"checksum\": ";
        writeHex(os, r.checksum);
        char num[40];
        std::snprintf(num, sizeof num, "%.17g", r.checksum);
        os << ", \"checksum_value\": " << num;
        if (!r.detail.empty())
            os << ", \"detail\": " << jsonString(r.detail);
        os << "}";
    }
    os << "]";
}

/** Per-layer sums over one traced repetition. */
void
writeLayers(std::ostream& os, const Rep& rep, const SpanLog& log)
{
    std::map<std::string, double> secs;
    double coreRunSelf = 0;
    const auto& spans = log.spans();
    for (std::size_t i = rep.firstSpan; i < rep.endSpan; ++i) {
        const SpanLog::Span& s = spans[i];
        secs[s.name] += s.end - s.start;
        if (std::string(s.name) == "core.run")
            coreRunSelf += log.selfTime(static_cast<int>(i));
    }
    double accessS = 0, accessVar = 0, calls = 0, inl = 0, events = 0;
    std::map<std::string, double> counts;
    for (const SimResult& r : rep.sims) {
        accessS += r.access.seconds();
        accessVar += r.access.stdErr() * r.access.stdErr();
        calls += static_cast<double>(r.access.calls);
        inl += static_cast<double>(r.access.inlineDone);
        events += static_cast<double>(r.events);
        for (const auto& [k, v] : r.counts)
            counts[k] += v;
    }
    char buf[64];
    auto num = [&](double v) {
        std::snprintf(buf, sizeof buf, "%.9g", v);
        return std::string(buf);
    };
    os << "{\"config.build_s\": " << num(secs["config.build"])
       << ", \"config.teardown_s\": " << num(secs["config.teardown"])
       << ", \"apps.setup_s\": " << num(secs["apps.setup"])
       << ", \"apps.finish_s\": " << num(secs["apps.finish"])
       << ", \"core.run_s\": " << num(coreRunSelf)
       << ", \"check.finalize_s\": " << num(secs["check.finalize"])
       << ", \"obs.fold_s\": " << num(secs["obs.fold"])
       << ", \"memsys.access_s\": " << num(accessS)
       << ", \"memsys.access_s_err\": " << num(std::sqrt(accessVar))
       << ", \"memsys.access_calls\": " << num(calls)
       << ", \"memsys.inline_calls\": " << num(inl)
       << ", \"core.events\": " << num(events) << ", \"counts\": {";
    const char* sep = "";
    for (const auto& [k, v] : counts) {
        os << sep << "\"" << k << "\": " << num(v);
        sep = ", ";
    }
    os << "}}";
}

/**
 * run_s of the instance from the fastest repetition of every slice.
 * Slice j of simulation k is the same simulated work in every plain
 * repetition, so its minimum over them is its time with the least
 * host interference. @return -1 if the repetitions split a
 * simulation into different numbers of slices.
 */
double
fastestRunS(const std::vector<Rep>& reps, std::size_t& slices)
{
    std::vector<std::vector<double>> best;
    for (const Rep& r : reps) {
        if (r.kind != "plain")
            continue;
        if (best.empty()) {
            for (const SimResult& s : r.sims)
                best.push_back(s.slices);
            continue;
        }
        for (std::size_t k = 0; k < r.sims.size(); ++k) {
            const std::vector<double>& sl = r.sims[k].slices;
            if (sl.size() != best[k].size())
                return -1;
            for (std::size_t j = 0; j < sl.size(); ++j)
                best[k][j] = std::min(best[k][j], sl[j]);
        }
    }
    double sum = 0;
    slices = 0;
    for (const std::vector<double>& b : best) {
        slices += b.size();
        for (const double v : b)
            sum += v;
    }
    return sum;
}

void
writeMeasure(std::ostream& os, const Args& a,
             const std::vector<SimSpec>& sims,
             const std::vector<Rep>& reps,
             const std::vector<double>& setupPasses, long peakRssKb,
             const SpanLog& log, double wallS)
{
    os.precision(12);
    os << "{\"workload\": \"" << a.workload << "\", \"seed\": " << a.seed
       << ", \"trace\": " << (a.trace ? 1 : 0)
       << ", \"seconds\": " << a.seconds
       << ", \"build_type\": \"" << TTBENCH_BUILD_TYPE
       << "\", \"compiler\": \"" << kCompiler << "\""
       << ", \"wall_s\": " << wallS;
    std::size_t slices = 0;
    const double fastest = fastestRunS(reps, slices);
    os << ", \"run_s_fastest\": " << fastest << ", \"slices\": " << slices;
    os << ",\n \"sims\": [";
    for (std::size_t i = 0; i < sims.size(); ++i) {
        const SimSpec& s = sims[i];
        os << (i ? ", " : "") << "{\"system\": \"" << s.system
           << "\", \"app\": \"" << s.app << "\", \"dataset\": \""
           << tt::dataSetName(s.dataset) << "\", \"scale\": " << s.scale
           << ", \"app_seed\": " << s.appSeed;
        if (s.cfg.faults.any())
            os << ", \"fault_seed\": " << s.cfg.faults.seed;
        os << "}";
    }
    os << "],\n \"reps\": [\n";
    for (std::size_t i = 0; i < reps.size(); ++i) {
        const Rep& r = reps[i];
        double setup = 0, run = 0;
        for (const SimResult& s : r.sims) {
            setup += s.buildS + s.setupS;
            run += s.runS;
        }
        os << "  {\"kind\": \"" << r.kind << "\", \"setup_s\": " << setup
           << ", \"run_s\": " << run << ", \"results\": ";
        writeResults(os, r.sims);
        if (r.kind == "traced") {
            os << ", \"layers\": ";
            writeLayers(os, r, log);
        }
        if (r.kind == "telemetry") {
            // Peak per probe over the instance's machines.
            os << ", \"mem_peak_mb\": {";
            bool first = true;
            for (const std::string& p : probeNames()) {
                double peak = 0;
                for (const SimResult& s : r.sims) {
                    auto it = s.memPeakMb.find(p);
                    if (it != s.memPeakMb.end() && it->second > peak)
                        peak = it->second;
                }
                os << (first ? "" : ", ") << "\"" << p << "\": " << peak;
                first = false;
            }
            os << "}";
        }
        os << "}" << (i + 1 < reps.size() ? "," : "") << "\n";
    }
    os << " ],\n \"setup_passes\": [";
    for (std::size_t i = 0; i < setupPasses.size(); ++i)
        os << (i ? ", " : "") << setupPasses[i];
    os << "],\n \"peak_rss_kb\": " << peakRssKb << "}\n";
}

int
measure(const Args& a)
{
    const std::vector<SimSpec> sims =
        workloadSims(a.workload, a.seed);
    std::vector<std::string> kinds = {"plain"};
    std::map<std::string, std::vector<SimSpec>> variants = {
        {"plain", sims}, {"traced", sims}};
    if (a.trace) {
        kinds.push_back("traced");
        if (a.workload == "fault-campaign") {
            for (const char* toggle : {"check", "obs"}) {
                const std::string kind = std::string("no_") + toggle;
                kinds.push_back(kind);
                variants[kind] =
                    workloadSims(a.workload, a.seed, toggle);
            }
        }
    }

    SpanLog log;
    std::vector<Rep> reps;
    std::vector<double> setupPasses;
    long peakRssKb = 0;
    const double t0 = nowS();
    // Stop before a round that would overrun the measuring time.
    double roundS = 0;
    for (int round = 0;
         round < kMinReps || nowS() - t0 + roundS <= a.seconds; ++round) {
        const double r0 = nowS();
        for (const std::string& kind : kinds) {
            reps.push_back(runInstance(variants[kind], kind, &log));
            // Peak RSS as one run of the workload sees it: later
            // repetitions only add allocator fragmentation.
            if (reps.size() == 1)
                peakRssKb = maxRssKb();
        }
        // One set-up is a short interval; untraced runs add set-up-only
        // passes so the setup_s median rests on many samples.
        for (int i = 0; !a.trace && i < kSetupPasses; ++i) {
            double s = 0;
            for (const SimSpec& spec : sims)
                s += setupSeconds(spec);
            setupPasses.push_back(s);
        }
        roundS = nowS() - r0;
    }
    if (a.trace)
        reps.push_back(runInstance(sims, "telemetry", &log));
    const double wall = nowS() - t0;

    if (!a.spansFile.empty()) {
        std::ofstream f(a.spansFile);
        log.writeJson(f);
        if (!f.good())
            usage("cannot write " + a.spansFile);
    }
    writeMeasure(std::cout, a, sims, reps, setupPasses, peakRssKb, log,
                 wall);
    return 0;
}

int
reference(const Args& a)
{
    const std::vector<SimSpec> refs =
        referenceSims(a.workload, a.seed);
    std::vector<SimResult> results;
    for (const SimSpec& s : refs)
        results.push_back(runSimulation(s, RunOptions{}));
    std::cout << "{\"workload\": \"" << a.workload
              << "\", \"seed\": " << a.seed << ", \"systems\": [";
    for (std::size_t i = 0; i < refs.size(); ++i)
        std::cout << (i ? ", " : "") << "\"" << refs[i].system << "\"";
    std::cout << "], \"results\": ";
    writeResults(std::cout, results);
    std::cout << "}\n";
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    const Args a = parseArgs(argc, argv);
    // Crash and recovery warnings would only add stderr traffic to
    // the timed region; outcomes are reported in the JSON.
    tt::setLogVerbosity(0);
    try {
        return a.mode == "measure" ? measure(a) : reference(a);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "ttbench: %s\n", e.what());
        return 1;
    }
}
