/**
 * @file
 * ttsim — command-line driver for the Tempest/Typhoon simulator.
 *
 * Runs any Table 3 workload on any target system with configurable
 * machine parameters and prints execution time, checksum, and
 * (optionally) the full statistics dump.
 *
 *   ttsim --system=stache --app=em3d --dataset=small --nodes=32
 *   ttsim --system=dirnnb --app=barnes --cache-kb=4 --stats
 *   ttsim --system=update --app=em3d --remote=40
 *   ttsim --list
 *
 * Systems: dirnnb | stache | migratory | update (EM3D only).
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include <fstream>

#include "apps/workloads.hh"
#include "config/builders.hh"
#include "config/campaign.hh"
#include "obs/sharing.hh"
#include "obs/txn.hh"

using namespace tt;

namespace
{

struct Options
{
    std::string system = "stache";
    std::string app = "em3d";
    std::string dataset = "tiny";
    int nodes = 32;
    int cacheKb = 256;
    int blockSize = 32;
    int scale = 1;
    int netLatency = 11;
    int quantum = 32;
    double remotePct = 20;
    std::uint64_t seed = 0;
    std::string traceFile; ///< Perfetto/Chrome-trace JSON output
    std::string statsJson; ///< machine-readable StatSet dump
    bool analyze = false;    ///< run the online sharing analyzer
    std::string analyzeJson; ///< sharing-analysis JSON path ("" = none)
    bool traceCritical = false; ///< run the transaction tracer
    std::string txnJson;     ///< critical-path JSON path ("" = none)
    bool telemetry = false;  ///< simulator self-telemetry (§16)
    std::string telemetryJson; ///< telemetry JSON path ("" = none)
    std::string fault;     ///< protocol fault to inject (demo/testing)
    Tick traceSample = 0;  ///< counter-sampling period (ticks)
    int traceRing = 256;   ///< crash-ring capacity per node
    bool stats = false;
    bool table2 = false;
    bool list = false;
    bool check = false;          ///< run the coherence sanitizer
    std::string checkMode = "fast"; ///< fast | paranoid
    bool perturb = false;        ///< randomize schedules (implies check)
    std::uint64_t perturbSeed = 0;
    int jitter = 3;              ///< max extra net latency under perturb
    bool jitterSet = false;      ///< --jitter given explicitly

    // Unreliable-network fault injection (DESIGN.md §10).
    std::string faults;          ///< --faults=SPEC (fault_model.hh)
    bool noReliable = false;     ///< face the raw lossy fabric
    Tick horizon = 0;            ///< watchdog horizon (0 = default)
    Tick rto = 0;                ///< transport initial RTO (0 = default)
    int retries = 0;             ///< transport retry cap (0 = default)
    int campaign = 0;            ///< seeds per system (0 = single run)
    std::string campaignJson;    ///< campaign report path
    std::string systems;         ///< campaign system list (csv)
    int shardIndex = 0;          ///< --campaign-shard=I/N
    int shardCount = 1;

    // Checkpoint/restart (DESIGN.md §15).
    std::uint64_t checkpointEpoch = 0; ///< write at this barrier epoch
    std::string checkpointFile = "ttsim.ckpt";
    std::string restoreFile;     ///< continue from this snapshot
};

void
usage()
{
    std::puts(
        "ttsim — Tempest/Typhoon user-level shared memory simulator\n"
        "\n"
        "  --system=dirnnb|stache|migratory|update   target (default"
        " stache)\n"
        "  --app=appbt|barnes|mp3d|ocean|em3d        workload\n"
        "  --dataset=tiny|small|large                Table 3 size\n"
        "  --nodes=N         processing nodes (default 32)\n"
        "  --cache-kb=N      CPU cache size in KB (default 256)\n"
        "  --block=N         coherence block bytes (default 32)\n"
        "  --scale=N         divide problem size by N (default 1)\n"
        "  --net-latency=N   network latency cycles (default 11)\n"
        "  --quantum=N       local-time window (default 32)\n"
        "  --remote=PCT      EM3D remote-edge percent (default 20)\n"
        "  --seed=N          machine RNG seed\n"
        "  --trace=F         stream a Perfetto/Chrome trace to F"
        " (open at ui.perfetto.dev)\n"
        "  --trace-sample=N  also sample every counter each N ticks"
        " into the trace\n"
        "  --trace-ring=N    crash-ring capacity per node"
        " (default 256)\n"
        "  --stats-json=F    write every counter to F as JSON\n"
        "  --analyze[=F]     classify per-block sharing patterns and"
        " print the\n"
        "                    protocol-advisor report (JSON to F)\n"
        "  --trace-critical[=F]  trace coherence transactions and print"
        " the\n"
        "                    critical-path attribution report (JSON to"
        " F);\n"
        "                    composes with --trace (flow events) and"
        " --faults\n"
        "  --telemetry[=F]   simulator self-telemetry: per-subsystem"
        " memory\n"
        "                    accounting (JSON to F); simulated results"
        " are\n"
        "                    byte-identical with or without it\n"
        "  --fault=NAME      inject a protocol bug (skip-invalidate |"
        " skip-downgrade)\n"
        "  --check[=MODE]    run the coherence sanitizer (exit 3 on"
        " violation);\n"
        "                    MODE: fast (shadow engine, default) |"
        " paranoid\n"
        "                    (byte-granular reference oracle)\n"
        "  --perturb=SEED    randomize same-tick order + net jitter"
        " (implies --check)\n"
        "  --jitter=N        max perturbation latency jitter"
        " (default 3)\n"
        "  --faults=SPEC     unreliable fabric: drop=P,dup=P,"
        "reorder=P[:MAX],\n"
        "                    partition=P[:LEN],pause=P[:LEN],cut=A-B,\n"
        "                    crash@TICK:NODE,seed=N\n"
        "                    (needs a seed: seed= in SPEC or --seed;\n"
        "                    crash@ injects a crash-stop failure that\n"
        "                    the recovery protocol rolls back — exit 5\n"
        "                    if unrecoverable)\n"
        "  --no-reliable     disable the reliable transport (negative"
        " control)\n"
        "  --horizon=N       watchdog horizon in ticks (default"
        " 100000)\n"
        "  --rto=N           transport initial retransmit timeout\n"
        "  --retries=N       transport retry cap before dead-link\n"
        "  --campaign=N      sweep N derived fault seeds per system"
        " (needs --faults)\n"
        "  --campaign-json=F write the campaign report to F\n"
        "  --campaign-shard=I/N  run only seed indices with"
        " i%N==I; the\n"
        "                    union of the N shards equals the unsharded"
        " campaign\n"
        "  --systems=A,B     campaign targets (default all four)\n"
        "  --checkpoint=E[,F]  write a checkpoint at barrier epoch E"
        " (default\n"
        "                    file ttsim.ckpt); fault-free runs only\n"
        "  --restore=F       continue a run from checkpoint F; the"
        " continuation\n"
        "                    is byte-identical to the checkpointing"
        " run\n"
        "  --stats           dump all statistics after the run\n"
        "  --table2          print the Table 2 configuration\n"
        "  --list            list workloads and exit\n");
}

bool
parseArg(Options& o, const std::string& arg)
{
    auto eat = [&](const char* key, std::string* out) {
        const std::size_t n = std::strlen(key);
        if (arg.compare(0, n, key) == 0) {
            *out = arg.substr(n);
            return true;
        }
        return false;
    };
    std::string v;
    if (eat("--system=", &v)) {
        o.system = v;
    } else if (eat("--app=", &v)) {
        o.app = v;
    } else if (eat("--dataset=", &v)) {
        o.dataset = v;
    } else if (eat("--nodes=", &v)) {
        o.nodes = std::atoi(v.c_str());
    } else if (eat("--cache-kb=", &v)) {
        o.cacheKb = std::atoi(v.c_str());
    } else if (eat("--block=", &v)) {
        o.blockSize = std::atoi(v.c_str());
    } else if (eat("--scale=", &v)) {
        o.scale = std::atoi(v.c_str());
    } else if (eat("--net-latency=", &v)) {
        o.netLatency = std::atoi(v.c_str());
    } else if (eat("--quantum=", &v)) {
        o.quantum = std::atoi(v.c_str());
    } else if (eat("--remote=", &v)) {
        o.remotePct = std::atof(v.c_str());
    } else if (eat("--seed=", &v)) {
        o.seed = std::strtoull(v.c_str(), nullptr, 0);
    } else if (eat("--trace=", &v)) {
        o.traceFile = v;
    } else if (eat("--trace-sample=", &v)) {
        o.traceSample = std::strtoull(v.c_str(), nullptr, 0);
    } else if (eat("--trace-ring=", &v)) {
        o.traceRing = std::atoi(v.c_str());
    } else if (eat("--stats-json=", &v)) {
        o.statsJson = v;
    } else if (eat("--analyze=", &v)) {
        o.analyze = true;
        o.analyzeJson = v;
    } else if (arg == "--analyze") {
        o.analyze = true;
    } else if (eat("--trace-critical=", &v)) {
        o.traceCritical = true;
        o.txnJson = v;
    } else if (arg == "--trace-critical") {
        o.traceCritical = true;
    } else if (eat("--telemetry=", &v)) {
        o.telemetry = true;
        o.telemetryJson = v;
    } else if (arg == "--telemetry") {
        o.telemetry = true;
    } else if (eat("--fault=", &v)) {
        o.fault = v;
    } else if (eat("--perturb=", &v)) {
        o.perturb = true;
        o.check = true;
        o.perturbSeed = std::strtoull(v.c_str(), nullptr, 0);
    } else if (eat("--jitter=", &v)) {
        o.jitter = std::atoi(v.c_str());
        o.jitterSet = true;
    } else if (eat("--faults=", &v)) {
        o.faults = v;
    } else if (eat("--horizon=", &v)) {
        o.horizon = std::strtoull(v.c_str(), nullptr, 0);
    } else if (eat("--rto=", &v)) {
        o.rto = std::strtoull(v.c_str(), nullptr, 0);
    } else if (eat("--retries=", &v)) {
        o.retries = std::atoi(v.c_str());
    } else if (eat("--campaign=", &v)) {
        o.campaign = std::atoi(v.c_str());
    } else if (eat("--campaign-json=", &v)) {
        o.campaignJson = v;
    } else if (eat("--campaign-shard=", &v)) {
        const std::size_t slash = v.find('/');
        if (slash == std::string::npos) {
            std::fprintf(stderr,
                         "--campaign-shard wants I/N, got '%s'\n",
                         v.c_str());
            std::exit(2);
        }
        o.shardIndex = std::atoi(v.c_str());
        o.shardCount = std::atoi(v.c_str() + slash + 1);
    } else if (eat("--systems=", &v)) {
        o.systems = v;
    } else if (eat("--checkpoint=", &v)) {
        const std::size_t comma = v.find(',');
        o.checkpointEpoch =
            std::strtoull(v.c_str(), nullptr, 0);
        if (!o.checkpointEpoch) {
            std::fprintf(stderr,
                         "--checkpoint wants EPOCH[,FILE] with "
                         "EPOCH >= 1, got '%s'\n",
                         v.c_str());
            std::exit(2);
        }
        if (comma != std::string::npos)
            o.checkpointFile = v.substr(comma + 1);
    } else if (eat("--restore=", &v)) {
        o.restoreFile = v;
    } else if (arg == "--no-reliable") {
        o.noReliable = true;
    } else if (eat("--check=", &v)) {
        o.check = true;
        o.checkMode = v;
    } else if (arg == "--check") {
        o.check = true;
    } else if (arg == "--stats") {
        o.stats = true;
    } else if (arg == "--table2") {
        o.table2 = true;
    } else if (arg == "--list") {
        o.list = true;
    } else {
        return false;
    }
    return true;
}

DataSet
parseDataSet(const std::string& s)
{
    if (s == "tiny")
        return DataSet::Tiny;
    if (s == "small")
        return DataSet::Small;
    if (s == "large")
        return DataSet::Large;
    tt_fatal("unknown dataset: ", s);
}

/**
 * Reject contradictory flag combinations with a clear usage error, and
 * an unbuildable machine (@p cfg's geometry) with every error at once.
 */
void
validateOptions(const Options& o, const MachineConfig& cfg)
{
    auto die = [](const char* msg) {
        std::fprintf(stderr, "ttsim: %s\n", msg);
        std::exit(2);
    };
    if (o.checkMode != "fast" && o.checkMode != "paranoid")
        die("--check accepts mode 'fast' or 'paranoid'");
    if (o.faults.empty()) {
        // The robustness knobs only mean something on a lossy fabric.
        if (o.noReliable)
            die("--no-reliable requires --faults");
        if (o.horizon)
            die("--horizon requires --faults");
        if (o.rto)
            die("--rto requires --faults");
        if (o.retries)
            die("--retries requires --faults");
        if (o.campaign)
            die("--campaign requires --faults");
    } else if (o.faults.find("seed=") == std::string::npos && !o.seed) {
        // An unseeded fault run is unreproducible by construction.
        die("--faults needs a seeded run: put seed=N in the spec or "
            "pass --seed=N");
    }
    if (o.jitterSet && !o.perturb)
        die("--jitter only modifies --perturb runs");
    if (o.traceSample && o.traceFile.empty())
        die("--trace-sample samples counters into the trace; it "
            "requires --trace");
    if (!o.campaignJson.empty() && !o.campaign)
        die("--campaign-json requires --campaign");
    if (o.campaign) {
        if (o.campaign < 1)
            die("--campaign wants a positive run count");
        if (o.perturb)
            die("--campaign and --perturb are mutually exclusive (a "
                "campaign already sweeps seeds)");
        if (!o.traceFile.empty())
            die("--campaign runs many machines; --trace applies to a "
                "single run");
        if (!o.statsJson.empty())
            die("--campaign and --stats-json are mutually exclusive "
                "(the report goes to --campaign-json)");
        if (!o.fault.empty())
            die("--campaign and --fault (protocol-bug injection) are "
                "mutually exclusive");
        if (o.analyze)
            die("--campaign already runs the sharing analyzer; its "
                "summary lands in the campaign report");
        if (o.traceCritical)
            die("--campaign already runs the transaction tracer; its "
                "summary lands in the campaign report");
        if (o.telemetry)
            die("--campaign and --telemetry are mutually exclusive "
                "(telemetry reports on a single machine)");
    } else if (!o.systems.empty()) {
        die("--systems requires --campaign");
    }
    if (o.shardCount != 1 || o.shardIndex != 0) {
        if (!o.campaign)
            die("--campaign-shard requires --campaign");
        if (o.shardCount < 1 || o.shardIndex < 0 ||
            o.shardIndex >= o.shardCount)
            die("--campaign-shard=I/N wants 0 <= I < N");
    }
    const bool crashes = o.faults.find("crash@") != std::string::npos;
    if (crashes) {
        if (o.noReliable)
            die("crash recovery requires the reliable transport "
                "(drop --no-reliable)");
        if (o.perturb)
            die("crash rollback replay is defined on the calendar "
                "queue; --perturb is mutually exclusive");
    }
    if (o.checkpointEpoch || !o.restoreFile.empty()) {
        if (o.checkpointEpoch && !o.restoreFile.empty())
            die("--checkpoint and --restore are mutually exclusive "
                "(restore first, then checkpoint in a later run)");
        if (!o.faults.empty())
            die("--checkpoint/--restore require a fault-free run "
                "(crash recovery snapshots in memory instead)");
        if (o.campaign)
            die("--checkpoint/--restore apply to a single run, not a "
                "campaign");
        if (o.perturb)
            die("--checkpoint/--restore and --perturb are mutually "
                "exclusive");
    }
    requireValid(cfg);
}

/**
 * The config-identity key behind the checkpoint fingerprint: every
 * option that shapes the simulated schedule or the statistics registry
 * is folded in, so a restore under any differing configuration is
 * refused instead of silently diverging. --checkpoint/--restore
 * themselves are deliberately excluded (the restoring command line
 * drops the former and adds the latter).
 */
std::string
configKey(const Options& o)
{
    std::string k;
    auto add = [&k](const std::string& s) {
        k += s;
        k += '|';
    };
    add(o.system);
    add(o.app);
    add(o.dataset);
    add(std::to_string(o.nodes));
    add(std::to_string(o.cacheKb));
    add(std::to_string(o.blockSize));
    add(std::to_string(o.scale));
    add(std::to_string(o.netLatency));
    add(std::to_string(o.quantum));
    add(std::to_string(o.remotePct));
    add(std::to_string(o.seed));
    add(o.check ? o.checkMode : "nocheck");
    add(o.analyze ? "analyze" : "-");
    add(o.traceCritical ? "txn" : "-");
    add(o.telemetry ? "telemetry" : "-");
    add(o.traceFile.empty() ? "-" : "trace");
    add(std::to_string(o.traceSample));
    add(std::to_string(o.traceRing));
    add(o.fault.empty() ? "-" : o.fault);
    return k;
}

int
run(int argc, char** argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        }
        if (!parseArg(o, arg)) {
            std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
            usage();
            return 2;
        }
    }

    if (o.list) {
        std::printf("%-10s %-28s %-28s\n", "app", "small", "large");
        for (const auto& w : workloadTable())
            std::printf("%-10s %-28s %-28s\n", w.app.c_str(),
                        w.smallDesc.c_str(), w.largeDesc.c_str());
        return 0;
    }

    MachineConfig cfg;
    cfg.core.nodes = o.nodes;
    cfg.core.cacheSize = static_cast<std::uint64_t>(o.cacheKb) * 1024;
    cfg.core.blockSize = o.blockSize;
    cfg.core.quantum = o.quantum;
    cfg.net.latency = o.netLatency;
    if (o.seed)
        cfg.core.seed = o.seed;

    validateOptions(o, cfg);

    cfg.check.enable = o.check;
    cfg.check.mode = o.checkMode == "paranoid"
                         ? ProtocolChecker::Mode::Paranoid
                         : ProtocolChecker::Mode::Fast;
    cfg.obs.enable = !o.traceFile.empty();
    cfg.obs.traceFile = o.traceFile;
    cfg.obs.samplePeriod = o.traceSample;
    cfg.obs.analyze = o.analyze;
    cfg.obs.txn = o.traceCritical;
    cfg.obs.telemetry = o.telemetry;
    // A trace without an explicit sampling period still gets live
    // counter tracks (every StatSet counter) at a coarse default.
    if (!o.traceFile.empty() && o.traceSample == 0)
        cfg.obs.samplePeriod = 1024;
    if (o.traceRing > 0)
        cfg.obs.ringCapacity = static_cast<std::size_t>(o.traceRing);

    if (o.fault == "skip-invalidate") {
        cfg.dir.faultSkipInvalidate = true;
    } else if (o.fault == "skip-downgrade") {
        cfg.stache.faultSkipDowngrade = true;
    } else if (!o.fault.empty()) {
        tt_fatal("unknown --fault: ", o.fault);
    }

    if (o.perturb) {
        cfg.check.perturb = true;
        cfg.check.perturbSeed = o.perturbSeed;
        // Same-tick permutation only works on the reference heap (the
        // calendar derives order from append order); switch the
        // process default before any EventQueue is constructed.
        EventQueue::setDefaultMode(EventQueue::Mode::ReferenceHeap);
        // Jittered network latency, FIFO-clamped per channel; seed
        // decorrelated from the event-order stream.
        cfg.net.jitterMax = o.jitter;
        cfg.net.jitterSeed = o.perturbSeed * 0x9e3779b97f4a7c15ULL + 1;
    }

    if (!o.faults.empty()) {
        cfg.faults = parseFaultSpec(o.faults);
        if (o.faults.find("seed=") == std::string::npos) {
            // Derive the fault seed from the machine seed, decorrelated
            // so the two streams never accidentally alias.
            cfg.faults.seed = o.seed * 0x9e3779b97f4a7c15ULL + 0x5eed;
        }
        cfg.reliable.enable = !o.noReliable;
        if (o.rto) {
            cfg.reliable.rto = o.rto;
            cfg.reliable.rtoMax = std::max(cfg.reliable.rtoMax, o.rto);
        }
        if (o.retries)
            cfg.reliable.maxRetries = o.retries;
        if (o.horizon)
            cfg.watchdog.horizon = o.horizon;
        if (!cfg.faults.crashes.empty() && o.app != "em3d") {
            // Crash rollback respawns bodies at a barrier epoch; only
            // epoch-restartable apps (App::supportsEpochRestart) can
            // resume there.
            tt_fatal("crash recovery requires an epoch-restartable "
                     "app (em3d)");
        }
    }

    if (o.checkpointEpoch) {
        cfg.recovery.checkpointEpoch = o.checkpointEpoch;
        cfg.recovery.checkpointFile = o.checkpointFile;
    }
    if (o.checkpointEpoch || !o.restoreFile.empty())
        cfg.recovery.fingerprint = configFingerprint(configKey(o));

    if (o.table2)
        printTable2(std::cout, cfg);

    if (o.campaign) {
        CampaignConfig cc;
        cc.base = cfg;
        cc.runs = o.campaign;
        cc.app = o.app;
        cc.dataset = parseDataSet(o.dataset);
        cc.scale = o.scale;
        cc.remoteFrac = o.remotePct / 100.0;
        cc.shardIndex = o.shardIndex;
        cc.shardCount = o.shardCount;
        if (o.systems.empty()) {
            cc.systems = {"dirnnb", "stache", "migratory"};
            if (o.app == "em3d")
                cc.systems.push_back("update");
        } else {
            std::size_t pos = 0;
            while (pos <= o.systems.size()) {
                std::size_t end = o.systems.find(',', pos);
                if (end == std::string::npos)
                    end = o.systems.size();
                const std::string s = o.systems.substr(pos, end - pos);
                if (!s.empty())
                    cc.systems.push_back(s);
                pos = end + 1;
            }
            if (cc.systems.empty())
                tt_fatal("--systems: no systems named");
        }
        for (const auto& s : cc.systems)
            if (s == "update" && o.app != "em3d")
                tt_fatal("campaign system 'update' supports only "
                         "--app=em3d");

        std::printf("campaign: %d seeds x %zu systems, faults=%s%s",
                    cc.runs, cc.systems.size(), o.faults.c_str(),
                    o.noReliable ? " (reliable transport OFF)" : "");
        if (cc.shardCount > 1)
            std::printf(" [shard %d/%d]", cc.shardIndex,
                        cc.shardCount);
        std::printf("\n");
        CampaignReport rep = runCampaign(cc);
        rep.faultSpec = o.faults;
        std::printf(
            "campaign: %zu runs: ok=%llu violation=%llu watchdog=%llu "
            "panic=%llu error=%llu unrecoverable=%llu\n",
            rep.runs.size(),
            static_cast<unsigned long long>(rep.countOutcome("ok")),
            static_cast<unsigned long long>(
                rep.countOutcome("violation")),
            static_cast<unsigned long long>(
                rep.countOutcome("watchdog")),
            static_cast<unsigned long long>(rep.countOutcome("panic")),
            static_cast<unsigned long long>(rep.countOutcome("error")),
            static_cast<unsigned long long>(
                rep.countOutcome("unrecoverable")));
        if (!o.campaignJson.empty()) {
            if (!rep.writeJsonFile(o.campaignJson)) {
                std::fprintf(stderr, "cannot write %s\n",
                             o.campaignJson.c_str());
                return 1;
            }
            std::printf("campaign json  : %s\n", o.campaignJson.c_str());
        }
        if (rep.countOutcome("violation"))
            return 3;
        if (rep.countOutcome("unrecoverable"))
            return 5;
        return rep.allOk() ? 0 : 4;
    }

    TargetMachine target;
    std::unique_ptr<BenchApp> app;
    const DataSet ds = parseDataSet(o.dataset);

    if (o.system == "dirnnb") {
        target = buildDirNNB(cfg);
    } else if (o.system == "stache") {
        target = buildTyphoonStache(cfg);
    } else if (o.system == "migratory") {
        target = buildTyphoonMigratory(cfg);
    } else if (o.system == "update") {
        if (o.app != "em3d")
            tt_fatal("--system=update supports only --app=em3d");
        target = buildTyphoonEm3dUpdate(cfg);
    } else {
        tt_fatal("unknown system: ", o.system);
    }

    if (o.system == "update") {
        Em3dApp::Params p =
            em3dParams(ds, o.remotePct / 100.0, o.scale);
        app = std::make_unique<Em3dApp>(p, Em3dApp::Mode::Update,
                                        target.em3d);
    } else if (o.app == "em3d") {
        app = std::make_unique<Em3dApp>(
            em3dParams(ds, o.remotePct / 100.0, o.scale));
    } else {
        app = makeWorkload(o.app, ds, o.scale);
    }

    std::printf("ttsim: %s on %s, %d nodes, %d KB cache, %dB blocks, "
                "dataset=%s scale=1/%d\n",
                app->name().c_str(),
                target.m().memsys().name().c_str(), o.nodes,
                o.cacheKb, o.blockSize, o.dataset.c_str(), o.scale);

    // --restore: the snapshot must outlive the run (the plan's
    // applyState lambda reads it at the restored tick).
    Snapshot snap;
    Machine::RestartPlan plan;
    bool restored = false;
    if (!o.restoreFile.empty()) {
        if (!app->supportsEpochRestart())
            tt_fatal("--restore requires an epoch-restartable app "
                     "(em3d)");
        snap = loadSnapshot(o.restoreFile);
        if (snap.fingerprint != cfg.recovery.fingerprint) {
            tt_fatal("--restore: '", o.restoreFile,
                     "' was checkpointed under a different "
                     "configuration; rerun with the checkpointing "
                     "run's flags");
        }
        MemorySystem* ms =
            target.typhoon
                ? static_cast<MemorySystem*>(target.typhoon.get())
                : static_cast<MemorySystem*>(target.dir.get());
        plan = restorePlan(snap, *target.machine, *target.network,
                           *ms, target.checker.get());
        restored = true;
        std::printf("restore        : %s (epoch %llu, tick %llu)\n",
                    o.restoreFile.c_str(),
                    static_cast<unsigned long long>(snap.episodes),
                    static_cast<unsigned long long>(snap.tick));
    }
    if (o.checkpointEpoch && !app->supportsEpochRestart())
        tt_fatal("--checkpoint requires an epoch-restartable app "
                 "(em3d)");

    if (target.telemetry)
        target.telemetry->runBegin();
    RunResult r;
    try {
        r = restored ? target.run(*app, plan) : target.run(*app);
    } catch (const UnrecoverableCrash& e) {
        std::fprintf(stderr, "ttsim: %s\n", e.what());
        if (target.recovery)
            target.recovery->finalizeStats();
        if (!o.statsJson.empty() &&
            target.m().stats().writeJsonFile(o.statsJson))
            std::printf("stats json     : %s\n", o.statsJson.c_str());
        return 5;
    } catch (const WatchdogTimeout& e) {
        // The on-trip hook already dumped the flight-recorder tail.
        std::fprintf(stderr, "ttsim: %s\n", e.what());
        if (!o.statsJson.empty() &&
            target.m().stats().writeJsonFile(o.statsJson))
            std::printf("stats json     : %s\n", o.statsJson.c_str());
        return 4;
    }
    if (target.telemetry)
        target.telemetry->runEnd();

    std::printf("execution time : %llu cycles\n",
                static_cast<unsigned long long>(r.execTime));
    std::printf("events         : %llu\n",
                static_cast<unsigned long long>(r.events));
    std::printf("work units     : %llu (%.2f cycles/unit/node)\n",
                static_cast<unsigned long long>(app->workUnits()),
                static_cast<double>(r.execTime) * o.nodes /
                    static_cast<double>(app->workUnits()));
    std::printf("checksum       : %.17g\n", app->checksum());
    std::printf("net messages   : %llu (%llu words)\n",
                static_cast<unsigned long long>(
                    target.m().stats().get("net.messages")),
                static_cast<unsigned long long>(
                    target.m().stats().get("net.words")));

    if (target.recovery) {
        target.recovery->finalizeStats();
        std::printf(
            "recovery       : %llu crash(es) injected, %llu "
            "recovery(ies) completed\n",
            static_cast<unsigned long long>(
                target.recovery->crashesInjected()),
            static_cast<unsigned long long>(
                target.recovery->recoveriesDone()));
    }
    if (target.checkpoint) {
        if (target.checkpoint->written())
            std::printf("checkpoint     : %s\n",
                        target.checkpoint->path().c_str());
        else
            std::fprintf(stderr,
                         "ttsim: warning: the run finished before "
                         "barrier epoch %llu; no checkpoint written\n",
                         static_cast<unsigned long long>(
                             o.checkpointEpoch));
    }

    if (target.obs) {
        target.obs->finalize();
        if (!o.traceFile.empty())
            std::printf("trace          : %s (%llu records)\n",
                        o.traceFile.c_str(),
                        static_cast<unsigned long long>(
                            target.obs->recordCount()));
        if (o.analyze && target.obs->sharing()) {
            const SharingAnalyzer& sa = *target.obs->sharing();
            sa.writeReport(std::cout);
            if (!o.analyzeJson.empty()) {
                if (!sa.writeJsonFile(o.analyzeJson)) {
                    std::fprintf(stderr, "cannot write %s\n",
                                 o.analyzeJson.c_str());
                    return 1;
                }
                std::printf("analysis json  : %s\n",
                            o.analyzeJson.c_str());
            }
        }
        if (o.traceCritical && target.obs->txn()) {
            const TxnTracer& tx = *target.obs->txn();
            tx.writeReport(std::cout);
            if (!o.txnJson.empty()) {
                std::ofstream jf(o.txnJson);
                if (jf)
                    tx.writeJson(jf);
                if (!jf) {
                    std::fprintf(stderr, "cannot write %s\n",
                                 o.txnJson.c_str());
                    return 1;
                }
                std::printf("critical json  : %s\n", o.txnJson.c_str());
            }
        }
    }

    if (target.telemetry) {
        // Fold before any --stats-json write so obs.telemetry.*
        // lands in the dump.
        target.telemetry->finalize();
        target.telemetry->printSummary(std::cout);
        if (!o.telemetryJson.empty()) {
            if (!target.telemetry->writeReportFile(o.telemetryJson)) {
                std::fprintf(stderr, "cannot write %s\n",
                             o.telemetryJson.c_str());
                return 1;
            }
            std::printf("telemetry json : %s\n",
                        o.telemetryJson.c_str());
        }
    }

    if (o.stats) {
        std::printf("\n--- statistics ---\n");
        target.m().stats().dump(std::cout);
    }

    if (!o.statsJson.empty()) {
        if (!target.m().stats().writeJsonFile(o.statsJson)) {
            std::fprintf(stderr, "cannot write %s\n",
                         o.statsJson.c_str());
            return 1;
        }
        std::printf("stats json     : %s\n", o.statsJson.c_str());
    }

    bool checkFailed = false;
    if (target.checker) {
        target.checker->finalize();
        std::fputs(target.checker->report().c_str(), stdout);
        checkFailed = !target.checker->violations().empty();
        if (checkFailed && target.obs) {
            std::fputs("--- flight recorder tail ---\n", stderr);
            target.obs->dumpTail(std::cerr);
        }
    }

    return checkFailed ? 3 : 0;
}

} // namespace

int
main(int argc, char** argv)
{
    // tt_fatal has already printed its "fatal:" line; a user error
    // exits 2 (README exit-code table) instead of aborting.
    try {
        return run(argc, argv);
    } catch (const FatalError&) {
        return 2;
    }
}
