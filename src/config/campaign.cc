#include "config/campaign.hh"

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "obs/recorder.hh"
#include "recovery/coordinator.hh"
#include "sim/logging.hh"

namespace tt
{

std::uint64_t
campaignSeed(std::uint64_t base, int i)
{
    // One SplitMix64 step per index: well-decorrelated seeds derived
    // purely from (base, i), so a campaign replays bit-identically.
    std::uint64_t z =
        base + 0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(i + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

namespace
{

CampaignRun
runOne(const CampaignConfig& cc, const std::string& system,
       std::uint64_t seed, int index)
{
    MachineConfig cfg = cc.base;
    cfg.faults.seed = seed;
    cfg.check.enable = true; // campaigns always sanitize
    cfg.obs.analyze = true;  // ...and always classify sharing
    cfg.obs.txn = true;      // ...and always trace transactions

    CampaignRun run;
    run.system = system;
    run.seed = seed;
    run.index = index;

    TargetMachine target = buildTarget(system, cfg);
    const std::unique_ptr<BenchApp> app = makeTargetApp(
        system, cc.app, cc.dataset, cc.scale, cc.remoteFrac, target);

    const TargetRun tr = runTarget(target, *app);
    run.outcome = tr.outcome;
    run.detail = tr.detail;
    run.cycles = tr.result.execTime;
    run.checksum = tr.checksum;
    if (target.checker)
        run.violations = target.checker->violations().size();

    const StatSet& stats = target.machine->stats();
    if (target.faults)
        run.faultsInjected = target.faults->injected();
    run.retransmits = stats.get("net.retransmits");
    run.acks = stats.get("net.acks");
    run.dupDropped = stats.get("net.dup_dropped");
    run.oooDropped = stats.get("net.ooo_dropped");
    run.deadLinks = stats.get("net.dead_links");
    run.watchdogTrips = stats.get("obs.watchdog.trips");
    if (target.recovery) {
        run.crashesInjected = target.recovery->crashesInjected();
        run.recoveries = target.recovery->recoveriesDone();
    }
    if (target.obs && target.obs->sharing()) {
        const SharingAnalyzer::Summary s =
            target.obs->sharing()->summarize();
        for (int p = 0; p < kSharePatterns; ++p) {
            run.patternBlocks[static_cast<std::size_t>(p)] =
                s.blocksByPattern[static_cast<std::size_t>(p)];
        }
        run.falseSharingBlocks = s.falseSharingBlocks;
        run.dominantPattern = sharePatternKey(s.dominant());
    }
    if (target.obs && target.obs->txn()) {
        TxnTracer& tx = *target.obs->txn();
        const TxnTracer::Summary s = tx.summarize();
        run.txnOpened = s.opened;
        run.txnCompleted = s.completed;
        run.txnRetx = s.retxTxns;
        run.txnWallTicks = s.wallTicks;
        run.txnCatTicks = s.catTicks;
        const int dom = tx.dominantPattern();
        if (dom >= 0)
            run.txnDominantPattern =
                sharePatternKey(static_cast<SharePattern>(dom));
    }
    return run;
}

void
jsonEscape(std::ostream& os, const std::string& s)
{
    os << '"';
    for (char ch : s) {
        if (ch == '"' || ch == '\\')
            os << '\\';
        else if (ch == '\n') {
            os << "\\n";
            continue;
        }
        os << ch;
    }
    os << '"';
}

} // namespace

CampaignReport
runCampaign(const CampaignConfig& cc)
{
    tt_assert(cc.shardCount >= 1 && cc.shardIndex >= 0 &&
                  cc.shardIndex < cc.shardCount,
              "campaign shard ", cc.shardIndex, "/", cc.shardCount,
              " is malformed");
    CampaignReport rep;
    rep.baseSeed = cc.base.faults.seed;
    rep.runsPerSystem = cc.runs;
    rep.reliable = cc.base.reliable.enable;
    rep.shardIndex = cc.shardIndex;
    rep.shardCount = cc.shardCount;
    rep.runs.reserve(cc.systems.size() *
                     static_cast<std::size_t>(cc.runs));
    // Refuse a bad machine or system list before the first run, not
    // after the systems ahead of it.
    requireValid(cc.base);
    for (const std::string& system : cc.systems)
        requireTargetApp(system, cc.app);

    for (const std::string& system : cc.systems) {
        for (int i = 0; i < cc.runs; ++i) {
            // Shard filter: seeds derive from the index alone, so the
            // runs a shard executes are exactly the runs the unsharded
            // campaign would have produced at those indices.
            if (i % cc.shardCount != cc.shardIndex)
                continue;
            const std::uint64_t seed =
                campaignSeed(cc.base.faults.seed, i);
            CampaignRun run = runOne(cc, system, seed, i);
            if (cc.progress) {
                std::fprintf(
                    stderr,
                    "campaign: %-10s seed=%016llx %-9s "
                    "faults=%llu retx=%llu viol=%llu\n",
                    system.c_str(),
                    static_cast<unsigned long long>(seed),
                    run.outcome.c_str(),
                    static_cast<unsigned long long>(run.faultsInjected),
                    static_cast<unsigned long long>(run.retransmits),
                    static_cast<unsigned long long>(run.violations));
            }
            rep.runs.push_back(std::move(run));
        }
    }
    return rep;
}

std::uint64_t
CampaignReport::countOutcome(const std::string& outcome) const
{
    std::uint64_t n = 0;
    for (const CampaignRun& r : runs)
        n += r.outcome == outcome;
    return n;
}

void
CampaignReport::writeJson(std::ostream& os) const
{
    os << "{\n";
    os << "  \"fault_spec\": ";
    jsonEscape(os, faultSpec);
    os << ",\n  \"base_seed\": " << baseSeed;
    os << ",\n  \"runs_per_system\": " << runsPerSystem;
    os << ",\n  \"reliable_transport\": "
       << (reliable ? "true" : "false");
    os << ",\n  \"shard\": {\"index\": " << shardIndex
       << ", \"count\": " << shardCount << "}";
    os << ",\n  \"totals\": {";
    os << "\"runs\": " << runs.size();
    os << ", \"ok\": " << countOutcome("ok");
    os << ", \"violation\": " << countOutcome("violation");
    os << ", \"watchdog\": " << countOutcome("watchdog");
    os << ", \"panic\": " << countOutcome("panic");
    os << ", \"error\": " << countOutcome("error");
    os << ", \"unrecoverable\": " << countOutcome("unrecoverable");
    std::uint64_t faults = 0, retx = 0, acks = 0, dups = 0, ooo = 0,
                  dead = 0, trips = 0, crashes = 0, recoveries = 0;
    for (const CampaignRun& r : runs) {
        faults += r.faultsInjected;
        retx += r.retransmits;
        acks += r.acks;
        dups += r.dupDropped;
        ooo += r.oooDropped;
        dead += r.deadLinks;
        trips += r.watchdogTrips;
        crashes += r.crashesInjected;
        recoveries += r.recoveries;
    }
    os << ", \"faults_injected\": " << faults;
    os << ", \"retransmits\": " << retx;
    os << ", \"acks\": " << acks;
    os << ", \"dup_dropped\": " << dups;
    os << ", \"ooo_dropped\": " << ooo;
    os << ", \"dead_links\": " << dead;
    os << ", \"watchdog_trips\": " << trips;
    os << "},\n";

    // Crash-recovery summary (DESIGN.md §15): how many crash-stop
    // failures the sweep injected, how many recoveries completed, and
    // how many runs still finished clean. Present only when the fault
    // mix scheduled crashes, so crash-free reports are unchanged.
    if (crashes || recoveries || countOutcome("unrecoverable")) {
        os << "  \"recovery\": {";
        os << "\"crashes_injected\": " << crashes;
        os << ", \"recoveries\": " << recoveries;
        os << ", \"crashes_survived\": "
           << countOutcome("ok") + countOutcome("violation");
        os << ", \"unrecoverable\": " << countOutcome("unrecoverable");
        os << "},\n";
    }

    // Per-system sharing-pattern mix, aggregated over the system's
    // runs in cc.systems order (the order runs were produced).
    os << "  \"sharing\": [\n";
    std::vector<std::string> order;
    for (const CampaignRun& r : runs) {
        if (std::find(order.begin(), order.end(), r.system) ==
            order.end())
            order.push_back(r.system);
    }
    for (std::size_t si = 0; si < order.size(); ++si) {
        std::array<std::uint64_t, kSharePatterns> mix{};
        std::uint64_t falseBlocks = 0;
        for (const CampaignRun& r : runs) {
            if (r.system != order[si])
                continue;
            for (int p = 0; p < kSharePatterns; ++p)
                mix[static_cast<std::size_t>(p)] +=
                    r.patternBlocks[static_cast<std::size_t>(p)];
            falseBlocks += r.falseSharingBlocks;
        }
        os << "    {\"system\": ";
        jsonEscape(os, order[si]);
        os << ", \"patterns\": {";
        for (int p = 0; p < kSharePatterns; ++p) {
            os << (p ? ", " : "") << "\""
               << sharePatternKey(static_cast<SharePattern>(p))
               << "\": " << mix[static_cast<std::size_t>(p)];
        }
        os << "}, \"false_sharing_blocks\": " << falseBlocks << "}"
           << (si + 1 < order.size() ? "," : "") << "\n";
    }
    os << "  ],\n";

    // Per-system coherence-transaction critical-path mix, aggregated
    // the same way (DESIGN.md §14).
    os << "  \"transactions\": [\n";
    for (std::size_t si = 0; si < order.size(); ++si) {
        std::uint64_t opened = 0, completed = 0, retxTxns = 0,
                      wall = 0;
        std::array<std::uint64_t, kTxnCats> cat{};
        for (const CampaignRun& r : runs) {
            if (r.system != order[si])
                continue;
            opened += r.txnOpened;
            completed += r.txnCompleted;
            retxTxns += r.txnRetx;
            wall += r.txnWallTicks;
            for (int c = 0; c < kTxnCats; ++c)
                cat[static_cast<std::size_t>(c)] +=
                    r.txnCatTicks[static_cast<std::size_t>(c)];
        }
        os << "    {\"system\": ";
        jsonEscape(os, order[si]);
        os << ", \"opened\": " << opened
           << ", \"completed\": " << completed
           << ", \"retx_txns\": " << retxTxns
           << ", \"wall_ticks\": " << wall << ", \"breakdown\": {";
        for (int c = 0; c < kTxnCats; ++c) {
            os << (c ? ", " : "") << "\""
               << txnCatName(static_cast<TxnCat>(c))
               << "\": " << cat[static_cast<std::size_t>(c)];
        }
        os << "}}" << (si + 1 < order.size() ? "," : "") << "\n";
    }
    os << "  ],\n";
    os << "  \"runs\": [\n";
    for (std::size_t i = 0; i < runs.size(); ++i) {
        const CampaignRun& r = runs[i];
        char seedHex[32];
        std::snprintf(seedHex, sizeof seedHex, "%016llx",
                      static_cast<unsigned long long>(r.seed));
        os << "    {\"system\": ";
        jsonEscape(os, r.system);
        os << ", \"seed\": \"" << seedHex << '"';
        os << ", \"index\": " << r.index;
        os << ", \"outcome\": ";
        jsonEscape(os, r.outcome);
        os << ", \"cycles\": " << r.cycles;
        os << ", \"faults_injected\": " << r.faultsInjected;
        os << ", \"retransmits\": " << r.retransmits;
        os << ", \"acks\": " << r.acks;
        os << ", \"dup_dropped\": " << r.dupDropped;
        os << ", \"ooo_dropped\": " << r.oooDropped;
        os << ", \"dead_links\": " << r.deadLinks;
        os << ", \"violations\": " << r.violations;
        os << ", \"watchdog_trips\": " << r.watchdogTrips;
        if (r.crashesInjected || r.recoveries) {
            os << ", \"crashes_injected\": " << r.crashesInjected
               << ", \"recoveries\": " << r.recoveries;
        }
        if (!r.dominantPattern.empty()) {
            os << ", \"dominant_pattern\": ";
            jsonEscape(os, r.dominantPattern);
            os << ", \"false_sharing_blocks\": "
               << r.falseSharingBlocks;
        }
        if (r.txnOpened) {
            os << ", \"txn_completed\": " << r.txnCompleted
               << ", \"txn_retx\": " << r.txnRetx
               << ", \"txn_wall_ticks\": " << r.txnWallTicks;
            if (!r.txnDominantPattern.empty()) {
                os << ", \"txn_dominant_pattern\": ";
                jsonEscape(os, r.txnDominantPattern);
            }
        }
        if (!r.detail.empty()) {
            os << ", \"detail\": ";
            jsonEscape(os, r.detail);
        }
        os << "}" << (i + 1 < runs.size() ? "," : "") << "\n";
    }
    os << "  ]\n}\n";
}

bool
CampaignReport::writeJsonFile(const std::string& path) const
{
    std::ofstream f(path);
    if (!f)
        return false;
    writeJson(f);
    return f.good();
}

} // namespace tt
