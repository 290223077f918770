/**
 * @file
 * Deterministic fault-campaign runner (ttsim --faults --campaign,
 * DESIGN.md §10).
 *
 * A campaign sweeps N derived fault seeds per target system over one
 * fault mix, with the coherence sanitizer enabled, and aggregates the
 * outcomes into a machine-readable JSON report. Everything is
 * deterministic: run seeds are derived from the base fault seed by a
 * SplitMix64 step (never from wall-clock or run order across systems),
 * and the report contains no timestamps, so the same (seed, faults,
 * systems, workload) campaign is byte-identical across invocations.
 *
 * Each run goes through runTarget (config/builders.hh) and is
 * classified as one of:
 *   ok            — app completed, checker clean, no watchdog trip
 *   violation     — app completed but the sanitizer found violations
 *   watchdog      — the progress watchdog tripped (WatchdogTimeout)
 *   panic         — tt_panic or tt_assert fired (e.g. Machine::run's
 *                   drained-queue protocol deadlock), caught and
 *                   recorded
 *   error         — any other exception escaped the run
 *   unrecoverable — a crash the recovery protocol could not absorb
 * A user error (FatalError, e.g. a data set too small for the
 * machine) is not an outcome: it ends the whole campaign.
 *
 * The headline acceptance criterion: with the reliable transport on,
 * a drop+dup+reorder campaign is all-ok; with --no-reliable the same
 * campaign must produce violations/watchdog/panic outcomes (the
 * negative control proving the fault injection has teeth).
 */

#ifndef TT_CONFIG_CAMPAIGN_HH
#define TT_CONFIG_CAMPAIGN_HH

#include <array>
#include <ostream>
#include <string>
#include <vector>

#include "apps/workloads.hh"
#include "config/builders.hh"
#include "obs/sharing.hh"
#include "obs/txn.hh"

namespace tt
{

/** What to sweep (the MachineConfig carries the fault mix itself). */
struct CampaignConfig
{
    MachineConfig base;   ///< base config; faults.seed is the campaign seed
    std::vector<std::string> systems; ///< ttsim system names
    int runs = 50;        ///< derived seeds per system
    std::string app = "em3d";
    DataSet dataset = DataSet::Tiny;
    int scale = 1;
    double remoteFrac = 0.2; ///< EM3D remote-edge fraction
    bool progress = true;    ///< print one line per run to stderr

    /**
     * Campaign sharding (ttsim --campaign-shard=I/N): this invocation
     * runs only the seeds with index % shardCount == shardIndex, so N
     * processes cover a campaign in parallel. Seeds derive from the
     * index (never the shard), so the union of the N shard reports is
     * exactly the unsharded report (asserted in
     * tests/config/test_campaign).
     */
    int shardIndex = 0;
    int shardCount = 1;
};

/** Outcome of one (system, seed) run. */
struct CampaignRun
{
    std::string system;
    std::uint64_t seed = 0;     ///< derived fault seed
    int index = 0;              ///< seed index within the system sweep
    /// ok|violation|watchdog|panic|error|unrecoverable
    std::string outcome;
    Tick cycles = 0;            ///< 0 unless the app completed
    double checksum = 0;        ///< 0 unless the app completed
    std::uint64_t faultsInjected = 0;
    std::uint64_t retransmits = 0;
    std::uint64_t acks = 0;
    std::uint64_t dupDropped = 0;
    std::uint64_t oooDropped = 0;
    std::uint64_t deadLinks = 0;
    std::uint64_t violations = 0;
    std::uint64_t watchdogTrips = 0;
    std::string detail;         ///< first violation / panic message

    // Crash-recovery summary (crash@ faults only, DESIGN.md §15).
    std::uint64_t crashesInjected = 0;
    std::uint64_t recoveries = 0;

    // Sharing-analyzer summary (campaigns always analyze).
    std::array<std::uint64_t, kSharePatterns> patternBlocks{};
    std::uint64_t falseSharingBlocks = 0;
    std::string dominantPattern;

    // Transaction-tracer summary (campaigns always trace; completed
    // transactions only — an aborted run keeps its partial view).
    std::uint64_t txnOpened = 0;
    std::uint64_t txnCompleted = 0;
    std::uint64_t txnRetx = 0;       ///< retransmit-affected txns
    std::uint64_t txnWallTicks = 0;
    std::array<std::uint64_t, kTxnCats> txnCatTicks{};
    std::string txnDominantPattern;  ///< pattern with most wall time
};

/** The aggregated campaign result. */
struct CampaignReport
{
    std::string faultSpec;      ///< the --faults spec, verbatim
    std::uint64_t baseSeed = 0;
    int runsPerSystem = 0;
    bool reliable = true;
    int shardIndex = 0;         ///< which shard this report covers
    int shardCount = 1;         ///< 1 = unsharded
    std::vector<CampaignRun> runs;

    std::uint64_t countOutcome(const std::string& outcome) const;
    /** True iff every run completed clean ("ok"). */
    bool allOk() const { return countOutcome("ok") == runs.size(); }

    /** Deterministic JSON (stable order, no wall-clock). */
    void writeJson(std::ostream& os) const;
    bool writeJsonFile(const std::string& path) const;
};

/** Derive the i-th run seed from the campaign base seed (SplitMix64). */
std::uint64_t campaignSeed(std::uint64_t base, int i);

/**
 * Run the whole campaign. Never throws for per-run failures; a user
 * error (FatalError) propagates.
 */
CampaignReport runCampaign(const CampaignConfig& cc);

} // namespace tt

#endif // TT_CONFIG_CAMPAIGN_HH
