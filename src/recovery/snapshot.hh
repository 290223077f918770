/**
 * @file
 * The snapshot at the heart of checkpoint/restart and crash recovery
 * (DESIGN.md §15). One Snapshot is everything a run needs to continue
 * from a quiescent barrier-release epoch: the episode count, the
 * release tick, the barrier arrival order (same-tick event order is
 * insertion order, so the order fully determines how restored bodies
 * interleave), the bytes of every shared allocation, and — for file
 * checkpoints only — the statistics registry, so a restored run's
 * final report is byte-identical to the checkpointing run's.
 *
 * Machine state outside the snapshot (caches, TLBs, directory and
 * stache metadata, transport windows, pending events) is *not*
 * serialized: both sides of a restore canonicalize it away instead
 * (MemorySystem::canonicalize), which is what makes the format this
 * small and the identity argument this short.
 */

#ifndef TT_RECOVERY_SNAPSHOT_HH
#define TT_RECOVERY_SNAPSHOT_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sim/stats.hh"
#include "sim/types.hh"

namespace tt
{

class MemorySystem;

struct Snapshot
{
    /// Config identity (fnv1a of the assembled config key); a restore
    /// under a different configuration is refused.
    std::uint64_t fingerprint = 0;
    std::uint64_t episodes = 0; ///< completed barrier episodes
    Tick tick = 0;              ///< barrier release tick
    std::vector<int> order;     ///< CPU ids in barrier arrival order

    struct MemRange
    {
        Addr va = 0;
        std::vector<std::uint8_t> bytes;
    };
    std::vector<MemRange> mem; ///< one range per shared allocation

    // Statistics (file checkpoints only; in-memory crash-recovery
    // snapshots leave these empty — rolled-back work stays counted).
    std::vector<std::pair<std::string, std::uint64_t>> counters;
};

/** FNV-1a over a config-identity string. */
std::uint64_t configFingerprint(const std::string& key);

/**
 * Capture the bytes of every shared allocation. @p coherent reads
 * through the protocol's current-copy view without perturbing any
 * state (crash-recovery snapshots); otherwise a plain peek, which is
 * exact once the memory system has been canonicalized (checkpoints).
 */
void captureMem(MemorySystem& ms, Snapshot& s, bool coherent);

/** Poke every captured range back (backdoor: no tags move). */
void pokeMem(MemorySystem& ms, const Snapshot& s);

void captureStats(const StatSet& stats, Snapshot& s);
/** Restore counters by name, creating any this run has not yet. */
void restoreStats(StatSet& stats, const Snapshot& s);

/**
 * Binary file format "TTCKPT2"; tt_fatal on IO or format errors,
 * including a length prefix larger than the bytes left in the file.
 */
void saveSnapshot(const Snapshot& s, const std::string& path);
Snapshot loadSnapshot(const std::string& path);

} // namespace tt

#endif // TT_RECOVERY_SNAPSHOT_HH
