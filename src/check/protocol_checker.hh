/**
 * @file
 * ProtocolChecker — the coherence sanitizer (DESIGN.md §8, §13).
 *
 * A DRD-style runtime verifier that observes every tag transition,
 * directory update, message send/delivery, and completed CPU access
 * through the CheckHooks interface — fed by the flight recorder, the
 * one seam the producers notify — and validates global coherence
 * invariants after every protocol event:
 *
 *  - swmr: at most one writable copy of a block system-wide, and no
 *    readable copy coexisting with a writer.
 *  - dir-agreement: the directory entry (Stache home dir / DirNNB
 *    full-map entry) matches the per-node reality (tags or cache
 *    line states).  Documented slack is tolerated: stale sharer
 *    pointers after silent clean-copy drops, Busy tags during a
 *    pending fault, blocks with a live transient or an in-flight
 *    message referencing them.
 *  - table1-tag (Typhoon targets only): no ordinary read/write
 *    completes through an Invalid/Busy tag — reads need
 *    ReadOnly/ReadWrite, writes need ReadWrite, live at completion.
 *  - value: every coherent read returns the bytes of the last
 *    coherent write (shadow memory, byte-granular).
 *  - message-conservation / quiescence (at finalize()): no in-flight
 *    message outlives the run, every request was paired with its
 *    response (no open transients / MSHRs / pending misses).
 *
 * The checker runs in one of two modes (DESIGN.md §13):
 *
 *  - Mode::Fast (`--check`, the default): a Valgrind-grade shadow
 *    engine.  Per-node per-block copy words mirror the tag/cache
 *    state (maintained from the same hooks, so mirror == reality),
 *    SWMR reduces to O(1) population-count checks, directory audits
 *    compare the directory entry against mirror bitmaps, and read
 *    freshness is one packed-word compare — byte-granular value
 *    comparison only happens on a stamp miss or on copy-state
 *    transitions (grant / downgrade / invalidate), never per access.
 *  - Mode::Paranoid (`--check=paranoid`): the original byte-granular
 *    engine — every read value-checked against the shadow, every
 *    audit rescans reality (page tables / cache tag arrays) —
 *    retained as the reference oracle for the differential
 *    no-false-negative suite (tests/check/test_differential.cc).
 *
 * Pages mapped with a custom-protocol mode (mode >= 3, e.g. the EM3D
 * delayed-update protocol whose consumer copies are stale by design)
 * are exempt from swmr/dir-agreement/value checking.
 *
 * The checker is pure observer: it never schedules events, never
 * touches simulated state, and never stops the run (Machine::run
 * panics on a drained queue with unfinished processors, so a checker
 * abort would mask the violation).  Violations are recorded once per
 * (invariant, block) and reported at the end, together with a
 * per-block event trace for the first violation.
 */

#ifndef TT_CHECK_PROTOCOL_CHECKER_HH
#define TT_CHECK_PROTOCOL_CHECKER_HH

#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "check/hooks.hh"
#include "check/shadow_map.hh"
#include "core/tempest.hh"
#include "sim/types.hh"

namespace tt
{

class Counter;
class Machine;
class TyphoonMemSystem;
class Stache;
class DirMemSystem;

class ProtocolChecker final : public CheckHooks
{
  public:
    /// Checking engine selection — see the file comment.
    enum class Mode : std::uint8_t { Fast, Paranoid };

    struct Violation
    {
        std::string invariant; ///< "swmr", "dir-agreement", ...
        Addr blk = 0;
        NodeId node = kNoNode;
        Tick tick = 0;
        std::string detail;
    };

    explicit ProtocolChecker(Machine& m, Mode mode = Mode::Fast);

    /// Attach to a Typhoon target (Stache or a Stache subclass).
    void attachTyphoon(TyphoonMemSystem& ms, Stache& protocol);
    /// Attach to the DirNNB all-hardware baseline, installing a state
    /// listener on every node cache (its line states are DirNNB's tags).
    void attachDirnnb(DirMemSystem& ms);

    /// Record the perturbation seed for the failure report (0 = none).
    void setSeed(std::uint64_t seed) { _seed = seed; }

    Mode mode() const { return _mode; }

    // --- CheckHooks ---------------------------------------------------
    void onTagChange(NodeId n, Addr blk, AccessTag t) override;
    void onPageTags(NodeId n, Addr pageVa, AccessTag t) override;
    void onPageMap(NodeId n, Addr pageVa, std::uint8_t mode) override;
    void onPageUnmap(NodeId n, Addr pageVa) override;
    void onAccess(NodeId n, Addr va, unsigned size, bool isWrite,
                  const void* bytes) override;
    void onBackdoorWrite(Addr va, const void* bytes,
                         std::size_t len) override;
    void onBlockEvent(NodeId n, Addr blk, const char* what) override;
    void onMsgSend(const Message& m) override;
    void onMsgDeliver(const Message& m) override;
    void onEventEnd() override;

    /// End-of-run checks (conservation, quiescence). Call after run().
    void finalize();

    /**
     * Reset the shadow engine to the canonical post-setup view
     * (DESIGN.md §15): shadow data/metadata wiped, in-flight and
     * dirty bookkeeping cleared, custom-page exemptions re-marked
     * (those pages stay mapped across a canonicalize, so no
     * onPageMap re-announces them), and the copy mirror re-seeded
     * with the canonical ownership picture — home holds every
     * non-exempt shared block exclusively on Typhoon targets, no
     * copies anywhere on DirNNB. The caller pokes every shared byte
     * right afterwards, rebuilding the data shadow identically on
     * both sides of a checkpoint/restore or crash-recovery pair.
     * Recorded violations are kept: recovery must not launder them.
     */
    void canonicalize();

    const std::vector<Violation>& violations() const
    {
        return _violations;
    }
    std::uint64_t eventsChecked() const { return _eventsChecked; }

    /**
     * Deterministic human-readable report: PASS line, or seed + first
     * violated invariant + the per-block event trace (the minimized
     * failure report the perturbation harness promises).
     */
    std::string report() const;

    /**
     * Resident bytes of the shadow engine (telemetry memory probe):
     * materialized shadow leaves (the dominant cost — data shadow plus
     * per-node copy mirrors), the event-trace ring, and the dirty /
     * in-flight bookkeeping. Hash-set footprints are approximated as
     * element-payload bytes; bucket-array overhead is not modeled.
     */
    std::size_t footprintBytes() const;

  private:
    /// Generic per-node summary of a block copy, protocol-agnostic.
    /// Numeric values deliberately match AccessTag so the packed copy
    /// word's 2-bit tag field is a direct cast (asserted in the .cc).
    enum class Copy : std::uint8_t { None, Shared, Excl, Busy };

    struct TraceRec
    {
        Tick tick = 0;
        NodeId node = kNoNode;
        Addr blk = 0;
        const char* what = nullptr;
    };

    void trace(NodeId n, Addr blk, const char* what);
    void markDirty(Addr blk);
    void markPageDirty(Addr pageVa);
    bool exempt(Addr blk) const
    {
        return _exemptVpns.count(blk / _pageSize) != 0;
    }
    bool inflight(Addr blk) const;
    void report_(const char* invariant, Addr blk, NodeId node,
                 std::string detail);

    void shadowWrite(Addr va, const void* bytes, std::size_t len);
    /// Compare bytes against shadow; report a "value" violation on
    /// mismatch. Bytes never coherently written are not checked.
    /// @return true iff a mismatch was reported.
    bool shadowCheck(NodeId n, Addr va, const void* bytes,
                     std::size_t len);

    Copy copyState(NodeId n, Addr blk) const;
    void checkBlock(Addr blk);
    void checkSwmr(Addr blk);
    void checkStacheAgreement(Addr blk);
    void checkDirnnbAgreement(Addr blk);
    /// Read a block's bytes out of node-local memory (Typhoon only);
    /// false if the page is unmapped at that node.
    bool readNodeBlock(NodeId n, Addr blk, std::uint8_t* out) const;

    // --- fast-mode engine (DESIGN.md §13) -----------------------------
    std::uint64_t copyWord(NodeId n, std::uint64_t bi) const
    {
        return _copy[static_cast<std::size_t>(n)]
            .get(bi >> shadow::CopyLeaf::kBlocksLog2)
            .word[bi & ((1ull << shadow::CopyLeaf::kBlocksLog2) - 1)];
    }
    std::uint64_t& copyWordRef(NodeId n, std::uint64_t bi)
    {
        return _copy[static_cast<std::size_t>(n)]
            .getWritable(bi >> shadow::CopyLeaf::kBlocksLog2)
            .word[bi & ((1ull << shadow::CopyLeaf::kBlocksLog2) - 1)];
    }
    const shadow::BlockMeta& metaOf(std::uint64_t bi) const
    {
        return _meta.get(bi >> shadow::MetaLeaf::kBlocksLog2)
            .meta[bi & ((1ull << shadow::MetaLeaf::kBlocksLog2) - 1)];
    }
    shadow::BlockMeta& metaRef(std::uint64_t bi)
    {
        return _meta.getWritable(bi >> shadow::MetaLeaf::kBlocksLog2)
            .meta[bi & ((1ull << shadow::MetaLeaf::kBlocksLog2) - 1)];
    }

    void fastTag(NodeId n, Addr blk, Copy c, const char* what);
    void fastAccess(NodeId n, Addr va, unsigned size, bool isWrite,
                    const void* bytes);
    void fastMarkDirty(Addr blk, shadow::BlockMeta& m);
    /// Mint a fresh stamp from non-write protocol activity so every
    /// validated word for the block goes stale.
    void fastBumpStamp(shadow::BlockMeta& m);
    void clearAllValidated();
    /// Full-block verification of node n's view against the shadow;
    /// validates the node's copy word at `stamp` on success.
    void fastValidateBlock(NodeId n, Addr blk, std::uint64_t stamp,
                           Addr va, const void* bytes, unsigned size);
    /// Lazy transition compare (grant / leaving-ReadWrite).
    void fastCompareBlock(NodeId n, Addr blk);
    /// Compare node n's actual block bytes against the shadow's valid
    /// bytes. -1: block unreadable (unmapped / oversized / DirNNB);
    /// 0: match; 1: mismatch (a "value" violation was reported).
    int blockVsShadow(NodeId n, Addr blk);
    void fastCheckBlock(Addr blk, shadow::BlockMeta& m);
    void fastStacheAudit(Addr blk, const shadow::BlockMeta& m);
    void fastDirnnbAudit(Addr blk, const shadow::BlockMeta& m);

    Machine& _m;
    Mode _mode;
    TyphoonMemSystem* _tms = nullptr;
    Stache* _stache = nullptr;
    DirMemSystem* _dms = nullptr;

    int _nodes = 0;
    std::uint32_t _blockSize = 0;
    std::uint32_t _pageSize = 0;
    unsigned _blkShift = 0;
    std::uint64_t _seed = 0;

    // Byte-granular data shadow (both modes).
    ShadowTable<shadow::DataLeaf> _data;
    // Fast mode: per-block metadata + per-node copy-word mirrors.
    ShadowTable<shadow::MetaLeaf> _meta;
    std::vector<ShadowTable<shadow::CopyLeaf>> _copy;
    std::vector<std::uint64_t> _epoch; ///< per-node write counters
    std::uint64_t _auxEpoch = 0; ///< stamps for non-write activity
    std::vector<std::pair<NodeId, Addr>> _lazyCmp;

    // Activity counters surfaced in --stats-json (obs.check.*): how
    // hard the shadow engine actually worked this run.
    Counter* _statAudits = nullptr;     ///< block audits performed
    Counter* _statLazyCmps = nullptr;   ///< lazy transition compares
    Counter* _statEpochWraps = nullptr; ///< epoch wraps (mass wipes)

    std::unordered_set<std::uint64_t> _exemptVpns;

    // Blocks ever touched by a tag/directory event: the universe the
    // checker validates. Message address args outside this set are
    // ignored (they may not be block addresses at all).  Fast mode
    // tracks the same facts in BlockMeta::flags instead.
    std::unordered_set<Addr> _seenBlocks;

    std::vector<Addr> _dirty; // blocks touched since last onEventEnd
    std::unordered_set<Addr> _dirtySet; // paranoid mode only

    std::unordered_map<Addr, int> _inflightByBlk;
    long _inflightTotal = 0;

    std::vector<TraceRec> _trace; // ring
    std::size_t _traceHead = 0;
    static constexpr std::size_t kTraceCap = 8192;

    std::vector<Violation> _violations;
    std::unordered_set<std::string> _violationKeys;
    static constexpr std::size_t kMaxViolations = 64;


    std::uint64_t _eventsChecked = 0;
};

} // namespace tt

#endif // TT_CHECK_PROTOCOL_CHECKER_HH
