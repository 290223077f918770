/**
 * @file
 * The all-hardware DirNNB cache-coherence baseline (paper section 6).
 *
 * A full-map (Dir_N), no-broadcast (NB) invalidation directory
 * protocol: each 32-byte block has a home node holding its directory
 * entry (Idle / Shared with a sharer bit vector / Exclusive with an
 * owner). Request/response traffic rides the two virtual networks;
 * conflicting requests are serialized at the home via a per-block
 * MSHR with a deferred-request queue. Timing follows the Table 2
 * decomposition exactly (see dir/params.hh).
 *
 * Data lives in a single (logically distributed) global store that
 * writers update eagerly; caches are timing models. Replacements of
 * exclusive lines send writebacks so the directory never holds a
 * stale owner; shared lines evict silently, so invalidations to
 * non-resident lines are acknowledged as no-ops (the classic stale-
 * sharer case).
 */

#ifndef TT_DIR_DIR_MEM_SYSTEM_HH
#define TT_DIR_DIR_MEM_SYSTEM_HH

#include <algorithm>
#include <deque>
#include <memory>
#include <vector>

#include "core/machine.hh"
#include "core/memsys.hh"
#include "dir/node_set.hh"
#include "dir/params.hh"
#include "mem/cache_model.hh"
#include "mem/phys_mem.hh"
#include "mem/tlb_model.hh"
#include "net/network.hh"
#include "sim/dense_map.hh"

namespace tt
{

class DirMemSystem : public MemorySystem
{
  public:
    /** Directory entry state (stable states). */
    enum class DirState : std::uint8_t { Idle, Shared, Excl };

    DirMemSystem(Machine& m, Network& net, DirParams params);

    // --- MemorySystem -------------------------------------------------
    AccessOutcome access(MemRequest* req) override;
    Addr shmalloc(std::size_t bytes, NodeId home = kNoNode) override;
    NodeId homeOf(Addr va) const override;
    void peek(Addr va, void* buf, std::size_t len) override;
    void poke(Addr va, const void* buf, std::size_t len) override;
    Tick oldestPendingSince() const override;
    std::vector<SharedRange> sharedAllocs() const override
    {
        return _allocs;
    }
    // coherentPeek: default (= peek). The DirNNB store is written
    // eagerly by every sanctioned write, so the home copy is always
    // the latest coherent bytes; caches are timing-only.
    void canonicalize(std::uint64_t epochSeed) override;
    std::string name() const override { return "DirNNB"; }

    /**
     * Fallback for message handler ids outside the hardware protocol
     * (the recovery coordinator's quiesce/ack traffic, DESIGN.md §15).
     * Unset, an unknown handler id stays a protocol bug (tt_panic).
     */
    using ExtraHandler = std::function<void(NodeId, Message&&)>;
    void setExtraHandler(ExtraHandler h) { _extra = std::move(h); }

    // --- introspection (tests / benches) -------------------------------
    struct EntryView
    {
        DirState state = DirState::Idle;
        std::vector<NodeId> sharers;
        NodeId owner = kNoNode;
        bool busy = false;
    };

    EntryView inspect(Addr va) const;

    /**
     * Non-allocating directory peek for the fast checker's audit hot
     * path (DESIGN.md §13): like inspect(), but hands out a pointer
     * to the sharer set instead of copying it. The pointer is only
     * valid until the next protocol event.
     */
    struct EntryPeek
    {
        DirState state = DirState::Idle;
        NodeId owner = kNoNode;
        bool busy = false;
        const NodeSet* sharers = nullptr;
    };
    EntryPeek peekEntry(Addr blk) const;

    CacheModel& cacheOf(NodeId n) { return *_nodes.at(n).cache; }
    TlbModel& tlbOf(NodeId n) { return *_nodes.at(n).tlb; }
    /** True iff no transaction is in flight anywhere. */
    bool quiescent() const override;

    /**
     * Resident bytes of the protocol state (telemetry memory probe):
     * directory entries (+ live MSHRs), page-home map, global store,
     * and per-node cache/TLB models and pending-miss maps.
     */
    std::size_t footprintBytes() const;

    /** Attach the flight recorder (nullptr = disabled). */
    void
    setRecorder(FlightRecorder* r)
    {
        _obs = r;
        if (!r)
            return;
        r->nameHandler(kReadReq, "dir.read_req");
        r->nameHandler(kWriteReq, "dir.write_req");
        r->nameHandler(kUpgradeReq, "dir.upgrade_req");
        r->nameHandler(kData, "dir.data");
        r->nameHandler(kGrantUp, "dir.grant_up");
        r->nameHandler(kInv, "dir.inv");
        r->nameHandler(kInvAck, "dir.inv_ack");
        r->nameHandler(kRecall, "dir.recall");
        r->nameHandler(kRecallData, "dir.recall_data");
        r->nameHandler(kRecallNack, "dir.recall_nack");
        r->nameHandler(kWriteBack, "dir.writeback");
    }

  private:
    /** Active-message handler ids of the hardware protocol. */
    enum MsgKind : HandlerId
    {
        kReadReq = 1,
        kWriteReq,
        kUpgradeReq,
        kData,     ///< args[2]: 1 = read(Shared) grant, 2 = write(Owned)
        kGrantUp,  ///< dataless upgrade grant
        kInv,      ///< home -> sharer invalidation
        kInvAck,   ///< sharer -> home
        kRecall,   ///< home -> owner; args[2]: 0 = downgrade, 1 = inval
        kRecallData,
        kRecallNack, ///< owner no longer has the line (writeback races)
        kWriteBack,
    };

    struct Deferred
    {
        NodeId requester;
        MemOp op;
        bool upgrade;
        std::uint32_t txn = 0; ///< requester's transaction context
    };

    /** Per-block transaction state at the home. */
    struct Mshr
    {
        MemOp op = MemOp::Read;
        NodeId requester = kNoNode;
        bool upgrade = false;     ///< grant without data
        int acksLeft = 0;         ///< outstanding invalidation acks
        bool awaitingRecall = false;
        NodeId recallTarget = kNoNode;
        bool sawWb = false;       ///< a racing writeback supplied data
        NodeId keepSharer = kNoNode; ///< downgraded owner stays a sharer
        std::deque<Deferred> deferred;
    };

    struct DirEntry
    {
        DirState state = DirState::Idle;
        NodeSet sharers;
        NodeId owner = kNoNode;
        std::unique_ptr<Mshr> mshr;
    };

    struct PendingMiss
    {
        MemRequest* req = nullptr;
        bool upgrade = false;
    };

    struct Node
    {
        std::unique_ptr<CacheModel> cache;
        std::unique_ptr<TlbModel> tlb;
        Tick ctrlFree = 0; ///< controller occupancy
        OpenMap<Addr, PendingMiss> pending; // by block addr
    };

    // helpers ------------------------------------------------------------
    DirEntry& entry(Addr blk);
    const DirEntry* findEntry(Addr blk) const;
    NodeId resolveHome(Addr va, NodeId toucher);
    void transfer(MemRequest* req);
    Tick ctrlStart(NodeId n, Tick earliest);

    void onMessage(NodeId self, Message&& msg);
    void sendMsg(NodeId src, NodeId dst, VNet vnet, MsgKind kind,
                 Addr blk, Tick when, Word extra = 0,
                 bool carryBlock = false);

    /** Enter a request into the home-side state machine. */
    void homeRequest(NodeId home, Addr blk, NodeId requester, MemOp op,
                     bool upgrade, Tick when);
    void homeProcess(NodeId home, Addr blk, NodeId requester, MemOp op,
                     bool upgrade, Tick start);
    void grant(NodeId home, Addr blk, Tick when);
    void applyWriteback(NodeId home, Addr blk, NodeId from, Tick when);

    void completeAtRequester(NodeId node, Addr blk, bool withData,
                             bool writeGrant, Tick when);
    void completeLocal(NodeId node, Addr blk, Tick when);
    void handleVictim(NodeId node, const CacheResult& fres, Tick when);

    Machine& _m;
    Network& _net;
    DirParams _p;
    const CoreParams& _cp;
    StatSet& _stats;
    FlightRecorder* _obs = nullptr; ///< flight recorder, opt-in

    std::vector<Node> _nodes;

    // Occurrence counters for the Nth-occurrence mutation knobs
    // (DirParams::faultSkip*Nth).
    std::uint32_t _faultInvalidates = 0;
    std::uint32_t _faultDowngrades = 0;

    DenseMap<DirEntry> _dir;      ///< keyed by block number (blk/B)
    DenseMap<NodeId> _pageHome;   ///< vpn -> home
    PhysMem _store; // va-keyed global memory
    Addr _nextVa;
    NodeId _rrNext = 0;
    std::vector<SharedRange> _allocs; ///< shmalloc log (checkpointing)
    ExtraHandler _extra; ///< recovery-message fallback, opt-in

    // Hot-path stat handles, resolved once at construction (StatSet
    // hands out stable references).
    Counter& _cFirstTouch;
    Counter& _cTlbMisses;
    Counter& _cCacheHits;
    Counter& _cLocalMisses;
    Counter& _cLocalUpgrades;
    Counter& _cLocalConflictMisses;
    Counter& _cRemoteMisses;
    Counter& _cWritebacks;
    Counter& _cInvReceived;
    Counter& _cRecallsReceived;
    Counter& _cDeferred;
    Counter& _cOps;
    Counter& _cRecallsSent;
    Counter& _cInvSent;
    Counter& _cWritebacksReceived;
};

} // namespace tt

#endif // TT_DIR_DIR_MEM_SYSTEM_HH
