/**
 * @file
 * Stache: user-level transparent shared memory on Tempest (paper
 * section 3).
 *
 * Stache turns part of each node's local memory into a large,
 * fully-associative cache of remote data ("level-3 cache"): pages are
 * allocated and mapped at page grain by a user-level page-fault
 * handler; coherence is maintained at block grain by block-access-
 * fault handlers and active-message handlers running on the NP. The
 * default coherence protocol is a home-based invalidation protocol in
 * the LimitLESS style, implemented entirely in software: 64-bit
 * directory entries (six pointers -> 32-bit bit vector -> auxiliary
 * structure), request deferral at busy entries, and the paper's
 * signature move — the handler for the final invalidation
 * acknowledgment is the one that sends the data. Stache pages are
 * replaced FIFO; modified blocks are written back to their home,
 * clean blocks drop silently (so invalidations tolerate stale
 * sharers).
 */

#ifndef TT_STACHE_STACHE_HH
#define TT_STACHE_STACHE_HH

#include <deque>
#include <unordered_set>
#include <vector>

#include "sim/dense_map.hh"
#include "stache/dir_entry.hh"
#include "stache/params.hh"
#include "typhoon/typhoon_mem_system.hh"

namespace tt
{

class Stache : public ShmProtocol
{
  public:
    /** Page modes (select the fault-handler set; section 5.4). */
    static constexpr std::uint8_t kModeHome = 1;
    static constexpr std::uint8_t kModeStache = 2;

    /** Active-message handler ids of the Stache protocol. */
    enum Handlers : HandlerId
    {
        kGetRO = 0x100, ///< requester -> home: read copy request
        kGetRW,         ///< requester -> home: exclusive request
        kDataRO,        ///< home -> requester: read-only data
        kDataRW,        ///< home -> requester: writable data
        kInval,         ///< home -> sharer: invalidate
        kInvAck,        ///< sharer -> home
        kRecallRW,      ///< home -> owner: give up exclusive copy
        kDowngrade,     ///< home -> owner: demote to read-only
        kPutData,       ///< owner -> home: recalled/downgraded data
        kPutNack,       ///< owner -> home: copy already written back
        kWriteback,     ///< owner -> home: replacement writeback
        kPrefetch,      ///< CPU -> own NP: nonbinding block prefetch
    };

    Stache(Machine& m, TyphoonMemSystem& ms, StacheParams p = {});

    // --- ShmProtocol ------------------------------------------------------
    Addr shmalloc(std::size_t bytes, NodeId home = kNoNode) override;
    NodeId homeOf(Addr va) const override;
    void peek(Addr va, void* buf, std::size_t len) override;
    void poke(Addr va, const void* buf, std::size_t len) override;
    std::string protocolName() const override { return "Stache"; }
    void describeHandlers(FlightRecorder& rec) const override;
    std::vector<MemorySystem::SharedRange> sharedAllocs() const override
    {
        return _allocs;
    }
    // coherentPeek: default (= peek). Stache::peek already reads the
    // exclusive owner's frame when a block is dirty-remote.
    void canonicalize(std::uint64_t epochSeed) override;

    // --- introspection -----------------------------------------------------
    struct BlockView
    {
        StacheDirEntry::State state = StacheDirEntry::State::Idle;
        std::vector<NodeId> sharers;
        NodeId owner = kNoNode;
        bool busy = false;        ///< transaction in flight
        std::uint64_t raw = 0;    ///< the packed 64-bit entry
    };
    BlockView inspect(Addr va) const;

    /**
     * Non-allocating directory peek for the fast checker's audit hot
     * path (DESIGN.md §13): like inspect(), but exposes the entry and
     * aux-table pointers instead of copying the sharer list into a
     * vector. The pointers are only valid until the next protocol
     * event.
     */
    struct BlockPeek
    {
        StacheDirEntry::State state = StacheDirEntry::State::Idle;
        NodeId owner = kNoNode;
        bool busy = false;
        const StacheDirEntry* entry = nullptr;
        const StacheAuxTable* aux = nullptr;
    };
    BlockPeek peekEntry(Addr va) const;

    /** No transient protocol state anywhere. */
    bool quiescent() const { return _transients.empty(); }

    /**
     * Whole-protocol coherence audit (host-side, zero simulated
     * cost; call only at quiescence). Checks, for every allocated
     * block: the home-tag discipline (Idle=>RW, Shared=>RO,
     * Excl=>Invalid), that every *mapped* sharer holds a ReadOnly
     * copy whose bytes equal the home copy, and that the exclusive
     * owner holds a ReadWrite copy. Returns the number of
     * violations (0 = coherent) and warns on each.
     */
    std::size_t auditCoherence();

    /**
     * Software prefetch (section 5.4's motivating use of the Busy
     * tag): ask the local NP to fetch a read-only copy of the block
     * containing @p va ahead of use. Nonbinding and asynchronous:
     * the block is tagged Busy while outstanding, a later demand
     * fault on a Busy block just waits for the in-flight data, and
     * the arrival handler resumes the CPU only if it is actually
     * suspended on that block. Unmapped pages are mapped by the NP.
     */
    void prefetch(Cpu& cpu, Addr va);
    /** Stache pages currently mapped at @p node. */
    std::size_t stachePagesAt(NodeId node) const;
    const StacheParams& params() const { return _p; }

    /**
     * Resident bytes of the protocol state (telemetry memory probe,
     * DESIGN.md §16): home directories (entry vectors + aux tables),
     * page-home maps, per-node local tables / FIFO / vpn sets, and
     * the in-flight transient table.
     */
    std::size_t footprintBytes() const;

  protected:
    // The custom EM3D protocol (src/custom) subclasses Stache and
    // reuses its home-side machinery for custom page modes.
    struct HomeDir
    {
        std::vector<StacheDirEntry> entries; ///< one per block
        StacheAuxTable aux;
    };

    struct Deferred
    {
        NodeId requester;
        bool wantRW;
        bool upgrade;
        std::uint32_t txn = 0; ///< requester's transaction context
    };

    struct Transient
    {
        NodeId requester = kNoNode;
        bool wantRW = false;
        bool dataless = false; ///< grantable as an upgrade (no block)
        int acksLeft = 0;
        bool awaitingData = false;
        NodeId owner = kNoNode; ///< recall/downgrade target
        bool wasDowngrade = false;
        bool sawWb = false;
        std::deque<Deferred> deferred;
    };

    struct NodeState
    {
        /** The "local table" caching page -> home (section 3). */
        DenseMap<NodeId> homeCache; ///< vpn -> home
        std::deque<Addr> stacheFifo; ///< page base VAs, FIFO order
        std::unordered_set<std::uint64_t> stacheVpns;
    };

    // Handler bodies.
    void onStacheFault(TempestCtx& ctx, const BlockFault& f);
    void onHomeFault(TempestCtx& ctx, const BlockFault& f);
    void onPageFault(TempestCtx& ctx, Addr va, MemOp op);
    void onGet(TempestCtx& ctx, const Message& msg, bool wantRW);
    void onData(TempestCtx& ctx, const Message& msg, bool rw);
    void onInval(TempestCtx& ctx, const Message& msg);
    void onInvAck(TempestCtx& ctx, const Message& msg);
    void onRecall(TempestCtx& ctx, const Message& msg, bool downgrade);
    void onPutData(TempestCtx& ctx, const Message& msg);
    void onPutNack(TempestCtx& ctx, const Message& msg);
    void onWriteback(TempestCtx& ctx, const Message& msg);
    void onPrefetch(TempestCtx& ctx, const Message& msg);

    // Home-side machinery. homeRequest is virtual so custom
    // protocols can reshape requests (e.g. migratory promotion)
    // before the base coherence machine runs.
    virtual void homeRequest(TempestCtx& ctx, Addr blk,
                             NodeId requester, bool wantRW,
                             bool upgrade = false);
    void grantFromHome(TempestCtx& ctx, Addr blk, NodeId requester,
                       bool wantRW, NodeId keep_sharer,
                       bool dataless = false);
    void finishTransient(TempestCtx& ctx, Addr blk,
                         NodeId keep_sharer);

    /**
     * Hook for adaptive subclasses: an owner returned its copy of
     * @p blk; @p modified reports whether the owner's CPU wrote it
     * since the grant (bus-observed; false negatives possible after
     * cache eviction).
     */
    virtual void
    onOwnerDataReturned(Addr blk, NodeId from, bool modified)
    {
        (void)blk;
        (void)from;
        (void)modified;
    }
    void sendBlockData(TempestCtx& ctx, NodeId dst, HandlerId kind,
                       Addr blk);

    /**
     * Subclass extension point for canonicalize (DESIGN.md §15):
     * called at the end of Stache::canonicalize so custom protocols
     * (EM3D update, Migratory) reset their own state the same way.
     */
    virtual void onCanonicalize(std::uint64_t epochSeed)
    {
        (void)epochSeed;
    }

    // Helpers.
    HomeDir& homeDirOf(Addr va);
    const HomeDir* findHomeDir(Addr va) const;
    StacheDirEntry& entryOf(Addr blk);
    std::uint64_t entryKey(Addr blk) const;
    void readBlockHost(NodeId node, Addr blk, void* buf);
    std::uint32_t blocksPerPage() const;

    Machine& _m;
    TyphoonMemSystem& _ms;
    StacheParams _p;
    const CoreParams& _cp;
    StatSet& _stats;

    DenseMap<NodeId> _pageHome;   ///< vpn -> home
    DenseMap<HomeDir> _homeDirs;  ///< vpn -> dir
    OpenMap<Addr, Transient> _transients; ///< blk -> state
    std::vector<NodeState> _nodes;
    Addr _nextVa = 0x4000'0000;
    NodeId _rr = 0;
    std::vector<MemorySystem::SharedRange> _allocs; ///< shmalloc log

    // Occurrence counters for the Nth-occurrence mutation knobs
    // (StacheParams::faultSkip*Nth / faultCorruptPutNth).
    std::uint32_t _faultDowngrades = 0;
    std::uint32_t _faultInvals = 0;
    std::uint32_t _faultPuts = 0;

    // Hot-path stat handles, resolved once at construction (StatSet
    // hands out stable references).
    Counter& _cPageFaults;
    Counter& _cPageReplacements;
    Counter& _cWritebacks;
    Counter& _cWritebacksReceived;
    Counter& _cPrefetchHitsInFlight;
    Counter& _cGetRo;
    Counter& _cGetRw;
    Counter& _cHomeFaults;
    Counter& _cHomeRequests;
    Counter& _cDeferred;
    Counter& _cInvalsSent;
    Counter& _cRecalls;
    Counter& _cUpgradeGrants;
    Counter& _cDataReceived;
    Counter& _cPrefetches;
};

} // namespace tt

#endif // TT_STACHE_STACHE_HH
