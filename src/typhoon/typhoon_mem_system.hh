/**
 * @file
 * Typhoon: the hardware implementation of the Tempest interface
 * (paper section 5).
 *
 * Each node couples a commodity CPU (cache + TLB timing models, local
 * physical memory, a user-managed page table) with a network
 * interface processor (NP). The NP snoops the memory bus to enforce
 * per-block access tags held in a reverse TLB (RTLB): permitted
 * accesses complete at memory speed; violations suspend the CPU
 * ("relinquish and retry" + masked bus request) and enter the NP's
 * block-access-fault (BAF) buffer. A hardware-assisted dispatch loop
 * runs user-level handlers to completion — priority order: response
 * virtual network, BAF, request virtual network — charging one cycle
 * per NP instruction.
 *
 * The policy layer (Stache, custom protocols) is installed as a
 * ShmProtocol and a set of registered message/fault handlers; Typhoon
 * itself implements mechanism only.
 */

#ifndef TT_TYPHOON_TYPHOON_MEM_SYSTEM_HH
#define TT_TYPHOON_TYPHOON_MEM_SYSTEM_HH

#include <algorithm>
#include <array>
#include <deque>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/machine.hh"
#include "core/memsys.hh"
#include "core/tempest.hh"
#include "mem/cache_model.hh"
#include "mem/page_table.hh"
#include "mem/phys_mem.hh"
#include "mem/tlb_model.hh"
#include "net/network.hh"
#include "typhoon/params.hh"

namespace tt
{

class CheckHooks;
class TyphoonMemSystem;

/**
 * The protocol library installed on Typhoon: owns shared-segment
 * allocation policy and the authoritative-copy backdoors.
 */
class ShmProtocol
{
  public:
    virtual ~ShmProtocol() = default;
    virtual Addr shmalloc(std::size_t bytes, NodeId home) = 0;
    virtual NodeId homeOf(Addr va) const = 0;
    virtual void peek(Addr va, void* buf, std::size_t len) = 0;
    virtual void poke(Addr va, const void* buf, std::size_t len) = 0;
    virtual std::string protocolName() const = 0;

    /**
     * Every shared segment ever allocated, in allocation order — the
     * checkpoint universe (DESIGN.md §15). Default: none (the
     * protocol does not support checkpointing).
     */
    virtual std::vector<MemorySystem::SharedRange>
    sharedAllocs() const
    {
        return {};
    }

    /**
     * Like coherentPeek on MemorySystem: read the latest coherent
     * bytes even while a remote copy is dirty. Default: peek (the
     * home copy is authoritative).
     */
    virtual void
    coherentPeek(Addr va, void* buf, std::size_t len)
    {
        peek(va, buf, len);
    }

    /**
     * Protocol-side canonicalize (DESIGN.md §15): rebuild directory /
     * pattern state to the post-shmalloc canonical form and undo every
     * runtime page mapping via the host backdoors. Called by
     * TyphoonMemSystem::canonicalize before the mechanism-level reset.
     * Default: unsupported.
     */
    virtual void
    canonicalize(std::uint64_t epochSeed)
    {
        (void)epochSeed;
        tt_panic("protocol '", protocolName(),
                 "' does not support canonicalize");
    }

    /**
     * Register this protocol's handler-id -> name table with a flight
     * recorder (names show up in Perfetto slices and ring dumps).
     */
    virtual void describeHandlers(FlightRecorder& rec) const
    {
        (void)rec;
    }
};

class TyphoonMemSystem : public MemorySystem
{
  public:
    TyphoonMemSystem(Machine& m, Network& net, TyphoonParams params);
    ~TyphoonMemSystem() override;

    // --- MemorySystem ---------------------------------------------------
    AccessOutcome access(MemRequest* req) override;
    Addr shmalloc(std::size_t bytes, NodeId home = kNoNode) override;
    NodeId homeOf(Addr va) const override;
    void peek(Addr va, void* buf, std::size_t len) override;
    void poke(Addr va, const void* buf, std::size_t len) override;
    Tick oldestPendingSince() const override;
    std::vector<SharedRange> sharedAllocs() const override;
    void coherentPeek(Addr va, void* buf, std::size_t len) override;
    void setupComplete() override;
    void canonicalize(std::uint64_t epochSeed) override;
    std::string name() const override;

    /** Install the user-level protocol (Stache etc.); not owned. */
    void setProtocol(ShmProtocol* p) { _protocol = p; }

    /** The per-node Tempest registration interface. */
    Tempest& tempest(NodeId n);

    /**
     * App-level operation: the computation processor sends an active
     * message via memory-mapped stores (section 5.1), charging the
     * CPU one cycle per word. dst == self short-circuits the network
     * into the local NP. Fire-and-forget: no suspension.
     */
    void cpuSend(Cpu& cpu, NodeId dst, HandlerId h,
                 Message::Args args, Message::Data data = {});

    // --- introspection (tests/benches) -----------------------------------
    CacheModel& cpuCacheOf(NodeId n);
    PhysMem& physOf(NodeId n);
    PageTable& pageTableOf(NodeId n);
    AccessTag tagOf(NodeId n, Addr va) const;
    bool npIdle(NodeId n) const;

    /** True iff all NPs are idle with empty queues and no BAF. */
    bool quiescent() const override;
    const TyphoonParams& params() const { return _p; }

    /**
     * Canonicalize backdoors (DESIGN.md §15): host-level page
     * operations for the protocol-side canonicalize walks. Unlike the
     * NpCtx equivalents they charge nothing, fire no checker/observer
     * hooks (the checker canonicalizes separately), and skip
     * per-block cache invalidation (a wholesale flush follows).
     */
    void recUnmapPage(NodeId n, Addr va);
    void recSetPageTags(NodeId n, Addr va, AccessTag t);
    void recFreePhysPage(NodeId n, PAddr pa);

    /** Attach the coherence sanitizer (nullptr = disabled). */
    void setChecker(CheckHooks* c) { _checker = c; }

    /**
     * Resident bytes of the mechanism state (telemetry memory probe):
     * per-node timing models, physical memory backing, page tables,
     * tag blocks, NP queues, and the protocol trace ring.
     */
    std::size_t footprintBytes() const;

    /** Attach the flight recorder (nullptr = disabled). */
    void
    setRecorder(FlightRecorder* r)
    {
        _obs = r;
        if (r)
            r->nameHandler(kBulkDataHandler, "bulk_data");
    }

    /** The attached recorder (protocols emit sharing records via it). */
    FlightRecorder* recorder() const { return _obs; }

  private:
    friend class NpCtx;
    friend class TyphoonTempest;

    /** Per-page tag block (the RTLB's backing state). */
    struct PageTags
    {
        std::vector<AccessTag> tags; ///< one per block in the page
        std::uint64_t userWord = 0;  ///< 48-bit uninterpreted state
    };

    /** Block access fault record (the BAF buffer entry). */
    struct Baf
    {
        BlockFault fault;
        Tick postedAt = 0;
    };

    struct Node
    {
        // CPU side.
        std::unique_ptr<CacheModel> cpuCache;
        std::unique_ptr<TlbModel> cpuTlb;
        std::unique_ptr<PhysMem> phys;
        std::unique_ptr<PageTable> pt;
        MemRequest* suspended = nullptr;

        // NP side.
        std::unique_ptr<CacheModel> npDcache;
        std::unique_ptr<TlbModel> npTlb;
        std::unique_ptr<TlbModel> rtlb;
        /**
         * Tag state, indexed by ppn. Node physical pages are
         * bump-allocated from ppn 1, so the vector stays dense; a
         * page with no per-block tags vector is unbacked.
         */
        std::vector<PageTags> tags;
        std::deque<Message> respQ;
        std::deque<Message> reqQ;
        std::optional<Baf> baf;
        bool npBusy = false;
        /**
         * Busy-clear event generation (DESIGN.md §15): each scheduled
         * npBusy-clear captures the generation at schedule time and
         * becomes a no-op if canonicalize() bumped it meanwhile — a
         * checkpoint taken during a handler's charged-cycles tail
         * must not let the stale timer clear a fresh activation.
         */
        std::uint64_t npGen = 0;
        std::unordered_map<HandlerId, MsgHandler> msgHandlers;
        /** Indexed by faultKey(); modes are small (<= 15). */
        std::array<FaultHandler, 32> faultHandlers;
        PageFaultHandler pageFaultHandler;

        // Bulk transfer engine.
        struct Bulk
        {
            Addr srcVa;
            NodeId dst;
            Addr dstVa;
            std::uint32_t remaining;
            HandlerId doneHandler;
        };
        std::deque<Bulk> bulkQ;
    };

    static std::uint16_t
    faultKey(std::uint8_t mode, MemOp op)
    {
        return static_cast<std::uint16_t>(mode) << 1 |
               (op == MemOp::Write ? 1 : 0);
    }

    // CPU access pipeline.
    struct PipeResult
    {
        enum class Kind { Done, PageFault, BlockFault } kind;
        Tick cost = 0;
        BlockFault fault{};
    };
    PipeResult pipeline(NodeId node, MemRequest* req);
    void retryAccess(NodeId node, Tick when);
    void deliverPageFault(NodeId node, MemRequest* req, Tick when);
    void postBaf(NodeId node, const BlockFault& f, Tick when);

    // NP engine.
    void npDeliver(NodeId node, Message&& msg);
    void npPump(NodeId node, Tick when);
    void npRunBulkStep(NodeId node, Tick start);
    void registerBuiltinHandlers(NodeId node);

    // Tag access helpers (zero-cost; timing charged by callers).
    PageTags& pageTags(NodeId node, std::uint64_t ppn);
    AccessTag blockTag(NodeId node, PAddr pa) const;
    void setBlockTag(NodeId node, PAddr pa, AccessTag t);

    Machine& _m;
    Network& _net;
    TyphoonParams _p;
    const CoreParams& _cp;
    ShmProtocol* _protocol = nullptr;
    CheckHooks* _checker = nullptr; ///< coherence sanitizer, opt-in
    FlightRecorder* _obs = nullptr; ///< flight recorder, opt-in
    std::vector<Node> _nodes;
    std::vector<std::unique_ptr<Tempest>> _tempest;

    /**
     * Post-setup canonical extents, recorded by setupComplete(): the
     * per-node physical-page allocator watermark and tags-vector size
     * canonicalize() rewinds to (DESIGN.md §15).
     */
    std::vector<std::uint64_t> _setupPpn;
    std::vector<std::size_t> _setupTags;

    // Hot-path stat handles, resolved once at construction (StatSet
    // hands out stable references).
    Counter& _cTlbMisses;
    Counter& _cCacheHits;
    Counter& _cRtlbMisses;
    Counter& _cLocalMisses;
    Counter& _cPageFaults;
    Counter& _cBlockFaults;
    Counter& _cCpuSends;
    Counter& _cNpMsgHandled;
    Counter& _cNpBafHandled;
    Counter& _cNpInstructions;
    Counter& _cNpBulkPackets;
    Counter& _cNpTagInvalidates;
    Counter& _cNpResumes;
    Counter& _cNpSends;
    Counter& _cNpBulkTransfers;

    /** Built-in handler ids (top of the id space). */
    static constexpr HandlerId kBulkDataHandler = 0xFFFF'0001;
};

/**
 * Handler execution context: implements TempestCtx with Typhoon's
 * charging model. One is created per handler activation (or per
 * setup-time call via Tempest::setupCtx(), where charges are
 * discarded).
 */
class NpCtx : public TempestCtx
{
  public:
    NpCtx(TyphoonMemSystem& ms, NodeId node, Tick start,
          bool setup = false)
        : _ms(ms), _node(node), _start(start), _setup(setup)
    {
    }

    NodeId nodeId() const override { return _node; }
    void charge(std::uint32_t instructions) override;
    Tick charged() const override { return _t; }

    AccessTag readTag(Addr va) override;
    void setRW(Addr va) override;
    void setRO(Addr va) override;
    void setBusy(Addr va) override;
    void invalidate(Addr va) override;
    void forceRead(Addr va, void* buf, std::uint32_t len) override;
    void forceWrite(Addr va, const void* buf,
                    std::uint32_t len) override;
    void resume() override;
    bool threadSuspendedOn(Addr block_va) const override;
    bool cpuCopyDirty(Addr va) override;

    void send(NodeId dst, HandlerId handler,
              std::span<const Word> args, const void* data,
              std::uint32_t data_len, VNet vnet) override;

    PAddr allocPhysPage() override;
    void freePhysPage(PAddr pa) override;
    void mapPage(Addr va, PAddr pa, std::uint8_t mode) override;
    void unmapPage(Addr va) override;
    void remapPage(Addr old_va, Addr new_va,
                   std::uint8_t mode) override;
    bool pageMapped(Addr va) const override;
    bool pageWritable(Addr va) const override;
    void setPageWritable(Addr va, bool writable) override;
    std::uint64_t pageUserWord(Addr va) const override;
    void setPageUserWord(Addr va, std::uint64_t w) override;
    void structAccess(std::uint64_t key) override;
    void bulkTransfer(Addr src_va, NodeId dst, Addr dst_va,
                      std::uint32_t len,
                      HandlerId done_handler = 0) override;
    void setPageTags(Addr va, AccessTag t) override;

  private:
    void tagTiming(Addr va);
    PAddr translate(Addr va) const;

    TyphoonMemSystem& _ms;
    NodeId _node;
    Tick _start;
    bool _setup;
    Tick _t = 0;
};

} // namespace tt

#endif // TT_TYPHOON_TYPHOON_MEM_SYSTEM_HH
