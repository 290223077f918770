#include "typhoon/typhoon_mem_system.hh"

#include "core/cpu.hh"
#include "mem/addr.hh"
#include "sim/logging.hh"

namespace tt
{

// ---------------------------------------------------------------------
// Tempest registration adapter
// ---------------------------------------------------------------------

class TyphoonTempest : public Tempest
{
  public:
    TyphoonTempest(TyphoonMemSystem& ms, NodeId id)
        : _ms(ms), _id(id), _setupCtx(ms, id, 0, /*setup=*/true)
    {
    }

    NodeId nodeId() const override { return _id; }

    void
    registerMsgHandler(HandlerId id, MsgHandler h) override
    {
        auto& handlers = _ms._nodes[_id].msgHandlers;
        tt_assert(!handlers.contains(id), "handler ", id,
                  " registered twice at node ", _id);
        handlers.insert(id, std::move(h));
    }

    void
    registerFaultHandler(std::uint8_t mode, MemOp op,
                         FaultHandler h) override
    {
        auto& handlers = _ms._nodes[_id].faultHandlers;
        const auto key = TyphoonMemSystem::faultKey(mode, op);
        tt_assert(key < handlers.size(),
                  "fault mode out of range: ", int(mode));
        handlers[key] = std::move(h);
    }

    void
    registerPageFaultHandler(PageFaultHandler h) override
    {
        _ms._nodes[_id].pageFaultHandler = std::move(h);
    }

    TempestCtx& setupCtx() override { return _setupCtx; }

  private:
    TyphoonMemSystem& _ms;
    NodeId _id;
    NpCtx _setupCtx;
};

// ---------------------------------------------------------------------
// Construction
// ---------------------------------------------------------------------

TyphoonMemSystem::TyphoonMemSystem(Machine& m, Network& net,
                                   TyphoonParams params)
    : _m(m),
      _net(net),
      _p(params),
      _cp(m.params()),
      _blocksPerPage(_cp.pageSize / _cp.blockSize),
      _cTlbMisses(m.stats().counter("typhoon.tlb_misses")),
      _cCacheHits(m.stats().counter("typhoon.cache_hits")),
      _cRtlbMisses(m.stats().counter("typhoon.rtlb_misses")),
      _cLocalMisses(m.stats().counter("typhoon.local_misses")),
      _cPageFaults(m.stats().counter("typhoon.page_faults")),
      _cBlockFaults(m.stats().counter("typhoon.block_faults")),
      _cCpuSends(m.stats().counter("typhoon.cpu_sends")),
      _cNpMsgHandled(m.stats().counter("np.msg_handled")),
      _cNpBafHandled(m.stats().counter("np.baf_handled")),
      _cNpInstructions(m.stats().counter("np.instructions")),
      _cNpBulkPackets(m.stats().counter("np.bulk_packets")),
      _cNpTagInvalidates(m.stats().counter("np.tag_invalidates")),
      _cNpResumes(m.stats().counter("np.resumes")),
      _cNpSends(m.stats().counter("np.sends")),
      _cNpBulkTransfers(m.stats().counter("np.bulk_transfers"))
{
    _nodes.resize(_cp.nodes);
    for (int i = 0; i < _cp.nodes; ++i) {
        Node& n = _nodes[i];
        n.cpuCache = std::make_unique<CacheModel>(
            _cp.cacheSize, _cp.cacheAssoc, _cp.blockSize,
            _cp.seed * 7919 + i);
        n.cpuTlb = std::make_unique<TlbModel>(_cp.tlbEntries);
        n.phys = std::make_unique<PhysMem>(_cp.pageSize);
        n.pt = std::make_unique<PageTable>(_cp.pageSize);
        n.npDcache = std::make_unique<CacheModel>(
            _p.npDcacheSize, _p.npDcacheAssoc, 32,
            _cp.seed * 104729 + i);
        n.npTlb = std::make_unique<TlbModel>(_p.npTlbEntries);
        n.rtlb = std::make_unique<TlbModel>(_p.rtlbEntries);
    }
    _tempest.reserve(_cp.nodes);
    for (NodeId i = 0; i < _cp.nodes; ++i) {
        _tempest.push_back(std::make_unique<TyphoonTempest>(*this, i));
        _net.setReceiver(i, [this, i](Message&& msg) {
            npDeliver(i, std::move(msg));
        });
        registerBuiltinHandlers(i);
    }
}

TyphoonMemSystem::~TyphoonMemSystem() = default;

Tempest&
TyphoonMemSystem::tempest(NodeId n)
{
    return *_tempest.at(n);
}

CacheModel&
TyphoonMemSystem::cpuCacheOf(NodeId n)
{
    return *_nodes.at(n).cpuCache;
}

PhysMem&
TyphoonMemSystem::physOf(NodeId n)
{
    return *_nodes.at(n).phys;
}

PageTable&
TyphoonMemSystem::pageTableOf(NodeId n)
{
    return *_nodes.at(n).pt;
}

AccessTag
TyphoonMemSystem::tagOf(NodeId n, Addr va) const
{
    const Node& node = _nodes.at(n);
    const PageMapping* pm = node.pt->lookup(va);
    tt_assert(pm, "tagOf on unmapped page");
    return blockTag(n, pm->ppage + pageOffset(va, _cp.pageSize));
}

bool
TyphoonMemSystem::npIdle(NodeId n) const
{
    const Node& node = _nodes.at(n);
    return !node.npBusy && node.respQ.empty() && node.reqQ.empty() &&
           !node.baf && node.bulkQ.empty();
}

bool
TyphoonMemSystem::quiescent() const
{
    // npBusy alone is NOT disqualifying: with every queue empty, a
    // set busy flag is just the charged-cycles tail of a handler that
    // already ran — the only pending effect is the busy-clear timer,
    // which canonicalize() neutralizes via the npGen generation. The
    // update protocol's producers routinely carry such a tail into
    // the barrier, and requiring it to drain would make its epochs
    // never checkpointable.
    for (int i = 0; i < _cp.nodes; ++i) {
        const Node& n = _nodes[i];
        if (!n.respQ.empty() || !n.reqQ.empty() || n.baf ||
            !n.bulkQ.empty() || n.suspended)
            return false;
    }
    return true;
}

Tick
TyphoonMemSystem::oldestPendingSince() const
{
    // Watchdog probe: a CPU suspended on a block-access fault, or a
    // posted BAF the NP has not yet serviced, is an open operation.
    // Handler activations and queued messages are excluded — they only
    // matter if they fail to eventually resume a suspended thread, and
    // that failure is exactly what the suspended/baf ages capture.
    Tick oldest = kTickMax;
    for (const Node& n : _nodes) {
        if (n.suspended)
            oldest = std::min(oldest, n.suspended->issueTime);
        if (n.baf)
            oldest = std::min(oldest, n.baf->postedAt);
    }
    return oldest;
}

std::string
TyphoonMemSystem::name() const
{
    return "Typhoon/" +
           (_protocol ? _protocol->protocolName() : std::string("none"));
}

std::vector<MemorySystem::SharedRange>
TyphoonMemSystem::sharedAllocs() const
{
    tt_assert(_protocol, "no protocol installed on Typhoon");
    return _protocol->sharedAllocs();
}

void
TyphoonMemSystem::coherentPeek(Addr va, void* buf, std::size_t len)
{
    tt_assert(_protocol, "no protocol installed on Typhoon");
    _protocol->coherentPeek(va, buf, len);
}

void
TyphoonMemSystem::setupComplete()
{
    // Record the post-shmalloc canonical extents canonicalize()
    // rewinds to (DESIGN.md §15).
    _setupPpn.clear();
    _setupPages.clear();
    for (int i = 0; i < _cp.nodes; ++i) {
        _setupPpn.push_back(_nodes[i].phys->nextPpn());
        _setupPages.push_back(_nodes[i].pages.size());
    }
}

void
TyphoonMemSystem::canonicalize(std::uint64_t epochSeed)
{
    tt_assert(_protocol, "no protocol installed on Typhoon");
    tt_assert(!_setupPpn.empty(),
              "canonicalize before setupComplete recorded watermarks");
    // Protocol first: it flushes dirty remote bytes home and unwinds
    // every runtime page mapping (via the rec* backdoors) while the
    // page tables still describe them.
    _protocol->canonicalize(epochSeed);
    for (int i = 0; i < _cp.nodes; ++i) {
        Node& n = _nodes[i];
        n.cpuCache->flushAll();
        n.cpuCache->reseed(epochSeed * 7919 + i);
        n.cpuTlb->flush();
        n.npDcache->flushAll();
        n.npDcache->reseed(epochSeed * 104729 + i);
        n.npTlb->flush();
        n.rtlb->flush();
        // A crash rollback has already destroyed the suspended
        // coroutine frames: clear without dereferencing.
        n.suspended = nullptr;
        n.baf.reset();
        n.respQ.clear();
        n.reqQ.clear();
        n.bulkQ.clear();
        n.npBusy = false;
        ++n.npGen; // neutralize any pending busy-clear timer
        const std::size_t pages = _setupPages[static_cast<std::size_t>(i)];
        n.pages.resize(pages);
        n.tags.resize(pages * _blocksPerPage);
        n.phys->canonicalizeAllocator(
            _setupPpn[static_cast<std::size_t>(i)]);
    }
}

// ---------------------------------------------------------------------
// Protocol delegation
// ---------------------------------------------------------------------

Addr
TyphoonMemSystem::shmalloc(std::size_t bytes, NodeId home)
{
    tt_assert(_protocol, "no protocol installed on Typhoon");
    return _protocol->shmalloc(bytes, home);
}

NodeId
TyphoonMemSystem::homeOf(Addr va) const
{
    tt_assert(_protocol, "no protocol installed on Typhoon");
    return _protocol->homeOf(va);
}

void
TyphoonMemSystem::peek(Addr va, void* buf, std::size_t len)
{
    tt_assert(_protocol, "no protocol installed on Typhoon");
    _protocol->peek(va, buf, len);
}

void
TyphoonMemSystem::poke(Addr va, const void* buf, std::size_t len)
{
    tt_assert(_protocol, "no protocol installed on Typhoon");
    _protocol->poke(va, buf, len);
    if (_obs)
        _obs->backdoorWrite(va, buf, len);
}

// ---------------------------------------------------------------------
// Tag state
// ---------------------------------------------------------------------

TyphoonMemSystem::PageInfo&
TyphoonMemSystem::pageInfo(NodeId node, std::uint64_t ppn)
{
    auto& pages = _nodes[node].pages;
    tt_assert(ppn < pages.size() && pages[ppn].backed,
              "no tag state for physical page ", ppn, " at node ",
              node);
    return pages[ppn];
}

std::size_t
TyphoonMemSystem::tagIndex(NodeId node, PAddr pa) const
{
    const Node& n = _nodes[node];
    const std::uint64_t ppn = pageNum(pa, _cp.pageSize);
    tt_assert(ppn < n.pages.size() && n.pages[ppn].backed,
              "no tag state for pa ", pa, " at node ", node);
    return blockNum(pa, _cp.blockSize);
}

AccessTag
TyphoonMemSystem::blockTag(NodeId node, PAddr pa) const
{
    return _nodes[node].tags[tagIndex(node, pa)];
}

void
TyphoonMemSystem::setBlockTag(NodeId node, PAddr pa, AccessTag t)
{
    _nodes[node].tags[tagIndex(node, pa)] = t;
}

void
TyphoonMemSystem::setPageTagsOf(NodeId node, std::uint64_t ppn,
                                AccessTag t)
{
    const auto first = _nodes[node].tags.begin() +
                       static_cast<std::ptrdiff_t>(
                           tagIndex(node, ppn * _cp.pageSize));
    std::fill(first, first + _blocksPerPage, t);
}

void
TyphoonMemSystem::backPage(NodeId node, std::uint64_t ppn)
{
    // Fresh tag state: everything Invalid until the protocol says
    // otherwise.
    Node& n = _nodes[node];
    if (ppn >= n.pages.size()) {
        n.pages.resize(ppn + 1);
        n.tags.resize((ppn + 1) * _blocksPerPage);
    }
    n.pages[ppn] = PageInfo{0, true};
    setPageTagsOf(node, ppn, AccessTag::Invalid);
}

void
TyphoonMemSystem::unbackPage(NodeId node, std::uint64_t ppn)
{
    auto& pages = _nodes[node].pages;
    if (ppn < pages.size())
        pages[ppn] = PageInfo{};
}

// ---------------------------------------------------------------------
// Canonicalize backdoors (DESIGN.md §15)
// ---------------------------------------------------------------------
//
// Host-level equivalents of the NpCtx page operations for the
// protocol canonicalize walks: no charging, no checker/observer
// hooks (the checker canonicalizes on its own), no per-block cache
// invalidation (the mechanism-level wholesale flush follows).

void
TyphoonMemSystem::recUnmapPage(NodeId node, Addr va)
{
    Node& n = _nodes[node];
    const PageMapping* pm = n.pt->lookup(va);
    tt_assert(pm, "recUnmapPage of unmapped va ", va);
    const std::uint64_t ppn = pageNum(pm->ppage, _cp.pageSize);
    n.cpuTlb->invalidate(pageNum(va, _cp.pageSize));
    n.npTlb->invalidate(pageNum(va, _cp.pageSize));
    n.rtlb->invalidate(ppn);
    unbackPage(node, ppn);
    n.pt->unmap(va);
}

void
TyphoonMemSystem::recSetPageTags(NodeId node, Addr va, AccessTag t)
{
    const PageMapping* pm = _nodes[node].pt->lookup(va);
    tt_assert(pm, "recSetPageTags of unmapped va ", va);
    setPageTagsOf(node, pageNum(pm->ppage, _cp.pageSize), t);
}

void
TyphoonMemSystem::recFreePhysPage(NodeId node, PAddr pa)
{
    _nodes[node].phys->freePage(pa);
}

// ---------------------------------------------------------------------
// CPU access pipeline
// ---------------------------------------------------------------------

TyphoonMemSystem::PipeResult
TyphoonMemSystem::pipeline(NodeId id, MemRequest* req)
{
    Node& n = _nodes[id];
    const Addr va = req->vaddr;
    tt_assert(withinOneBlock(va, req->size, _cp.blockSize),
              "access crosses a block boundary at ", va);

    PipeResult pr{PipeResult::Kind::Done, 0, {}};
    // Software access-control model: the inline check runs on every
    // shared access, hits included (Typhoon's RTLB makes this 0).
    pr.cost += _p.swCheckCost;
    if (!n.cpuTlb->access(pageNum(va, _cp.pageSize))) {
        pr.cost += _cp.tlbMissLatency;
        _cTlbMisses.inc();
    }

    const PageMapping* pm = n.pt->lookup(va);
    if (!pm || (req->op == MemOp::Write && !pm->writable)) {
        pr.kind = PipeResult::Kind::PageFault;
        return pr;
    }
    const PAddr pa = pm->ppage + pageOffset(va, _cp.pageSize);

    // CPU cache hit: tags are enforced on bus transactions only, and
    // every tag downgrade also purges CPU-cached copies, so a hit is
    // always legal.
    const bool hit = req->op == MemOp::Read ? n.cpuCache->probeRead(va)
                                            : n.cpuCache->probeWrite(va);
    if (hit) {
        _cCacheHits.inc();
        if (req->op == MemOp::Read)
            n.phys->read(pa, req->buf, req->size);
        else
            n.phys->write(pa, req->buf, req->size);
        return pr;
    }

    // Bus transaction: the NP's RTLB observes the physical address.
    if (!n.rtlb->access(pageNum(pa, _cp.pageSize))) {
        pr.cost += _p.npTlbMissLatency; // relinquish-and-retry refetch
        _cRtlbMisses.inc();
    }
    const AccessTag tag = blockTag(id, pa);

    if (req->op == MemOp::Read &&
        (tag == AccessTag::ReadWrite || tag == AccessTag::ReadOnly)) {
        n.cpuCache->fill(va, tag == AccessTag::ReadWrite
                                 ? LineState::Owned
                                 : LineState::Shared);
        pr.cost += _cp.localMissLatency;
        n.phys->read(pa, req->buf, req->size);
        _cLocalMisses.inc();
        return pr;
    }
    if (req->op == MemOp::Write && tag == AccessTag::ReadWrite) {
        if (n.cpuCache->presentShared(va)) {
            n.cpuCache->upgrade(va, true);
            pr.cost += _p.busUpgradeCost;
        } else {
            n.cpuCache->fill(va, LineState::Owned);
            n.cpuCache->probeWrite(va); // dirty
            pr.cost += _cp.localMissLatency;
            _cLocalMisses.inc();
        }
        n.phys->write(pa, req->buf, req->size);
        return pr;
    }

    // Block access fault.
    pr.kind = PipeResult::Kind::BlockFault;
    pr.fault = BlockFault{va, req->op, tag, pm->mode};
    return pr;
}

AccessOutcome
TyphoonMemSystem::access(MemRequest* req)
{
    const NodeId id = req->cpu->id();
    Node& n = _nodes[id];
    PipeResult pr = pipeline(id, req);
    switch (pr.kind) {
      case PipeResult::Kind::Done:
        if (_obs)
            _obs->access(id, req->vaddr, req->size,
                         req->op == MemOp::Write, req->buf,
                         req->issueTime + pr.cost);
        return {true, pr.cost};
      case PipeResult::Kind::PageFault:
        tt_assert(!n.suspended, "second fault while suspended at ", id);
        n.suspended = req;
        deliverPageFault(id, req, req->issueTime + pr.cost);
        return {false, 0};
      case PipeResult::Kind::BlockFault:
        tt_assert(!n.suspended, "second fault while suspended at ", id);
        n.suspended = req;
        postBaf(id, pr.fault, req->issueTime + pr.cost + _p.bafDetectCost);
        return {false, 0};
    }
    tt_panic("unreachable");
}

void
TyphoonMemSystem::deliverPageFault(NodeId id, MemRequest* req,
                                   Tick when)
{
    _cPageFaults.inc();
    const Tick start = when + _p.pageFaultTrapCost;
    _m.eq().schedule(std::max(start, _m.eq().now()), [this, id, req] {
        Node& n = _nodes[id];
        tt_assert(n.pageFaultHandler,
                  "page fault with no handler at node ", id,
                  " va=", req->vaddr);
        const Tick start2 = _m.eq().now();
        NpCtx ctx(*this, id, start2);
        n.pageFaultHandler(ctx, req->vaddr, req->op);
        if (_obs) {
            _obs->handlerDone(id, ActKind::Page, 0, 0, start2,
                              ctx.charged());
            _obs->eventEnd();
        }
        // The handler ran on the CPU; retry the access afterwards.
        retryAccess(id, start2 + ctx.charged());
    });
}

void
TyphoonMemSystem::postBaf(NodeId id, const BlockFault& f, Tick when)
{
    _cBlockFaults.inc();
    _m.eq().schedule(std::max(when, _m.eq().now()), [this, id, f] {
        Node& n = _nodes[id];
        tt_assert(!n.baf, "BAF buffer overflow at node ", id);
        n.baf = Baf{f, _m.eq().now()};
        if (_obs)
            _obs->blockFault(id, f.va, f.op == MemOp::Write,
                             static_cast<std::uint8_t>(f.tag),
                             _m.eq().now());
        npPump(id, _m.eq().now());
    });
}

void
TyphoonMemSystem::retryAccess(NodeId id, Tick when)
{
    _m.eq().schedule(std::max(when, _m.eq().now()), [this, id] {
        Node& n = _nodes[id];
        MemRequest* req = n.suspended;
        tt_assert(req, "resume with no suspended access at node ", id);
        const Tick now = _m.eq().now();
        PipeResult pr = pipeline(id, req);
        switch (pr.kind) {
          case PipeResult::Kind::Done: {
            n.suspended = nullptr;
            if (_obs) {
                _obs->missEnd(id, req->vaddr,
                              req->op == MemOp::Write, now + pr.cost);
                _obs->access(id, req->vaddr, req->size,
                             req->op == MemOp::Write, req->buf,
                             now + pr.cost);
            }
            _m.eq().schedule(now + pr.cost, [req] {
                req->cpu->completeAccess(*req);
            });
            break;
          }
          case PipeResult::Kind::PageFault:
            deliverPageFault(id, req, now + pr.cost);
            break;
          case PipeResult::Kind::BlockFault:
            postBaf(id, pr.fault, now + pr.cost + _p.bafDetectCost);
            break;
        }
    });
}

// ---------------------------------------------------------------------
// NP engine
// ---------------------------------------------------------------------

std::size_t
TyphoonMemSystem::footprintBytes() const
{
    std::size_t b = _nodes.capacity() * sizeof(Node);
    for (const Node& n : _nodes) {
        b += n.cpuCache->footprintBytes();
        b += n.cpuTlb->footprintBytes();
        b += n.phys->footprintBytes();
        b += n.pt->footprintBytes();
        b += n.npDcache->footprintBytes();
        b += n.npTlb->footprintBytes();
        b += n.rtlb->footprintBytes();
        b += n.tags.capacity() * sizeof(AccessTag);
        b += n.pages.capacity() * sizeof(PageInfo);
        b += n.respQ.size() * sizeof(Message);
        b += n.reqQ.size() * sizeof(Message);
        b += n.bulkQ.size() * sizeof(Node::Bulk);
        b += n.msgHandlers.footprintBytes();
    }
    return b;
}

void
TyphoonMemSystem::npDeliver(NodeId id, Message&& msg)
{
    Node& n = _nodes[id];
    if (msg.vnet == VNet::Response)
        n.respQ.push_back(std::move(msg));
    else
        n.reqQ.push_back(std::move(msg));
    npPump(id, _m.eq().now());
}

void
TyphoonMemSystem::npPump(NodeId id, Tick when)
{
    Node& n = _nodes[id];
    if (n.npBusy)
        return;

    // Dispatch priority: response net > BAF > request net > bulk.
    Message msg;
    bool haveMsg = false;
    std::optional<Baf> baf;
    if (!n.respQ.empty()) {
        msg = std::move(n.respQ.front());
        n.respQ.pop_front();
        haveMsg = true;
    } else if (n.baf) {
        baf = std::move(n.baf);
        n.baf.reset();
    } else if (!n.reqQ.empty()) {
        msg = std::move(n.reqQ.front());
        n.reqQ.pop_front();
        haveMsg = true;
    } else if (!n.bulkQ.empty()) {
        npRunBulkStep(id, when);
        return;
    } else {
        return; // idle
    }

    NpCtx ctx(*this, id, when);
    ctx.charge(static_cast<std::uint32_t>(_p.dispatchCost));

    if (haveMsg) {
        // Pull the header words from the receive queue: one cycle per
        // word. Data payload stays queued until the handler's
        // force-write, when the BXB moves it queue -> memory in one
        // 32-byte MBus transfer (section 5.1) — charged there.
        ctx.charge(static_cast<std::uint32_t>(
            _p.perWordCost * (1 + msg.args.size())));
        MsgHandler* handler = n.msgHandlers.find(msg.handler);
        tt_assert(handler, "no handler registered for message id ",
                  msg.handler, " at node ", id);
        _cNpMsgHandled.inc();
        if (_obs) {
            _obs->msgDeliver(id, msg, when);
            // Handler-activation transaction context: messages this
            // handler sends inherit the incoming message's txn
            // (DESIGN.md §14). Ends after handlerDone so the
            // activation record itself carries the id too.
            _obs->beginAct(id, msg.txn);
        }
        (*handler)(ctx, msg);
        if (_obs) {
            _obs->handlerDone(id, ActKind::Msg, msg.handler, msg.obsId,
                              when, ctx.charged());
            _obs->endAct(id);
        }
    } else {
        const auto key = faultKey(baf->fault.mode, baf->fault.op);
        tt_assert(key < n.faultHandlers.size() && n.faultHandlers[key],
                  "no fault handler for mode ",
                  int(baf->fault.mode), " op ",
                  baf->fault.op == MemOp::Write ? "write" : "read",
                  " at node ", id);
        _cNpBafHandled.inc();
        n.faultHandlers[key](ctx, baf->fault);
        if (_obs)
            _obs->handlerDone(id, ActKind::Baf, baf->fault.mode, 0,
                              when, ctx.charged());
    }

    if (_obs)
        _obs->eventEnd();
    _cNpInstructions.inc(ctx.charged());
    const Tick end = when + ctx.charged();
    n.npBusy = true;
    const std::uint64_t gen = ++n.npGen;
    _m.eq().schedule(end, [this, id, gen] {
        if (_nodes[id].npGen != gen)
            return; // canonicalized away (checkpoint busy tail)
        _nodes[id].npBusy = false;
        npPump(id, _m.eq().now());
    });
}

void
TyphoonMemSystem::npRunBulkStep(NodeId id, Tick start)
{
    Node& n = _nodes[id];
    Node::Bulk& b = n.bulkQ.front();
    const std::uint32_t chunk =
        std::min(b.remaining, _p.bulkChunkBytes);

    Message m;
    m.src = id;
    m.dst = b.dst;
    m.vnet = VNet::Request;
    m.handler = kBulkDataHandler;
    m.pushAddr(b.dstVa);
    const bool last = chunk == b.remaining;
    m.args.push_back(last ? 1 : 0);
    m.args.push_back(b.doneHandler);
    m.data.resize(chunk);
    // Gather the data from local memory through the page table.
    for (std::uint32_t off = 0; off < chunk;) {
        const Addr va = b.srcVa + off;
        const std::uint32_t in_page = static_cast<std::uint32_t>(
            _cp.pageSize - pageOffset(va, _cp.pageSize));
        const std::uint32_t len = std::min(chunk - off, in_page);
        n.phys->read(n.pt->translate(va), m.data.data() + off, len);
        off += len;
    }
    _net.send(std::move(m), start + _p.bulkPacketCost);
    _cNpBulkPackets.inc();
    if (_obs)
        _obs->bulkPacket(id, chunk, start, _p.bulkPacketCost);

    b.srcVa += chunk;
    b.dstVa += chunk;
    b.remaining -= chunk;
    if (b.remaining == 0)
        n.bulkQ.pop_front();

    n.npBusy = true;
    const std::uint64_t gen = ++n.npGen;
    _m.eq().schedule(start + _p.bulkPacketCost, [this, id, gen] {
        if (_nodes[id].npGen != gen)
            return; // canonicalized away (checkpoint busy tail)
        _nodes[id].npBusy = false;
        npPump(id, _m.eq().now());
    });
}

void
TyphoonMemSystem::registerBuiltinHandlers(NodeId id)
{
    Node& n = _nodes[id];
    n.msgHandlers[kBulkDataHandler] = [this](TempestCtx& ctx,
                                             const Message& msg) {
        const Addr dstVa = msg.addrArg(0);
        const bool last = msg.args.at(2) != 0;
        const HandlerId done = msg.args.at(3);
        ctx.charge(4); // header decode
        ctx.forceWrite(dstVa, msg.data.data(),
                       static_cast<std::uint32_t>(msg.data.size()));
        if (last && done != 0) {
            MsgHandler* h = _nodes[ctx.nodeId()].msgHandlers.find(done);
            tt_assert(h, "bulk done-handler ", done, " not registered");
            (*h)(ctx, msg);
        }
    };
}

void
TyphoonMemSystem::cpuSend(Cpu& cpu, NodeId dst, HandlerId h,
                          Message::Args args, Message::Data data)
{
    // Memory-mapped stores across the MBus: destination register, one
    // store per word, end-of-message flag.
    Message m;
    m.src = cpu.id();
    m.dst = dst;
    m.vnet = VNet::Request;
    m.handler = h;
    m.args = std::move(args);
    m.data = std::move(data);
    cpu.advance(_p.sendSetupCost + _p.perWordCost * m.sizeWords());
    _cCpuSends.inc();
    _net.send(std::move(m), cpu.localTime());
}

// ---------------------------------------------------------------------
// NpCtx: the Tempest operations with Typhoon charging
// ---------------------------------------------------------------------

void
NpCtx::charge(std::uint32_t instructions)
{
    if (!_setup)
        _t += instructions;
}

PAddr
NpCtx::translate(Addr va) const
{
    return _ms._nodes[_node].pt->translate(va);
}

void
NpCtx::tagTiming(Addr va)
{
    if (_setup)
        return;
    auto& n = _ms._nodes[_node];
    if (!n.npTlb->access(pageNum(va, _ms._cp.pageSize)))
        _t += _ms._p.npTlbMissLatency;
    _t += _ms._p.tagOpCost;
}

AccessTag
NpCtx::readTag(Addr va)
{
    tagTiming(va);
    return _ms.blockTag(_node, translate(va));
}

void
NpCtx::setRW(Addr va)
{
    tagTiming(va);
    _ms.setBlockTag(_node, translate(va), AccessTag::ReadWrite);
    if (_ms._obs)
        _ms._obs->tagChange(_node, blockAlign(va, _ms._cp.blockSize),
                            AccessTag::ReadWrite, _start + _t);
}

void
NpCtx::setRO(Addr va)
{
    tagTiming(va);
    _ms.setBlockTag(_node, translate(va), AccessTag::ReadOnly);
    // Any exclusively-held CPU copy loses ownership (bus shared line).
    if (_ms._nodes[_node].cpuCache->downgrade(va))
        charge(static_cast<std::uint32_t>(_ms._p.cpuCacheInvCost));
    if (_ms._obs)
        _ms._obs->tagChange(_node, blockAlign(va, _ms._cp.blockSize),
                            AccessTag::ReadOnly, _start + _t);
}

void
NpCtx::setBusy(Addr va)
{
    tagTiming(va);
    _ms.setBlockTag(_node, translate(va), AccessTag::Busy);
    if (_ms._nodes[_node].cpuCache->invalidate(va) != LineState::Invalid)
        charge(static_cast<std::uint32_t>(_ms._p.cpuCacheInvCost));
    if (_ms._obs)
        _ms._obs->tagChange(_node, blockAlign(va, _ms._cp.blockSize),
                            AccessTag::Busy, _start + _t);
}

void
NpCtx::invalidate(Addr va)
{
    tagTiming(va);
    _ms.setBlockTag(_node, translate(va), AccessTag::Invalid);
    // Invalidate any local CPU-cached copy via the bus (section 5.4).
    if (_ms._nodes[_node].cpuCache->invalidate(va) != LineState::Invalid)
        charge(static_cast<std::uint32_t>(_ms._p.cpuCacheInvCost));
    _ms._cNpTagInvalidates.inc();
    if (_ms._obs)
        _ms._obs->tagChange(_node, blockAlign(va, _ms._cp.blockSize),
                            AccessTag::Invalid, _start + _t);
}

void
NpCtx::forceRead(Addr va, void* buf, std::uint32_t len)
{
    auto& n = _ms._nodes[_node];
    if (!_setup) {
        if (!n.npTlb->access(pageNum(va, _ms._cp.pageSize)))
            _t += _ms._p.npTlbMissLatency;
        // Whole blocks ride the BXB; smaller accesses go through the
        // NP data cache.
        if (len >= 32) {
            _t += _ms._p.blockXferCost * ((len + 31) / 32);
        } else if (n.npDcache->probeRead(va)) {
            _t += _ms._p.structHitCost;
        } else {
            n.npDcache->fill(va, LineState::Shared);
            _t += _ms._p.structMissCost;
        }
    }
    n.phys->read(translate(va), buf, len);
}

void
NpCtx::forceWrite(Addr va, const void* buf, std::uint32_t len)
{
    auto& n = _ms._nodes[_node];
    if (!_setup) {
        if (!n.npTlb->access(pageNum(va, _ms._cp.pageSize)))
            _t += _ms._p.npTlbMissLatency;
        if (len >= 32) {
            _t += _ms._p.blockXferCost * ((len + 31) / 32);
        } else {
            _t += _ms._p.structHitCost;
        }
    }
    n.phys->write(translate(va), buf, len);
    // BXB writes stay coherent with the CPU cache: purge stale copies.
    const Addr first = blockAlign(va, _ms._cp.blockSize);
    const Addr last = blockAlign(va + (len ? len - 1 : 0),
                                 _ms._cp.blockSize);
    for (Addr b = first; b <= last; b += _ms._cp.blockSize) {
        if (n.cpuCache->invalidate(b) != LineState::Invalid)
            charge(static_cast<std::uint32_t>(_ms._p.cpuCacheInvCost));
    }
}

void
NpCtx::resume()
{
    charge(static_cast<std::uint32_t>(_ms._p.resumeCost));
    _ms._cNpResumes.inc();
    if (_ms._obs)
        _ms._obs->resume(_node, _start + _t);
    _ms.retryAccess(_node, _start + _t);
}

bool
NpCtx::threadSuspendedOn(Addr block_va) const
{
    const MemRequest* req = _ms._nodes[_node].suspended;
    if (!req)
        return false;
    return blockAlign(req->vaddr, _ms._cp.blockSize) ==
           blockAlign(block_va, _ms._cp.blockSize);
}

bool
NpCtx::cpuCopyDirty(Addr va)
{
    charge(2); // bus probe
    return _ms._nodes[_node].cpuCache->probeDirty(va);
}

void
NpCtx::send(NodeId dst, HandlerId handler, std::span<const Word> args,
            const void* data, std::uint32_t data_len, VNet vnet)
{
    Message m;
    m.src = _node;
    m.dst = dst;
    m.vnet = vnet;
    m.handler = handler;
    m.args.assign(args.begin(), args.end());
    if (data_len) {
        m.data.resize(data_len);
        std::memcpy(m.data.data(), data, data_len);
    }
    charge(static_cast<std::uint32_t>(
        _ms._p.sendSetupCost +
        _ms._p.perWordCost * (1 + args.size())));
    if (data_len)
        charge(static_cast<std::uint32_t>(
            _ms._p.blockXferCost * ((data_len + 31) / 32)));
    _ms._cNpSends.inc();
    _ms._net.send(std::move(m), _setup ? _ms._m.eq().now()
                                       : _start + _t);
}

PAddr
NpCtx::allocPhysPage()
{
    charge(static_cast<std::uint32_t>(_ms._p.mapOpCost));
    return _ms._nodes[_node].phys->allocPage();
}

void
NpCtx::freePhysPage(PAddr pa)
{
    charge(static_cast<std::uint32_t>(_ms._p.mapOpCost));
    _ms._nodes[_node].phys->freePage(pa);
}

void
NpCtx::mapPage(Addr va, PAddr pa, std::uint8_t mode)
{
    charge(static_cast<std::uint32_t>(_ms._p.mapOpCost));
    _ms._nodes[_node].pt->map(va, pa, mode);
    _ms.backPage(_node, pageNum(pa, _ms._cp.pageSize));
    if (_ms._obs)
        _ms._obs->pageMap(_node, alignDown(va, _ms._cp.pageSize), mode,
                          _start + _t);
}

void
NpCtx::unmapPage(Addr va)
{
    charge(static_cast<std::uint32_t>(_ms._p.mapOpCost));
    auto& n = _ms._nodes[_node];
    const PageMapping* pm = n.pt->lookup(va);
    tt_assert(pm, "unmapPage of unmapped va ", va);
    const std::uint64_t ppn = pageNum(pm->ppage, _ms._cp.pageSize);
    // Purge every cached copy and translation of the dying page.
    const Addr page = alignDown(va, _ms._cp.pageSize);
    for (Addr b = page; b < page + _ms._cp.pageSize;
         b += _ms._cp.blockSize)
        n.cpuCache->invalidate(b);
    n.cpuTlb->invalidate(pageNum(va, _ms._cp.pageSize));
    n.npTlb->invalidate(pageNum(va, _ms._cp.pageSize));
    n.rtlb->invalidate(ppn);
    _ms.unbackPage(_node, ppn);
    n.pt->unmap(va);
    if (_ms._obs)
        _ms._obs->pageUnmap(_node, page, _start + _t);
}

void
NpCtx::remapPage(Addr old_va, Addr new_va, std::uint8_t mode)
{
    const PageMapping* pm = _ms._nodes[_node].pt->lookup(old_va);
    tt_assert(pm, "remapPage of unmapped va ", old_va);
    const PAddr pa = pm->ppage;
    unmapPage(old_va);
    mapPage(new_va, pa, mode);
}

bool
NpCtx::pageMapped(Addr va) const
{
    return _ms._nodes[_node].pt->lookup(va) != nullptr;
}

bool
NpCtx::pageWritable(Addr va) const
{
    const PageMapping* pm = _ms._nodes[_node].pt->lookup(va);
    tt_assert(pm, "pageWritable of unmapped va ", va);
    return pm->writable;
}

void
NpCtx::setPageWritable(Addr va, bool writable)
{
    charge(static_cast<std::uint32_t>(_ms._p.mapOpCost));
    auto& n = _ms._nodes[_node];
    const PageMapping* pm = n.pt->lookup(va);
    tt_assert(pm, "setPageWritable of unmapped va ", va);
    const_cast<PageMapping*>(pm)->writable = writable;
    // Permission tightening must be visible to the running CPU.
    if (!writable)
        n.cpuTlb->invalidate(pageNum(va, _ms._cp.pageSize));
}

std::uint64_t
NpCtx::pageUserWord(Addr va) const
{
    const PageMapping* pm = _ms._nodes[_node].pt->lookup(va);
    tt_assert(pm, "pageUserWord of unmapped va ", va);
    return _ms.pageInfo(_node, pageNum(pm->ppage, _ms._cp.pageSize))
        .userWord;
}

void
NpCtx::setPageUserWord(Addr va, std::uint64_t w)
{
    charge(static_cast<std::uint32_t>(_ms._p.tagOpCost));
    const PageMapping* pm = _ms._nodes[_node].pt->lookup(va);
    tt_assert(pm, "setPageUserWord of unmapped va ", va);
    _ms.pageInfo(_node, pageNum(pm->ppage, _ms._cp.pageSize))
        .userWord = w;
}

void
NpCtx::structAccess(std::uint64_t key)
{
    if (_setup)
        return;
    auto& n = _ms._nodes[_node];
    if (n.npDcache->probeRead(key)) {
        _t += _ms._p.structHitCost;
    } else {
        n.npDcache->fill(key, LineState::Owned);
        _t += _ms._p.structMissCost;
    }
}

void
NpCtx::bulkTransfer(Addr src_va, NodeId dst, Addr dst_va,
                    std::uint32_t len, HandlerId done_handler)
{
    charge(6); // stage the transfer descriptor
    auto& n = _ms._nodes[_node];
    n.bulkQ.push_back(
        TyphoonMemSystem::Node::Bulk{src_va, dst, dst_va, len,
                                     done_handler});
    _ms._cNpBulkTransfers.inc();
    // Kick the engine if the NP is otherwise idle: the transfer
    // thread runs when the dispatch loop has nothing better to do.
    const Tick at = _setup ? _ms._m.eq().now() : _start + _t;
    _ms._m.eq().schedule(std::max(at, _ms._m.eq().now()),
                         [ms = &_ms, node = _node] {
                             ms->npPump(node, ms->_m.eq().now());
                         });
}

void
NpCtx::setPageTags(Addr va, AccessTag t)
{
    charge(static_cast<std::uint32_t>(_ms._p.pageTagInitCost));
    const PageMapping* pm = _ms._nodes[_node].pt->lookup(va);
    tt_assert(pm, "setPageTags of unmapped va ", va);
    _ms.setPageTagsOf(_node, pageNum(pm->ppage, _ms._cp.pageSize), t);
    if (_ms._obs)
        _ms._obs->pageTags(_node, alignDown(va, _ms._cp.pageSize), t);
}

} // namespace tt
