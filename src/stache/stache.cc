#include "stache/stache.hh"

#include <cstring>

#include "mem/addr.hh"
#include "obs/recorder.hh"
#include "sim/logging.hh"

namespace tt
{

Stache::Stache(Machine& m, TyphoonMemSystem& ms, StacheParams p)
    : _m(m),
      _ms(ms),
      _p(p),
      _cp(m.params()),
      _stats(m.stats()),
      _nodes(m.params().nodes),
      _cPageFaults(m.stats().counter("stache.page_faults")),
      _cPageReplacements(m.stats().counter("stache.page_replacements")),
      _cWritebacks(m.stats().counter("stache.writebacks")),
      _cWritebacksReceived(
          m.stats().counter("stache.writebacks_received")),
      _cPrefetchHitsInFlight(
          m.stats().counter("stache.prefetch_hits_in_flight")),
      _cGetRo(m.stats().counter("stache.get_ro")),
      _cGetRw(m.stats().counter("stache.get_rw")),
      _cHomeFaults(m.stats().counter("stache.home_faults")),
      _cHomeRequests(m.stats().counter("stache.home_requests")),
      _cDeferred(m.stats().counter("stache.deferred")),
      _cInvalsSent(m.stats().counter("stache.invals_sent")),
      _cRecalls(m.stats().counter("stache.recalls")),
      _cUpgradeGrants(m.stats().counter("stache.upgrade_grants")),
      _cDataReceived(m.stats().counter("stache.data_received")),
      _cPrefetches(m.stats().counter("stache.prefetches"))
{
    _ms.setProtocol(this);
    for (NodeId i = 0; i < _cp.nodes; ++i) {
        Tempest& t = _ms.tempest(i);

        t.registerPageFaultHandler(
            [this](TempestCtx& ctx, Addr va, MemOp op) {
                onPageFault(ctx, va, op);
            });

        t.registerFaultHandler(kModeStache, MemOp::Read,
                               [this](TempestCtx& ctx,
                                      const BlockFault& f) {
                                   onStacheFault(ctx, f);
                               });
        t.registerFaultHandler(kModeStache, MemOp::Write,
                               [this](TempestCtx& ctx,
                                      const BlockFault& f) {
                                   onStacheFault(ctx, f);
                               });
        t.registerFaultHandler(kModeHome, MemOp::Read,
                               [this](TempestCtx& ctx,
                                      const BlockFault& f) {
                                   onHomeFault(ctx, f);
                               });
        t.registerFaultHandler(kModeHome, MemOp::Write,
                               [this](TempestCtx& ctx,
                                      const BlockFault& f) {
                                   onHomeFault(ctx, f);
                               });

        t.registerMsgHandler(kGetRO, [this](TempestCtx& ctx,
                                            const Message& m2) {
            onGet(ctx, m2, false);
        });
        t.registerMsgHandler(kGetRW, [this](TempestCtx& ctx,
                                            const Message& m2) {
            onGet(ctx, m2, true);
        });
        t.registerMsgHandler(kDataRO, [this](TempestCtx& ctx,
                                             const Message& m2) {
            onData(ctx, m2, false);
        });
        t.registerMsgHandler(kDataRW, [this](TempestCtx& ctx,
                                             const Message& m2) {
            onData(ctx, m2, true);
        });
        t.registerMsgHandler(kInval, [this](TempestCtx& ctx,
                                            const Message& m2) {
            onInval(ctx, m2);
        });
        t.registerMsgHandler(kInvAck, [this](TempestCtx& ctx,
                                             const Message& m2) {
            onInvAck(ctx, m2);
        });
        t.registerMsgHandler(kRecallRW, [this](TempestCtx& ctx,
                                               const Message& m2) {
            onRecall(ctx, m2, false);
        });
        t.registerMsgHandler(kDowngrade, [this](TempestCtx& ctx,
                                                const Message& m2) {
            onRecall(ctx, m2, true);
        });
        t.registerMsgHandler(kPutData, [this](TempestCtx& ctx,
                                              const Message& m2) {
            onPutData(ctx, m2);
        });
        t.registerMsgHandler(kPutNack, [this](TempestCtx& ctx,
                                              const Message& m2) {
            onPutNack(ctx, m2);
        });
        t.registerMsgHandler(kWriteback, [this](TempestCtx& ctx,
                                                const Message& m2) {
            onWriteback(ctx, m2);
        });
        t.registerMsgHandler(kPrefetch, [this](TempestCtx& ctx,
                                               const Message& m2) {
            onPrefetch(ctx, m2);
        });
    }
}

// ---------------------------------------------------------------------
// Allocation / ShmProtocol
// ---------------------------------------------------------------------

std::uint32_t
Stache::blocksPerPage() const
{
    return _cp.pageSize / _cp.blockSize;
}

void
Stache::describeHandlers(FlightRecorder& rec) const
{
    rec.nameHandler(kGetRO, "stache.get_ro");
    rec.nameHandler(kGetRW, "stache.get_rw");
    rec.nameHandler(kDataRO, "stache.data_ro");
    rec.nameHandler(kDataRW, "stache.data_rw");
    rec.nameHandler(kInval, "stache.inval");
    rec.nameHandler(kInvAck, "stache.inv_ack");
    rec.nameHandler(kRecallRW, "stache.recall_rw");
    rec.nameHandler(kDowngrade, "stache.downgrade");
    rec.nameHandler(kPutData, "stache.put_data");
    rec.nameHandler(kPutNack, "stache.put_nack");
    rec.nameHandler(kWriteback, "stache.writeback");
    rec.nameHandler(kPrefetch, "stache.prefetch");
}

Addr
Stache::shmalloc(std::size_t bytes, NodeId home)
{
    tt_assert(bytes > 0, "shmalloc of zero bytes");
    const std::uint32_t ps = _cp.pageSize;
    const std::size_t npages = (bytes + ps - 1) / ps;
    const Addr base = _nextVa;
    for (std::size_t i = 0; i < npages; ++i) {
        const Addr va = base + i * ps;
        const NodeId h = home != kNoNode ? home : _rr;
        if (home == kNoNode)
            _rr = (_rr + 1) % _cp.nodes;
        _pageHome[pageNum(va, ps)] = h;

        TempestCtx& ctx = _ms.tempest(h).setupCtx();
        const PAddr pa = ctx.allocPhysPage();
        ctx.mapPage(va, pa, kModeHome);
        ctx.setPageTags(va, AccessTag::ReadWrite);

        HomeDir hd;
        hd.entries.resize(blocksPerPage());
        _homeDirs.insert(pageNum(va, ps), std::move(hd));
        ctx.setPageUserWord(va, pageNum(va, ps));
    }
    _nextVa = base + npages * ps;
    _allocs.push_back({base, bytes});
    return base;
}

void
Stache::canonicalize(std::uint64_t epochSeed)
{
    const std::uint32_t ps = _cp.pageSize;
    std::vector<std::uint8_t> blockBuf(_cp.blockSize);

    // 1. Flush dirty-remote bytes to the home frame and rebuild every
    //    directory entry fresh (home owns every block again), with
    //    the home tags back at the post-setup canonical ReadWrite.
    _homeDirs.forEachMut([&](std::uint64_t vpn, HomeDir& hd) {
        const NodeId home = _pageHome.at(vpn);
        const Addr pageVa = static_cast<Addr>(vpn) * ps;
        for (std::uint32_t b = 0; b < blocksPerPage(); ++b) {
            const Addr blk = pageVa + b * _cp.blockSize;
            StacheDirEntry& e = hd.entries[b];
            if (e.state() == StacheDirEntry::State::Excl &&
                e.owner() != home &&
                _ms.pageTableOf(e.owner()).lookup(blk)) {
                readBlockHost(e.owner(), blk, blockBuf.data());
                _ms.physOf(home).write(
                    _ms.pageTableOf(home).translate(blk),
                    blockBuf.data(), _cp.blockSize);
            }
            e = StacheDirEntry{};
        }
        hd.aux = StacheAuxTable{};
        _ms.recSetPageTags(home, pageVa, AccessTag::ReadWrite);
    });

    // 2. Unwind every stache page mapping and free its frame. The
    //    unordered iteration order is irrelevant: the physical-page
    //    allocator is rewound to its setup watermark right after
    //    (TyphoonMemSystem::canonicalize), so no allocation decision
    //    can observe the free order.
    for (int i = 0; i < _cp.nodes; ++i) {
        NodeState& ns = _nodes[i];
        for (std::uint64_t vpn : ns.stacheVpns) {
            const Addr va = static_cast<Addr>(vpn) * ps;
            const PageMapping* pm = _ms.pageTableOf(i).lookup(va);
            tt_assert(pm, "stache page vanished before unwind at ", va);
            const PAddr pa = pm->ppage;
            _ms.recUnmapPage(i, va);
            _ms.recFreePhysPage(i, pa);
        }
        ns.stacheVpns.clear();
        ns.stacheFifo.clear();
        ns.homeCache.clear();
    }

    // 3. In-flight transactions die without dereferencing anything (a
    //    crash rollback already destroyed the waiting frames), and the
    //    fault-mutation occurrence counters rewind.
    _transients.clear();
    _faultDowngrades = 0;
    _faultInvals = 0;
    _faultPuts = 0;

    onCanonicalize(epochSeed);
}

NodeId
Stache::homeOf(Addr va) const
{
    const NodeId* h = _pageHome.find(pageNum(va, _cp.pageSize));
    return h ? *h : kNoNode;
}

void
Stache::readBlockHost(NodeId node, Addr blk, void* buf)
{
    const PAddr pa = _ms.pageTableOf(node).translate(blk);
    _ms.physOf(node).read(pa, buf, _cp.blockSize);
}

void
Stache::peek(Addr va, void* buf, std::size_t len)
{
    // Authoritative copy, block by block: the exclusive owner's stache
    // page if the block is dirty-remote, otherwise the home page.
    auto* out = static_cast<std::uint8_t*>(buf);
    forEachBlockPiece(va, len, _cp.blockSize,
                      [this, out](Addr a, std::size_t off, std::size_t n) {
        const NodeId home = homeOf(a);
        tt_assert(home != kNoNode, "peek of unallocated va ", a);
        NodeId src = home;
        if (const HomeDir* hd = findHomeDir(a)) {
            const StacheDirEntry& e =
                hd->entries[blockInPage(a, _cp.pageSize, _cp.blockSize)];
            if (e.state() == StacheDirEntry::State::Excl)
                src = e.owner();
        }
        _ms.physOf(src).read(_ms.pageTableOf(src).translate(a),
                             out + off, n);
    });
}

void
Stache::poke(Addr va, const void* buf, std::size_t len)
{
    // Block by block, write the home copy plus any live replicas so
    // setup-time initialization is coherent everywhere.
    const auto* in = static_cast<const std::uint8_t*>(buf);
    forEachBlockPiece(va, len, _cp.blockSize,
                      [this, in](Addr a, std::size_t off, std::size_t n) {
        const NodeId home = homeOf(a);
        tt_assert(home != kNoNode, "poke of unallocated va ", a);
        _ms.physOf(home).write(_ms.pageTableOf(home).translate(a),
                               in + off, n);
        const HomeDir* hd = findHomeDir(a);
        if (!hd)
            return;
        const StacheDirEntry& e =
            hd->entries[blockInPage(a, _cp.pageSize, _cp.blockSize)];
        std::vector<NodeId> copies;
        if (e.state() == StacheDirEntry::State::Excl)
            copies.push_back(e.owner());
        else if (e.state() == StacheDirEntry::State::Shared)
            copies = e.members(hd->aux);
        for (NodeId c : copies) {
            if (c == home)
                continue;
            if (const PageMapping* pm = _ms.pageTableOf(c).lookup(a)) {
                _ms.physOf(c).write(
                    pm->ppage + pageOffset(a, _cp.pageSize), in + off, n);
            }
        }
    });
}

// ---------------------------------------------------------------------
// Directory helpers
// ---------------------------------------------------------------------

Stache::HomeDir&
Stache::homeDirOf(Addr va)
{
    HomeDir* hd = _homeDirs.find(pageNum(va, _cp.pageSize));
    tt_assert(hd, "no home directory for va ", va);
    return *hd;
}

const Stache::HomeDir*
Stache::findHomeDir(Addr va) const
{
    return _homeDirs.find(pageNum(va, _cp.pageSize));
}

StacheDirEntry&
Stache::entryOf(Addr blk)
{
    return homeDirOf(blk)
        .entries[blockInPage(blk, _cp.pageSize, _cp.blockSize)];
}

std::uint64_t
Stache::entryKey(Addr blk) const
{
    // Synthetic NP-D-cache address of the 8-byte directory entry.
    return 0xD000'0000'0000ULL + blockNum(blk, _cp.blockSize) * 8;
}

Stache::BlockView
Stache::inspect(Addr va) const
{
    BlockView v;
    const HomeDir* hd = findHomeDir(va);
    if (!hd)
        return v;
    const StacheDirEntry& e =
        hd->entries[blockInPage(va, _cp.pageSize, _cp.blockSize)];
    v.state = e.state();
    v.raw = e.raw();
    if (e.state() == StacheDirEntry::State::Excl)
        v.owner = e.owner();
    else
        v.sharers = e.members(hd->aux);
    v.busy = _transients.contains(blockAlign(va, _cp.blockSize));
    return v;
}

Stache::BlockPeek
Stache::peekEntry(Addr va) const
{
    BlockPeek p;
    p.busy = _transients.contains(blockAlign(va, _cp.blockSize));
    const HomeDir* hd = findHomeDir(va);
    if (!hd)
        return p;
    const StacheDirEntry& e =
        hd->entries[blockInPage(va, _cp.pageSize, _cp.blockSize)];
    p.state = e.state();
    if (e.state() == StacheDirEntry::State::Excl)
        p.owner = e.owner();
    p.entry = &e;
    p.aux = &hd->aux;
    return p;
}

std::size_t
Stache::stachePagesAt(NodeId node) const
{
    return _nodes.at(node).stacheFifo.size();
}

std::size_t
Stache::footprintBytes() const
{
    std::size_t b = _pageHome.footprintBytes();
    b += _homeDirs.footprintBytes();
    _homeDirs.forEach([&](std::uint64_t, const HomeDir& hd) {
        b += hd.entries.capacity() * sizeof(StacheDirEntry);
        b += hd.aux.sets.size() *
             (sizeof(std::uint32_t) + sizeof(NodeSet));
    });
    b += _transients.footprintBytes();
    _transients.forEach([&](Addr, const Transient& t) {
        b += t.deferred.size() * sizeof(Deferred);
    });
    for (const NodeState& ns : _nodes) {
        b += ns.homeCache.footprintBytes();
        b += ns.stacheFifo.size() * sizeof(Addr);
        b += ns.stacheVpns.size() * sizeof(std::uint64_t);
    }
    b += _allocs.capacity() * sizeof(MemorySystem::SharedRange);
    return b;
}

// ---------------------------------------------------------------------
// CPU-side handlers: page fault and block access faults
// ---------------------------------------------------------------------

void
Stache::onPageFault(TempestCtx& ctx, Addr va, MemOp op)
{
    (void)op;
    const NodeId self = ctx.nodeId();
    NodeState& ns = _nodes[self];
    const Addr pageVa = alignDown(va, _cp.pageSize);
    const std::uint64_t vpn = pageNum(va, _cp.pageSize);
    ctx.charge(_p.pageFaultWork);
    _cPageFaults.inc();

    // The trap is asynchronous: an NP-side prefetch may have mapped
    // the page while the fault was being delivered. Re-check and
    // return; the restarted access proceeds normally. Stache never
    // write-protects pages, so a protection fault here is a bug.
    if (ctx.pageMapped(va)) {
        tt_assert(ctx.pageWritable(va),
                  "write-protected page under Stache at ", va);
        return;
    }

    // Find the home in the distributed mapping table and cache it in
    // the local table (section 3).
    const NodeId* home = _pageHome.find(vpn);
    tt_assert(home, "access to unallocated shared va ", va);
    ctx.structAccess(0xE000'0000'0000ULL + vpn * 8);
    ns.homeCache[vpn] = *home;

    if (ns.stacheFifo.size() >= _p.maxStachePages) {
        // FIFO replacement: flush a victim page, writing modified
        // blocks home, then remap its frame at the new address.
        const Addr victim = ns.stacheFifo.front();
        ns.stacheFifo.pop_front();
        ns.stacheVpns.erase(pageNum(victim, _cp.pageSize));
        _cPageReplacements.inc();

        const NodeId vhome = _pageHome.at(pageNum(victim, _cp.pageSize));
        std::vector<std::uint8_t> buf(_cp.blockSize);
        for (Addr b = victim; b < victim + _cp.pageSize;
             b += _cp.blockSize) {
            const AccessTag tag = ctx.readTag(b);
            if (tag == AccessTag::ReadWrite) {
                // Modified: send the data home.
                readBlockHost(self, b, buf.data());
                Word args[3];
                args[0] = static_cast<Word>(b);
                args[1] = static_cast<Word>(b >> 32);
                args[2] = 0;
                ctx.send(vhome, kWriteback, std::span<const Word>(args),
                         buf.data(), _cp.blockSize, VNet::Request);
                ctx.invalidate(b);
                _cWritebacks.inc();
            } else if (tag == AccessTag::ReadOnly) {
                // Clean copy: drop silently (home keeps a stale
                // sharer pointer; invalidations tolerate that).
                ctx.invalidate(b);
            } else {
                tt_assert(tag == AccessTag::Invalid,
                          "Busy block during page replacement");
            }
        }
        ctx.remapPage(victim, pageVa, kModeStache);
    } else {
        const PAddr pa = ctx.allocPhysPage();
        ctx.mapPage(pageVa, pa, kModeStache);
    }
    // Tags default to Invalid: the restarted access will take a block
    // access fault and fetch the block (section 3).
    ns.stacheFifo.push_back(pageVa);
    ns.stacheVpns.insert(vpn);
}

void
Stache::onStacheFault(TempestCtx& ctx, const BlockFault& f)
{
    const NodeId self = ctx.nodeId();
    const Addr blk = blockAlign(f.va, _cp.blockSize);
    ctx.charge(_p.faultHandlerWork);

    // Busy: a prefetch for this block is already in flight (section
    // 5.4) — terminate without a duplicate request; the data-arrival
    // handler resumes the suspended thread. A write fault then
    // retries against the landed ReadOnly copy and escalates as a
    // normal upgrade, keeping a single outstanding request per block.
    if (f.tag == AccessTag::Busy) {
        _cPrefetchHitsInFlight.inc();
        return;
    }

    // Home lookup in the local table.
    const std::uint64_t vpn = pageNum(f.va, _cp.pageSize);
    const NodeId* cached = _nodes[self].homeCache.find(vpn);
    tt_assert(cached, "stache page without cached home at node ",
              self);
    ctx.structAccess(0xE800'0000'0000ULL + vpn * 8);
    const NodeId home = *cached;

    // A write fault on a ReadOnly copy is an upgrade: the block data
    // is already here, so the home may grant without resending it.
    const bool upgrade = f.op == MemOp::Write &&
                         f.tag == AccessTag::ReadOnly;
    ctx.setBusy(blk);
    Word args[3] = {static_cast<Word>(blk),
                    static_cast<Word>(blk >> 32),
                    upgrade ? 1u : 0u};
    const bool wantRW = f.op == MemOp::Write;
    (wantRW ? _cGetRw : _cGetRo).inc();
    ctx.send(home, wantRW ? kGetRW : kGetRO,
             std::span<const Word>(args), nullptr, 0, VNet::Request);
    // The handler terminates; the data-arrival handler resumes the
    // CPU (section 3).
}

void
Stache::onHomeFault(TempestCtx& ctx, const BlockFault& f)
{
    // Home-node fault: bypass messaging, access directory directly.
    const Addr blk = blockAlign(f.va, _cp.blockSize);
    ctx.charge(_p.faultHandlerWork);
    _cHomeFaults.inc();
    homeRequest(ctx, blk, ctx.nodeId(), f.op == MemOp::Write);
}

// ---------------------------------------------------------------------
// Home-side protocol machine
// ---------------------------------------------------------------------

void
Stache::homeRequest(TempestCtx& ctx, Addr blk, NodeId requester,
                    bool wantRW, bool upgrade)
{
    ctx.charge(_p.homeHandlerWork);
    ctx.structAccess(entryKey(blk));
    _cHomeRequests.inc();

    if (Transient* tr = _transients.find(blk)) {
        // Capture the requester's transaction context so the replay
        // inside finishTransient (which runs under the final ack's
        // activation) can re-enter it.
        FlightRecorder* obs = _ms.recorder();
        tr->deferred.push_back(Deferred{
            requester, wantRW, upgrade,
            obs ? obs->txnFor(ctx.nodeId()) : 0});
        _cDeferred.inc();
        return;
    }

    HomeDir& hd = homeDirOf(blk);
    StacheDirEntry& e = entryOf(blk);
    using St = StacheDirEntry::State;

    // An upgrade is grantable without data only while the requester
    // is still listed as a sharer (its copy is current).
    const bool dataless =
        upgrade && e.state() == St::Shared &&
        e.contains(requester, hd.aux);

    switch (e.state()) {
      case St::Idle:
        grantFromHome(ctx, blk, requester, wantRW, kNoNode);
        break;

      case St::Shared: {
        if (!wantRW) {
            grantFromHome(ctx, blk, requester, wantRW, kNoNode);
            break;
        }
        auto targets = e.members(hd.aux);
        std::erase(targets, requester);
        if (targets.empty()) {
            grantFromHome(ctx, blk, requester, wantRW, kNoNode,
                          dataless);
            break;
        }
        Transient t;
        t.requester = requester;
        t.wantRW = true;
        t.dataless = dataless;
        t.acksLeft = static_cast<int>(targets.size());
        _transients.insert(blk, std::move(t));
        if (FlightRecorder* obs = _ms.recorder())
            obs->blockEvent(ctx.nodeId(), blk, "dir:inval-round");
        Word args[2] = {static_cast<Word>(blk),
                        static_cast<Word>(blk >> 32)};
        _cInvalsSent.inc(targets.size());
        if (FlightRecorder* obs = _ms.recorder();
            obs && obs->wantSharing()) {
            obs->invalSent(ctx.nodeId(), blk, requester,
                           static_cast<std::uint32_t>(targets.size()),
                           InvKind::Inval, _m.eq().now());
        }
        for (NodeId s : targets)
            ctx.send(s, kInval, std::span<const Word>(args), nullptr,
                     0, VNet::Request);
        break;
      }

      case St::Excl: {
        const NodeId owner = e.owner();
        tt_assert(owner != requester,
                  "stache owner re-requesting its block");
        Transient t;
        t.requester = requester;
        t.wantRW = wantRW;
        t.awaitingData = true;
        t.owner = owner;
        t.wasDowngrade = !wantRW;
        _transients.insert(blk, std::move(t));
        if (FlightRecorder* obs = _ms.recorder())
            obs->blockEvent(ctx.nodeId(), blk, "dir:recall");
        Word args[2] = {static_cast<Word>(blk),
                        static_cast<Word>(blk >> 32)};
        _cRecalls.inc();
        if (FlightRecorder* obs = _ms.recorder();
            obs && obs->wantSharing()) {
            obs->invalSent(ctx.nodeId(), blk, requester, 1,
                           wantRW ? InvKind::Recall : InvKind::Downgrade,
                           _m.eq().now());
        }
        ctx.send(owner, wantRW ? kRecallRW : kDowngrade,
                 std::span<const Word>(args), nullptr, 0,
                 VNet::Request);
        break;
      }
    }
}

void
Stache::sendBlockData(TempestCtx& ctx, NodeId dst, HandlerId kind,
                      Addr blk)
{
    std::vector<std::uint8_t> buf(_cp.blockSize);
    // The BXB streams memory into the send queue; the movement cost
    // is charged by send() per 32 bytes of payload.
    readBlockHost(ctx.nodeId(), blk, buf.data());
    Word args[2] = {static_cast<Word>(blk),
                    static_cast<Word>(blk >> 32)};
    ctx.send(dst, kind, std::span<const Word>(args), buf.data(),
             _cp.blockSize, VNet::Response);
}

void
Stache::grantFromHome(TempestCtx& ctx, Addr blk, NodeId requester,
                      bool wantRW, NodeId keep_sharer, bool dataless)
{
    HomeDir& hd = homeDirOf(blk);
    StacheDirEntry& e = entryOf(blk);
    const NodeId home = ctx.nodeId();
    using St = StacheDirEntry::State;
    const St oldState = e.state();
    auto dirTrans = [&](St to) {
        if (FlightRecorder* obs = _ms.recorder();
            obs && obs->wantSharing() && to != oldState) {
            obs->dirTrans(home, blk,
                          static_cast<std::uint8_t>(oldState),
                          static_cast<std::uint8_t>(to),
                          _m.eq().now());
        }
    };

    if (FlightRecorder* obs = _ms.recorder())
        obs->blockEvent(home, blk, "dir:grant");

    if (wantRW) {
        if (requester == home) {
            e.setIdle(hd.aux);
            dirTrans(St::Idle);
            ctx.setRW(blk);
            ctx.resume();
        } else if (dataless) {
            // Upgrade grant: the requester's read-only copy is
            // current; skip the block payload entirely.
            e.setExcl(requester, hd.aux);
            dirTrans(St::Excl);
            ctx.invalidate(blk);
            Word args[3] = {static_cast<Word>(blk),
                            static_cast<Word>(blk >> 32), 1u};
            _cUpgradeGrants.inc();
            ctx.send(requester, kDataRW, std::span<const Word>(args),
                     nullptr, 0, VNet::Response);
        } else {
            e.setExcl(requester, hd.aux);
            dirTrans(St::Excl);
            ctx.invalidate(blk); // home copy (tag + CPU cache) dies
            sendBlockData(ctx, requester, kDataRW, blk);
        }
        return;
    }

    // Read grant.
    if (keep_sharer != kNoNode && keep_sharer != requester)
        e.addSharer(keep_sharer, _p.dirPointers, _cp.nodes, hd.aux);
    if (requester == home) {
        // Home re-reads its own block after a recall or writeback.
        if (e.state() == StacheDirEntry::State::Idle)
            ctx.setRW(blk);
        else
            ctx.setRO(blk);
        ctx.resume();
    } else {
        e.addSharer(requester, _p.dirPointers, _cp.nodes, hd.aux);
        ctx.setRO(blk); // home keeps read access only
        sendBlockData(ctx, requester, kDataRO, blk);
    }
    dirTrans(e.state());
}

void
Stache::finishTransient(TempestCtx& ctx, Addr blk, NodeId keep_sharer)
{
    Transient* tr = _transients.find(blk);
    tt_assert(tr, "finishTransient without one");
    Transient t = std::move(*tr);
    _transients.erase(blk);
    grantFromHome(ctx, blk, t.requester, t.wantRW, keep_sharer,
                  t.dataless);
    // Replay deferred requests in arrival order, each under its own
    // captured transaction context (we are inside the final ack's
    // handler activation, whose context belongs to the transaction
    // just finished — restore it afterward so the activation's own
    // records stay correctly stamped).
    FlightRecorder* obs = _ms.recorder();
    const std::uint32_t prevAct =
        obs ? obs->actOf(ctx.nodeId()) : 0;
    for (auto& d : t.deferred) {
        if (obs)
            obs->beginAct(ctx.nodeId(), d.txn);
        homeRequest(ctx, blk, d.requester, d.wantRW, d.upgrade);
    }
    if (obs)
        obs->beginAct(ctx.nodeId(), prevAct);
}

// ---------------------------------------------------------------------
// Message handlers
// ---------------------------------------------------------------------

void
Stache::onGet(TempestCtx& ctx, const Message& msg, bool wantRW)
{
    const bool upgrade = msg.args.size() > 2 && msg.args[2] != 0;
    homeRequest(ctx, static_cast<Addr>(msg.addrArg(0)), msg.src,
                wantRW, upgrade);
}

void
Stache::onData(TempestCtx& ctx, const Message& msg, bool rw)
{
    const Addr blk = static_cast<Addr>(msg.addrArg(0));
    const bool dataless = msg.args.size() > 2 && msg.args[2] != 0;
    ctx.charge(_p.dataHandlerWork);
    if (!dataless) {
        ctx.forceWrite(blk, msg.data.data(),
                       static_cast<std::uint32_t>(msg.data.size()));
    }
    if (rw)
        ctx.setRW(blk);
    else
        ctx.setRO(blk);
    _cDataReceived.inc();
    // Prefetched data may land with no thread waiting on it.
    if (ctx.threadSuspendedOn(blk))
        ctx.resume();
}

void
Stache::onInval(TempestCtx& ctx, const Message& msg)
{
    const Addr blk = static_cast<Addr>(msg.addrArg(0));
    ctx.charge(2);
    if (ctx.pageMapped(blk)) {
        const AccessTag tag = ctx.readTag(blk);
        tt_assert(tag != AccessTag::ReadWrite,
                  "sharer holds a writable copy");
        if (tag == AccessTag::ReadOnly) {
            // Seeded mutation: ack the Nth invalidation but keep the
            // readable copy (tests/check/test_differential.cc).
            const bool skip = _p.faultSkipInvalNth != 0 &&
                              ++_faultInvals == _p.faultSkipInvalNth;
            if (!skip)
                ctx.invalidate(blk);
        }
        // Busy: an upgrade is in flight; fresh data will arrive.
        // Invalid: stale sharer pointer (silent replacement).
    }
    Word args[2] = {static_cast<Word>(blk),
                    static_cast<Word>(blk >> 32)};
    ctx.send(msg.src, kInvAck, std::span<const Word>(args), nullptr, 0,
             VNet::Response);
}

void
Stache::onInvAck(TempestCtx& ctx, const Message& msg)
{
    const Addr blk = static_cast<Addr>(msg.addrArg(0));
    ctx.charge(2);
    Transient* tr = _transients.find(blk);
    tt_assert(tr && tr->acksLeft > 0, "stray InvAck for block ", blk);
    if (--tr->acksLeft > 0)
        return;
    // "The handler for the final invalidation acknowledgment actually
    // sends the data" (section 3).
    finishTransient(ctx, blk, kNoNode);
}

void
Stache::onRecall(TempestCtx& ctx, const Message& msg, bool downgrade)
{
    const Addr blk = static_cast<Addr>(msg.addrArg(0));
    ctx.charge(2);
    Word args[2] = {static_cast<Word>(blk),
                    static_cast<Word>(blk >> 32)};
    const bool have = ctx.pageMapped(blk) &&
                      ctx.readTag(blk) == AccessTag::ReadWrite;
    if (!have) {
        // Our copy left via a replacement writeback that is already
        // ahead of this reply in FIFO order.
        ctx.send(msg.src, kPutNack, std::span<const Word>(args),
                 nullptr, 0, VNet::Response);
        return;
    }
    // Observe (via the bus) whether the CPU modified its copy since
    // the grant — adaptive protocols use this to classify sharing.
    const bool modified = ctx.cpuCopyDirty(blk);
    std::vector<std::uint8_t> buf(_cp.blockSize);
    readBlockHost(ctx.nodeId(), blk, buf.data());
    if (downgrade) {
        // Test-only fault injection: keep the stale writable copy so
        // the coherence sanitizer must catch it (test_mutations.cc,
        // test_differential.cc).
        const bool skip =
            _p.faultSkipDowngrade ||
            (_p.faultSkipDowngradeNth != 0 &&
             ++_faultDowngrades == _p.faultSkipDowngradeNth);
        if (!skip)
            ctx.setRO(blk);
    } else {
        ctx.invalidate(blk);
    }
    // Seeded mutation: corrupt the Nth returned data payload so the
    // home's memory diverges from the write history.
    if (_p.faultCorruptPutNth != 0 &&
        ++_faultPuts == _p.faultCorruptPutNth)
        buf[0] ^= 0xff;
    Word args3[3] = {args[0], args[1], modified ? 1u : 0u};
    ctx.send(msg.src, kPutData, std::span<const Word>(args3),
             buf.data(), _cp.blockSize, VNet::Response);
}

void
Stache::onPutData(TempestCtx& ctx, const Message& msg)
{
    const Addr blk = static_cast<Addr>(msg.addrArg(0));
    ctx.charge(2);
    onOwnerDataReturned(blk, msg.src,
                        msg.args.size() > 2 && msg.args[2] != 0);
    Transient* tr = _transients.find(blk);
    tt_assert(tr && tr->awaitingData, "unexpected PutData for block ",
              blk);
    // The home page becomes current before anyone else sees the data.
    ctx.forceWrite(blk, msg.data.data(),
                   static_cast<std::uint32_t>(msg.data.size()));
    HomeDir& hd = homeDirOf(blk);
    StacheDirEntry& e = entryOf(blk);
    const auto oldState = e.state();
    e.setIdle(hd.aux);
    if (FlightRecorder* obs = _ms.recorder();
        obs && obs->wantSharing() &&
        oldState != StacheDirEntry::State::Idle) {
        obs->dirTrans(ctx.nodeId(), blk,
                      static_cast<std::uint8_t>(oldState),
                      static_cast<std::uint8_t>(
                          StacheDirEntry::State::Idle),
                      _m.eq().now());
    }
    const NodeId keep = tr->wasDowngrade ? tr->owner : kNoNode;
    finishTransient(ctx, blk, keep);
}

void
Stache::onPutNack(TempestCtx& ctx, const Message& msg)
{
    const Addr blk = static_cast<Addr>(msg.addrArg(0));
    ctx.charge(2);
    Transient* tr = _transients.find(blk);
    tt_assert(tr && tr->awaitingData, "unexpected PutNack for block ",
              blk);
    tt_assert(tr->sawWb,
              "PutNack without a preceding writeback for block ", blk);
    // A replacement writeback implies the owner modified the block.
    onOwnerDataReturned(blk, msg.src, true);
    finishTransient(ctx, blk, kNoNode);
}

std::size_t
Stache::auditCoherence()
{
    std::size_t violations = 0;
    std::vector<std::uint8_t> homeData(_cp.blockSize);
    std::vector<std::uint8_t> copyData(_cp.blockSize);

    auto complain = [&](Addr blk, const char* what) {
        ++violations;
        tt_warn("coherence audit: block ", blk, ": ", what);
    };

    _homeDirs.forEach([&](std::uint64_t vpn, const HomeDir& hd) {
        const NodeId home = _pageHome.at(vpn);
        const Addr pageVa = static_cast<Addr>(vpn) * _cp.pageSize;
        for (std::uint32_t b = 0; b < blocksPerPage(); ++b) {
            const Addr blk = pageVa + b * _cp.blockSize;
            const StacheDirEntry& e = hd.entries[b];
            const AccessTag homeTag =
                _ms.tagOf(home, blk);

            switch (e.state()) {
              case StacheDirEntry::State::Idle:
                if (homeTag != AccessTag::ReadWrite)
                    complain(blk, "Idle block without RW home tag");
                break;

              case StacheDirEntry::State::Shared: {
                if (homeTag != AccessTag::ReadOnly)
                    complain(blk, "Shared block without RO home tag");
                readBlockHost(home, blk, homeData.data());
                for (NodeId s : e.members(hd.aux)) {
                    const PageMapping* pm =
                        _ms.pageTableOf(s).lookup(blk);
                    if (!pm)
                        continue; // silent drop: stale sharer
                    const AccessTag t = _ms.tagOf(s, blk);
                    if (t == AccessTag::Invalid)
                        continue; // stale pointer after remap
                    if (t != AccessTag::ReadOnly) {
                        complain(blk, "sharer copy not ReadOnly");
                        continue;
                    }
                    readBlockHost(s, blk, copyData.data());
                    if (copyData != homeData)
                        complain(blk, "sharer data diverges from home");
                }
                break;
              }

              case StacheDirEntry::State::Excl: {
                if (homeTag != AccessTag::Invalid)
                    complain(blk,
                             "Excl block without Invalid home tag");
                const NodeId owner = e.owner();
                const PageMapping* pm =
                    _ms.pageTableOf(owner).lookup(blk);
                if (!pm) {
                    complain(blk, "owner page unmapped");
                    break;
                }
                if (_ms.tagOf(owner, blk) != AccessTag::ReadWrite)
                    complain(blk, "owner copy not ReadWrite");
                break;
              }
            }
        }
    });
    return violations;
}

void
Stache::prefetch(Cpu& cpu, Addr va)
{
    const Addr blk = blockAlign(va, _cp.blockSize);
    Word args[2] = {static_cast<Word>(blk),
                    static_cast<Word>(blk >> 32)};
    _cPrefetches.inc();
    _ms.cpuSend(cpu, cpu.id(), kPrefetch,
                {args[0], args[1]});
}

void
Stache::onPrefetch(TempestCtx& ctx, const Message& msg)
{
    const NodeId self = ctx.nodeId();
    const Addr blk = static_cast<Addr>(msg.addrArg(0));
    ctx.charge(_p.faultHandlerWork);

    if (!ctx.pageMapped(blk)) {
        // The NP performs the page-grain setup the CPU's page-fault
        // handler would have done.
        if (!_pageHome.contains(pageNum(blk, _cp.pageSize)))
            return; // unallocated: nonbinding, drop
        const NodeId home = _pageHome.at(pageNum(blk, _cp.pageSize));
        if (home == self)
            return; // local page: nothing to prefetch
        onPageFault(ctx, blk, MemOp::Read);
    }
    if (ctx.readTag(blk) != AccessTag::Invalid)
        return; // already present or in flight: nonbinding, drop

    const std::uint64_t vpn = pageNum(blk, _cp.pageSize);
    const NodeId* home = _nodes[self].homeCache.find(vpn);
    if (!home)
        return; // home page or unknown: drop
    ctx.setBusy(blk);
    Word args[3] = {static_cast<Word>(blk),
                    static_cast<Word>(blk >> 32), 0};
    _cGetRo.inc();
    ctx.send(*home, kGetRO, std::span<const Word>(args), nullptr, 0,
             VNet::Request);
}

void
Stache::onWriteback(TempestCtx& ctx, const Message& msg)
{
    const Addr blk = static_cast<Addr>(msg.addrArg(0));
    ctx.charge(2);
    _cWritebacksReceived.inc();
    if (FlightRecorder* obs = _ms.recorder())
        obs->blockEvent(ctx.nodeId(), blk, "dir:writeback");
    ctx.forceWrite(blk, msg.data.data(),
                   static_cast<std::uint32_t>(msg.data.size()));
    HomeDir& hd = homeDirOf(blk);
    StacheDirEntry& e = entryOf(blk);

    Transient* tr = _transients.find(blk);
    if (tr && tr->awaitingData && tr->owner == msg.src) {
        // Crossed with our recall; the PutNack will finish the
        // transaction.
        tr->sawWb = true;
        const auto oldState = e.state();
        e.setIdle(hd.aux);
        if (FlightRecorder* obs = _ms.recorder();
            obs && obs->wantSharing() &&
            oldState != StacheDirEntry::State::Idle) {
            obs->dirTrans(ctx.nodeId(), blk,
                          static_cast<std::uint8_t>(oldState),
                          static_cast<std::uint8_t>(
                              StacheDirEntry::State::Idle),
                          _m.eq().now());
        }
        ctx.setRW(blk);
        return;
    }
    tt_assert(e.state() == StacheDirEntry::State::Excl &&
                  e.owner() == msg.src,
              "stale writeback for block ", blk, " from ", msg.src);
    e.setIdle(hd.aux);
    if (FlightRecorder* obs = _ms.recorder();
        obs && obs->wantSharing()) {
        obs->dirTrans(ctx.nodeId(), blk,
                      static_cast<std::uint8_t>(
                          StacheDirEntry::State::Excl),
                      static_cast<std::uint8_t>(
                          StacheDirEntry::State::Idle),
                      _m.eq().now());
    }
    ctx.setRW(blk); // home regains the writable copy
}

} // namespace tt
