#include "dir/dir_mem_system.hh"

#include "core/cpu.hh"
#include "mem/addr.hh"
#include "sim/logging.hh"

namespace tt
{

DirMemSystem::DirMemSystem(Machine& m, Network& net, DirParams params)
    : _m(m),
      _net(net),
      _p(params),
      _cp(m.params()),
      _stats(m.stats()),
      _store(m.params().pageSize),
      _nextVa(0x1000'0000),
      _cFirstTouch(m.stats().counter("dir.first_touch_assignments")),
      _cTlbMisses(m.stats().counter("dir.tlb_misses")),
      _cCacheHits(m.stats().counter("dir.cache_hits")),
      _cLocalMisses(m.stats().counter("dir.local_misses")),
      _cLocalUpgrades(m.stats().counter("dir.local_upgrades")),
      _cLocalConflictMisses(
          m.stats().counter("dir.local_conflict_misses")),
      _cRemoteMisses(m.stats().counter("dir.remote_misses")),
      _cWritebacks(m.stats().counter("dir.writebacks")),
      _cInvReceived(m.stats().counter("dir.inv_received")),
      _cRecallsReceived(m.stats().counter("dir.recalls_received")),
      _cDeferred(m.stats().counter("dir.deferred_requests")),
      _cOps(m.stats().counter("dir.ops")),
      _cRecallsSent(m.stats().counter("dir.recalls_sent")),
      _cInvSent(m.stats().counter("dir.inv_sent")),
      _cWritebacksReceived(
          m.stats().counter("dir.writebacks_received"))
{
    _nodes.reserve(_cp.nodes);
    for (int i = 0; i < _cp.nodes; ++i) {
        Node n;
        n.cache = std::make_unique<CacheModel>(
            _cp.cacheSize, _cp.cacheAssoc, _cp.blockSize,
            _cp.seed * 7919 + i);
        n.tlb = std::make_unique<TlbModel>(_cp.tlbEntries);
        _nodes.push_back(std::move(n));
    }
    for (NodeId i = 0; i < _cp.nodes; ++i) {
        _net.setReceiver(i, [this, i](Message&& msg) {
            onMessage(i, std::move(msg));
        });
    }
}

// --------------------------------------------------------------------
// Allocation and backing store
// --------------------------------------------------------------------

Addr
DirMemSystem::shmalloc(std::size_t bytes, NodeId home)
{
    tt_assert(bytes > 0, "shmalloc of zero bytes");
    const std::uint32_t ps = _cp.pageSize;
    const std::size_t npages = (bytes + ps - 1) / ps;
    const Addr base = _nextVa;
    for (std::size_t i = 0; i < npages; ++i) {
        const Addr va = base + i * ps;
        _store.allocPageAt(va);
        if (home != kNoNode) {
            _pageHome[pageNum(va, ps)] = home;
        } else if (!_p.firstTouch) {
            _pageHome[pageNum(va, ps)] = _rrNext;
            _rrNext = (_rrNext + 1) % _cp.nodes;
        }
        // first-touch with no pin: left unassigned until first access
    }
    _nextVa = base + npages * ps;
    _allocs.push_back({base, bytes});
    return base;
}

void
DirMemSystem::canonicalize(std::uint64_t epochSeed)
{
    // Deterministic reset to the post-shmalloc canonical form
    // (DESIGN.md §15). The global store is written eagerly, so no
    // dirty cache data needs flushing home first; dropping every tag
    // and directory entry leaves the home owning every block, which
    // is exactly the state right after allocation.
    const Tick now = _m.eq().now();
    for (int i = 0; i < _cp.nodes; ++i) {
        Node& n = _nodes[i];
        n.cache->flushAll();
        n.cache->reseed(epochSeed * 7919 + i);
        n.tlb->flush();
        n.ctrlFree = now;
        // Pending misses are dropped WITHOUT touching miss.req: after
        // a crash rollback the awaiting coroutine frames are already
        // destroyed and the pointers dangle.
        n.pending.clear();
    }
    _dir.clear();
    _faultInvalidates = 0;
    _faultDowngrades = 0;
}

NodeId
DirMemSystem::homeOf(Addr va) const
{
    const NodeId* h = _pageHome.find(pageNum(va, _cp.pageSize));
    return h ? *h : kNoNode;
}

NodeId
DirMemSystem::resolveHome(Addr va, NodeId toucher)
{
    auto [h, inserted] =
        _pageHome.findOrInsert(pageNum(va, _cp.pageSize));
    if (inserted) {
        h = toucher;
        _cFirstTouch.inc();
    }
    return h;
}

void
DirMemSystem::peek(Addr va, void* buf, std::size_t len)
{
    auto* out = static_cast<std::uint8_t*>(buf);
    forEachBlockPiece(va, len, _cp.blockSize,
                      [this, out](Addr a, std::size_t off, std::size_t n) {
        _store.read(a, out + off, n);
    });
}

void
DirMemSystem::poke(Addr va, const void* buf, std::size_t len)
{
    const auto* in = static_cast<const std::uint8_t*>(buf);
    forEachBlockPiece(va, len, _cp.blockSize,
                      [this, in](Addr a, std::size_t off, std::size_t n) {
        _store.write(a, in + off, n);
    });
    if (_obs)
        _obs->backdoorWrite(va, buf, len);
}

void
DirMemSystem::transfer(MemRequest* req)
{
    if (req->op == MemOp::Read)
        _store.read(req->vaddr, req->buf, req->size);
    else
        _store.write(req->vaddr, req->buf, req->size);
}

// --------------------------------------------------------------------
// Directory access helpers
// --------------------------------------------------------------------

DirMemSystem::DirEntry&
DirMemSystem::entry(Addr blk)
{
    auto [e, inserted] = _dir.findOrInsert(blockNum(blk, _cp.blockSize));
    if (inserted)
        e.sharers = NodeSet(_cp.nodes);
    return e;
}

const DirMemSystem::DirEntry*
DirMemSystem::findEntry(Addr blk) const
{
    return _dir.find(blockNum(blk, _cp.blockSize));
}

DirMemSystem::EntryView
DirMemSystem::inspect(Addr va) const
{
    EntryView v;
    const DirEntry* e = findEntry(blockAlign(va, _cp.blockSize));
    if (!e)
        return v;
    v.state = e->state;
    v.sharers = e->sharers.members();
    v.owner = e->owner;
    v.busy = e->mshr != nullptr;
    return v;
}

DirMemSystem::EntryPeek
DirMemSystem::peekEntry(Addr blk) const
{
    EntryPeek p;
    const DirEntry* e = findEntry(blockAlign(blk, _cp.blockSize));
    if (!e)
        return p;
    p.state = e->state;
    p.owner = e->owner;
    p.busy = e->mshr != nullptr;
    p.sharers = &e->sharers;
    return p;
}

bool
DirMemSystem::quiescent() const
{
    bool busy = false;
    _dir.forEach([&](std::uint64_t, const DirEntry& e) {
        busy |= e.mshr != nullptr;
    });
    if (busy)
        return false;
    for (const auto& n : _nodes)
        if (!n.pending.empty())
            return false;
    return true;
}

Tick
DirMemSystem::oldestPendingSince() const
{
    // Watchdog probe: every remote miss parks a PendingMiss at the
    // requesting node until the grant arrives, so the oldest pending
    // issue time bounds how long any transaction has been open.
    Tick oldest = kTickMax;
    for (const Node& n : _nodes)
        n.pending.forEach([&](Addr, const PendingMiss& miss) {
            oldest = std::min(oldest, miss.req->issueTime);
        });
    return oldest;
}

Tick
DirMemSystem::ctrlStart(NodeId n, Tick earliest)
{
    Tick& free = _nodes[n].ctrlFree;
    const Tick start = std::max(earliest, free);
    return start;
}

// --------------------------------------------------------------------
// Processor access path
// --------------------------------------------------------------------

AccessOutcome
DirMemSystem::access(MemRequest* req)
{
    const NodeId self = req->cpu->id();
    Node& n = _nodes[self];
    const Addr va = req->vaddr;
    tt_assert(withinOneBlock(va, req->size, _cp.blockSize),
              "access crosses a block boundary at ", va);

    Tick cost = 0;
    if (!n.tlb->access(pageNum(va, _cp.pageSize))) {
        cost += _cp.tlbMissLatency;
        _cTlbMisses.inc();
    }

    const bool isWrite = req->op == MemOp::Write;
    const Addr blk = blockAlign(va, _cp.blockSize);
    // Complete inline after @p extra more cycles; a local miss names
    // its directory event @p what and ends a checker event.
    auto complete = [&](const char* what, Tick extra) -> AccessOutcome {
        transfer(req);
        if (_obs) {
            if (what)
                _obs->blockEvent(self, blk, what);
            _obs->access(self, va, req->size, isWrite, req->buf,
                         req->issueTime + cost + extra);
            if (what)
                _obs->eventEnd();
        }
        return {true, cost + extra};
    };

    // Cache hit fast path.
    if (isWrite ? n.cache->probeWrite(va) : n.cache->probeRead(va)) {
        _cCacheHits.inc();
        return complete(nullptr, 0);
    }

    const NodeId home = resolveHome(va, self);
    const bool upgrade = isWrite && n.cache->presentShared(va);

    if (home == self) {
        // Local miss: satisfiable inline unless the block conflicts
        // with remote copies or an in-flight transaction.
        DirEntry* e = const_cast<DirEntry*>(findEntry(blk));
        const bool busy = e && e->mshr;
        const DirState st = e ? e->state : DirState::Idle;
        if (!busy) {
            if (!isWrite && st != DirState::Excl) {
                const LineState fillState = st == DirState::Idle
                                                ? LineState::Owned
                                                : LineState::Shared;
                CacheResult fres = n.cache->fill(va, fillState);
                handleVictim(self, fres,
                             req->issueTime + cost +
                                 _cp.localMissLatency);
                _cLocalMisses.inc();
                return complete("local-fill", _cp.localMissLatency);
            }
            if (isWrite && st == DirState::Idle) {
                if (upgrade) {
                    // Stale Shared line with no remote copies left.
                    n.cache->upgrade(va, true);
                    _cLocalUpgrades.inc();
                    return complete("local-upgrade", 0);
                }
                CacheResult fres = n.cache->fill(va, LineState::Owned);
                n.cache->probeWrite(va); // mark dirty
                handleVictim(self, fres,
                             req->issueTime + cost +
                                 _cp.localMissLatency);
                _cLocalMisses.inc();
                return complete("local-fill", _cp.localMissLatency);
            }
        }
        // Local access with remote conflict: enter the home state
        // machine without network hops.
        tt_assert(!n.pending.contains(blk),
                  "duplicate outstanding miss at node ", self);
        n.pending.insert(blk, PendingMiss{req, upgrade});
        _cLocalConflictMisses.inc();
        if (_obs)
            _obs->missStart(self, blk, isWrite, req->issueTime + cost);
        homeRequest(self, blk, self, req->op, upgrade,
                    req->issueTime + cost);
        if (_obs)
            _obs->eventEnd();
        return {false, 0};
    }

    // Remote miss: issue a request message after the launch overhead.
    tt_assert(!n.pending.contains(blk),
              "duplicate outstanding miss at node ", self);
    n.pending.insert(blk, PendingMiss{req, upgrade});
    _cRemoteMisses.inc();
    if (_obs)
        _obs->missStart(self, blk, isWrite, req->issueTime + cost);
    const MsgKind kind =
        !isWrite ? kReadReq : (upgrade ? kUpgradeReq : kWriteReq);
    sendMsg(self, home, VNet::Request, kind, blk,
            req->issueTime + cost + _p.remoteMissIssue);
    return {false, 0};
}

/**
 * Deal with a line evicted by a fill: exclusive victims notify their
 * home (writeback); shared victims evict silently. The local-miss
 * path charges no replacement time (Table 2: perfect write buffer).
 */
void
DirMemSystem::handleVictim(NodeId node, const CacheResult& fres,
                           Tick when)
{
    if (!fres.victimValid || !fres.victimOwned)
        return;
    const NodeId vhome = homeOf(fres.victimAddr);
    tt_assert(vhome != kNoNode, "victim block with no home");
    _cWritebacks.inc();
    if (vhome == node) {
        // Home evicting its own exclusively-held line: the directory
        // entry is Idle (home copies are not tracked); nothing to do.
        return;
    }
    sendMsg(node, vhome, VNet::Request, kWriteBack, fres.victimAddr,
            when, 0, /*carryBlock=*/true);
}

// --------------------------------------------------------------------
// Messaging
// --------------------------------------------------------------------

void
DirMemSystem::sendMsg(NodeId src, NodeId dst, VNet vnet, MsgKind kind,
                      Addr blk, Tick when, Word extra, bool carryBlock)
{
    Message m;
    m.src = src;
    m.dst = dst;
    m.vnet = vnet;
    m.handler = kind;
    m.pushAddr(blk);
    m.args.push_back(extra);
    if (carryBlock)
        m.data.assign(_cp.blockSize, 0);
    _net.send(std::move(m), when);
}

std::size_t
DirMemSystem::footprintBytes() const
{
    std::size_t b = _dir.footprintBytes();
    _dir.forEach([&](std::uint64_t, const DirEntry& e) {
        if (e.mshr) {
            b += sizeof(Mshr);
            b += e.mshr->deferred.size() * sizeof(Deferred);
        }
    });
    b += _pageHome.footprintBytes();
    b += _store.footprintBytes();
    b += _nodes.capacity() * sizeof(Node);
    for (const Node& n : _nodes) {
        b += n.cache->footprintBytes();
        b += n.tlb->footprintBytes();
        b += n.pending.footprintBytes();
    }
    b += _allocs.capacity() * sizeof(SharedRange);
    return b;
}

void
DirMemSystem::onMessage(NodeId self, Message&& msg)
{
    const Addr blk = msg.addrArg(0);
    const Word extra = msg.args.at(2);
    const Tick now = _m.eq().now();
    Node& n = _nodes[self];

    if (_obs) {
        _obs->msgDeliver(self, msg, now);
        // Handler-activation transaction context: messages sent while
        // this message is handled inherit its txn (DESIGN.md §14).
        _obs->beginAct(self, msg.txn);
    }

    switch (msg.handler) {
      case kReadReq:
        homeRequest(self, blk, msg.src, MemOp::Read, false, now);
        break;
      case kWriteReq:
        homeRequest(self, blk, msg.src, MemOp::Write, false, now);
        break;
      case kUpgradeReq:
        homeRequest(self, blk, msg.src, MemOp::Write, true, now);
        break;

      case kInv: {
        // Invalidate our (possibly absent: silent eviction) copy.
        // faultSkipInvalidate is test-only fault injection: ack
        // without invalidating, so the sanitizer must catch the
        // stale copy (test_mutations.cc).
        const Tick start = ctrlStart(self, now);
        bool dirty = false;
        const bool skipInv =
            _p.faultSkipInvalidate ||
            (_p.faultSkipInvalidateNth != 0 &&
             ++_faultInvalidates == _p.faultSkipInvalidateNth);
        const LineState prior = skipInv
                                    ? LineState::Invalid
                                    : n.cache->invalidate(blk, &dirty);
        Tick cost = _p.invProcess;
        if (prior == LineState::Owned)
            cost += _p.replaceExclusive;
        n.ctrlFree = start + cost;
        _cInvReceived.inc();
        sendMsg(self, msg.src, VNet::Response, kInvAck, blk,
                start + cost);
        break;
      }

      case kInvAck: {
        DirEntry& e = entry(blk);
        tt_assert(e.mshr && e.mshr->acksLeft > 0,
                  "stray InvAck at node ", self);
        if (--e.mshr->acksLeft == 0) {
            const Tick start = ctrlStart(self, now);
            const Tick cost =
                _p.dirPerMsg +
                (e.mshr->upgrade ? 0 : _p.dirBlockSend);
            n.ctrlFree = start + cost;
            grant(self, blk, start + cost);
        } else {
            n.ctrlFree = ctrlStart(self, now) + 1;
        }
        break;
      }

      case kRecall: {
        const bool toInvalid = extra != 0;
        const Tick start = ctrlStart(self, now);
        Tick cost = _p.invProcess;
        bool present;
        if (toInvalid) {
            bool dirty = false;
            present =
                n.cache->invalidate(blk, &dirty) == LineState::Owned;
            cost += _p.replaceExclusive;
        } else if (_p.faultSkipDowngradeNth != 0 &&
                   ++_faultDowngrades == _p.faultSkipDowngradeNth) {
            // Seeded mutation: answer the recall but keep the line
            // Owned (tests/check/test_differential.cc).
            present = n.cache->present(blk) &&
                      !n.cache->presentShared(blk);
        } else {
            present = n.cache->downgrade(blk);
        }
        n.ctrlFree = start + cost;
        _cRecallsReceived.inc();
        sendMsg(self, msg.src, VNet::Response,
                present ? kRecallData : kRecallNack, blk, start + cost,
                0, present);
        break;
      }

      case kRecallData: {
        DirEntry& e = entry(blk);
        tt_assert(e.mshr && e.mshr->awaitingRecall,
                  "unexpected RecallData at ", self);
        e.mshr->awaitingRecall = false;
        if (e.mshr->op == MemOp::Read)
            e.mshr->keepSharer = msg.src;
        const Tick start = ctrlStart(self, now);
        const Tick cost =
            _p.dirBlockRecv + _p.dirPerMsg + _p.dirBlockSend;
        n.ctrlFree = start + cost;
        grant(self, blk, start + cost);
        break;
      }

      case kRecallNack: {
        // The owner wrote the line back before our recall arrived;
        // per-pair FIFO guarantees the writeback was processed first.
        DirEntry& e = entry(blk);
        tt_assert(e.mshr && e.mshr->awaitingRecall,
                  "unexpected RecallNack at ", self);
        tt_assert(e.mshr->sawWb,
                  "RecallNack without preceding writeback at ", self);
        e.mshr->awaitingRecall = false;
        const Tick start = ctrlStart(self, now);
        const Tick cost = _p.dirPerMsg + _p.dirBlockSend;
        n.ctrlFree = start + cost;
        grant(self, blk, start + cost);
        break;
      }

      case kWriteBack:
        applyWriteback(self, blk, msg.src, now);
        break;

      case kData: {
        const bool writeGrant = extra == 2;
        completeAtRequester(self, blk, true, writeGrant, now);
        break;
      }
      case kGrantUp:
        completeAtRequester(self, blk, false, true, now);
        break;

      default:
        // Recovery coordinator traffic (DESIGN.md §15) rides the same
        // checked, reliable path as protocol messages; its handler ids
        // sit far above the hardware protocol's. The messages carry a
        // dummy addr + extra arg so the decode above stays in bounds.
        if (_extra) {
            _extra(self, std::move(msg));
            break;
        }
        tt_panic("unknown DirNNB message kind ", msg.handler);
    }

    if (_obs) {
        // The controller-occupancy charge for this message is whatever
        // the handler pushed ctrlFree past its dispatch time.
        _obs->handlerDone(self, ActKind::Msg, msg.handler, msg.obsId,
                          now,
                          n.ctrlFree > now ? n.ctrlFree - now : 0);
        _obs->endAct(self);
        _obs->eventEnd();
    }
}

// --------------------------------------------------------------------
// Home-side state machine
// --------------------------------------------------------------------

void
DirMemSystem::homeRequest(NodeId home, Addr blk, NodeId requester,
                          MemOp op, bool upgrade, Tick when)
{
    DirEntry& e = entry(blk);
    if (e.mshr) {
        // Capture the requester's transaction context so the replay
        // (which runs from the event queue, outside any handler
        // activation) can re-enter it.
        e.mshr->deferred.push_back(Deferred{
            requester, op, upgrade, _obs ? _obs->txnFor(home) : 0});
        _cDeferred.inc();
        return;
    }
    const Tick start = ctrlStart(home, when);
    homeProcess(home, blk, requester, op, upgrade, start);
}

void
DirMemSystem::homeProcess(NodeId home, Addr blk, NodeId requester,
                          MemOp op, bool upgrade, Tick start)
{
    Node& hn = _nodes[home];
    DirEntry& e = entry(blk);
    tt_assert(!e.mshr, "homeProcess on busy entry");
    _cOps.inc();

    auto mshr = std::make_unique<Mshr>();
    mshr->op = op;
    mshr->requester = requester;
    // An upgrade is grantable without data only if the requester is
    // still a sharer; otherwise it lost its line to an invalidation
    // racing with the request and needs the full block.
    mshr->upgrade = upgrade && e.sharers.contains(requester);
    e.mshr = std::move(mshr);
    if (_obs)
        _obs->blockEvent(home, blk, "dir:open");

    if (op == MemOp::Read) {
        if (e.state != DirState::Excl) {
            const Tick cost =
                _p.dirOpBase + _p.dirPerMsg + _p.dirBlockSend;
            hn.ctrlFree = start + cost;
            grant(home, blk, start + cost);
        } else {
            tt_assert(e.owner != requester,
                      "owner re-requesting its own block");
            e.mshr->awaitingRecall = true;
            e.mshr->recallTarget = e.owner;
            const Tick cost = _p.dirOpBase + _p.dirPerMsg;
            hn.ctrlFree = start + cost;
            _cRecallsSent.inc();
            if (_obs && _obs->wantSharing()) {
                _obs->invalSent(home, blk, requester, 1,
                                InvKind::Downgrade, start + cost);
            }
            sendMsg(home, e.owner, VNet::Request, kRecall, blk,
                    start + cost, /*toInvalid=*/0);
        }
        return;
    }

    // Write / upgrade.
    switch (e.state) {
      case DirState::Idle: {
        const Tick cost = _p.dirOpBase + _p.dirPerMsg +
                          (e.mshr->upgrade ? 0 : _p.dirBlockSend);
        hn.ctrlFree = start + cost;
        grant(home, blk, start + cost);
        break;
      }
      case DirState::Shared: {
        auto targets = e.sharers.members();
        std::erase(targets, requester);
        if (targets.empty()) {
            const Tick cost = _p.dirOpBase + _p.dirPerMsg +
                              (e.mshr->upgrade ? 0 : _p.dirBlockSend);
            hn.ctrlFree = start + cost;
            grant(home, blk, start + cost);
            break;
        }
        e.mshr->acksLeft = static_cast<int>(targets.size());
        const Tick cost =
            _p.dirOpBase +
            _p.dirPerMsg * static_cast<Tick>(targets.size());
        hn.ctrlFree = start + cost;
        _cInvSent.inc(targets.size());
        if (_obs && _obs->wantSharing()) {
            _obs->invalSent(home, blk, requester,
                            static_cast<std::uint32_t>(targets.size()),
                            InvKind::Inval, start + cost);
        }
        for (NodeId t : targets)
            sendMsg(home, t, VNet::Request, kInv, blk, start + cost);
        break;
      }
      case DirState::Excl: {
        tt_assert(e.owner != requester,
                  "owner re-requesting its own block for write");
        e.mshr->awaitingRecall = true;
        e.mshr->recallTarget = e.owner;
        const Tick cost = _p.dirOpBase + _p.dirPerMsg;
        hn.ctrlFree = start + cost;
        _cRecallsSent.inc();
        if (_obs && _obs->wantSharing()) {
            _obs->invalSent(home, blk, requester, 1, InvKind::Recall,
                            start + cost);
        }
        sendMsg(home, e.owner, VNet::Request, kRecall, blk,
                start + cost, /*toInvalid=*/1);
        break;
      }
    }
}

void
DirMemSystem::grant(NodeId home, Addr blk, Tick when)
{
    DirEntry& e = entry(blk);
    tt_assert(e.mshr, "grant with no transaction");
    Mshr& m = *e.mshr;
    Node& hn = _nodes[home];
    const DirState oldState = e.state;

    // Final directory state.
    if (m.op == MemOp::Read) {
        e.owner = kNoNode;
        e.state = DirState::Shared;
        if (m.keepSharer != kNoNode)
            e.sharers.add(m.keepSharer);
        if (m.requester != home) {
            e.sharers.add(m.requester);
            // The home's own exclusively-cached copy loses ownership.
            hn.cache->downgrade(blk);
        } else if (e.sharers.empty()) {
            e.state = DirState::Idle;
        }
    } else {
        e.sharers.clear();
        if (m.requester == home) {
            e.state = DirState::Idle;
            e.owner = kNoNode;
        } else {
            e.state = DirState::Excl;
            e.owner = m.requester;
            // Any home-cached copy must go.
            hn.cache->invalidate(blk);
        }
    }

    if (_obs)
        _obs->blockEvent(home, blk, "dir:grant");
    if (_obs && _obs->wantSharing() && e.state != oldState) {
        _obs->dirTrans(home, blk, static_cast<std::uint8_t>(oldState),
                       static_cast<std::uint8_t>(e.state), when);
    }

    // Deliver the grant.
    if (m.requester == home) {
        completeLocal(home, blk, when);
    } else if (m.upgrade) {
        sendMsg(home, m.requester, VNet::Response, kGrantUp, blk, when);
    } else {
        sendMsg(home, m.requester, VNet::Response, kData, blk, when,
                m.op == MemOp::Read ? 1 : 2, /*carryBlock=*/true);
    }

    // Retire the transaction and replay deferred requests.
    auto deferred = std::move(m.deferred);
    e.mshr.reset();
    for (auto& d : deferred) {
        _m.eq().schedule(std::max(when, _m.eq().now()),
                         [this, home, blk, d] {
                             if (_obs)
                                 _obs->beginAct(home, d.txn);
                             homeRequest(home, blk, d.requester, d.op,
                                         d.upgrade, _m.eq().now());
                             if (_obs) {
                                 _obs->endAct(home);
                                 _obs->eventEnd();
                             }
                         });
    }
}

void
DirMemSystem::applyWriteback(NodeId home, Addr blk, NodeId from,
                             Tick when)
{
    DirEntry& e = entry(blk);
    Node& hn = _nodes[home];
    const Tick start = ctrlStart(home, when);
    hn.ctrlFree = start + _p.dirOpBase + _p.dirBlockRecv;
    _cWritebacksReceived.inc();

    if (e.mshr && e.mshr->awaitingRecall &&
        e.mshr->recallTarget == from) {
        // Races with an in-flight recall; the pending RecallNack will
        // complete the transaction.
        e.mshr->sawWb = true;
        e.owner = kNoNode;
        return;
    }
    tt_assert(e.state == DirState::Excl && e.owner == from,
              "stale writeback for block ", blk, " from ", from);
    e.state = DirState::Idle;
    e.owner = kNoNode;
    if (_obs)
        _obs->blockEvent(home, blk, "dir:writeback");
    if (_obs && _obs->wantSharing()) {
        _obs->dirTrans(home, blk,
                       static_cast<std::uint8_t>(DirState::Excl),
                       static_cast<std::uint8_t>(DirState::Idle),
                       start);
    }
}

// --------------------------------------------------------------------
// Requester-side completion
// --------------------------------------------------------------------

void
DirMemSystem::completeAtRequester(NodeId node, Addr blk, bool withData,
                                  bool writeGrant, Tick when)
{
    Node& n = _nodes[node];
    const PendingMiss* miss = n.pending.find(blk);
    tt_assert(miss, "grant with no pending miss at ", node);
    MemRequest* req = miss->req;
    n.pending.erase(blk);

    const Tick start = ctrlStart(node, when);
    Tick cost = _p.remoteMissFinish;

    if (withData) {
        const LineState st =
            writeGrant ? LineState::Owned : LineState::Shared;
        CacheResult fres = n.cache->fill(req->vaddr, st);
        if (fres.victimValid) {
            cost += fres.victimOwned ? _p.replaceExclusive
                                     : _p.replaceShared;
            handleVictim(node, fres, start + cost);
        }
    } else {
        // Dataless upgrade: the line must still be present Shared.
        tt_assert(n.cache->upgrade(req->vaddr, true),
                  "upgrade grant but line absent at node ", node);
    }
    if (writeGrant)
        n.cache->probeWrite(req->vaddr); // mark dirty

    n.ctrlFree = start + cost;
    const Tick done = start + cost;
    if (_obs) {
        _obs->missEnd(node, req->vaddr, req->op == MemOp::Write, done);
        if (_obs->wantSharing()) {
            _obs->blockAccess(node, req->vaddr, req->size,
                              req->op == MemOp::Write, done);
        }
    }
    _m.eq().schedule(std::max(done, _m.eq().now()), [this, req] {
        transfer(req);
        if (_obs) {
            _obs->accessData(req->cpu->id(), req->vaddr, req->size,
                             req->op == MemOp::Write, req->buf);
            _obs->eventEnd();
        }
        req->cpu->completeAccess(*req);
    });
}

void
DirMemSystem::completeLocal(NodeId node, Addr blk, Tick when)
{
    Node& n = _nodes[node];
    const PendingMiss* miss = n.pending.find(blk);
    tt_assert(miss, "local grant with no pending miss at ", node);
    MemRequest* req = miss->req;
    const bool upgrade = miss->upgrade;
    n.pending.erase(blk);

    Tick cost = 0;
    if (upgrade && n.cache->presentShared(req->vaddr)) {
        n.cache->upgrade(req->vaddr, true);
    } else {
        // Fetch from local memory after coherence is resolved. A read
        // fills Owned only if no remote copy survived (e.g. the
        // recalled owner kept a read-only copy -> fill Shared).
        cost += _cp.localMissLatency;
        LineState st = LineState::Owned;
        if (req->op == MemOp::Read) {
            const DirEntry* e = findEntry(blk);
            if (e && e->state == DirState::Shared)
                st = LineState::Shared;
        }
        CacheResult fres = n.cache->fill(req->vaddr, st);
        if (req->op == MemOp::Write)
            n.cache->probeWrite(req->vaddr);
        handleVictim(node, fres, when + cost);
    }
    const Tick done = when + cost;
    if (_obs) {
        _obs->missEnd(node, req->vaddr, req->op == MemOp::Write, done);
        if (_obs->wantSharing()) {
            _obs->blockAccess(node, req->vaddr, req->size,
                              req->op == MemOp::Write, done);
        }
    }
    _m.eq().schedule(std::max(done, _m.eq().now()), [this, req] {
        transfer(req);
        if (_obs) {
            _obs->accessData(req->cpu->id(), req->vaddr, req->size,
                             req->op == MemOp::Write, req->buf);
            _obs->eventEnd();
        }
        req->cpu->completeAccess(*req);
    });
}

} // namespace tt
