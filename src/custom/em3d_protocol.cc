#include "custom/em3d_protocol.hh"

#include "mem/addr.hh"
#include "obs/recorder.hh"
#include "sim/logging.hh"

namespace tt
{

Em3dUpdateProtocol::Em3dUpdateProtocol(Machine& m, TyphoonMemSystem& ms,
                                       StacheParams p)
    : Stache(m, ms, p),
      _flushList(m.params().nodes),
      _upd(m.params().nodes),
      _cCustomPageFaults(m.stats().counter("em3d.custom_page_faults")),
      _cCustomGetRo(m.stats().counter("em3d.get_ro")),
      _cCopiesRegistered(m.stats().counter("em3d.copies_registered")),
      _cUpdatesReceived(m.stats().counter("em3d.updates_received")),
      _cUpdatesSent(m.stats().counter("em3d.updates_sent")),
      _cFlushes(m.stats().counter("em3d.flushes"))
{
    for (NodeId i = 0; i < _cp.nodes; ++i) {
        Tempest& t = _ms.tempest(i);

        // Take over the page-fault handler: custom pages map with the
        // custom mode, everything else falls through to Stache.
        t.registerPageFaultHandler(
            [this](TempestCtx& ctx, Addr va, MemOp op) {
                if (_customKind.contains(pageNum(va, _cp.pageSize)))
                    onCustomPageFault(ctx, va, op);
                else
                    onPageFault(ctx, va, op);
            });

        t.registerFaultHandler(kModeCustomStache, MemOp::Read,
                               [this](TempestCtx& ctx,
                                      const BlockFault& f) {
                                   onCustomReadFault(ctx, f);
                               });
        t.registerFaultHandler(
            kModeCustomStache, MemOp::Write,
            [](TempestCtx&, const BlockFault& f) {
                tt_panic("write to a remote EM3D value at ", f.va,
                         " — the update protocol is owner-computes");
            });
        // Custom home pages stay ReadWrite forever; a fault there is
        // a protocol bug.
        for (MemOp op : {MemOp::Read, MemOp::Write}) {
            t.registerFaultHandler(
                kModeCustomHome, op,
                [](TempestCtx&, const BlockFault& f) {
                    tt_panic("fault on a custom home page at ", f.va);
                });
        }

        t.registerMsgHandler(kCGetRO, [this](TempestCtx& ctx,
                                             const Message& m2) {
            onCGet(ctx, m2);
        });
        t.registerMsgHandler(kCData, [this](TempestCtx& ctx,
                                            const Message& m2) {
            onCData(ctx, m2);
        });
        t.registerMsgHandler(kCUpdate, [this](TempestCtx& ctx,
                                              const Message& m2) {
            onCUpdate(ctx, m2);
        });
        t.registerMsgHandler(kCFlush, [this](TempestCtx& ctx,
                                             const Message& m2) {
            onCFlush(ctx, m2);
        });
    }
}

void
Em3dUpdateProtocol::describeHandlers(FlightRecorder& rec) const
{
    Stache::describeHandlers(rec);
    rec.nameHandler(kCGetRO, "em3d.get_ro");
    rec.nameHandler(kCData, "em3d.data");
    rec.nameHandler(kCUpdate, "em3d.update");
    rec.nameHandler(kCFlush, "em3d.flush");
}

Addr
Em3dUpdateProtocol::allocCustom(std::size_t bytes, NodeId home,
                                Kind kind)
{
    tt_assert(home != kNoNode, "custom pages need an explicit home");
    const std::uint32_t ps = _cp.pageSize;
    const std::size_t npages = (bytes + ps - 1) / ps;
    const Addr base = _nextCustomVa;
    for (std::size_t i = 0; i < npages; ++i) {
        const Addr va = base + i * ps;
        _pageHome[pageNum(va, ps)] = home;
        _customKind[pageNum(va, ps)] = kind;
        TempestCtx& ctx = _ms.tempest(home).setupCtx();
        const PAddr pa = ctx.allocPhysPage();
        ctx.mapPage(va, pa, kModeCustomHome);
        ctx.setPageTags(va, AccessTag::ReadWrite);
    }
    _nextCustomVa = base + npages * ps;
    _allocs.push_back({base, bytes});
    return base;
}

void
Em3dUpdateProtocol::onCanonicalize(std::uint64_t epochSeed)
{
    (void)epochSeed;
    const std::uint32_t ps = _cp.pageSize;
    // Unwind the lazily-mapped consumer copies of custom pages: they
    // are pinned (never join the replacement FIFO), so the base-class
    // stache unwind does not see them.
    _customKind.forEach([&](std::uint64_t vpn, int) {
        const Addr va = static_cast<Addr>(vpn) * ps;
        const NodeId home = _pageHome.at(vpn);
        for (int n = 0; n < _cp.nodes; ++n) {
            if (n == home)
                continue;
            const PageMapping* pm = _ms.pageTableOf(n).lookup(va);
            if (!pm)
                continue;
            const PAddr pa = pm->ppage;
            _ms.recUnmapPage(n, va);
            _ms.recFreePhysPage(n, pa);
        }
    });
    // Registration / flush / update-counting state back to its
    // post-setup (empty) form. Any end-step waiter frame was already
    // destroyed by the rollback respawn — drop the handles cold.
    _copies.clear();
    for (auto& perKind : _flushList) {
        perKind[0].clear();
        perKind[1].clear();
    }
    for (NodeUpd& u : _upd)
        u = NodeUpd{};
}

void
Em3dUpdateProtocol::onCustomPageFault(TempestCtx& ctx, Addr va,
                                      MemOp op)
{
    tt_assert(op == MemOp::Read,
              "remote write fault on custom EM3D page at ", va);
    const NodeId self = ctx.nodeId();
    const Addr pageVa = alignDown(va, _cp.pageSize);
    const std::uint64_t vpn = pageNum(va, _cp.pageSize);
    ctx.charge(_p.pageFaultWork);
    _cCustomPageFaults.inc();
    if (ctx.pageMapped(va))
        return; // raced with an NP-side mapping

    _nodes[self].homeCache[vpn] = _pageHome.at(vpn);
    const PAddr pa = ctx.allocPhysPage();
    ctx.mapPage(pageVa, pa, kModeCustomStache);
    // Custom stache pages are pinned: they hold registered copies the
    // home keeps pushing updates into, so they never join the
    // replacement FIFO.
}

void
Em3dUpdateProtocol::onCustomReadFault(TempestCtx& ctx,
                                      const BlockFault& f)
{
    const NodeId self = ctx.nodeId();
    const Addr blk = blockAlign(f.va, _cp.blockSize);
    ctx.charge(_p.faultHandlerWork);
    const std::uint64_t vpn = pageNum(f.va, _cp.pageSize);
    ctx.structAccess(0xE800'0000'0000ULL + vpn * 8);
    const NodeId home = _nodes[self].homeCache.at(vpn);

    ctx.setBusy(blk);
    Word args[2] = {static_cast<Word>(blk),
                    static_cast<Word>(blk >> 32)};
    _cCustomGetRo.inc();
    ctx.send(home, kCGetRO, std::span<const Word>(args), nullptr, 0,
             VNet::Request);
}

void
Em3dUpdateProtocol::onCGet(TempestCtx& ctx, const Message& msg)
{
    const Addr blk = static_cast<Addr>(msg.addrArg(0));
    const NodeId self = ctx.nodeId();
    ctx.charge(_p.homeHandlerWork);
    ctx.structAccess(entryKey(blk));

    // Register the copy permanently on the block's copy list.
    CopyList& cl = _copies[blockNum(blk, _cp.blockSize)];
    bool already = false;
    for (NodeId n : cl.consumers)
        already |= n == msg.src;
    tt_assert(!already, "duplicate EM3D copy registration for ", blk);
    if (cl.consumers.empty()) {
        const int kind = _customKind.at(pageNum(blk, _cp.pageSize));
        _flushList[self][kind].push_back(blk);
    }
    cl.consumers.push_back(msg.src);
    _cCopiesRegistered.inc();

    // Reply with the data; the home tag stays ReadWrite.
    std::vector<std::uint8_t> buf(_cp.blockSize);
    readBlockHost(self, blk, buf.data());
    const int kind = _customKind.at(pageNum(blk, _cp.pageSize));
    Word args[3] = {static_cast<Word>(blk),
                    static_cast<Word>(blk >> 32),
                    static_cast<Word>(kind)};
    ctx.send(msg.src, kCData, std::span<const Word>(args), buf.data(),
             _cp.blockSize, VNet::Response);
}

void
Em3dUpdateProtocol::onCData(TempestCtx& ctx, const Message& msg)
{
    const Addr blk = static_cast<Addr>(msg.addrArg(0));
    const int kind = static_cast<int>(msg.args.at(2));
    const NodeId self = ctx.nodeId();
    ctx.charge(_p.dataHandlerWork);
    ctx.forceWrite(blk, msg.data.data(),
                   static_cast<std::uint32_t>(msg.data.size()));
    ctx.setRO(blk);
    ++_upd[self].expected[kind];
    if (ctx.threadSuspendedOn(blk))
        ctx.resume();
}

void
Em3dUpdateProtocol::onCUpdate(TempestCtx& ctx, const Message& msg)
{
    const Addr blk = static_cast<Addr>(msg.addrArg(0));
    const int kind = static_cast<int>(msg.args.at(2));
    const NodeId self = ctx.nodeId();
    ctx.charge(2);
    // Only the value words travel — no invalidation, no ack.
    ctx.forceWrite(blk, msg.data.data(),
                   static_cast<std::uint32_t>(msg.data.size()));
    ++_upd[self].arrived[kind];
    _cUpdatesReceived.inc();
    maybeRelease(self, static_cast<Kind>(kind));
}

void
Em3dUpdateProtocol::onCFlush(TempestCtx& ctx, const Message& msg)
{
    const NodeId self = ctx.nodeId();
    const int kind = static_cast<int>(msg.args.at(0));
    ctx.charge(4);
    std::vector<std::uint8_t> buf(_cp.blockSize);
    FlightRecorder* obs = _ms.recorder();
    for (Addr blk : _flushList[self][kind]) {
        ctx.structAccess(entryKey(blk));
        readBlockHost(self, blk, buf.data());
        Word args[3] = {static_cast<Word>(blk),
                        static_cast<Word>(blk >> 32),
                        static_cast<Word>(kind)};
        const auto& consumers =
            _copies.at(blockNum(blk, _cp.blockSize)).consumers;
        if (obs && obs->wantSharing() && !consumers.empty()) {
            obs->invalSent(self, blk, self,
                           static_cast<std::uint32_t>(consumers.size()),
                           InvKind::Update, _m.eq().now());
        }
        for (NodeId dst : consumers) {
            ctx.charge(1);
            ctx.send(dst, kCUpdate, std::span<const Word>(args),
                     buf.data(), _cp.blockSize, VNet::Request);
            _cUpdatesSent.inc();
        }
    }
}

void
Em3dUpdateProtocol::maybeRelease(NodeId n, Kind k)
{
    NodeUpd& u = _upd[n];
    if (!u.waiter[k] || u.arrived[k] < u.expected[k])
        return;
    u.arrived[k] -= u.expected[k];
    auto h = u.waiter[k];
    Cpu* cpu = u.waiterCpu[k];
    u.waiter[k] = nullptr;
    u.waiterCpu[k] = nullptr;
    _m.eq().scheduleIn(0, [cpu, h] {
        cpu->syncTo(cpu->eq().now());
        h.resume();
    });
}

Em3dUpdateProtocol::EndStepAwaitable
Em3dUpdateProtocol::endStep(Cpu& cpu, Kind kind)
{
    // The producer's flush runs on its own NP, freeing the CPU
    // (section 5.1: CPU-to-local-NP messages short-circuit the
    // network).
    _ms.cpuSend(cpu, cpu.id(), kCFlush,
                {static_cast<Word>(kind)});
    _cFlushes.inc();
    return EndStepAwaitable{*this, cpu, kind};
}

std::uint32_t
Em3dUpdateProtocol::expectedUpdates(NodeId n, Kind k) const
{
    return _upd.at(n).expected[k];
}

std::size_t
Em3dUpdateProtocol::copyListSize(Addr blk) const
{
    const CopyList* cl = _copies.find(blockNum(blk, _cp.blockSize));
    return cl ? cl->consumers.size() : 0;
}

} // namespace tt
