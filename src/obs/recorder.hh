/**
 * @file
 * FlightRecorder — the opt-in, zero-cost-when-off tracing and
 * profiling front end (DESIGN.md §9).
 *
 * Every instrumented subsystem (Network, TyphoonMemSystem,
 * DirMemSystem) holds a `FlightRecorder* _obs = nullptr` and guards
 * each notification with `if (_obs)` — the same null-pointer pattern
 * as the coherence sanitizer's CheckHooks (src/check/hooks.hh), so a
 * detached recorder costs one never-taken branch per hook site and
 * the trace-off hot path stays bit-identical (bench_simcore holds the
 * regression; see BENCH_simcore.json "trace_overhead").
 *
 * An attached recorder does three things per record:
 *  - appends it to a per-node fixed-capacity ring (the crash flight
 *    recorder: the tail is dumped into tt_assert panic reports and
 *    into ProtocolChecker failure reports);
 *  - streams it to the Perfetto/Chrome-trace exporter when a trace
 *    file is open (`ttsim --trace=FILE`), including periodic stat
 *    snapshots from the interval sampler;
 *  - folds it into the latency profiler, which accounts remote-miss
 *    cost into request / network / directory-occupancy / handler
 *    components per protocol action (`obs.miss.*` statistics).
 */

#ifndef TT_OBS_RECORDER_HH
#define TT_OBS_RECORDER_HH

#include <cstdint>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "net/message.hh"
#include "obs/record.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

namespace tt
{

class LatencyProfiler;
class PerfettoWriter;
class SharingAnalyzer;
class StatSet;
class TxnTracer;

class FlightRecorder
{
  public:
    /**
     * @param nodes   node count of the machine being observed.
     * @param ringCap per-node crash-ring capacity (records kept for
     *                the failure-report tail).
     */
    explicit FlightRecorder(int nodes, std::size_t ringCap = 256);
    ~FlightRecorder();

    FlightRecorder(const FlightRecorder&) = delete;
    FlightRecorder& operator=(const FlightRecorder&) = delete;

    // --- configuration (call before the run) --------------------------

    /**
     * Stream the trace to @p path as Chrome-trace-event JSON (open it
     * at https://ui.perfetto.dev). One track per node plus one per
     * virtual network. Records are written through as they happen, so
     * trace size is bounded by the file, not by memory.
     */
    void openTrace(const std::string& path);

    /** Fold records into per-action miss-latency histograms. */
    void enableProfiler(StatSet& stats);

    /**
     * Emit a snapshot of every counter in @p stats into the trace as
     * Perfetto counter tracks whenever sim-time crosses a multiple of
     * @p period ticks, plus the obs.miss.open gauge (profiler open
     * misses). No-op unless a trace file is open.
     */
    void enableSampler(StatSet& stats, Tick period);

    /**
     * Attach a SharingAnalyzer (ttsim --analyze, DESIGN.md §11).
     * Turning it on makes wantSharing() true, which is the switch the
     * instrumented protocols consult before emitting the sharing-
     * analysis record kinds — so analyze-off runs (including plain
     * --trace runs) see a record stream byte-identical to before.
     */
    void enableSharing(std::uint32_t block_size,
                       std::uint32_t page_size);

    /**
     * Attach the coherence-transaction tracer (ttsim --trace-critical,
     * DESIGN.md §14). Turning it on makes wantTxn() true: BlockFault /
     * MissStart records open a per-node transaction id, Network::send
     * piggybacks the current id onto every outgoing message, and the
     * derived deliver / handler / invalidation records carry it until
     * the MissEnd that closes the transaction. Txn-off runs (including
     * plain --trace) see a record stream byte-identical to before.
     * @p stats receives the obs.txn.* aggregate counters at finalize.
     */
    void enableTxn(StatSet& stats, std::uint32_t block_size,
                   std::uint32_t page_size);

    /**
     * Dump the ring tails to stderr from inside tt_panic, so an
     * assertion failure comes with the causal event history. One
     * recorder per process is the crash recorder (latest install
     * wins); the hook is released by the destructor.
     */
    void installCrashDump();

    /**
     * Associate a human-readable name with an active-message handler
     * id (shown in Perfetto slices and ring dumps). @p name must be a
     * string literal or otherwise outlive the recorder.
     */
    void nameHandler(HandlerId id, const char* name);
    const char* handlerName(HandlerId id) const;

    // --- hot-path record methods (inline; callers hold `if (_obs)`) ---

    /** Stamp a fresh causal id onto @p m and record its departure. */
    void
    msgSend(Message& m, Tick depart, Tick arrive,
            std::uint8_t flags = 0)
    {
        m.obsId = ++_lastMsgId;
        TraceRecord r;
        r.kind = RecKind::MsgSend;
        r.tick = depart;
        r.t2 = arrive;
        r.addr = m.handler;
        r.id = m.obsId;
        r.arg = static_cast<std::uint32_t>(m.dst);
        r.txn = m.txn;
        r.node = m.src;
        r.sub = static_cast<std::uint8_t>(m.vnet);
        r.flags = flags;
        record(r);
    }

    /** A handler begins executing @p m at @p node. */
    void
    msgDeliver(NodeId node, const Message& m, Tick when)
    {
        TraceRecord r;
        r.kind = RecKind::MsgDeliver;
        r.tick = when;
        r.addr = m.handler;
        r.id = m.obsId;
        r.txn = m.txn;
        r.node = node;
        r.sub = static_cast<std::uint8_t>(m.vnet);
        record(r);
    }

    /** A handler activation finished; @p charged is its occupancy. */
    void
    handlerDone(NodeId node, ActKind act, std::uint64_t handler,
                std::uint32_t msgId, Tick start, Tick charged)
    {
        TraceRecord r;
        r.kind = RecKind::HandlerDone;
        r.tick = start;
        r.t2 = charged;
        r.addr = handler;
        r.id = msgId;
        r.txn = txnFor(node);
        r.node = node;
        r.sub = static_cast<std::uint8_t>(act);
        record(r);
    }

    /** A tag-checked access faulted (Typhoon BAF post). */
    void
    blockFault(NodeId node, Addr va, bool isWrite, std::uint8_t tag,
               Tick when)
    {
        TraceRecord r;
        r.kind = RecKind::BlockFault;
        r.tick = when;
        r.addr = va;
        r.arg = tag;
        r.txn = openTxn(node);
        r.node = node;
        r.sub = isWrite ? 1 : 0;
        record(r);
    }

    /** A hardware-protocol miss opened (DirNNB remote/conflict path). */
    void
    missStart(NodeId node, Addr blk, bool isWrite, Tick when)
    {
        TraceRecord r;
        r.kind = RecKind::MissStart;
        r.tick = when;
        r.addr = blk;
        r.txn = openTxn(node);
        r.node = node;
        r.sub = isWrite ? 1 : 0;
        record(r);
    }

    /** The suspended access completed. */
    void
    missEnd(NodeId node, Addr va, bool isWrite, Tick when)
    {
        TraceRecord r;
        r.kind = RecKind::MissEnd;
        r.tick = when;
        r.addr = va;
        r.node = node;
        r.sub = isWrite ? 1 : 0;
        if (_wantTxn) {
            r.txn = _openTxn[static_cast<std::size_t>(node)];
            _openTxn[static_cast<std::size_t>(node)] = 0;
        }
        record(r);
    }

    void
    resume(NodeId node, Tick when)
    {
        TraceRecord r;
        r.kind = RecKind::Resume;
        r.tick = when;
        r.node = node;
        record(r);
    }

    void
    tagChange(NodeId node, Addr blk, std::uint8_t tag, Tick when)
    {
        TraceRecord r;
        r.kind = RecKind::TagChange;
        r.tick = when;
        r.addr = blk;
        r.node = node;
        r.sub = tag;
        record(r);
    }

    void
    pageMap(NodeId node, Addr pageVa, std::uint8_t mode, Tick when)
    {
        TraceRecord r;
        r.kind = RecKind::PageMap;
        r.tick = when;
        r.addr = pageVa;
        r.arg = mode;
        r.node = node;
        record(r);
    }

    void
    pageUnmap(NodeId node, Addr pageVa, Tick when)
    {
        TraceRecord r;
        r.kind = RecKind::PageUnmap;
        r.tick = when;
        r.addr = pageVa;
        r.node = node;
        record(r);
    }

    void
    bulkPacket(NodeId node, std::uint32_t bytes, Tick when, Tick cost)
    {
        TraceRecord r;
        r.kind = RecKind::BulkPacket;
        r.tick = when;
        r.t2 = cost;
        r.arg = bytes;
        r.node = node;
        record(r);
    }

    // Sharing-analysis records (DESIGN.md §11). Callers must hold
    // `if (_obs && _obs->wantSharing())` so analyze-off runs keep a
    // byte-identical record stream.

    /** A CPU access completed at @p node (full va, not aligned). */
    void
    blockAccess(NodeId node, Addr va, std::uint32_t size, bool isWrite,
                Tick when)
    {
        TraceRecord r;
        r.kind = RecKind::BlockAccess;
        r.tick = when;
        r.addr = va;
        r.arg = size;
        r.node = node;
        r.sub = isWrite ? 1 : 0;
        record(r);
    }

    /** A home sent a coherence round (inval/recall/downgrade/update). */
    void
    invalSent(NodeId home, Addr blk, NodeId requester,
              std::uint32_t fanout, InvKind kind, Tick when)
    {
        TraceRecord r;
        r.kind = RecKind::InvalSent;
        r.tick = when;
        r.addr = blk;
        r.id = static_cast<std::uint32_t>(requester);
        r.arg = fanout;
        r.txn = txnFor(home);
        r.node = home;
        r.sub = static_cast<std::uint8_t>(kind);
        record(r);
    }

    // Transaction-tracing records and context (DESIGN.md §14).
    // msgSup callers must hold `if (_obs && _obs->wantTxn())` so
    // txn-off runs keep a byte-identical record stream.

    /** The transport suppressed @p m's arrival at @p node (dup/ooo). */
    void
    msgSup(NodeId node, const Message& m, Tick when)
    {
        TraceRecord r;
        r.kind = RecKind::MsgSup;
        r.tick = when;
        r.addr = m.handler;
        r.id = m.obsId;
        r.arg = static_cast<std::uint32_t>(m.src);
        r.txn = m.txn;
        r.node = node;
        r.sub = static_cast<std::uint8_t>(m.vnet);
        record(r);
    }

    /**
     * The transaction id context at @p node: the handler-activation
     * context when one is live (beginAct), else the node's open demand
     * miss, else 0. Always 0 when transaction tracing is off, so
     * unconditional callers (Network::send) stay byte-identical.
     */
    std::uint32_t
    txnFor(NodeId node) const
    {
        if (!_wantTxn)
            return 0;
        const auto n = static_cast<std::size_t>(node);
        return _actTxn[n] ? _actTxn[n] : _openTxn[n];
    }

    /**
     * Enter a handler-activation transaction context at @p node:
     * messages the handler sends inherit @p txn (the context of the
     * message being handled, or of a deferred request being replayed).
     * No-op when transaction tracing is off. Pair with endAct().
     */
    void
    beginAct(NodeId node, std::uint32_t txn)
    {
        if (_wantTxn)
            _actTxn[static_cast<std::size_t>(node)] = txn;
    }

    void
    endAct(NodeId node)
    {
        if (_wantTxn)
            _actTxn[static_cast<std::size_t>(node)] = 0;
    }

    /** The raw activation context at @p node (save/restore around
     *  synchronous deferred-request replays inside a handler). */
    std::uint32_t
    actOf(NodeId node) const
    {
        return _wantTxn ? _actTxn[static_cast<std::size_t>(node)] : 0;
    }

    /** A directory entry changed state at its home (0/1/2 encoding). */
    void
    dirTrans(NodeId home, Addr blk, std::uint8_t oldState,
             std::uint8_t newState, Tick when)
    {
        TraceRecord r;
        r.kind = RecKind::DirTrans;
        r.tick = when;
        r.addr = blk;
        r.arg = oldState;
        r.node = home;
        r.sub = newState;
        record(r);
    }

    // --- end of run / failure reporting -------------------------------

    /**
     * Close the trace file and write the profiler's aggregate
     * counters. Idempotent; call after Machine::run().
     */
    void finalize();

    /**
     * Deterministic human-readable dump of the last (up to)
     * @p perNode retained records of every node — the crash flight
     * recorder's contribution to a minimized failure report.
     */
    void dumpTail(std::ostream& os, std::size_t perNode = 16) const;

    // --- introspection (tests) ----------------------------------------

    int nodes() const { return static_cast<int>(_rings.size()); }

    /** Records ever written, summed over the per-node rings. */
    std::uint64_t
    recordCount() const
    {
        std::uint64_t n = 0;
        for (const Ring& r : _rings)
            n += r.total;
        return n;
    }

    std::uint32_t lastMsgId() const { return _lastMsgId; }

    LatencyProfiler* profiler() { return _profiler.get(); }
    SharingAnalyzer* sharing() { return _sharing.get(); }
    TxnTracer* txn() { return _txn.get(); }

    /** True iff a SharingAnalyzer consumes the stream (gates the
     *  sharing-analysis record kinds at their emission sites). */
    bool wantSharing() const { return _sharing != nullptr; }

    /** True iff the TxnTracer consumes the stream (gates MsgSup and
     *  the extra invalSent sites at their emission points). */
    bool wantTxn() const { return _wantTxn; }

    /** Oldest-first copy of node @p n's retained ring records. */
    std::vector<TraceRecord> ringOf(NodeId n) const;

    /**
     * Resident bytes of the per-node crash rings and txn-context
     * vectors (telemetry memory probe, DESIGN.md §16).
     */
    std::size_t
    footprintBytes() const
    {
        std::size_t b = _rings.capacity() * sizeof(Ring) +
                        _openTxn.capacity() * sizeof(std::uint32_t) +
                        _actTxn.capacity() * sizeof(std::uint32_t);
        for (const Ring& r : _rings)
            b += r.buf.capacity() * sizeof(TraceRecord);
        return b;
    }

  private:
    struct Ring
    {
        std::vector<TraceRecord> buf; ///< capacity-sized, circular
        std::size_t next = 0;         ///< next write position
        std::uint64_t total = 0;      ///< records ever written
    };

    void
    record(const TraceRecord& r)
    {
        Ring& ring = _rings[static_cast<std::size_t>(
            r.node >= 0 && r.node < nodes() ? r.node : 0)];
        ring.buf[ring.next] = r;
        ring.next = (ring.next + 1) % ring.buf.size();
        ++ring.total;
        if (_haveConsumers)
            consume(r); // out of line: exporter / profiler / sampler
    }

    void consume(const TraceRecord& r);
    void sampleCounters(Tick boundary);
    void formatRecord(std::ostream& os, const TraceRecord& r) const;

    /**
     * The transaction id a BlockFault/MissStart record opens at
     * @p node: a fresh id when none is open, else the already-open one
     * (re-faults of the same suspended access stay one transaction).
     */
    std::uint32_t
    openTxn(NodeId node)
    {
        if (!_wantTxn)
            return 0;
        std::uint32_t& open = _openTxn[static_cast<std::size_t>(node)];
        if (!open)
            open = ++_lastTxnId;
        return open;
    }

    std::vector<Ring> _rings;
    std::uint32_t _lastMsgId = 0;
    bool _haveConsumers = false;
    bool _finalized = false;
    bool _crashHooked = false;

    std::unique_ptr<PerfettoWriter> _writer;
    std::unique_ptr<LatencyProfiler> _profiler;
    std::unique_ptr<SharingAnalyzer> _sharing;
    std::unique_ptr<TxnTracer> _txn;

    // Transaction-tracing state (DESIGN.md §14).
    bool _wantTxn = false;
    std::uint32_t _lastTxnId = 0;
    std::vector<std::uint32_t> _openTxn; ///< per-node open demand miss
    std::vector<std::uint32_t> _actTxn;  ///< per-node activation ctx

    StatSet* _sampleStats = nullptr;
    Tick _samplePeriod = 0;
    Tick _nextSample = 0;

    std::map<HandlerId, const char*> _handlerNames;
    /// lazily formatted "handler_<id>" names for unregistered ids
    mutable std::map<HandlerId, std::string> _fallbackNames;
};

} // namespace tt

#endif // TT_OBS_RECORDER_HH
