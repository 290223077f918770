/**
 * @file
 * Point-to-point interconnect model. Per Table 2 the network is a
 * fixed-latency fabric (11 cycles); an optional per-packet injection
 * occupancy serializes a node's outbound traffic, and multi-packet
 * messages pay one injection slot per packet. Contention inside the
 * fabric is not modeled, matching the paper's methodology.
 */

#ifndef TT_NET_NETWORK_HH
#define TT_NET_NETWORK_HH

#include <functional>
#include <vector>

#include "check/hooks.hh"
#include "net/fault_model.hh"
#include "net/message.hh"
#include "net/transport_hooks.hh"
#include "obs/recorder.hh"
#include "sim/event_queue.hh"
#include "sim/random.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace tt
{

/** Network configuration. */
struct NetworkParams
{
    Tick latency = 11;          ///< end-to-end packet latency (Table 2)
    Tick injectPerPacket = 1;   ///< outbound serialization per packet
    /**
     * Optional inbound (ejection-port) serialization per packet. The
     * paper's methodology does not model contention; 0 (default)
     * reproduces that. Nonzero values model a finite ejection
     * bandwidth at each node — see bench/ablation_contention.
     */
    Tick ejectPerPacket = 0;
    /**
     * Schedule-perturbation jitter (ttsim --perturb / DESIGN.md §8):
     * each remote message's latency is stretched by a deterministic
     * pseudo-random 0..jitterMax cycles, clamped so that per-(src,dst)
     * delivery order stays FIFO (the protocols rely on channel
     * ordering). 0 (default) disables jitter entirely.
     */
    Tick jitterMax = 0;
    std::uint64_t jitterSeed = 0; ///< RNG seed for the jitter stream
};

/**
 * The interconnect. Each node registers one receiver (its NP or its
 * hardware directory controller); send() delivers the message to the
 * destination's receiver at send-time + latency, honoring per-node
 * injection serialization.
 */
class Network
{
  public:
    using Receiver = std::function<void(Message&&)>;

    Network(EventQueue& eq, int nodes, NetworkParams params,
            StatSet& stats)
        : _eq(eq),
          _params(params),
          _receivers(nodes),
          _linkFree(nodes, 0),
          _ejectFree(nodes, 0),
          _msgs(stats.counter("net.messages")),
          _packets(stats.counter("net.packets")),
          _words(stats.counter("net.words")),
          _reqMsgs(stats.counter("net.req_messages")),
          _respMsgs(stats.counter("net.resp_messages")),
          _ejectQueued(stats.counter("net.eject_queued"))
    {
        if (_params.jitterMax) {
            _jitter = Rng(_params.jitterSeed);
            _lastArrive.assign(
                static_cast<std::size_t>(nodes) * nodes, 0);
        }
    }

    int nodes() const { return static_cast<int>(_receivers.size()); }
    const NetworkParams& params() const { return _params; }

    /** Attach the coherence sanitizer (nullptr = disabled). */
    void setChecker(CheckHooks* c) { _checker = c; }

    /** Attach the flight recorder (nullptr = disabled). */
    void setRecorder(FlightRecorder* r) { _obs = r; }

    /** Attach the unreliable-fabric fault model (nullptr = lossless). */
    void setFaults(FaultModel* f) { _faults = f; }

    /** Attach the reliable transport (nullptr = raw fabric). */
    void setTransport(TransportHooks* t) { _transport = t; }

    /**
     * Resident bytes of the fabric's own structures (telemetry memory
     * probe): receiver table, port occupancies, jitter clamps,
     * dead-node set.
     */
    std::size_t
    footprintBytes() const
    {
        return _receivers.capacity() * sizeof(Receiver) +
               _linkFree.capacity() * sizeof(Tick) +
               _ejectFree.capacity() * sizeof(Tick) +
               _lastArrive.capacity() * sizeof(Tick) +
               _dead.capacity();
    }

    /** Install the message receiver for @p node. */
    void
    setReceiver(NodeId node, Receiver r)
    {
        _receivers.at(node) = std::move(r);
    }

    // --- crash-stop support (src/recovery, DESIGN.md §15) -------------
    // Gated behind armRecovery() so crash-free runs never touch the
    // dead-node vector (null-opt-in: seed outputs stay bit-identical).

    /** Allocate the dead-node set; required before markDead(). */
    void
    armRecovery()
    {
        _dead.assign(_receivers.size(), 0);
        _recoveryArmed = true;
    }

    /**
     * Crash-stop @p n: from this instant every message from or to the
     * node is dropped at the fabric boundary — its in-flight traffic,
     * handler invocations, and future sends all vanish. (The node's
     * simulated compute between the crash and the rollback is dead
     * work: the recovery coordinator discards it wholesale.)
     */
    void
    markDead(NodeId n)
    {
        tt_assert(_recoveryArmed, "markDead before armRecovery");
        _dead.at(n) = 1;
    }

    /** Rollback complete: the node rejoins the fabric. */
    void
    revive(NodeId n)
    {
        tt_assert(_recoveryArmed, "revive before armRecovery");
        _dead.at(n) = 0;
    }

    bool
    nodeDead(NodeId n) const
    {
        return _recoveryArmed && _dead[static_cast<std::size_t>(n)];
    }

    /**
     * Messages currently in flight (deliver events scheduled but not
     * yet executed). The checkpoint manager requires this to be zero
     * at a snapshot epoch: a peeked block whose latest bytes ride in a
     * transit writeback would snapshot stale.
     */
    long inflight() const { return _inflight; }

    /**
     * Messages swallowed by the dead-node gate ("declared-lost" in
     * PROTOCOLS.md's conservation terms). A plain member, not a
     * StatSet counter: registering one would add a stats-json line to
     * every crash-free run and break bit-identity with the seed. The
     * recovery coordinator publishes it under rec.* when armed.
     */
    std::uint64_t crashDrops() const { return _crashDrops; }

    /**
     * Canonicalize fabric timing state (checkpoint/rollback): both
     * sides of a checkpoint set the injection/ejection occupancies to
     * the epoch tick, so a just-departed burst in the original run
     * cannot leave it ahead of the restored run.
     */
    void
    resetForRecovery()
    {
        const Tick now = _eq.now();
        std::fill(_linkFree.begin(), _linkFree.end(), now);
        std::fill(_ejectFree.begin(), _ejectFree.end(), now);
        std::fill(_lastArrive.begin(), _lastArrive.end(), 0);
        // A crash rollback clears the event queue wholesale, killing
        // scheduled deliver closures before they can decrement.
        _inflight = 0;
    }

    /**
     * Send @p msg, departing the source at absolute tick @p when
     * (callers inside events pass the current charged time). Local
     * (src == dst) messages short-circuit the fabric: they are
     * delivered after the injection cost only.
     */
    void
    send(Message msg, Tick when)
    {
        // The transaction id is stamped before the transport retains
        // its window copy, so retransmissions inherit it for free
        // (txnFor returns 0 whenever transaction tracing is off).
        if (_obs)
            msg.txn = _obs->txnFor(msg.src);
        // The transport sequences protocol messages once, at their
        // first physical send; retransmissions and acks enter below
        // via sendFromTransport. Local messages short-circuit the
        // fabric and are never sequenced (nor subject to faults).
        if (_transport && msg.src != msg.dst)
            _transport->onSend(msg, when);
        sendPhysical(std::move(msg), when, /*fromTransport=*/false);
    }

    /**
     * Transport-internal entry: inject a retransmission or an ack.
     * Subject to injection occupancy and fault injection like any
     * other message, but never re-sequenced, and invisible to the
     * coherence sanitizer (the checker tracks each logical message
     * once — see the conservation notes in PROTOCOLS.md).
     */
    void
    sendFromTransport(Message msg, Tick when)
    {
        sendPhysical(std::move(msg), when, /*fromTransport=*/true);
    }

  private:
    void
    sendPhysical(Message msg, Tick when, bool fromTransport)
    {
        // Every sender is a node-resident NP or directory controller,
        // so src must name a real node: injection occupancy is charged
        // to the source's outbound link. There is no host/broadcast
        // injection convention — a kNoNode src is a protocol bug.
        tt_assert(msg.src >= 0 && msg.src < nodes(),
                  "message from bad node ", msg.src);
        tt_assert(msg.dst >= 0 && msg.dst < nodes(),
                  "message to bad node ", msg.dst);
        tt_assert(_receivers[msg.dst], "no receiver at node ", msg.dst);

        // Crash-stop gate: traffic touching a dead node vanishes at
        // the fabric boundary, before any stats/checker/recorder side
        // effect — the message was never "really sent". (The
        // transport's window copy, retained in send() before this
        // point, is what eventually times out and declares the link
        // dead.)
        if (_recoveryArmed && (_dead[msg.src] || _dead[msg.dst])) {
            ++_crashDrops;
            return;
        }

        const std::uint32_t pkts = msg.packets();
        _msgs.inc();
        _packets.inc(pkts);
        _words.inc(msg.sizeWords());
        (msg.vnet == VNet::Request ? _reqMsgs : _respMsgs).inc();

        // Injection serialization at the source.
        Tick& free = _linkFree[msg.src];
        const Tick depart =
            std::max(when, free) + _params.injectPerPacket * pkts;
        free = depart;

        Tick arrive =
            msg.src == msg.dst ? depart : depart + _params.latency;

        if (_params.jitterMax && msg.src != msg.dst) {
            // Deterministic latency jitter, clamped to keep each
            // (src,dst) channel strictly FIFO.
            arrive += _jitter.below(_params.jitterMax + 1);
            Tick& last = _lastArrive[static_cast<std::size_t>(msg.src) *
                                         nodes() +
                                     msg.dst];
            if (arrive <= last)
                arrive = last + 1;
            last = arrive;
        }

        if (_params.ejectPerPacket) {
            // Finite ejection bandwidth: packets queue at the
            // destination port.
            Tick& efree = _ejectFree[msg.dst];
            if (efree > arrive)
                _ejectQueued.inc();
            arrive = std::max(arrive, efree) +
                     _params.ejectPerPacket * pkts;
            if (arrive > efree)
                efree = arrive;
        }

        // Fault injection (null-pointer pattern: the lossless path is
        // untouched). Verdicts are drawn after the arrival time is
        // fixed so delays compose with occupancy/jitter modeling.
        bool dropped = false;
        Tick dupArrive = 0;
        if (_faults && msg.src != msg.dst) {
            FaultModel::Verdict v = _faults->onMessage(msg, when, arrive);
            dropped = v.drop;
            arrive = v.arrive;
            dupArrive = v.dupArrive;
        }

        // The sanitizer tracks each logical message exactly once: at
        // its original protocol send (even if that copy is then lost —
        // with a transport attached it logically stays in flight in
        // the retransmission buffer; without one, a loss is a real
        // conservation violation and must be reported) and at the one
        // accepted delivery (the handler-dispatch onMsgDeliver).
        if (_checker && !fromTransport)
            _checker->onMsgSend(msg);
        if (_obs) {
            // Flag transport re-injections of Data messages (= go-
            // back-N retransmissions; acks are fresh sends) and lost
            // physical copies so the TxnTracer can attribute loss-
            // repair latency (DESIGN.md §14).
            const std::uint8_t flags =
                static_cast<std::uint8_t>(
                    (fromTransport && msg.tkind == TKind::Data
                         ? kRecRetransmit
                         : 0) |
                    (dropped ? kRecDropped : 0));
            _obs->msgSend(msg, depart, dropped ? depart : arrive,
                          flags);
        }

        if (dupArrive) {
            Message copy = msg;
            ++_inflight;
            _eq.schedule(dupArrive,
                         [this, m = std::move(copy)]() mutable {
                             deliver(std::move(m));
                         });
        }
        if (dropped)
            return;

        // The closure owns the message.
        ++_inflight;
        _eq.schedule(arrive,
                     [this, m = std::move(msg)]() mutable {
                         deliver(std::move(m));
                     });
    }

    void
    deliver(Message&& m)
    {
        --_inflight;
        // Traffic already in flight when the crash struck: the
        // victim's outstanding sends and its inbound traffic vanish.
        if (_recoveryArmed && (_dead[m.src] || _dead[m.dst])) {
            ++_crashDrops;
            return;
        }
        // The transport filters arrivals: acks are consumed, duplicate
        // and out-of-order data suppressed, in-order data released.
        if (_transport && !_transport->onArrive(m)) {
            // Suppressed data arrivals (dup / out-of-order) still link
            // to their transaction in the trace; consumed acks stay
            // invisible as before.
            if (_obs && _obs->wantTxn() && m.tkind == TKind::Data)
                _obs->msgSup(m.dst, m, _eq.now());
            return;
        }
        _receivers[m.dst](std::move(m));
    }

    EventQueue& _eq;
    NetworkParams _params;
    std::vector<Receiver> _receivers;
    std::vector<Tick> _linkFree;
    std::vector<Tick> _ejectFree;
    CheckHooks* _checker = nullptr; ///< coherence sanitizer, opt-in
    FlightRecorder* _obs = nullptr; ///< flight recorder, opt-in
    FaultModel* _faults = nullptr;  ///< unreliable fabric, opt-in
    TransportHooks* _transport = nullptr; ///< reliable delivery, opt-in
    Rng _jitter;                    ///< perturbation jitter stream
    std::vector<Tick> _lastArrive;  ///< per-(src,dst) FIFO clamp
    std::vector<std::uint8_t> _dead; ///< crash-stopped nodes, opt-in
    bool _recoveryArmed = false;     ///< armRecovery() called
    long _inflight = 0;              ///< scheduled deliveries
    std::uint64_t _crashDrops = 0;   ///< dead-node gate drops

    // Stat handles resolved once at construction (Counter& from a
    // StatSet is reference-stable) — send() is per-message hot.
    Counter& _msgs;
    Counter& _packets;
    Counter& _words;
    Counter& _reqMsgs;
    Counter& _respMsgs;
    Counter& _ejectQueued;
};

} // namespace tt

#endif // TT_NET_NETWORK_HH
