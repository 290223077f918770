#include "core/transport.hh"

#include <algorithm>
#include <ostream>

#include "sim/logging.hh"

namespace tt
{

namespace
{

/**
 * Handler id carried by transport acks. No receiver is ever
 * registered for it — acks are consumed by the transport in
 * Network::deliver — but it makes acks identifiable in flight-recorder
 * traces (cf. kBulkDataHandler in the Typhoon NP).
 */
constexpr HandlerId kAckHandler = 0xFFFF'00ACu;

} // namespace

ReliableTransport::ReliableTransport(EventQueue& eq, Network& net,
                                     ReliableParams p, StatSet& stats)
    : _eq(eq),
      _net(net),
      _p(p),
      _nodes(net.nodes()),
      _chans(static_cast<std::size_t>(_nodes) * _nodes),
      _retransmits(stats.counter("net.retransmits")),
      _acks(stats.counter("net.acks")),
      _dupDropped(stats.counter("net.dup_dropped")),
      _oooDropped(stats.counter("net.ooo_dropped")),
      _deadLinks(stats.counter("net.dead_links"))
{
    tt_assert(_p.rto > 0 && _p.rtoMax >= _p.rto,
              "bad transport rto configuration");
    tt_assert(_p.maxRetries > 0, "transport maxRetries must be > 0");
}

ReliableTransport::Channel&
ReliableTransport::chan(NodeId src, NodeId dst)
{
    return _chans[static_cast<std::size_t>(src) * _nodes + dst];
}

const ReliableTransport::Channel&
ReliableTransport::chan(NodeId src, NodeId dst) const
{
    return _chans[static_cast<std::size_t>(src) * _nodes + dst];
}

Tick
ReliableTransport::oldestUnackedSince() const
{
    // The window deque is send-ordered, so front() is each channel's
    // oldest. Dead channels keep reporting theirs forever: a partition
    // that outlives the retry cap surfaces as a watchdog trip.
    Tick oldest = kTickMax;
    for (const Channel& c : _chans)
        if (!c.window.empty())
            oldest = std::min(oldest, c.window.front().sentAt);
    return oldest;
}

void
ReliableTransport::describeOldest(std::ostream& os, int maxLines) const
{
    // Stalled channels sorted oldest-head-first; each line names the
    // exact message the channel is waiting to get acked.
    struct Stall
    {
        Tick sentAt;
        NodeId src, dst;
        std::uint32_t seq, txn;
        int retries;
        bool dead;
    };
    std::vector<Stall> stalls;
    for (int s = 0; s < _nodes; ++s) {
        for (int d = 0; d < _nodes; ++d) {
            const Channel& c = chan(s, d);
            if (c.window.empty())
                continue;
            const Channel::Unacked& head = c.window.front();
            stalls.push_back({head.sentAt, s, d, head.msg.seq,
                              head.msg.txn, c.retries, c.dead});
        }
    }
    std::sort(stalls.begin(), stalls.end(),
              [](const Stall& a, const Stall& b) {
                  return a.sentAt < b.sentAt;
              });
    if (stalls.empty()) {
        os << "  transport: all channels idle\n";
        return;
    }
    os << "  transport: " << stalls.size()
       << " channel(s) with unacked messages, oldest first:\n";
    int shown = 0;
    for (const Stall& s : stalls) {
        if (shown++ >= maxLines) {
            os << "    ... " << (stalls.size() - maxLines)
               << " more channel(s)\n";
            break;
        }
        os << "    " << s.src << "->" << s.dst << " seq=" << s.seq
           << " txn=" << s.txn << " sentAt=" << s.sentAt
           << " retries=" << s.retries << (s.dead ? " DEAD" : "")
           << "\n";
    }
}

void
ReliableTransport::reset()
{
    for (Channel& c : _chans) {
        c.window.clear();
        c.nextSeq = 1;
        c.rto = 0;
        c.retries = 0;
        ++c.timerGen; // dismiss any outstanding retransmission timer
        c.dead = false;
        c.expectSeq = 1;
        c.lastAcked = 0;
    }
}

void
ReliableTransport::onSend(Message& m, Tick when)
{
    Channel& c = chan(m.src, m.dst);
    m.tkind = TKind::Data;
    m.seq = c.nextSeq++;
    // Retain the stamped copy before the network touches it, so the
    // retransmission re-enters the fabric exactly as first sent (the
    // recorder stamps each physical copy's obsId separately).
    const bool wasIdle = c.window.empty();
    c.window.push_back({m, when});
    if (wasIdle && !c.dead) {
        c.rto = _p.rto;
        c.retries = 0;
        armTimer(m.src, m.dst, c);
    }
}

bool
ReliableTransport::onArrive(Message& m)
{
    // Node-local messages short-circuit the fabric unsequenced.
    if (m.tkind == TKind::None)
        return true;

    if (m.tkind == TKind::Ack) {
        // An ack from B to A acknowledges the A->B data channel.
        handleAck(m.dst, m.src, m.seq);
        return false;
    }

    Channel& c = chan(m.src, m.dst);
    if (m.seq == c.expectSeq) {
        ++c.expectSeq;
        c.lastAcked = m.seq;
        sendAck(m.dst, m.src, m.seq, m.txn);
        return true;
    }
    if (m.seq < c.expectSeq) {
        // Duplicate (fabric dup, or a retransmission whose original
        // arrived). Re-ack so the sender's window can advance even if
        // the first ack was lost.
        _dupDropped.inc();
    } else {
        // Reordered ahead of the expected message; go-back-N has no
        // resequencing buffer, the retransmission will re-supply it in
        // order.
        _oooDropped.inc();
    }
    c.lastAcked = c.expectSeq - 1;
    sendAck(m.dst, m.src, c.expectSeq - 1, m.txn);
    return false;
}

void
ReliableTransport::armTimer(NodeId src, NodeId dst, Channel& c)
{
    const std::uint64_t gen = ++c.timerGen;
    _eq.schedule(_eq.now() + c.rto, [this, src, dst, gen] {
        onTimeout(src, dst, gen);
    });
}

void
ReliableTransport::onTimeout(NodeId src, NodeId dst, std::uint64_t gen)
{
    Channel& c = chan(src, dst);
    // A superseded generation means the window advanced (or emptied)
    // after this timer was armed; EventQueue has no cancel, so stale
    // timers are dismissed here.
    if (gen != c.timerGen || c.dead || c.window.empty())
        return;

    if (++c.retries > _p.maxRetries) {
        // Retry cap: stop spending fabric bandwidth on a link that is
        // not coming back. The unacked window stays put, so the
        // watchdog probe sees the stall and fails the run fast.
        c.dead = true;
        _deadLinks.inc();
        if (_onDeadLink)
            _onDeadLink(src, dst);
        return;
    }

    _retransmits.inc();
    _net.sendFromTransport(c.window.front().msg, _eq.now());
    c.rto = std::min(c.rto * 2, _p.rtoMax);
    armTimer(src, dst, c);
}

void
ReliableTransport::sendAck(NodeId from, NodeId to, std::uint32_t cumSeq,
                           std::uint32_t txn)
{
    // Acks are real one-word response-network messages, charged like
    // any other traffic — but themselves unreliable: never acked and
    // never retransmitted (a lost ack is repaired by the data-side
    // retransmission it fails to suppress). They inherit the
    // transaction id of the data message they acknowledge so ack
    // traffic stays attributable (DESIGN.md §14).
    Message a;
    a.src = from;
    a.dst = to;
    a.vnet = VNet::Response;
    a.handler = kAckHandler;
    a.tkind = TKind::Ack;
    a.seq = cumSeq;
    a.txn = txn;
    _acks.inc();
    _net.sendFromTransport(std::move(a), _eq.now());
}

void
ReliableTransport::handleAck(NodeId src, NodeId dst,
                             std::uint32_t cumSeq)
{
    Channel& c = chan(src, dst);
    bool advanced = false;
    while (!c.window.empty() && c.window.front().msg.seq <= cumSeq) {
        c.window.pop_front();
        advanced = true;
    }
    if (!advanced)
        return; // stale cumulative ack; nothing new

    c.retries = 0;
    c.rto = _p.rto;
    // A late ack can revive a link declared dead (e.g. a partition
    // healed after the retry cap): resume normal operation.
    c.dead = false;
    if (c.window.empty())
        ++c.timerGen; // cancel the outstanding timer
    else
        armTimer(src, dst, c); // restart the clock for the new head
}

} // namespace tt
