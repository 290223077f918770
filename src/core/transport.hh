/**
 * @file
 * User-level reliable delivery over the unreliable fabric
 * (DESIGN.md §10).
 *
 * Tempest's premise is that protocol machinery belongs in user-level
 * software; when the fabric loses, duplicates, or reorders packets
 * (src/net/fault_model.hh), reliability is one more protocol layered
 * below the memory-system handlers. ReliableTransport interposes on
 * every remote message via TransportHooks and restores exactly the
 * contract the protocols were written against — lossless, exactly-once,
 * per-(src,dst)-FIFO delivery — so Stache, DirNNB, Migratory, and the
 * EM3D update protocol run unmodified.
 *
 * Design: go-back-N with cumulative acks, one channel per ordered
 * (src,dst) node pair. The sender stamps each outbound protocol
 * message with the channel's next sequence number and retains a copy;
 * the receiver accepts only the expected sequence number (duplicates
 * and out-of-order arrivals are dropped and re-acked), so delivery
 * order is restored without a resequencing buffer. A pending channel
 * retransmits its window head on an exponentially backed-off timeout
 * (rto, doubling to rtoMax) and declares the link dead after
 * maxRetries consecutive timeouts of the same head — which surfaces as
 * a watchdog trip rather than a silent hang.
 *
 * Acks are real one-word VNet::Response messages charged to the
 * network like any other traffic; they are themselves unreliable
 * (never acked, never retransmitted) — a lost ack is repaired by the
 * data-side retransmission it fails to suppress. Sequence numbers ride
 * in unused packet-header space (Message::seq/tkind, like obsId) and
 * are not charged words.
 *
 * The coherence sanitizer's view is unchanged: each logical message is
 * registered once at its original protocol send and once at its single
 * accepted delivery; retransmissions and acks enter the fabric through
 * Network::sendFromTransport, bypassing onMsgSend, and suppressed
 * arrivals never reach the handler dispatch that fires onMsgDeliver.
 */

#ifndef TT_CORE_TRANSPORT_HH
#define TT_CORE_TRANSPORT_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <iosfwd>
#include <vector>

#include "net/message.hh"
#include "net/network.hh"
#include "net/transport_hooks.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace tt
{

/** Reliable-transport tuning (ttsim --rto / --retries). */
struct ReliableParams
{
    bool enable = true; ///< false: protocols face the raw lossy fabric
    Tick rto = 128;     ///< initial retransmission timeout (ticks)
    Tick rtoMax = 4096; ///< exponential-backoff ceiling
    int maxRetries = 16; ///< consecutive head timeouts before dead-link
};

class ReliableTransport final : public TransportHooks
{
  public:
    ReliableTransport(EventQueue& eq, Network& net, ReliableParams p,
                      StatSet& stats);

    const ReliableParams& params() const { return _p; }

    /**
     * Watchdog probe: the send tick of the oldest retained-but-unacked
     * message across all channels, or kTickMax when every channel is
     * idle. A dead link keeps reporting its head forever, so a
     * partition that outlives maxRetries becomes a watchdog trip.
     */
    Tick oldestUnackedSince() const;

    /**
     * Watchdog tail dump: one line per stalled channel (oldest first,
     * capped), with the head message's sequence number, transaction id
     * (PR 8 tracing — 0 when --trace-txn is off), original send tick,
     * retry count, and dead-link status. Gives a hung run's post-
     * mortem the exact message the machine is waiting on.
     */
    void describeOldest(std::ostream& os, int maxLines = 8) const;

    /**
     * Fired when a channel hits the retry cap and is declared dead
     * (src, dst of the data channel). The recovery coordinator uses
     * this as its crash-detection signal (DESIGN.md §15); unset, a
     * dead link surfaces only as a watchdog trip. Fired every time a
     * channel dies, including again after a revival.
     */
    using DeadLinkListener = std::function<void(NodeId, NodeId)>;
    void
    setDeadLinkListener(DeadLinkListener f)
    {
        _onDeadLink = std::move(f);
    }

    /**
     * Recovery reset (DESIGN.md §15): every channel returns to its
     * initial state — windows emptied, sequence numbers rewound to 1,
     * timers cancelled, dead flags cleared. Stale acks arriving
     * against a reset channel are no-ops (empty-window early return in
     * handleAck); stale retransmission timers are dismissed by the
     * generation bump.
     */
    void reset();

    // TransportHooks
    void onSend(Message& m, Tick when) override;
    bool onArrive(Message& m) override;

    /**
     * Resident bytes of the channel table and retransmission windows
     * (telemetry memory probe). The window copies are the transport's
     * real cost driver: nodes^2 channels each retaining unacked
     * messages.
     */
    std::size_t
    footprintBytes() const
    {
        std::size_t b = _chans.capacity() * sizeof(Channel);
        for (const Channel& c : _chans)
            b += c.window.size() * sizeof(Channel::Unacked);
        return b;
    }

  private:
    /** One ordered (src,dst) half-duplex data channel. */
    struct Channel
    {
        /** Sender: retained copies of sent-but-unacked messages. */
        struct Unacked
        {
            Message msg;
            Tick sentAt = 0; ///< original send tick (watchdog probe)
        };
        std::deque<Unacked> window;
        std::uint32_t nextSeq = 1;  ///< sender: next seq to stamp
        Tick rto = 0;               ///< current backed-off timeout
        int retries = 0;            ///< consecutive head timeouts
        std::uint64_t timerGen = 0; ///< cancels stale timer events
        bool dead = false;          ///< retry cap hit; stop resending

        // Receiver state for the reverse direction lives in the
        // (dst,src)-indexed channel's sender fields, so keep the
        // receive side separate and symmetric here:
        std::uint32_t expectSeq = 1; ///< receiver: next seq to accept
        std::uint32_t lastAcked = 0; ///< receiver: last cum-ack sent
    };

    Channel& chan(NodeId src, NodeId dst);
    const Channel& chan(NodeId src, NodeId dst) const;

    void armTimer(NodeId src, NodeId dst, Channel& c);
    void onTimeout(NodeId src, NodeId dst, std::uint64_t gen);
    void sendAck(NodeId from, NodeId to, std::uint32_t cumSeq,
                 std::uint32_t txn);
    void handleAck(NodeId src, NodeId dst, std::uint32_t cumSeq);

    EventQueue& _eq;
    Network& _net;
    ReliableParams _p;
    int _nodes;
    std::vector<Channel> _chans; ///< dense (src * nodes + dst)

    DeadLinkListener _onDeadLink; ///< recovery crash detection

    Counter& _retransmits; ///< net.retransmits
    Counter& _acks;        ///< net.acks (ack messages sent)
    Counter& _dupDropped;  ///< net.dup_dropped (seq < expected)
    Counter& _oooDropped;  ///< net.ooo_dropped (seq > expected)
    Counter& _deadLinks;   ///< net.dead_links (retry cap hits)
};

} // namespace tt

#endif // TT_CORE_TRANSPORT_HH
