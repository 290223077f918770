/**
 * @file
 * CheckHooks — the interface through which the opt-in coherence
 * sanitizer (src/check/protocol_checker.hh) observes a run.
 *
 * No producer calls it: every instrumented subsystem notifies only its
 * FlightRecorder (src/obs/recorder.hh), which forwards to the
 * CheckHooks installed by FlightRecorder::setChecker (DESIGN.md §8).
 * It stays an interface because tt_obs sits below tt_check in the link
 * graph, and it stays dependency-light (opaque AccessTag declaration,
 * no protocol headers) so the recorder can include it.
 */

#ifndef TT_CHECK_HOOKS_HH
#define TT_CHECK_HOOKS_HH

#include <cstdint>

#include "net/message.hh"
#include "sim/types.hh"

namespace tt
{

enum class AccessTag : std::uint8_t; // full definition in core/tempest.hh

/**
 * Abstract observer for coherence-relevant state changes.
 *
 * Hook-point contract (see DESIGN.md §8 for the full catalog):
 *  - onTagChange / onPageTags: fired *after* the tag store mutates.
 *  - onPageMap / onPageUnmap: fired after the page table mutates.
 *  - onAccess: fired at the point an ordinary CPU access *completes*
 *    (data already transferred into/out of `bytes`).
 *  - onBackdoorWrite: host-side poke() that bypasses coherence; the
 *    shadow memory must follow it.
 *  - onBlockEvent: directory-side transition that does not move a tag
 *    (sharer-set edits, transient open/close, writeback application).
 *    `what` must be a string literal — it is stored, not copied.
 *  - onMsgSend: fired by Network::send before the message departs
 *    (original sends only, not transport re-injections).
 *  - onMsgDeliver: fired when a protocol *handler begins executing*
 *    the message (Typhoon npPump dispatch / DirMemSystem::onMessage
 *    entry) — not at network delivery, because Typhoon queues
 *    messages at the NP between delivery and dispatch.
 *  - onEventEnd: fired after a protocol handler (or access
 *    completion) finishes; the checker validates all blocks touched
 *    since the previous onEventEnd.  Invariants are *not* evaluated
 *    mid-handler: handlers legitimately pass through transient states
 *    (e.g. Stache's dataless-upgrade grant sets the directory
 *    exclusive before invalidating the home tag).
 */
class CheckHooks
{
  public:
    virtual ~CheckHooks() = default;

    virtual void onTagChange(NodeId n, Addr blk, AccessTag t) = 0;
    virtual void onPageTags(NodeId n, Addr pageVa, AccessTag t) = 0;
    virtual void onPageMap(NodeId n, Addr pageVa, std::uint8_t mode) = 0;
    virtual void onPageUnmap(NodeId n, Addr pageVa) = 0;
    virtual void onAccess(NodeId n, Addr va, unsigned size, bool isWrite,
                          const void* bytes) = 0;
    virtual void onBackdoorWrite(Addr va, const void* bytes,
                                 std::size_t len) = 0;
    virtual void onBlockEvent(NodeId n, Addr blk, const char* what) = 0;
    virtual void onMsgSend(const Message& m) = 0;
    virtual void onMsgDeliver(const Message& m) = 0;
    virtual void onEventEnd() = 0;
};

} // namespace tt

#endif // TT_CHECK_HOOKS_HH
