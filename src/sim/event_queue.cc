#include "sim/event_queue.hh"

#include <algorithm>
#include <cstdlib>
#include <utility>

namespace tt
{

namespace
{

EventQueue::Mode&
defaultModeStorage()
{
    static EventQueue::Mode mode = [] {
        const char* env = std::getenv("TT_EVENTQ_REFERENCE");
        const bool ref = env && env[0] && env[0] != '0';
        return ref ? EventQueue::Mode::ReferenceHeap
                   : EventQueue::Mode::Calendar;
    }();
    return mode;
}

} // namespace

EventQueue::Mode
EventQueue::defaultMode()
{
    return defaultModeStorage();
}

void
EventQueue::setDefaultMode(Mode m)
{
    defaultModeStorage() = m;
}

int
EventQueue::findOccupied(std::uint32_t from) const
{
    if (from >= kWindow)
        return -1;
    std::uint32_t w = from >> 6;
    std::uint64_t bits = _occ[w] & (~0ull << (from & 63));
    for (;;) {
        if (bits)
            return static_cast<int>((w << 6) + __builtin_ctzll(bits));
        if (++w >= _occ.size())
            return -1;
        bits = _occ[w];
    }
}

bool
EventQueue::nextWhen(Tick* when)
{
    for (;;) {
        if (_inBucket) {
            auto& b = _buckets[_cursor];
            if (_bucketPos < b.size()) {
                *when = _windowBase + _cursor;
                return true;
            }
            // Finalize the drained bucket lazily: a callback at tick t
            // may have appended more same-tick work while we were
            // iterating, so the bucket is only retired once a fresh
            // scan confirms it is exhausted.
            b.clear();
            _occ[_cursor >> 6] &= ~(1ull << (_cursor & 63));
            _inBucket = false;
            ++_cursor;
        }
        const int next = findOccupied(_cursor);
        if (next >= 0) {
            _cursor = static_cast<std::uint32_t>(next);
            _inBucket = true;
            _bucketPos = 0;
            continue;
        }
        if (_heap.empty())
            return false;
        // Window fully drained; the far heap holds the next event.
        // Report it without rebasing — rebasing here would move
        // _windowBase past _now while no event executes, breaking the
        // invariant that schedule() offsets never underflow (e.g. a
        // runUntil() caller scheduling near-past-limit work next).
        *when = _heap.front().when;
        return true;
    }
}

EventQueue::FarEntry
EventQueue::popHeap()
{
    std::pop_heap(_heap.begin(), _heap.end(), FarAfter{});
    FarEntry e = std::move(_heap.back());
    _heap.pop_back();
    return e;
}

void
EventQueue::rebase()
{
    _windowBase = _heap.front().when;
    _cursor = 0;
    _bucketPos = 0;
    _inBucket = false;
    while (!_heap.empty() && _heap.front().when < _windowBase + kWindow) {
        FarEntry e = popHeap();
        const Tick off = e.when - _windowBase;
        _buckets[off].push_back(std::move(e.cb));
        _occ[off >> 6] |= 1ull << (off & 63);
    }
}

bool
EventQueue::step()
{
    Tick when;
    if (!nextWhen(&when))
        return false;
    if (!_inBucket) {
        if (_useCalendar) {
            // Promote far-heap events into the (empty) window, then
            // re-scan; the earliest promoted bucket is at offset 0.
            rebase();
            nextWhen(&when);
        } else {
            FarEntry e = popHeap();
            --_pending;
            _now = e.when;
            ++_executed;
            if (_telem)
                _telem->eventStart();
            e.cb();
            return true;
        }
    }
    // Move the closure out before invoking it so the event can safely
    // schedule new work into this very bucket (which may reallocate).
    Callback cb = std::move(_buckets[_cursor][_bucketPos++]);
    --_pending;
    _now = when;
    ++_executed;
    if (_telem)
        _telem->eventStart();
    cb();
    return true;
}

Tick
EventQueue::run()
{
    _stopRequested = false;
    while (!_stopRequested && step()) {
    }
    return _now;
}

Tick
EventQueue::runUntil(Tick limit)
{
    _stopRequested = false;
    Tick when;
    while (!_stopRequested && nextWhen(&when) && when <= limit)
        step();
    return _now;
}

void
EventQueue::clearPending()
{
    for (std::size_t w = 0; w < _occ.size(); ++w) {
        std::uint64_t bits = _occ[w];
        while (bits) {
            const int b = __builtin_ctzll(bits);
            _buckets[(w << 6) + b].clear();
            bits &= bits - 1;
        }
        _occ[w] = 0;
    }
    _heap.clear();
    // Keep _now/_nextSeq/_executed: time continues forward across a
    // rollback; only the pending work is discarded.
    _windowBase = _now;
    _cursor = 0;
    _bucketPos = 0;
    _inBucket = false;
    _pending = 0;
}

void
EventQueue::reset()
{
    // Clear containers wholesale instead of popping entry by entry.
    for (std::size_t w = 0; w < _occ.size(); ++w) {
        std::uint64_t bits = _occ[w];
        while (bits) {
            const int b = __builtin_ctzll(bits);
            _buckets[(w << 6) + b].clear();
            bits &= bits - 1;
        }
        _occ[w] = 0;
    }
    _heap.clear();
    _windowBase = 0;
    _cursor = 0;
    _bucketPos = 0;
    _inBucket = false;
    _pending = 0;
    _now = 0;
    _nextSeq = 0;
    _executed = 0;
    _stopRequested = false;
}

} // namespace tt
