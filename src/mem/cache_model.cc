#include "mem/cache_model.hh"

#include "sim/logging.hh"

namespace tt
{

CacheModel::CacheModel(std::uint64_t size_bytes, std::uint32_t assoc,
                       std::uint32_t block_size, std::uint64_t seed)
    : _sizeBytes(size_bytes),
      _assoc(assoc),
      _blockSize(block_size),
      _rng(seed)
{
    tt_assert(isPow2(size_bytes) && isPow2(block_size),
              "cache size/block size must be powers of two");
    tt_assert(block_size >= 8, "blocks must be at least 8 bytes");
    tt_assert(assoc > 0, "associativity must be positive");
    const std::uint64_t lines = size_bytes / block_size;
    tt_assert(lines % assoc == 0, "lines not divisible by assoc");
    _numSets = static_cast<std::uint32_t>(lines / assoc);
    tt_assert(isPow2(_numSets), "number of sets must be a power of two");
    _lines.resize(lines);
}

bool
CacheModel::presentShared(Addr a) const
{
    const Line* l = find(a);
    return l && l->state() == LineState::Shared;
}

bool
CacheModel::present(Addr a) const
{
    return find(a) != nullptr;
}

bool
CacheModel::probeDirty(Addr a) const
{
    const Line* l = find(a);
    return l && l->state() == LineState::Owned && l->dirty();
}

CacheResult
CacheModel::fill(Addr a, LineState state)
{
    tt_assert(state != LineState::Invalid, "cannot fill Invalid");
    CacheResult res;
    if (Line* l = find(a)) {
        const LineState prior = l->state();
        l->setState(state);
        if (state == LineState::Shared)
            l->setDirty(false);
        res.hit = true;
        if (prior != state)
            notify(l->tag(), state);
        return res;
    }

    const Addr blk = blockAlign(a, _blockSize);
    Line* set = &_lines[static_cast<std::size_t>(setIndex(a)) * _assoc];

    // Prefer an invalid way; otherwise evict a random way.
    Line* victim = nullptr;
    for (std::uint32_t w = 0; w < _assoc; ++w) {
        if (set[w].state() == LineState::Invalid) {
            victim = &set[w];
            break;
        }
    }
    if (!victim) {
        victim = &set[_rng.below(_assoc)];
        res.victimValid = true;
        res.victimAddr = victim->tag();
        res.victimOwned = victim->state() == LineState::Owned;
        res.victimDirty = victim->dirty();
        notify(victim->tag(), LineState::Invalid);
    }

    victim->set(blk, state);
    notify(blk, state);
    return res;
}

LineState
CacheModel::invalidate(Addr a, bool* was_dirty)
{
    Line* l = find(a);
    if (!l) {
        if (was_dirty)
            *was_dirty = false;
        return LineState::Invalid;
    }
    const LineState prior = l->state();
    if (was_dirty)
        *was_dirty = l->dirty();
    l->set(l->tag(), LineState::Invalid);
    notify(blockAlign(a, _blockSize), LineState::Invalid);
    return prior;
}

bool
CacheModel::downgrade(Addr a, bool* was_dirty)
{
    Line* l = find(a);
    if (!l || l->state() != LineState::Owned) {
        if (was_dirty)
            *was_dirty = false;
        return false;
    }
    if (was_dirty)
        *was_dirty = l->dirty();
    l->set(l->tag(), LineState::Shared);
    notify(blockAlign(a, _blockSize), LineState::Shared);
    return true;
}

bool
CacheModel::upgrade(Addr a, bool dirty)
{
    Line* l = find(a);
    if (!l)
        return false;
    const LineState prior = l->state();
    l->set(l->tag(), LineState::Owned);
    l->setDirty(dirty);
    if (prior != LineState::Owned)
        notify(blockAlign(a, _blockSize), LineState::Owned);
    return true;
}

void
CacheModel::flushAll()
{
    for (auto& l : _lines) {
        if (l.state() != LineState::Invalid)
            notify(l.tag(), LineState::Invalid);
        l.set(l.tag(), LineState::Invalid);
    }
}

std::size_t
CacheModel::validLines() const
{
    std::size_t n = 0;
    for (const auto& l : _lines)
        if (l.state() != LineState::Invalid)
            ++n;
    return n;
}

} // namespace tt
