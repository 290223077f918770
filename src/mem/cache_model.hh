/**
 * @file
 * Timing model of a processor data cache: set-associative, random
 * replacement (Table 2: "4-way assoc., random repl.", 32-byte blocks).
 *
 * The model tracks tags and line states only; block data always lives
 * in the owning node's simulated memory. Line states are a MOESI-lite
 * trio sufficient for both target systems:
 *  - Shared: clean, readable; a store must go to the bus (upgrade).
 *  - Owned:  exclusive and writable; may be dirty.
 * A store that hits a Shared line is an "upgrade" bus transaction that
 * the coherence machinery (DirNNB directory or Typhoon NP snooping)
 * must authorize.
 */

#ifndef TT_MEM_CACHE_MODEL_HH
#define TT_MEM_CACHE_MODEL_HH

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "mem/addr.hh"
#include "sim/random.hh"
#include "sim/types.hh"

namespace tt
{

/** State of one cache line. */
enum class LineState : std::uint8_t { Invalid, Shared, Owned };

/** Result of a cache lookup or fill. */
struct CacheResult
{
    bool hit = false;
    /** Fill only: a valid line was evicted. */
    bool victimValid = false;
    /** Fill only: block address of the evicted line. */
    Addr victimAddr = 0;
    /** Fill only: evicted line was Owned (exclusive). */
    bool victimOwned = false;
    /** Fill only: evicted line was dirty (needs writeback). */
    bool victimDirty = false;
};

/**
 * Set-associative cache tag array with random replacement.
 */
class CacheModel
{
  public:
    /**
     * @param size_bytes   total capacity (power of two)
     * @param assoc        ways per set
     * @param block_size   line size in bytes (power of two)
     * @param seed         replacement RNG seed
     */
    CacheModel(std::uint64_t size_bytes, std::uint32_t assoc,
               std::uint32_t block_size, std::uint64_t seed);

    /** Read lookup: hits on Shared or Owned. Does not fill. */
    bool probeRead(Addr a) const { return find(a) != nullptr; }

    /** Write lookup: hits only on Owned lines; marks them dirty. */
    bool
    probeWrite(Addr a)
    {
        Line* l = find(a);
        if (l && l->state() == LineState::Owned) {
            l->setDirty(true);
            return true;
        }
        return false;
    }

    /** True iff the line is present in state Shared (not Owned). */
    bool presentShared(Addr a) const;

    /** True iff the line is present at all. */
    bool present(Addr a) const;

    /** True iff the line is present, Owned, and dirty. */
    bool probeDirty(Addr a) const;

    /**
     * Install a line in @p state, evicting a random victim if the set
     * is full. Re-filling a present line just updates its state.
     */
    CacheResult fill(Addr a, LineState state);

    /**
     * Remove a line if present.
     * @return the prior state (Invalid if absent); sets @p was_dirty.
     */
    LineState invalidate(Addr a, bool* was_dirty = nullptr);

    /**
     * Downgrade an Owned line to Shared (remote read of a modified
     * block). @return true iff the line was present and Owned.
     */
    bool downgrade(Addr a, bool* was_dirty = nullptr);

    /** Upgrade a Shared line to Owned (after a sanctioned bus upgrade). */
    bool upgrade(Addr a, bool dirty);

    /** Drop every line (e.g. page remap under Stache replacement). */
    void flushAll();

    /**
     * Reseed the replacement RNG (checkpoint canonicalize, DESIGN.md
     * §15). Both sides of a checkpoint apply the same epoch-derived
     * seed, so post-restore victim choices match the original run's.
     */
    void reseed(std::uint64_t seed) { _rng = Rng(seed); }

    std::uint32_t blockSize() const { return _blockSize; }
    std::uint64_t sizeBytes() const { return _sizeBytes; }
    std::uint32_t assoc() const { return _assoc; }
    std::uint32_t numSets() const { return _numSets; }

    /** Count of currently valid lines (for tests). */
    std::size_t validLines() const;

    /** Resident bytes of the tag array (telemetry memory probes). */
    std::size_t
    footprintBytes() const
    {
        return _lines.capacity() * sizeof(Line);
    }

    /**
     * Observer of line-state changes, fired after every mutation with
     * the block address and the line's new state (Invalid on eviction
     * or invalidation). One central hook covers every mutation path —
     * fill, victim eviction, invalidate, downgrade, upgrade, flushAll
     * — so a mirror (the coherence sanitizer's copy table, DESIGN.md
     * §13) cannot drift from reality via a missed call site. Unset
     * (the default) costs one branch per mutation.
     */
    using StateListener = std::function<void(Addr, LineState)>;
    void setStateListener(StateListener f) { _listener = std::move(f); }

  private:
    void
    notify(Addr blk, LineState st)
    {
        if (_listener)
            _listener(blk, st);
    }

    /**
     * One tag-array entry in one word: the full block address (which
     * simplifies victim reporting) with the LineState in bits 0-1 and
     * the dirty flag in bit 2. Blocks are at least 8 bytes, so those
     * address bits are always zero.
     */
    struct Line
    {
        static constexpr std::uint64_t kStateMask = 3;
        static constexpr std::uint64_t kDirty = 4;

        std::uint64_t word = 0; // Invalid, clean, tag 0

        Addr tag() const { return word & ~(kStateMask | kDirty); }
        LineState
        state() const
        {
            return static_cast<LineState>(word & kStateMask);
        }
        bool dirty() const { return word & kDirty; }

        void
        set(Addr blk, LineState st)
        {
            word = blk | static_cast<std::uint64_t>(st);
        }
        void
        setState(LineState st)
        {
            word = (word & ~kStateMask) | static_cast<std::uint64_t>(st);
        }
        void setDirty(bool d) { word = (word & ~kDirty) | (d ? kDirty : 0); }
    };
    static_assert(sizeof(Line) == 8);

    std::uint32_t
    setIndex(Addr a) const
    {
        return static_cast<std::uint32_t>(blockNum(a, _blockSize) &
                                          (_numSets - 1));
    }

    /** The valid line holding @p a's block, or nullptr (every access). */
    Line*
    find(Addr a)
    {
        const Addr blk = blockAlign(a, _blockSize);
        Line* set =
            &_lines[static_cast<std::size_t>(setIndex(a)) * _assoc];
        for (std::uint32_t w = 0; w < _assoc; ++w) {
            if (set[w].tag() == blk &&
                set[w].state() != LineState::Invalid)
                return &set[w];
        }
        return nullptr;
    }

    const Line*
    find(Addr a) const
    {
        return const_cast<CacheModel*>(this)->find(a);
    }

    std::uint64_t _sizeBytes;
    std::uint32_t _assoc;
    std::uint32_t _blockSize;
    std::uint32_t _numSets;
    std::vector<Line> _lines; // numSets x assoc
    Rng _rng;
    StateListener _listener;
};

} // namespace tt

#endif // TT_MEM_CACHE_MODEL_HH
