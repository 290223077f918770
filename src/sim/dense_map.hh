/**
 * @file
 * Two purpose-built replacements for std::unordered_map on the
 * protocol hot paths.
 *
 * DenseMap: protocol metadata keyed by a page or block *index* (vpn,
 * ppn, block number). Shared segments are bump-allocated from a few
 * fixed virtual bases (0x4000'0000 for Stache, 0x7000'0000 for custom
 * EM3D pages, 0x1000'0000 for the DirNNB store), so the key space is
 * a handful of dense runs. Each run gets a bank: a base index plus a
 * flat vector of slots, giving O(1) lookups with no hashing and no
 * pointer chasing. Gap slots hold a default-constructed value, so V
 * must be cheap to default-construct (an empty vector, a null
 * pointer); sparse expensive values belong in OpenMap instead.
 *
 * OpenMap: sparse, short-lived state keyed by address (in-flight
 * coherence transactions, sharing-pattern records). Open addressing
 * with linear probing and backward-shift deletion; values are
 * constructed only when present, so an entry with heavyweight members
 * (a deque allocates even when empty) costs nothing until it exists.
 */

#ifndef TT_SIM_DENSE_MAP_HH
#define TT_SIM_DENSE_MAP_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/logging.hh"

namespace tt
{

/**
 * Banked dense map: uint64 index -> V. Lookups scan the (few) banks
 * linearly and index into the matching one. Inserting below a bank's
 * base re-bases it (the allocators bump upward, so this is rare);
 * inserting far from every bank opens a new one.
 */
template <typename V>
class DenseMap
{
  public:
    V*
    find(std::uint64_t idx)
    {
        for (Bank& b : _banks) {
            const std::uint64_t off = idx - b.base;
            if (off < b.slots.size() && b.slots[off].present)
                return &b.slots[off].val;
        }
        return nullptr;
    }

    const V*
    find(std::uint64_t idx) const
    {
        return const_cast<DenseMap*>(this)->find(idx);
    }

    bool contains(std::uint64_t idx) const { return find(idx); }

    V&
    at(std::uint64_t idx)
    {
        V* p = find(idx);
        tt_assert(p, "DenseMap::at of absent key ", idx);
        return *p;
    }

    const V&
    at(std::uint64_t idx) const
    {
        return const_cast<DenseMap*>(this)->at(idx);
    }

    /** Find, or default-insert if absent; second = inserted. */
    std::pair<V&, bool>
    findOrInsert(std::uint64_t idx)
    {
        if (V* p = find(idx))
            return {*p, false};
        Slot& s = slotFor(idx);
        s.present = true;
        ++_size;
        return {s.val, true};
    }

    V& operator[](std::uint64_t idx)
    {
        return findOrInsert(idx).first;
    }

    /** Insert a value; the key must be absent. */
    V&
    insert(std::uint64_t idx, V&& v)
    {
        auto [ref, inserted] = findOrInsert(idx);
        tt_assert(inserted, "DenseMap::insert of present key ", idx);
        ref = std::move(v);
        return ref;
    }

    /**
     * Remove a present key. Its slot returns to the default value and
     * stays in its bank, so re-inserting the key is O(1).
     */
    void
    erase(std::uint64_t idx)
    {
        for (Bank& b : _banks) {
            const std::uint64_t off = idx - b.base;
            if (off < b.slots.size() && b.slots[off].present) {
                b.slots[off] = Slot{};
                --_size;
                return;
            }
        }
        tt_panic("DenseMap::erase of absent key ", idx);
    }

    std::size_t size() const { return _size; }
    bool empty() const { return _size == 0; }

    /** Visit (key, value) for every entry, ascending within a bank. */
    template <typename F>
    void
    forEach(F&& f) const
    {
        for (const Bank& b : _banks) {
            for (std::size_t i = 0; i < b.slots.size(); ++i) {
                if (b.slots[i].present)
                    f(b.base + i, b.slots[i].val);
            }
        }
    }

    /** Mutable visit (canonicalize walks that rewrite entries). */
    template <typename F>
    void
    forEachMut(F&& f)
    {
        for (Bank& b : _banks) {
            for (std::size_t i = 0; i < b.slots.size(); ++i) {
                if (b.slots[i].present)
                    f(b.base + i, b.slots[i].val);
            }
        }
    }

    /** Drop every entry (and the banks: allocation bases re-form). */
    void
    clear()
    {
        _banks.clear();
        _size = 0;
    }

    /**
     * Resident bytes of the bank structures (slot-vector capacities,
     * not just present entries) — the telemetry memory-probe view
     * (DESIGN.md §16). Excludes heap memory owned by the values
     * themselves; callers add that where it matters.
     */
    std::size_t
    footprintBytes() const
    {
        std::size_t b = _banks.capacity() * sizeof(Bank);
        for (const Bank& bank : _banks)
            b += bank.slots.capacity() * sizeof(Slot);
        return b;
    }

  private:
    struct Slot
    {
        V val{};
        bool present = false;
    };

    struct Bank
    {
        std::uint64_t base = 0;
        std::vector<Slot> slots;
    };

    /** Max distance from a bank's base before a new bank opens. */
    static constexpr std::uint64_t kBankSpan = 1ull << 16;

    Slot&
    slotFor(std::uint64_t idx)
    {
        for (Bank& b : _banks) {
            if (idx >= b.base && idx - b.base < kBankSpan) {
                const std::uint64_t off = idx - b.base;
                if (off >= b.slots.size())
                    b.slots.resize(off + 1);
                return b.slots[off];
            }
            if (idx < b.base && b.base - idx < kBankSpan) {
                // Re-base: shift existing slots up to make room.
                const std::uint64_t shift = b.base - idx;
                b.slots.resize(b.slots.size() + shift);
                std::move_backward(b.slots.begin(),
                                   b.slots.end() - shift,
                                   b.slots.end());
                for (std::uint64_t i = 0; i < shift; ++i)
                    b.slots[i] = Slot{};
                b.base = idx;
                return b.slots[0];
            }
        }
        _banks.push_back(Bank{idx, {}});
        _banks.back().slots.resize(1);
        return _banks.back().slots[0];
    }

    std::vector<Bank> _banks;
    std::size_t _size = 0;
};

/**
 * Open-addressed hash map: integral key -> V, Fibonacci hashing,
 * linear probing, backward-shift deletion (no tombstones). Values are
 * constructed in place only for present entries.
 */
template <typename K, typename V>
class OpenMap
{
    static_assert(std::is_integral_v<K> || std::is_enum_v<K>,
                  "OpenMap requires an integral key");

  public:
    OpenMap() = default;
    OpenMap(const OpenMap&) = delete;
    OpenMap& operator=(const OpenMap&) = delete;

    /**
     * Take @p o's table (its slots stay where they are in memory); @p o
     * is left empty. Lets an owner live in a std::vector.
     */
    OpenMap(OpenMap&& o) noexcept
        : _slots(std::move(o._slots)),
          _size(std::exchange(o._size, 0)),
          _mask(std::exchange(o._mask, 0)),
          _shift(std::exchange(o._shift, 64))
    {
        o._slots.clear();
    }

    ~OpenMap()
    {
        for (Slot& s : _slots) {
            if (s.full)
                s.value()->~V();
        }
    }

    V*
    find(K k)
    {
        if (_slots.empty())
            return nullptr;
        std::size_t i = ideal(k);
        while (_slots[i].full) {
            if (_slots[i].key == k)
                return _slots[i].value();
            i = (i + 1) & _mask;
        }
        return nullptr;
    }

    const V*
    find(K k) const
    {
        return const_cast<OpenMap*>(this)->find(k);
    }

    bool contains(K k) const { return find(k); }

    V&
    at(K k)
    {
        V* p = find(k);
        tt_assert(p, "OpenMap::at of absent key ", std::uint64_t(k));
        return *p;
    }

    const V&
    at(K k) const
    {
        return const_cast<OpenMap*>(this)->at(k);
    }

    /** Insert a value; the key must be absent. */
    V&
    insert(K k, V&& v)
    {
        tt_assert(!contains(k), "OpenMap::insert of present key ",
                  std::uint64_t(k));
        maybeGrow();
        std::size_t i = ideal(k);
        while (_slots[i].full)
            i = (i + 1) & _mask;
        _slots[i].key = k;
        ::new (static_cast<void*>(_slots[i].raw)) V(std::move(v));
        _slots[i].full = true;
        ++_size;
        return *_slots[i].value();
    }

    V& operator[](K k)
    {
        if (V* p = find(k))
            return *p;
        return insert(k, V{});
    }

    void
    erase(K k)
    {
        tt_assert(!_slots.empty(), "OpenMap::erase of absent key ",
                  std::uint64_t(k));
        std::size_t i = ideal(k);
        while (true) {
            tt_assert(_slots[i].full, "OpenMap::erase of absent key ",
                      std::uint64_t(k));
            if (_slots[i].key == k)
                break;
            i = (i + 1) & _mask;
        }
        _slots[i].value()->~V();
        _slots[i].full = false;
        --_size;
        // Backward-shift: pull displaced entries into the hole so
        // probe chains stay unbroken without tombstones.
        std::size_t hole = i, j = i;
        while (true) {
            j = (j + 1) & _mask;
            if (!_slots[j].full)
                return;
            const std::size_t h = ideal(_slots[j].key);
            if (((j - h) & _mask) >= ((j - hole) & _mask)) {
                _slots[hole].key = _slots[j].key;
                ::new (static_cast<void*>(_slots[hole].raw))
                    V(std::move(*_slots[j].value()));
                _slots[j].value()->~V();
                _slots[hole].full = true;
                _slots[j].full = false;
                hole = j;
            }
        }
    }

    std::size_t size() const { return _size; }
    bool empty() const { return _size == 0; }

    /**
     * Destroy every entry and release the table, returning the map to
     * its freshly-constructed state. Full release (not capacity
     * retention) keeps a canonicalized map bit-identical to one that
     * never held the dropped entries (DESIGN.md §15).
     */
    void
    clear()
    {
        for (Slot& s : _slots) {
            if (s.full) {
                s.value()->~V();
                s.full = false;
            }
        }
        _slots.clear();
        _slots.shrink_to_fit();
        _size = 0;
        _mask = 0;
        _shift = 64;
    }

    /** Visit (key, value) for every entry, in table order. */
    template <typename F>
    void
    forEach(F&& f) const
    {
        for (const Slot& s : _slots) {
            if (s.full)
                f(s.key, *s.value());
        }
    }

    /** Resident bytes of the slot table (telemetry memory probes). */
    std::size_t
    footprintBytes() const
    {
        return _slots.capacity() * sizeof(Slot);
    }

  private:
    struct Slot
    {
        K key{};
        alignas(V) unsigned char raw[sizeof(V)];
        bool full = false;

        V* value()
        {
            return std::launder(reinterpret_cast<V*>(raw));
        }
        const V* value() const
        {
            return std::launder(reinterpret_cast<const V*>(raw));
        }
    };

    std::size_t
    ideal(K k) const
    {
        return static_cast<std::size_t>(
                   static_cast<std::uint64_t>(k) *
                   0x9E3779B97F4A7C15ull) >>
               _shift;
    }

    void
    maybeGrow()
    {
        if (!_slots.empty() && (_size + 1) * 10 <= _slots.size() * 7)
            return;
        const std::size_t cap =
            _slots.empty() ? 16 : _slots.size() * 2;
        std::vector<Slot> old = std::move(_slots);
        _slots.clear();
        _slots.resize(cap);
        _mask = cap - 1;
        int log2cap = 0;
        while ((std::size_t{1} << log2cap) < cap)
            ++log2cap;
        _shift = 64 - log2cap;
        for (Slot& s : old) {
            if (!s.full)
                continue;
            std::size_t i = ideal(s.key);
            while (_slots[i].full)
                i = (i + 1) & _mask;
            _slots[i].key = s.key;
            ::new (static_cast<void*>(_slots[i].raw))
                V(std::move(*s.value()));
            _slots[i].full = true;
            s.value()->~V();
            s.full = false;
        }
    }

    std::vector<Slot> _slots;
    std::size_t _size = 0;
    std::size_t _mask = 0;
    int _shift = 64;
};

} // namespace tt

#endif // TT_SIM_DENSE_MAP_HH
