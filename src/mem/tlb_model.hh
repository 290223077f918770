/**
 * @file
 * Timing model of a fully-associative TLB with FIFO replacement
 * (Table 2: "64 ent., fully assoc., FIFO repl.", 25-cycle miss).
 * Used for the primary CPU TLB, the NP TLB, and — with per-page tag
 * payloads layered on top — as the basis of the NP's reverse TLB.
 */

#ifndef TT_MEM_TLB_MODEL_HH
#define TT_MEM_TLB_MODEL_HH

#include <cstdint>
#include <deque>

#include "sim/dense_map.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

namespace tt
{

/**
 * Fully-associative FIFO-replacement TLB timing model over abstract
 * page numbers (virtual or physical, caller's choice).
 */
class TlbModel
{
  public:
    explicit TlbModel(std::uint32_t entries) : _entries(entries)
    {
        tt_assert(entries > 0, "TLB needs at least one entry");
    }

    /**
     * Access page @p pn, inserting it on a miss (FIFO eviction).
     * @return true on hit.
     */
    bool
    access(std::uint64_t pn)
    {
        if (_present.contains(pn))
            return true;
        insert(pn);
        return false;
    }

    /** True iff @p pn is resident, without touching state. */
    bool probe(std::uint64_t pn) const { return _present.contains(pn); }

    /** Remove @p pn (page unmapped or remapped). */
    void
    invalidate(std::uint64_t pn)
    {
        if (!_present.contains(pn))
            return;
        _present.erase(pn);
        for (auto it = _fifo.begin(); it != _fifo.end(); ++it) {
            if (*it == pn) {
                _fifo.erase(it);
                break;
            }
        }
    }

    /** Drop everything (context switch / full shootdown). */
    void
    flush()
    {
        _present.clear();
        _fifo.clear();
    }

    std::uint32_t entries() const { return _entries; }
    std::size_t resident() const { return _present.size(); }

    /**
     * Resident bytes (telemetry memory probes): FIFO entries plus the
     * residency table's slots.
     */
    std::size_t
    footprintBytes() const
    {
        return _fifo.size() * sizeof(std::uint64_t) +
               _present.footprintBytes();
    }

  private:
    void
    insert(std::uint64_t pn)
    {
        if (_fifo.size() >= _entries) {
            _present.erase(_fifo.front());
            _fifo.pop_front();
        }
        _fifo.push_back(pn);
        _present.insert(pn, true);
    }

    std::uint32_t _entries;
    std::deque<std::uint64_t> _fifo;
    /** Resident page numbers (the value is unused): one probe a hit. */
    OpenMap<std::uint64_t, bool> _present;
};

} // namespace tt

#endif // TT_MEM_TLB_MODEL_HH
