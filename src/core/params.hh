/**
 * @file
 * Core machine parameters shared by every target system. The full
 * Table 2 configuration (DirNNB cost model, Typhoon NP model) lives
 * with the respective subsystems; these are the common knobs.
 */

#ifndef TT_CORE_PARAMS_HH
#define TT_CORE_PARAMS_HH

#include <cstdint>

#include "sim/types.hh"

namespace tt
{

/** Parameters common to both target systems (Table 2, "Common"). */
struct CoreParams
{
    int nodes = 32;                  ///< target processing nodes
    std::uint32_t blockSize = 32;    ///< coherence block, bytes
    std::uint32_t pageSize = 4096;   ///< VM page, bytes

    std::uint64_t cacheSize = 256 * 1024; ///< CPU cache capacity
    std::uint32_t cacheAssoc = 4;         ///< CPU cache ways
    std::uint32_t tlbEntries = 64;        ///< CPU TLB entries

    Tick localMissLatency = 29;  ///< local cache miss (Table 2)
    Tick tlbMissLatency = 25;    ///< TLB miss (Table 2)
    Tick barrierLatency = 11;    ///< hardware barrier (Table 2)

    /**
     * Modeled cost of an uncontended lock acquire/release pair split
     * across the two operations. Synchronization primitives are
     * outside the paper's Table 2 (section 2 footnote 1); we charge
     * the same fixed cost on both targets so the comparison is
     * unaffected.
     */
    Tick lockLatency = 40;

    /**
     * Local-time run-ahead bound (cycles). A CPU may execute purely
     * local work this far beyond global event time before yielding to
     * the event queue — the WWT-style conservative window. 0 forces a
     * yield on every access (slowest, maximally ordered).
     */
    Tick quantum = 32;

    std::uint64_t seed = 0x7734'1994ULL; ///< master RNG seed
};

} // namespace tt

#endif // TT_CORE_PARAMS_HH
