/**
 * @file
 * Typhoon hardware parameters (Table 2, "Typhoon Only") plus the
 * per-primitive NP charging model. The NP is a previous-generation
 * integer core charged one cycle per instruction (section 6), so each
 * Tempest primitive has a small fixed instruction cost; protocol
 * handlers add their own computation via TempestCtx::charge().
 */

#ifndef TT_TYPHOON_PARAMS_HH
#define TT_TYPHOON_PARAMS_HH

#include <cstdint>

#include "sim/types.hh"

namespace tt
{

struct TyphoonParams
{
    // Table 2 values.
    std::uint64_t npDcacheSize = 16 * 1024; ///< 16 KB, 2-way
    std::uint32_t npDcacheAssoc = 2;
    std::uint32_t npTlbEntries = 64;  ///< fully assoc., FIFO
    std::uint32_t rtlbEntries = 64;   ///< fully assoc., FIFO
    Tick npTlbMissLatency = 25;       ///< NP TLB and RTLB miss

    // NP dispatch and bus interaction model.
    Tick dispatchCost = 3;    ///< hardware-assisted dispatch loop
    Tick bafDetectCost = 6;   ///< inhibit + nack + BAF buffer fill
    Tick resumeCost = 2;      ///< unmask CPU bus request
    Tick busUpgradeCost = 5;  ///< CPU invalidate transaction on MBus

    // Per-primitive charges (NP instructions / bus cycles).
    Tick tagOpCost = 2;        ///< RTLB memory-mapped tag read/write
    Tick cpuCacheInvCost = 5;  ///< invalidating a CPU cached copy
    Tick blockXferCost = 11;   ///< BXB 32-byte MBus block transfer
    Tick sendSetupCost = 2;    ///< dest register + end-of-message flag
    Tick perWordCost = 1;      ///< queue load/store per 32-bit word
    Tick structHitCost = 1;    ///< protocol structure, NP D-cache hit
    Tick structMissCost = 29;  ///< protocol structure, NP D-cache miss
    Tick mapOpCost = 10;       ///< page map/unmap/alloc operation
    Tick pageTagInitCost = 16; ///< bulk-initialize a page's tags
    Tick pageFaultTrapCost = 50; ///< CPU trap to a user-level handler

    // Bulk transfer engine (section 5.2).
    Tick bulkPacketCost = 8;       ///< NP occupancy per packet
    std::uint32_t bulkChunkBytes = 64; ///< data bytes per packet

    /**
     * Software fine-grain access control model (the "native" CM-5
     * Tempest of section 2, later Blizzard-S): every tag-checked
     * shared access pays this many extra CPU cycles for an inline
     * software check inserted by executable rewriting. 0 (default)
     * models Typhoon's hardware RTLB, which checks for free by
     * snooping the bus. See bench/ablation_sw_tempest.
     */
    Tick swCheckCost = 0;
};

} // namespace tt

#endif // TT_TYPHOON_PARAMS_HH
