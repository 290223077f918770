/**
 * @file
 * Per-node page table mapping virtual pages of the shared segment to
 * local physical pages. User-level code (Stache, custom protocols)
 * manipulates these mappings through the Tempest VM-management calls;
 * the paper's model is a conventional flat paged address space whose
 * shared-heap mappings are owned by user software (section 2.3).
 */

#ifndef TT_MEM_PAGE_TABLE_HH
#define TT_MEM_PAGE_TABLE_HH

#include <cstdint>

#include "mem/addr.hh"
#include "sim/dense_map.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

namespace tt
{

/**
 * One virtual-page mapping. @c mode is the Typhoon RTLB "page mode": a
 * small user-defined value that selects which set of fault handlers
 * covers the page (e.g. Stache home page vs. stache page vs. custom
 * EM3D pages).
 */
struct PageMapping
{
    PAddr ppage = 0;       ///< physical page base address
    std::uint8_t mode = 0; ///< user-level page mode (4 bits in Typhoon)
    bool writable = true;  ///< page-level write permission
};

/**
 * Forward (VA -> PA) page table for one node, with a reverse view
 * (PA -> VA) used by the NP's reverse TLB to recover virtual page
 * numbers from snooped bus addresses. Both directions are DenseMaps:
 * shared virtual pages are bump-allocated from a few fixed bases and
 * physical pages from ppn 1, so a lookup is a bank scan and an index.
 * A pointer from lookup() stays valid until the next map().
 */
class PageTable
{
  public:
    explicit PageTable(std::uint32_t page_size) : _pageSize(page_size)
    {
        tt_assert(isPow2(page_size), "page size must be a power of two");
    }

    std::uint32_t pageSize() const { return _pageSize; }

    /** Map virtual page of @p va to physical page of @p pa. */
    void
    map(Addr va, PAddr pa, std::uint8_t mode, bool writable = true)
    {
        const std::uint64_t vpn = pageNum(va, _pageSize);
        const std::uint64_t ppn = pageNum(pa, _pageSize);
        tt_assert(!_fwd.contains(vpn), "double-mapping vpn ", vpn);
        tt_assert(!_rev.contains(ppn), "physical page mapped twice: ",
                  ppn);
        _fwd.insert(vpn, PageMapping{ppn * _pageSize, mode, writable});
        _rev.insert(ppn, vpn * _pageSize);
    }

    /** Remove the mapping covering @p va. */
    void
    unmap(Addr va)
    {
        const std::uint64_t vpn = pageNum(va, _pageSize);
        const PageMapping* m = _fwd.find(vpn);
        tt_assert(m, "unmapping unmapped vpn ", vpn);
        _rev.erase(pageNum(m->ppage, _pageSize));
        _fwd.erase(vpn);
    }

    /** Lookup the mapping covering @p va; nullptr if unmapped. */
    const PageMapping*
    lookup(Addr va) const
    {
        return _fwd.find(pageNum(va, _pageSize));
    }

    /** Translate @p va to a physical address; panics if unmapped. */
    PAddr
    translate(Addr va) const
    {
        const PageMapping* m = lookup(va);
        tt_assert(m, "translate of unmapped va ", va);
        return m->ppage + pageOffset(va, _pageSize);
    }

    /**
     * Reverse-translate a physical address to its virtual address;
     * @return false if the physical page is not mapped.
     */
    bool
    reverse(PAddr pa, Addr* va_out) const
    {
        const Addr* base = _rev.find(pageNum(pa, _pageSize));
        if (!base)
            return false;
        *va_out = *base + pageOffset(pa, _pageSize);
        return true;
    }

    /** Update the page mode of an existing mapping. */
    void
    setMode(Addr va, std::uint8_t mode)
    {
        PageMapping* m = _fwd.find(pageNum(va, _pageSize));
        tt_assert(m, "setMode on unmapped va ", va);
        m->mode = mode;
    }

    std::size_t mappedPages() const { return _fwd.size(); }

    /**
     * Resident bytes (telemetry memory probes): the slot banks of the
     * forward and reverse maps.
     */
    std::size_t
    footprintBytes() const
    {
        return _fwd.footprintBytes() + _rev.footprintBytes();
    }

  private:
    std::uint32_t _pageSize;
    DenseMap<PageMapping> _fwd; // vpn -> mapping
    DenseMap<Addr> _rev;        // ppn -> va base
};

} // namespace tt

#endif // TT_MEM_PAGE_TABLE_HH
