/**
 * @file
 * Simulated physical memory: sparse paged byte storage plus a physical
 * page allocator. Each Typhoon node owns one PhysMem; the DirNNB
 * baseline uses a single PhysMem as its (logically distributed) global
 * store.
 */

#ifndef TT_MEM_PHYS_MEM_HH
#define TT_MEM_PHYS_MEM_HH

#include <algorithm>
#include <cstring>
#include <memory>
#include <vector>

#include "mem/addr.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

namespace tt
{

/**
 * Byte-addressable memory with page-granular backing and a simple
 * bump-plus-freelist page allocator.
 *
 * Page lookup is on the path of every simulated load and store, so
 * pages live in a dense vector indexed by (ppn - base ppn) rather
 * than a hash map. Both allocation patterns in the tree are
 * contiguous bump sequences (Typhoon node memories from ppn 1,
 * DirNNB's address-keyed global store from its segment base), so the
 * vector stays dense in practice; a stray low allocation merely
 * re-bases it.
 */
class PhysMem
{
  public:
    explicit PhysMem(std::uint32_t page_size) : _pageSize(page_size)
    {
        tt_assert(isPow2(page_size), "page size must be a power of two");
    }

    std::uint32_t pageSize() const { return _pageSize; }

    /**
     * Allocate a fresh, zeroed physical page.
     * @return its base physical address.
     */
    PAddr
    allocPage()
    {
        std::uint64_t ppn;
        if (!_freeList.empty()) {
            ppn = _freeList.back();
            _freeList.pop_back();
        } else {
            ppn = _nextPpn++;
        }
        backPage(ppn);
        return ppn * _pageSize;
    }

    /**
     * Allocate a zeroed page at a caller-chosen base address. Used by
     * address-keyed stores (e.g. the DirNNB global memory, keyed by
     * virtual address); do not mix with the bump allocator on the
     * same instance unless the address ranges are disjoint.
     */
    void
    allocPageAt(PAddr base)
    {
        const std::uint64_t ppn = pageNum(base, _pageSize);
        tt_assert(!slot(ppn), "page already allocated at ", base);
        backPage(ppn);
    }

    /** Release a page previously returned by allocPage(). */
    void
    freePage(PAddr base)
    {
        const std::uint64_t ppn = pageNum(base, _pageSize);
        std::uint8_t* page = slot(ppn);
        tt_assert(page, "freeing unallocated page ", base);
        _pages[ppn - _basePpn].reset();
        --_allocated;
        _freeList.push_back(ppn);
    }

    /** True iff the page containing @p pa is allocated. */
    bool pageAllocated(PAddr pa) const { return slot(pageNum(pa, _pageSize)); }

    /** Copy @p len bytes at physical address @p pa into @p buf. */
    void
    read(PAddr pa, void* buf, std::size_t len) const
    {
        const std::uint8_t* src = locate(pa, len);
        std::memcpy(buf, src, len);
    }

    /** Copy @p len bytes from @p buf to physical address @p pa. */
    void
    write(PAddr pa, const void* buf, std::size_t len)
    {
        std::uint8_t* dst =
            const_cast<std::uint8_t*>(locate(pa, len));
        std::memcpy(dst, buf, len);
    }

    /** Typed convenience accessors (must not cross a page boundary). */
    template <typename T>
    T
    readT(PAddr pa) const
    {
        T v;
        read(pa, &v, sizeof(T));
        return v;
    }

    template <typename T>
    void
    writeT(PAddr pa, const T& v)
    {
        write(pa, &v, sizeof(T));
    }

    /** Number of currently allocated pages. */
    std::size_t allocatedPages() const { return _allocated; }

    /** Bump-allocator watermark: the ppn the next fresh page gets. */
    std::uint64_t nextPpn() const { return _nextPpn; }

    /**
     * Resident bytes (telemetry memory probes): allocated page
     * backing plus the slot vector and free list.
     */
    std::size_t
    footprintBytes() const
    {
        return _allocated * std::size_t{_pageSize} +
               _pages.capacity() *
                   sizeof(std::unique_ptr<std::uint8_t[]>) +
               _freeList.capacity() * sizeof(std::uint64_t);
    }

    /**
     * Rewind the bump allocator to a recorded watermark and discard
     * the free list, so the next allocations replay the exact ppn
     * sequence a fresh instance would produce (DESIGN.md §15). Every
     * page at or above the watermark must already have been freed;
     * their empty slots are trimmed so the dense vector's extent also
     * matches a never-allocated-past-the-watermark instance.
     */
    void
    canonicalizeAllocator(std::uint64_t nextPpn)
    {
        tt_assert(nextPpn >= 1 && nextPpn <= _nextPpn,
                  "allocator watermark moved backwards");
        for (std::uint64_t ppn = nextPpn; ppn < _nextPpn; ++ppn) {
            const std::uint64_t idx = ppn - _basePpn;
            tt_assert(idx >= _pages.size() || !_pages[idx],
                      "canonicalizeAllocator: page ", ppn,
                      " above the watermark is still allocated");
        }
        _freeList.clear();
        _nextPpn = nextPpn;
        while (!_pages.empty() && !_pages.back() &&
               _basePpn + _pages.size() > nextPpn)
            _pages.pop_back();
    }

  private:
    /** Backing store for @p ppn, or nullptr if unallocated. */
    std::uint8_t*
    slot(std::uint64_t ppn) const
    {
        const std::uint64_t idx = ppn - _basePpn;
        return idx < _pages.size() ? _pages[idx].get() : nullptr;
    }

    void
    backPage(std::uint64_t ppn)
    {
        if (_pages.empty()) {
            _basePpn = ppn;
        } else if (ppn < _basePpn) {
            // Re-base: shift existing pages up to make room below.
            const std::uint64_t shift = _basePpn - ppn;
            _pages.resize(_pages.size() + shift);
            std::move_backward(_pages.begin(), _pages.end() - shift,
                               _pages.end());
            _basePpn = ppn;
        }
        const std::uint64_t idx = ppn - _basePpn;
        if (idx >= _pages.size())
            _pages.resize(idx + 1);
        _pages[idx] = std::make_unique<std::uint8_t[]>(_pageSize);
        std::memset(_pages[idx].get(), 0, _pageSize);
        ++_allocated;
    }

    const std::uint8_t*
    locate(PAddr pa, std::size_t len) const
    {
        const std::uint64_t off = pa & (_pageSize - 1);
        tt_assert(off + len <= _pageSize,
                  "physical access crosses page boundary at ", pa);
        const std::uint8_t* page = slot(pageNum(pa, _pageSize));
        tt_assert(page, "access to unallocated page: pa=", pa);
        return page + off;
    }

    std::uint32_t _pageSize;
    std::uint64_t _nextPpn = 1; // keep paddr 0 unused as a null-ish value
    std::uint64_t _basePpn = 0;
    std::size_t _allocated = 0;
    std::vector<std::uint64_t> _freeList;
    std::vector<std::unique_ptr<std::uint8_t[]>> _pages;
};

} // namespace tt

#endif // TT_MEM_PHYS_MEM_HH
