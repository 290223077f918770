/**
 * @file
 * Address manipulation helpers. Block and page sizes are runtime
 * configuration (the paper's fine-grain blocks are "typically 32-128
 * bytes"; pages are 4 KB), so helpers take the size explicitly.
 * Every size is a power of two (MachineConfig::validate() rejects
 * anything else), so page and block numbers are shifts, not 64-bit
 * divides: these helpers run on every simulated access.
 */

#ifndef TT_MEM_ADDR_HH
#define TT_MEM_ADDR_HH

#include <algorithm>
#include <bit>
#include <cstddef>

#include "sim/logging.hh"
#include "sim/types.hh"

namespace tt
{

/** True iff @p v is a nonzero power of two. */
constexpr bool
isPow2(std::uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

/** log2 of a power of two. */
constexpr unsigned
log2i(std::uint64_t v)
{
    unsigned r = 0;
    while (v > 1) {
        v >>= 1;
        ++r;
    }
    return r;
}

/** Round @p a down to a multiple of power-of-two @p align. */
constexpr Addr
alignDown(Addr a, std::uint64_t align)
{
    return a & ~(align - 1);
}

/** Round @p a up to a multiple of power-of-two @p align. */
constexpr Addr
alignUp(Addr a, std::uint64_t align)
{
    return (a + align - 1) & ~(align - 1);
}

/** Block-frame address (block-aligned) of @p a. */
constexpr Addr
blockAlign(Addr a, std::uint32_t block_size)
{
    return alignDown(a, block_size);
}

/** Block number of @p a; @p block_size is a power of two. */
constexpr std::uint64_t
blockNum(Addr a, std::uint32_t block_size)
{
    return a >> std::countr_zero(block_size);
}

/** Page number of @p a; @p page_size is a power of two. */
constexpr std::uint64_t
pageNum(Addr a, std::uint32_t page_size)
{
    return a >> std::countr_zero(page_size);
}

/** Byte offset of @p a within its page. */
constexpr std::uint64_t
pageOffset(Addr a, std::uint32_t page_size)
{
    return a & (page_size - 1);
}

/** Index of the block containing @p a within its page. */
constexpr std::uint32_t
blockInPage(Addr a, std::uint32_t page_size, std::uint32_t block_size)
{
    return static_cast<std::uint32_t>(pageOffset(a, page_size) >>
                                      std::countr_zero(block_size));
}

/** True iff [a, a+len) stays within one block. */
constexpr bool
withinOneBlock(Addr a, std::uint32_t len, std::uint32_t block_size)
{
    return blockAlign(a, block_size) ==
           blockAlign(a + len - 1, block_size);
}

namespace detail
{

/** forEachBlockPiece's loop, out of line (see there). */
template <typename Fn>
[[gnu::noinline]] void
splitBlockPieces(Addr va, std::size_t len, std::uint32_t block_size, Fn& fn)
{
    for (std::size_t off = 0; off < len;) {
        const Addr a = va + off;
        const std::size_t n = std::min<std::size_t>(
            len - off, blockAlign(a, block_size) + block_size - a);
        fn(a, off, n);
        off += n;
    }
}

} // namespace detail

/**
 * Call @p fn(a, off, n) for each block-bounded piece of [va, va+len),
 * in order: n bytes at address a, off bytes into the range. A range
 * inside one block (every application poke) is one inline call; only a
 * wider one (a checkpoint's whole allocation) takes the loop, kept out
 * of line so that app set-up does not pay for it.
 */
template <typename Fn>
void
forEachBlockPiece(Addr va, std::size_t len, std::uint32_t block_size,
                  Fn&& fn)
{
    if (blockAlign(va, block_size) == blockAlign(va + len - 1, block_size))
        fn(va, std::size_t{0}, len);
    else
        detail::splitBlockPieces(va, len, block_size, fn);
}

} // namespace tt

#endif // TT_MEM_ADDR_HH
