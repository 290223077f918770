/** @file Unit tests for the fully-associative FIFO TLB model. */

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>

#include "mem/tlb_model.hh"
#include "sim/random.hh"

namespace tt
{
namespace
{

TEST(TlbModel, MissThenHit)
{
    TlbModel tlb(4);
    EXPECT_FALSE(tlb.access(10));
    EXPECT_TRUE(tlb.access(10));
}

TEST(TlbModel, FifoEviction)
{
    TlbModel tlb(2);
    tlb.access(1);
    tlb.access(2);
    tlb.access(3); // evicts 1 (FIFO)
    EXPECT_TRUE(tlb.probe(2));
    EXPECT_TRUE(tlb.probe(3));
    EXPECT_FALSE(tlb.probe(1));
}

TEST(TlbModel, FifoNotLru)
{
    TlbModel tlb(2);
    tlb.access(1);
    tlb.access(2);
    tlb.access(1); // hit: must NOT refresh FIFO position
    tlb.access(3); // still evicts 1
    EXPECT_FALSE(tlb.probe(1));
    EXPECT_TRUE(tlb.probe(2));
}

TEST(TlbModel, InvalidateRemovesEntry)
{
    TlbModel tlb(4);
    tlb.access(5);
    tlb.invalidate(5);
    EXPECT_FALSE(tlb.probe(5));
    EXPECT_EQ(tlb.resident(), 0u);
    // Invalidating an absent entry is a no-op.
    tlb.invalidate(99);
}

TEST(TlbModel, InvalidateFreesFifoSlot)
{
    TlbModel tlb(2);
    tlb.access(1);
    tlb.access(2);
    tlb.invalidate(1);
    tlb.access(3); // must not evict 2: a slot was free
    EXPECT_TRUE(tlb.probe(2));
    EXPECT_TRUE(tlb.probe(3));
}

TEST(TlbModel, FlushEmptiesAll)
{
    TlbModel tlb(8);
    for (int i = 0; i < 8; ++i)
        tlb.access(i);
    tlb.flush();
    EXPECT_EQ(tlb.resident(), 0u);
    EXPECT_FALSE(tlb.access(3));
}

TEST(TlbModel, NeverExceedsCapacity)
{
    TlbModel tlb(64); // Table 2: 64 entries
    for (int i = 0; i < 1000; ++i)
        tlb.access(i);
    EXPECT_EQ(tlb.resident(), 64u);
}

/** The replacement policy spelled out: a FIFO deque, searched linearly. */
struct ReferenceTlb
{
    std::size_t entries;
    std::deque<std::uint64_t> fifo;

    bool
    access(std::uint64_t pn)
    {
        if (std::find(fifo.begin(), fifo.end(), pn) != fifo.end())
            return true;
        if (fifo.size() >= entries)
            fifo.pop_front();
        fifo.push_back(pn);
        return false;
    }

    void
    invalidate(std::uint64_t pn)
    {
        auto it = std::find(fifo.begin(), fifo.end(), pn);
        if (it != fifo.end())
            fifo.erase(it);
    }
};

TEST(TlbModel, MatchesReferenceFifoOnRandomTraffic)
{
    // Seeded differential run: accesses over a page set a little
    // larger than the TLB (so hits, misses and evictions all occur),
    // with occasional invalidations and rare flushes. Every hit/miss
    // verdict and the resident count must match the reference.
    for (std::uint32_t entries : {1u, 4u, 64u}) {
        TlbModel tlb(entries);
        ReferenceTlb ref{entries, {}};
        Rng rng(20 + entries);
        const std::uint64_t pages = entries + entries / 2 + 2;
        for (int i = 0; i < 120000; ++i) {
            // Page numbers from two distant bases, like the shared
            // segments' vpns and the low ppns.
            const std::uint64_t pn =
                (rng.chance(0.5) ? 0x40000 : 1) + rng.below(pages);
            const std::uint64_t roll = rng.below(1000);
            if (roll < 30) {
                tlb.invalidate(pn);
                ref.invalidate(pn);
            } else if (roll < 31) {
                tlb.flush();
                ref.fifo.clear();
            } else {
                ASSERT_EQ(tlb.access(pn), ref.access(pn))
                    << "entries " << entries << " step " << i;
            }
            ASSERT_EQ(tlb.resident(), ref.fifo.size());
        }
    }
}

} // namespace
} // namespace tt
