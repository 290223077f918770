/** @file Unit tests for per-node page tables. */

#include <gtest/gtest.h>

#include "mem/page_table.hh"

namespace tt
{
namespace
{

TEST(PageTable, MapTranslateUnmap)
{
    PageTable pt(4096);
    pt.map(0x10000, 0x3000, /*mode=*/2);
    const PageMapping* m = pt.lookup(0x10ABC);
    ASSERT_NE(m, nullptr);
    EXPECT_EQ(m->ppage, 0x3000u);
    EXPECT_EQ(m->mode, 2);
    EXPECT_EQ(pt.translate(0x10ABC), 0x3ABCu);
    pt.unmap(0x10000);
    EXPECT_EQ(pt.lookup(0x10000), nullptr);
}

TEST(PageTable, ReverseTranslation)
{
    PageTable pt(4096);
    pt.map(0x20000, 0x7000, 0);
    Addr va = 0;
    EXPECT_TRUE(pt.reverse(0x7123, &va));
    EXPECT_EQ(va, 0x20123u);
    EXPECT_FALSE(pt.reverse(0x9000, &va));
}

TEST(PageTable, DoubleMapPanics)
{
    PageTable pt(4096);
    pt.map(0x1000, 0x2000, 0);
    EXPECT_ANY_THROW(pt.map(0x1000, 0x3000, 0));
    // Mapping the same physical page twice is also rejected (the
    // reverse map must stay a function).
    EXPECT_ANY_THROW(pt.map(0x4000, 0x2000, 0));
}

TEST(PageTable, UnmapUnmappedPanics)
{
    PageTable pt(4096);
    EXPECT_ANY_THROW(pt.unmap(0x1000));
}

TEST(PageTable, TranslateUnmappedPanics)
{
    PageTable pt(4096);
    EXPECT_ANY_THROW(pt.translate(0xABCD));
}

TEST(PageTable, SetModeUpdatesExistingMapping)
{
    PageTable pt(4096);
    pt.map(0x5000, 0x6000, 1);
    pt.setMode(0x5000, 4);
    EXPECT_EQ(pt.lookup(0x5000)->mode, 4);
}

TEST(PageTable, RemapAfterUnmap)
{
    PageTable pt(4096);
    pt.map(0x5000, 0x6000, 1);
    pt.unmap(0x5000);
    pt.map(0x5000, 0x8000, 3); // fresh mapping to a new frame
    EXPECT_EQ(pt.translate(0x5100), 0x8100u);
    EXPECT_EQ(pt.mappedPages(), 1u);
}

TEST(PageTable, MapsAcrossSharedSegmentBases)
{
    // Stache pages live at 0x4000'0000 and custom EM3D pages at
    // 0x7000'0000, far apart in vpn space; physical pages count up
    // from ppn 1.
    PageTable pt(4096);
    const Addr stache = 0x4000'0000, custom = 0x7000'0000;
    for (int i = 0; i < 8; ++i) {
        pt.map(stache + i * 4096, (1 + i) * 4096, 1);
        pt.map(custom + i * 4096, (20 + i) * 4096, 2);
    }
    EXPECT_EQ(pt.mappedPages(), 16u);
    EXPECT_EQ(pt.translate(stache + 3 * 4096 + 5), 4u * 4096 + 5);
    EXPECT_EQ(pt.lookup(custom + 7 * 4096)->mode, 2);
    Addr va = 0;
    ASSERT_TRUE(pt.reverse(22 * 4096 + 9, &va));
    EXPECT_EQ(va, custom + 2 * 4096 + 9);
    EXPECT_EQ(pt.lookup(stache + 8 * 4096), nullptr);
    EXPECT_EQ(pt.lookup(custom - 4096), nullptr);

    // Unmap frees both directions; the freed frame can back another
    // page, and the freed vpn can take another frame.
    pt.unmap(stache + 2 * 4096);
    EXPECT_EQ(pt.lookup(stache + 2 * 4096), nullptr);
    EXPECT_FALSE(pt.reverse(3 * 4096, &va));
    EXPECT_EQ(pt.mappedPages(), 15u);
    pt.map(custom + 100 * 4096, 3 * 4096, 2); // the freed frame
    ASSERT_TRUE(pt.reverse(3 * 4096 + 1, &va));
    EXPECT_EQ(va, custom + 100 * 4096 + 1);
    pt.map(stache + 2 * 4096, 40 * 4096, 1); // the freed vpn
    EXPECT_EQ(pt.translate(stache + 2 * 4096), 40u * 4096);
    EXPECT_EQ(pt.mappedPages(), 17u);

    // Remap: move a frame from one segment's page to the other's.
    pt.unmap(stache);
    pt.map(custom + 50 * 4096, 1 * 4096, 2);
    EXPECT_EQ(pt.lookup(stache), nullptr);
    ASSERT_TRUE(pt.reverse(4096, &va));
    EXPECT_EQ(va, custom + 50 * 4096);
    EXPECT_ANY_THROW(pt.unmap(stache));
}

TEST(DenseMap, EraseThenReinsert)
{
    DenseMap<int> m;
    m.insert(0x40000, 1);
    m.insert(0x40003, 4);
    m.insert(0x70000, 7);
    EXPECT_EQ(m.size(), 3u);
    m.erase(0x40003);
    EXPECT_EQ(m.size(), 2u);
    EXPECT_FALSE(m.contains(0x40003));
    EXPECT_TRUE(m.contains(0x40000));
    EXPECT_ANY_THROW(m.erase(0x40003)); // absent
    EXPECT_ANY_THROW(m.erase(0x50000)); // outside every bank
    // The erased slot comes back default-constructed.
    EXPECT_EQ(m.findOrInsert(0x40003).first, 0);
    EXPECT_EQ(m.size(), 3u);
    m.erase(0x70000);
    m.insert(0x70000, 9);
    EXPECT_EQ(m.at(0x70000), 9);
    int visited = 0;
    m.forEach([&](std::uint64_t, int) { ++visited; });
    EXPECT_EQ(visited, 3);
}

} // namespace
} // namespace tt
