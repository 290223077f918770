/** @file Unit tests for OpenMap's ownership transfer. */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "sim/dense_map.hh"

namespace tt
{
namespace
{

TEST(OpenMap, MoveTransfersEntriesAndEmptiesSource)
{
    OpenMap<std::uint32_t, std::unique_ptr<int>> a;
    for (std::uint32_t k = 0; k < 40; ++k)
        a.insert(k * 7, std::make_unique<int>(static_cast<int>(k)));
    const int* seven = a.at(7).get();

    OpenMap<std::uint32_t, std::unique_ptr<int>> b(std::move(a));
    EXPECT_EQ(b.size(), 40u);
    EXPECT_EQ(b.at(7).get(), seven); // values are not copied
    for (std::uint32_t k = 0; k < 40; ++k)
        EXPECT_EQ(*b.at(k * 7), static_cast<int>(k));

    // The source is a usable empty map.
    EXPECT_TRUE(a.empty());
    EXPECT_EQ(a.find(7), nullptr);
    EXPECT_EQ(a.footprintBytes(), 0u);
    a.insert(3, std::make_unique<int>(30));
    EXPECT_EQ(*a.at(3), 30);
    b.erase(7);
    EXPECT_FALSE(b.contains(7));
    EXPECT_EQ(b.size(), 39u);
}

TEST(OpenMap, OwnerCanLiveInAVector)
{
    // Typhoon's per-node dispatch tables live in a std::vector<Node>,
    // which moves them as it grows.
    std::vector<OpenMap<std::uint32_t, int>> nodes;
    for (int n = 0; n < 20; ++n) {
        nodes.emplace_back();
        nodes.back().insert(0xFFFF'0001u, int{n});
        nodes.back().insert(static_cast<std::uint32_t>(n), int{-n});
    }
    for (int n = 0; n < 20; ++n) {
        EXPECT_EQ(nodes[n].at(0xFFFF'0001u), n);
        EXPECT_EQ(nodes[n].at(static_cast<std::uint32_t>(n)), -n);
        EXPECT_EQ(nodes[n].size(), 2u);
    }
}

} // namespace
} // namespace tt
