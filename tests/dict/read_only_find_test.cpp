// Reads that don't write (core/list.hpp lookup / land_seek). Under a
// counting policy a find walks with plain loads from a borrowed anchor
// and validates a copy of its stop cell, so on a quiescent map it must
// leave the SafeRead counter and every node's count word exactly as it
// found them. A mutator seek takes references only where it lands, so
// its protect count must not grow with the number of cells it crosses.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <vector>

#include "lfll/dict/sorted_list_map.hpp"
#include "lfll/dict/split_ordered_map.hpp"
#include "lfll/primitives/instrument.hpp"

namespace {

using namespace lfll;

/// Every node's count word, in slab order.
template <typename Pool>
std::vector<refct_t> count_words(const Pool& pool) {
    std::vector<refct_t> out;
    pool.for_each_node([&](const auto* n) { out.push_back(n->refct.load()); });
    return out;
}

/// Finds every present key (0, 2, ..., 2*(n-1)) and the absent key after
/// each, checking the values, and expects no SafeRead and no count word
/// to change across the whole pass.
template <typename Map>
void expect_finds_write_nothing(Map& map, int n) {
    const auto& pool = map.list().pool();
    const std::vector<refct_t> before = count_words(pool);
    const std::uint64_t reads = instrument::tls().safe_reads.load();
    for (int k = 0; k < 2 * n; ++k) {
        const auto v = map.find(k);
        if (k % 2 == 0) {
            ASSERT_TRUE(v.has_value()) << k;
            EXPECT_EQ(*v, 3 * k);
        } else {
            EXPECT_FALSE(v.has_value()) << k;
        }
    }
    EXPECT_EQ(instrument::tls().safe_reads.load(), reads);
    EXPECT_EQ(count_words(pool), before);
}

template <typename Policy>
class ReadsDontWrite : public ::testing::Test {};

using counting_policies = ::testing::Types<valois_refcount>;
TYPED_TEST_SUITE(ReadsDontWrite, counting_policies);

TYPED_TEST(ReadsDontWrite, SortedListMapFindTakesNoReference) {
    sorted_list_map<int, int, std::less<int>, TypeParam> map;
    for (int k = 0; k < 256; k += 2) ASSERT_TRUE(map.insert(k, 3 * k));
    expect_finds_write_nothing(map, 128);
}

TYPED_TEST(ReadsDontWrite, SplitOrderedMapFindTakesNoReference) {
    split_ordered_map<int, int, std::hash<int>, std::less<int>, TypeParam> map;
    for (int k = 0; k < 2048; k += 2) ASSERT_TRUE(map.insert(k, 3 * k));
    // The first touch of a bucket splits it (inserts its dummy): that is
    // a one-time structural write, not a read's. Touch every bucket once.
    for (int k = 0; k < 2048; ++k) (void)map.find(k);
    expect_finds_write_nothing(map, 1024);
}

/// A cursor seek from First to `key`: the SafeReads it performs.
template <typename Map>
std::uint64_t seek_protects(Map& map, int key) {
    const std::uint64_t reads = instrument::tls().safe_reads.load();
    typename Map::cursor c(map.list());
    EXPECT_TRUE(map.find_from(key, c));
    EXPECT_EQ((*c).first, key);
    return instrument::tls().safe_reads.load() - reads;
}

TYPED_TEST(ReadsDontWrite, SeekProtectsDoNotGrowWithWalkLength) {
    sorted_list_map<int, int, std::less<int>, TypeParam> map;
    for (int k = 0; k < 1100; ++k) ASSERT_TRUE(map.insert(k, 3 * k));
    const std::uint64_t short_walk = seek_protects(map, 16);   // crosses 16 cells
    const std::uint64_t long_walk = seek_protects(map, 1024);  // crosses 1024
    EXPECT_EQ(short_walk, long_walk);
    // first() protects the first aux and cell; the landing protects the
    // target. A per-segment protect would add 1024/16 more on the long walk.
    EXPECT_LE(long_walk, 3u);
}

}  // namespace
