// Over-read bound of the predicate-bounded superhop (core/list.hpp
// batch_hop). A lookup or an ordered seek ends each batched segment at
// the walk's stop cell, so on a quiescent map every op's hop count
// (traverse_hops) exceeds the cells it visits (cells_traversed) by at
// most the one hop onto Last. An engine that snapshots a full kScanBatch
// window before asking whether the walk is over shows here as a ~15-hop
// excess on a find.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>

#include "lfll/dict/sorted_list_map.hpp"
#include "lfll/dict/split_ordered_map.hpp"
#include "lfll/primitives/instrument.hpp"

namespace {

using namespace lfll;

/// Runs `op` and returns its result, expecting the hops this thread
/// counts during it to exceed the cells it visits by at most one.
template <typename Op>
auto bounded(const char* what, int key, Op&& op) {
    auto& ctr = instrument::tls();
    const std::uint64_t h0 = ctr.traverse_hops.load();
    const std::uint64_t c0 = ctr.cells_traversed.load();
    const auto result = op();
    const auto excess = static_cast<std::int64_t>(ctr.traverse_hops.load() - h0) -
                        static_cast<std::int64_t>(ctr.cells_traversed.load() - c0);
    EXPECT_LE(excess, 1) << what << ' ' << key;
    return result;
}

/// Every key around and inside a 64-entry map (even keys 0..126): finds
/// that hit and miss, inserts that succeed and fail, erases of present
/// and absent keys.
template <typename Map>
void expect_bounded(Map& map) {
    for (int k = 0; k < 128; k += 2) ASSERT_TRUE(map.insert(k, 2 * k));
    for (int k = -1; k <= 128; ++k) {
        const bool present = k >= 0 && k < 128 && k % 2 == 0;
        EXPECT_EQ(bounded("find", k, [&] { return map.find(k).has_value(); }), present);
        EXPECT_EQ(bounded("insert", k, [&] { return map.insert(k, 2 * k); }), !present);
        EXPECT_EQ(bounded("find", k, [&] { return map.find(k); }), 2 * k);
        if (!present) {
            EXPECT_TRUE(bounded("erase", k, [&] { return map.erase(k); }));
        }
        EXPECT_FALSE(bounded("erase", k + 1000, [&] { return map.erase(k + 1000); }));
    }
}

template <typename Policy>
class SuperhopBound : public ::testing::Test {};

using counting_policies = ::testing::Types<valois_refcount>;
TYPED_TEST_SUITE(SuperhopBound, counting_policies);

TYPED_TEST(SuperhopBound, SortedListMapOpsReadOnlyTheCellsTheyNeed) {
    sorted_list_map<int, int, std::less<int>, TypeParam> map;
    expect_bounded(map);
}

TYPED_TEST(SuperhopBound, SplitOrderedMapOpsReadOnlyTheCellsTheyNeed) {
    split_ordered_map<int, int, std::hash<int>, std::less<int>, TypeParam> map;
    expect_bounded(map);
}

}  // namespace
