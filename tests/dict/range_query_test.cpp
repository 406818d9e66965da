// Functional coverage for the snapshot / range-query layer (vCAS-lite
// versioned links + victim hand-off, core/rq.hpp): bounds semantics,
// tombstone exclusion, revive (replace-cell in the BST), concurrent
// snapshot invariants, and §5 audits proving the layer leaks no counted
// references — typed over both memory policies.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <set>
#include <thread>
#include <vector>

#include "lfll/core/audit.hpp"
#include "lfll/dict/bst.hpp"
#include "lfll/dict/skip_list.hpp"
#include "lfll/dict/sorted_list_map.hpp"
#include "lfll/dict/split_ordered_map.hpp"
#include "lfll/primitives/rng.hpp"
#include "lfll/reclaim/epoch_policy.hpp"
#include "test_scale.hpp"

namespace {

using namespace lfll;

template <typename P>
using flat_map = sorted_list_map<int, int, std::less<int>, P>;
template <typename P>
using so_map = split_ordered_map<int, int, std::hash<int>, std::less<int>, P>;
template <typename P>
using skip_map = skip_list_map<int, int, std::less<int>, P>;
template <typename P>
using bst = bst_set<int, std::less<int>, P>;

/// Whole-structure skip-list audit: all levels share one pool.
template <typename P>
audit_report audit_skip(skip_map<P>& m) {
    std::vector<typename skip_map<P>::list_type*> lists;
    for (int i = 0; i < m.max_level(); ++i) lists.push_back(&m.level(i));
    return audit_shared(m.pool(), lists);
}

template <typename P>
struct RangeQuery : ::testing::Test {};

using Policies = ::testing::Types<valois_refcount, epoch_policy>;
TYPED_TEST_SUITE(RangeQuery, Policies);

// --------------------------------------------------------------- sorted map

TYPED_TEST(RangeQuery, SortedMapBoundsAndTombstones) {
    flat_map<TypeParam> m{64};
    for (int k = 0; k < 10; ++k) ASSERT_TRUE(m.insert(k, k * 10));

    auto r = m.range_query(3, 7);  // [3, 7)
    ASSERT_EQ(r.size(), 4u);
    for (int i = 0; i < 4; ++i) {
        EXPECT_EQ(r[i].first, 3 + i);
        EXPECT_EQ(r[i].second, (3 + i) * 10);
    }
    EXPECT_TRUE(m.range_query(7, 3).empty());    // empty interval
    EXPECT_TRUE(m.range_query(100, 200).empty());  // past the end

    ASSERT_TRUE(m.erase(4));
    ASSERT_TRUE(m.erase(5));
    r = m.range_query(3, 7);
    ASSERT_EQ(r.size(), 2u);
    EXPECT_EQ(r[0].first, 3);
    EXPECT_EQ(r[1].first, 6);

    ASSERT_TRUE(m.insert(4, 999));  // reinsert after erase
    r = m.range_query(3, 7);
    ASSERT_EQ(r.size(), 3u);
    EXPECT_EQ(r[1].first, 4);
    EXPECT_EQ(r[1].second, 999);

    auto snap = m.snapshot();
    EXPECT_EQ(snap.size(), 9u);
    EXPECT_TRUE(std::is_sorted(snap.begin(), snap.end()));

    auto rep = audit_list(m.list());
    EXPECT_TRUE(rep.ok) << rep.error;
}

// --------------------------------------------------------- split-ordered map

TYPED_TEST(RangeQuery, SplitOrderedSortedOutputAcrossResizes) {
    so_map<TypeParam> m(2, 32);  // tiny directory: splits happen immediately
    for (int k = 0; k < 200; ++k) ASSERT_TRUE(m.insert(k, k));
    auto r = m.range_query(50, 150);
    ASSERT_EQ(r.size(), 100u);
    EXPECT_TRUE(std::is_sorted(r.begin(), r.end()));
    EXPECT_EQ(r.front().first, 50);
    EXPECT_EQ(r.back().first, 149);

    for (int k = 0; k < 200; k += 2) ASSERT_TRUE(m.erase(k));
    auto snap = m.snapshot();
    ASSERT_EQ(snap.size(), 100u);
    for (const auto& kv : snap) EXPECT_EQ(kv.first % 2, 1);
}

// ----------------------------------------------------------------- skip list

TYPED_TEST(RangeQuery, SkipListAnchoredRange) {
    skip_map<TypeParam> m{512, 6};
    for (int k = 0; k < 100; ++k) ASSERT_TRUE(m.insert(k, -k));
    auto r = m.range_query(90, 95);
    ASSERT_EQ(r.size(), 5u);
    for (int i = 0; i < 5; ++i) {
        EXPECT_EQ(r[i].first, 90 + i);
        EXPECT_EQ(r[i].second, -(90 + i));
    }
    ASSERT_TRUE(m.erase(92));
    r = m.range_query(90, 95);
    ASSERT_EQ(r.size(), 4u);
    EXPECT_EQ(m.snapshot().size(), 99u);

    // Level 0 is membership truth: the stamped walk and the cursor-based
    // for_each_range must agree at quiescence.
    std::vector<int> via_for_each;
    m.for_each_range(90, 95, [&](int k, int) { via_for_each.push_back(k); });
    ASSERT_EQ(via_for_each.size(), r.size());

    auto rep = audit_skip(m);
    EXPECT_TRUE(rep.ok) << rep.error;
}

// ----------------------------------------------------------------------- bst

TYPED_TEST(RangeQuery, BstReviveAndSnapshot) {
    bst<TypeParam> t{256};
    for (int k : {8, 4, 12, 2, 6, 10, 14}) ASSERT_TRUE(t.insert(k));
    EXPECT_EQ(t.range_query(4, 11), (std::vector<int>{4, 6, 8, 10}));

    ASSERT_TRUE(t.erase(6));
    EXPECT_EQ(t.range_query(4, 11), (std::vector<int>{4, 8, 10}));

    // Revive = replace-cell: a fresh stamped cell takes the tombstone's
    // place; the snapshot must show the key again, exactly once.
    ASSERT_TRUE(t.insert(6));
    EXPECT_EQ(t.range_query(4, 11), (std::vector<int>{4, 6, 8, 10}));
    EXPECT_EQ(t.snapshot(), (std::vector<int>{2, 4, 6, 8, 10, 12, 14}));
    EXPECT_TRUE(t.validate_slow().empty());
}

TYPED_TEST(RangeQuery, BstSpliceHandsOffVictims) {
    bst<TypeParam> t{256};
    for (int k : {8, 4, 12, 2, 6}) ASSERT_TRUE(t.insert(k));
    ASSERT_TRUE(t.erase_splice(4));  // two-children physical removal
    EXPECT_EQ(t.snapshot(), (std::vector<int>{2, 6, 8, 12}));
    EXPECT_EQ(t.range_query(3, 9), (std::vector<int>{6, 8}));
    EXPECT_TRUE(t.validate_slow().empty());
}

// ------------------------------------------------------- concurrent snapshots

/// Mutators churn a key space while snapshot threads take range queries.
/// Every result must be sorted, duplicate-free, inside bounds, and every
/// key outside the churn set must appear in every snapshot (they are
/// never touched, so no linearization can exclude them).
template <typename Dict, typename RangeFn>
void churn_and_snapshot(Dict& dict, RangeFn&& range_of) {
    constexpr int kStable = 16;   // keys 1000.. always present
    constexpr int kChurn = 24;    // keys 0..23 inserted/erased
    const int rounds = lfll_test::scaled(300);
    for (int k = 0; k < kStable; ++k) ASSERT_TRUE(dict.insert(1000 + k, 1));

    std::atomic<bool> stop{false};
    std::vector<std::thread> mutators;
    for (int t = 0; t < 2; ++t) {
        mutators.emplace_back([&, t] {
            xorshift64 rng(0xC0FFEE + t);
            while (!stop.load(std::memory_order_acquire)) {
                const int k = static_cast<int>(rng.next_below(kChurn));
                if ((rng.next() & 1) != 0) {
                    dict.insert(k, k);
                } else {
                    dict.erase(k);
                }
            }
        });
    }
    for (int r = 0; r < rounds; ++r) {
        std::vector<int> keys = range_of(dict);
        EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
        EXPECT_TRUE(std::adjacent_find(keys.begin(), keys.end()) == keys.end())
            << "duplicate key in snapshot";
        std::set<int> got(keys.begin(), keys.end());
        for (int k = 0; k < kStable; ++k) {
            EXPECT_EQ(got.count(1000 + k), 1u) << "stable key missing";
        }
        for (int k : keys) {
            ASSERT_TRUE((k >= 0 && k < kChurn) || (k >= 1000 && k < 1000 + kStable));
        }
    }
    stop.store(true, std::memory_order_release);
    for (auto& th : mutators) th.join();
}

TYPED_TEST(RangeQuery, SortedMapConcurrentSnapshots) {
    flat_map<TypeParam> m{512};
    churn_and_snapshot(m, [](flat_map<TypeParam>& d) {
        std::vector<int> out;
        for (const auto& kv : d.snapshot()) out.push_back(kv.first);
        return out;
    });
    auto rep = audit_list(m.list());
    EXPECT_TRUE(rep.ok) << rep.error;
}

TYPED_TEST(RangeQuery, SkipListConcurrentSnapshots) {
    skip_map<TypeParam> m{1024, 5};
    churn_and_snapshot(m, [](skip_map<TypeParam>& d) {
        std::vector<int> out;
        for (const auto& kv : d.snapshot()) out.push_back(kv.first);
        return out;
    });
    auto rep = audit_skip(m);
    EXPECT_TRUE(rep.ok) << rep.error;
}

TYPED_TEST(RangeQuery, BstConcurrentSnapshots) {
    bst<TypeParam> t{2048};
    struct shim {
        bst<TypeParam>& t;
        bool insert(int k, int) { return t.insert(k); }
        bool erase(int k) { return t.erase(k); }
    } s{t};
    churn_and_snapshot(s, [&](shim&) { return t.snapshot(); });
}

TYPED_TEST(RangeQuery, SplitOrderedConcurrentSnapshotsAcrossResize) {
    // Tiny directory + churny mutators: the recorded snapshots overlap
    // live bucket splits (and, with the decay fix, shrinks).
    so_map<TypeParam> m(2, 64);
    churn_and_snapshot(m, [](so_map<TypeParam>& d) {
        std::vector<int> out;
        for (const auto& kv : d.snapshot()) out.push_back(kv.first);
        return out;
    });
}

}  // namespace
