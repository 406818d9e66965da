// Node layout: the kind lives in the low bits of the incarnation word
// (core/node.hpp), which keeps a split-ordered <int,int> node on one
// 64-B line, and every kind change is a word change the walk's sweep
// sees. Under AddressSanitizer a reclaimed node's payload is poisoned.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>

#include "lfll/core/list.hpp"
#include "lfll/dict/sorted_list_map.hpp"
#include "lfll/dict/split_ordered_map.hpp"
#include "lfll/memory/policy.hpp"
#include "lfll/reclaim/epoch_policy.hpp"

namespace {

using lfll::incarnation_of;
using lfll::kind_of;
using lfll::node_kind;

template <typename Policy>
class NodeLayout : public ::testing::Test {};

class PolicyNames {
public:
    template <typename Policy>
    static std::string GetName(int) {
        return Policy::name;
    }
};

using AllPolicies = ::testing::Types<lfll::valois_refcount, lfll::epoch_policy>;
TYPED_TEST_SUITE(NodeLayout, AllPolicies, PolicyNames);

TYPED_TEST(NodeLayout, MapNodesFitOneCacheLine) {
    using so_map = lfll::split_ordered_map<int, int, std::hash<int>, std::less<int>, TypeParam>;
    using sl_map = lfll::sorted_list_map<int, int, std::less<int>, TypeParam>;
    EXPECT_EQ(sizeof(typename so_map::node), 64u);
    EXPECT_EQ(sizeof(typename sl_map::list_type::node), 64u);
    EXPECT_EQ(alignof(typename so_map::node), lfll::cacheline_size);
}

// Nodes live on the heap, as in the pool's slabs: ASan leaves a poisoned
// stack range poisoned after the frame returns.
TYPED_TEST(NodeLayout, ReclaimBumpsIncarnationOnceAndResetsKindToAux) {
    using node = lfll::list_node<std::uint64_t, TypeParam>;
    for (node_kind k : {node_kind::cell, node_kind::aux, node_kind::head, node_kind::tail}) {
        auto p = std::make_unique<node>();
        node& n = *p;
        n.on_reclaim();  // start from a non-zero incarnation
        const std::uint64_t inc = incarnation_of(n.tag.load());
        if (k == node_kind::cell) {
            n.construct_cell(std::uint64_t{7});
        } else {
            n.set_kind(k);
        }
        ASSERT_EQ(n.kind(), k);
        n.on_reclaim();
        const std::uint64_t t = n.tag.load();
        EXPECT_EQ(incarnation_of(t), inc + 1) << static_cast<int>(k);
        EXPECT_EQ(kind_of(t), node_kind::aux) << static_cast<int>(k);
        EXPECT_TRUE(n.is_aux());
    }
}

TYPED_TEST(NodeLayout, ConstructCellKeepsIncarnation) {
    using node = lfll::list_node<std::uint64_t, TypeParam>;
    auto p = std::make_unique<node>();
    node& n = *p;
    for (int i = 0; i < 3; ++i) n.on_reclaim();
    ASSERT_EQ(incarnation_of(n.tag.load()), 3u);
    n.construct_cell(std::uint64_t{42});
    EXPECT_EQ(incarnation_of(n.tag.load()), 3u);
    EXPECT_TRUE(n.is_cell());
    EXPECT_EQ(n.value(), 42u);
    n.on_reclaim();
}

// A walk that first-touched a free slot (an aux by its tag) and then saw
// the slot become a cell must fail its sweep: the kind change alone
// moves the word, although the incarnation did not.
TYPED_TEST(NodeLayout, FreeSlotSnapshotFailsAfterConstructCell) {
    using node = lfll::list_node<std::uint64_t, TypeParam>;
    auto p = std::make_unique<node>();
    node& n = *p;
    n.on_reclaim();
    const std::uint64_t snapshot = n.tag.load(std::memory_order_acquire);
    ASSERT_EQ(kind_of(snapshot), node_kind::aux);
    n.construct_cell(std::uint64_t{1});
    EXPECT_NE(n.tag.load(std::memory_order_acquire), snapshot);
    EXPECT_EQ(incarnation_of(n.tag.load()), incarnation_of(snapshot));
    n.on_reclaim();
}

// The same through a list's pool: a slot freed by one cell and handed
// out again as a cell (or as a fresh aux) never matches the old word.
TYPED_TEST(NodeLayout, RecycledPoolSlotNeverMatchesOldWord) {
    using list_t = lfll::valois_list<std::uint64_t, TypeParam>;
    list_t list(8);
    auto* q = list.make_cell(std::uint64_t{1});
    const std::uint64_t live = q->tag.load();
    ASSERT_EQ(kind_of(live), node_kind::cell);
    list.release_node(q);
    list.pool().drain_retired();
    const std::uint64_t freed = q->tag.load();
    EXPECT_EQ(kind_of(freed), node_kind::aux);
    EXPECT_EQ(incarnation_of(freed), incarnation_of(live) + 1);
    auto* r = list.make_cell(std::uint64_t{2});
    if (r == q) {
        EXPECT_NE(q->tag.load(), freed);
    }
    list.release_node(r);
    list.pool().drain_retired();
}

#if defined(LFLL_ASAN)
// Slab reuse would hide a read of a reclaimed payload from ASan; the
// poisoning in on_reclaim makes it a report.
TEST(NodePoisonDeathTest, ReadingReclaimedPayloadIsReported) {
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH(
        {
            lfll::valois_list<std::uint64_t> list(8);
            auto* q = list.make_cell(std::uint64_t{9});
            list.release_node(q);  // the only reference: reclaimed now
            volatile std::uint64_t v = q->value();
            (void)v;
        },
        "use-after-poison");
}

TEST(NodePoison, ReconstructedCellIsReadable) {
    lfll::valois_list<std::uint64_t> list(8);
    auto* q = list.make_cell(std::uint64_t{9});
    list.release_node(q);
    auto* r = list.make_cell(std::uint64_t{10});
    EXPECT_EQ(r->value(), 10u);
    list.release_node(r);
}
#endif

}  // namespace
