// node_pool: Alloc/Reclaim (Figs. 17-18), SafeRead/Release (Figs. 15-16),
// slab growth, free-list ABA safety, and the reclamation cascade.
#include <gtest/gtest.h>

#include "test_scale.hpp"

#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "lfll/core/node.hpp"
#include "lfll/memory/node_pool.hpp"
#include "lfll/primitives/rng.hpp"

namespace {

using namespace lfll;
using node_t = list_node<int>;
using lfll_test::scaled;
using pool_t = node_pool<node_t>;

TEST(NodePool, AllocHandsOutDistinctNodes) {
    pool_t pool(16);
    std::set<node_t*> seen;
    for (int i = 0; i < 16; ++i) {
        node_t* n = pool.alloc();
        ASSERT_NE(n, nullptr);
        EXPECT_TRUE(seen.insert(n).second) << "node handed out twice";
        EXPECT_EQ(refct_count(n->refct.load()), 1u);     // caller's reference
        EXPECT_FALSE(refct_claimed(n->refct.load()));
        EXPECT_EQ(n->next.load(), nullptr);
    }
}

TEST(NodePool, ReleaseReturnsNodeToFreeList) {
    pool_t pool(4);
    const std::size_t before = pool.free_count();
    node_t* n = pool.alloc();
    EXPECT_EQ(pool.free_count(), before - 1);
    pool.unref(n);
    EXPECT_EQ(pool.free_count(), before);
}

TEST(NodePool, FreeListIsLIFO) {
    pool_t pool(8);
    node_t* a = pool.alloc();
    pool.unref(a);
    node_t* b = pool.alloc();
    EXPECT_EQ(a, b) << "free list should behave as a stack";
    pool.unref(b);
}

TEST(NodePool, GrowsWhenExhausted) {
    pool_t pool(2);
    std::vector<node_t*> held;
    for (int i = 0; i < 100; ++i) held.push_back(pool.alloc());
    EXPECT_GE(pool.capacity(), 100u);
    std::set<node_t*> uniq(held.begin(), held.end());
    EXPECT_EQ(uniq.size(), held.size());
    for (node_t* n : held) pool.unref(n);
    EXPECT_EQ(pool.free_count(), pool.capacity());
}

TEST(NodePool, AddRefPinsNodeAcrossRelease) {
    pool_t pool(4);
    node_t* n = pool.alloc();
    pool.ref(n);
    const std::size_t free_before = pool.free_count();
    pool.unref(n);  // still one reference: must not be reclaimed
    EXPECT_EQ(pool.free_count(), free_before);
    pool.unref(n);
    EXPECT_EQ(pool.free_count(), free_before + 1);
}

TEST(NodePool, SafeReadOfNullLocationReturnsNull) {
    pool_t pool(4);
    std::atomic<node_t*> loc{nullptr};
    EXPECT_EQ(pool.protect(loc), nullptr);
}

TEST(NodePool, SafeReadAcquiresReference) {
    pool_t pool(4);
    node_t* n = pool.alloc();
    std::atomic<node_t*> loc{n};
    node_t* r = pool.protect(loc);
    EXPECT_EQ(r, n);
    EXPECT_EQ(refct_count(n->refct.load()), 2u);
    pool.unref(r);
    pool.unref(n);
}

TEST(NodePool, ReclaimCascadesThroughLinks) {
    // cell -> aux -> aux2; releasing the sole reference on cell must
    // reclaim the whole chain (drop_links drives the cascade).
    pool_t pool(8);
    node_t* cell = pool.alloc();
    cell->construct_cell(7);
    node_t* aux = pool.alloc();
    node_t* aux2 = pool.alloc();
    // Transfer our private references into the links.
    aux->next.store(aux2, std::memory_order_relaxed);
    cell->next.store(aux, std::memory_order_relaxed);
    const std::size_t free_before = pool.free_count();
    pool.unref(cell);
    EXPECT_EQ(pool.free_count(), free_before + 3);
}

TEST(NodePool, CascadeHandlesLongChains) {
    // A chain far deeper than release()'s inline stack must still be fully
    // reclaimed (exercises the overflow path, and would blow the C stack
    // if the cascade were recursive).
    pool_t pool(4);
    constexpr int kLen = 5000;
    node_t* head = pool.alloc();
    node_t* cur = head;
    for (int i = 1; i < kLen; ++i) {
        node_t* n = pool.alloc();
        cur->next.store(n, std::memory_order_relaxed);  // transfer reference
        cur = n;
    }
    pool.unref(head);
    EXPECT_EQ(pool.free_count(), pool.capacity());
}

TEST(NodePool, PayloadDestroyedExactlyOnceOnReclaim) {
    static std::atomic<int> live{0};
    struct probe {
        probe() { live.fetch_add(1); }
        probe(const probe&) { live.fetch_add(1); }
        ~probe() { live.fetch_sub(1); }
    };
    node_pool<list_node<probe>> pool(4);
    auto* n = pool.alloc();
    n->construct_cell();
    EXPECT_EQ(live.load(), 1);
    pool.unref(n);
    EXPECT_EQ(live.load(), 0);
    // Reuse must not double-destroy.
    auto* m = pool.alloc();
    EXPECT_EQ(live.load(), 0);
    pool.unref(m);
    EXPECT_EQ(live.load(), 0);
}

// Concurrent alloc/release churn: no node may ever be handed to two
// threads at once, and all nodes must come home at the end.
TEST(NodePool, ConcurrentChurnIsLinear) {
    pool_t pool(64);
    constexpr int kThreads = 8;
    const int kIters = scaled(5000);
    std::atomic<bool> corrupted{false};
    std::vector<std::thread> ts;
    for (int t = 0; t < kThreads; ++t) {
        ts.emplace_back([&, t] {
            for (int i = 0; i < kIters; ++i) {
                node_t* n = pool.alloc();
                // Ownership stamp: if another thread holds this node, the
                // value check below will trip.
                n->construct_cell(t * kIters + i);
                if (n->value() != t * kIters + i) corrupted.store(true);
                n->on_reclaim();  // manual payload teardown for the test
                pool.unref(n);
            }
        });
    }
    for (auto& t : ts) t.join();
    EXPECT_FALSE(corrupted.load());
    EXPECT_EQ(pool.free_count(), pool.capacity());
}

// The paper's ABA scenario on the free list: thread 1 reads head A, is
// delayed; A is popped, reused, and other nodes pushed. Because a held
// reference prevents A's reuse from completing into a re-push, thread 1's
// CAS can only succeed if A truly is the current head. We approximate
// with heavy concurrent churn plus invariant checks.
TEST(NodePool, FreeListSurvivesAdversarialChurn) {
    pool_t pool(8);  // tiny: maximizes head reuse pressure
    constexpr int kThreads = 8;
    std::vector<std::thread> ts;
    for (int t = 0; t < kThreads; ++t) {
        ts.emplace_back([&, t] {
            xorshift64 rng(0xabcdef + static_cast<std::uint64_t>(t));
            std::vector<node_t*> held;
            for (int i = 0; i < scaled(4000); ++i) {
                if (held.size() < 3 && rng.next() % 2 == 0) {
                    held.push_back(pool.alloc());
                } else if (!held.empty()) {
                    pool.unref(held.back());
                    held.pop_back();
                }
            }
            for (node_t* n : held) pool.unref(n);
        });
    }
    for (auto& t : ts) t.join();
    EXPECT_EQ(pool.free_count(), pool.capacity());
    // Every slab node must be findable on the free list exactly once.
    std::set<const node_t*> free_set;
    pool.for_each_free([&](const node_t* n) {
        EXPECT_TRUE(free_set.insert(n).second) << "node on free list twice";
    });
    EXPECT_EQ(free_set.size(), pool.capacity());
}

}  // namespace
