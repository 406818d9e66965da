// Chaos stress: the same invariant-checked workloads as the normal stress
// suite, but compiled with LFLL_SCHED_CHAOS so every SafeRead/Release/CAS
// site may yield the CPU. On a one-core machine this forces context
// switches at exactly the algorithmically sensitive instants (between a
// SafeRead's read and increment, between a swing's speculation and its
// CAS), exploring orders of magnitude more interleavings per opcount than
// wall-clock preemption alone.
#define LFLL_SCHED_CHAOS 1

#include <gtest/gtest.h>

#include "test_scale.hpp"

#include <atomic>
#include <thread>
#include <vector>

#include "lfll/adapters/treiber_stack.hpp"
#include "lfll/adapters/valois_queue.hpp"
#include "lfll/core/audit.hpp"
#include "lfll/dict/skip_list.hpp"
#include "lfll/dict/sorted_list_map.hpp"
#include "lfll/primitives/rng.hpp"

namespace {

using namespace lfll;
using lfll_test::scaled;

TEST(ChaosStress, SortedMapHotKeys) {
    sorted_list_map<int, int> map(256);
    constexpr int kThreads = 8;
    constexpr int kKeys = 4;  // everything fights over four cells
    const int kOps = scaled(2000);
    std::vector<std::vector<long>> ins(kThreads, std::vector<long>(kKeys, 0));
    std::vector<std::vector<long>> del(kThreads, std::vector<long>(kKeys, 0));
    std::atomic<bool> go{false};
    std::vector<std::thread> ts;
    for (int t = 0; t < kThreads; ++t) {
        ts.emplace_back([&, t] {
            xorshift64 rng(0xc4405 + static_cast<std::uint64_t>(t) * 13);
            while (!go.load(std::memory_order_acquire)) {
            }
            for (int i = 0; i < kOps; ++i) {
                const int k = static_cast<int>(rng.next_below(kKeys));
                if (rng.next() % 2 == 0) {
                    if (map.insert(k, k)) ins[t][k]++;
                } else {
                    if (map.erase(k)) del[t][k]++;
                }
            }
        });
    }
    go.store(true, std::memory_order_release);
    for (auto& th : ts) th.join();

    for (int k = 0; k < kKeys; ++k) {
        long balance = 0;
        for (int t = 0; t < kThreads; ++t) balance += ins[t][k] - del[t][k];
        ASSERT_GE(balance, 0) << "key " << k;
        ASSERT_LE(balance, 1) << "key " << k;
        EXPECT_EQ(balance == 1, map.contains(k)) << "key " << k;
    }
    auto r = audit_list(map.list());
    EXPECT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.aux_chains, 0u);
}

TEST(ChaosStress, AdjacentDeleteStorm) {
    // The Fig. 3 scenario (adjacent deletions) under chaos: threads
    // repeatedly insert and delete neighbouring keys so back_link walks
    // and aux-chain compaction constantly overlap.
    sorted_list_map<int, int> map(256);
    constexpr int kThreads = 6;
    std::atomic<bool> go{false};
    std::vector<std::thread> ts;
    for (int t = 0; t < kThreads; ++t) {
        ts.emplace_back([&, t] {
            while (!go.load(std::memory_order_acquire)) {
            }
            // Each thread owns two adjacent keys and churns them, so every
            // deletion's neighbourhood overlaps another thread's.
            const int base = t;  // keys t and t+1 overlap thread t+1's pair
            for (int i = 0; i < 1000; ++i) {
                map.insert(base, 0);
                map.insert(base + 1, 0);
                map.erase(base);
                map.erase(base + 1);
            }
        });
    }
    go.store(true, std::memory_order_release);
    for (auto& th : ts) th.join();

    auto r = audit_list(map.list());
    EXPECT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.aux_chains, 0u) << "aux chain survived quiescence";
}

TEST(ChaosStress, PoolChurnTinyPool) {
    // Maximum ABA pressure on the free list: an 8-node pool shared by 8
    // threads with yields inside SafeRead's window.
    node_pool<list_node<int>> pool(8);
    std::vector<std::thread> ts;
    std::atomic<bool> corrupted{false};
    for (int t = 0; t < 8; ++t) {
        ts.emplace_back([&, t] {
            for (int i = 0; i < 800; ++i) {
                auto* n = pool.alloc();
                n->construct_cell(t * 10000 + i);
                if (n->value() != t * 10000 + i) corrupted.store(true);
                n->on_reclaim();
                pool.unref(n);
            }
        });
    }
    for (auto& th : ts) th.join();
    EXPECT_FALSE(corrupted.load());
    EXPECT_EQ(pool.free_count(), pool.capacity());
}

TEST(ChaosStress, QueueMpmc) {
    valois_queue<long> q(64);
    constexpr int kProducers = 4;
    const int kPerProducer = scaled(1200);
    std::atomic<long> sum{0};
    std::atomic<long> count{0};
    std::atomic<bool> producing{true};
    std::vector<std::thread> threads;
    for (int p = 0; p < kProducers; ++p) {
        threads.emplace_back([&, p] {
            for (long i = 0; i < kPerProducer; ++i) q.enqueue(p * kPerProducer + i);
        });
    }
    for (int c = 0; c < 3; ++c) {
        threads.emplace_back([&] {
            for (;;) {
                auto v = q.dequeue();
                if (v.has_value()) {
                    sum.fetch_add(*v);
                    count.fetch_add(1);
                } else if (!producing.load(std::memory_order_acquire)) {
                    // Re-check AND consume: discarding a successful pop
                    // here would lose an element (a bug this suite once
                    // had, caught by TSan's scheduler shaking).
                    auto v2 = q.dequeue();
                    if (!v2.has_value()) return;
                    sum.fetch_add(*v2);
                    count.fetch_add(1);
                }
            }
        });
    }
    for (int p = 0; p < kProducers; ++p) threads[p].join();
    producing.store(false, std::memory_order_release);
    for (std::size_t i = kProducers; i < threads.size(); ++i) threads[i].join();
    while (auto v = q.dequeue()) {
        sum.fetch_add(*v);
        count.fetch_add(1);
    }
    const long n = static_cast<long>(kProducers) * kPerProducer;
    EXPECT_EQ(count.load(), n);
    EXPECT_EQ(sum.load(), n * (n - 1) / 2);
}

TEST(ChaosStress, TreiberStackAbaWindow) {
    // The §5.1 ABA scenario with a yield planted exactly inside pop's
    // read-next-then-CAS window (via node_pool's chaos points): a tiny
    // pool maximizes same-address recycling.
    treiber_stack<long> s(4);
    constexpr int kThreads = 6;
    std::atomic<long> pushes{0}, pops{0};
    std::vector<std::thread> ts;
    for (int t = 0; t < kThreads; ++t) {
        ts.emplace_back([&, t] {
            xorshift64 rng(0x46a + static_cast<std::uint64_t>(t));
            for (int i = 0; i < 1500; ++i) {
                if (rng.next() % 2 == 0) {
                    s.push(t);
                    pushes.fetch_add(1);
                } else if (s.pop().has_value()) {
                    pops.fetch_add(1);
                }
            }
        });
    }
    for (auto& th : ts) th.join();
    long remaining = 0;
    while (s.pop().has_value()) ++remaining;
    EXPECT_EQ(remaining, pushes.load() - pops.load());
    EXPECT_EQ(s.pool().free_count(), s.pool().capacity());
}

TEST(ChaosStress, CompactionActuallyFires) {
    // Under chaos-forced overlap, deleters must leave transient aux
    // chains that Update/TryDelete then compact: the instrumentation has
    // to show both mechanisms firing (a run where they never fire would
    // mean the chaos isn't reaching the §3 machinery).
    instrument::reset();
    sorted_list_map<int, int> map(256);
    constexpr int kThreads = 6;
    std::atomic<bool> go{false};
    std::vector<std::thread> ts;
    for (int t = 0; t < kThreads; ++t) {
        ts.emplace_back([&, t] {
            while (!go.load(std::memory_order_acquire)) {
            }
            for (int i = 0; i < 800; ++i) {
                map.insert(t, 0);
                map.insert(t + 1, 0);
                map.erase(t);
                map.erase(t + 1);
            }
        });
    }
    go.store(true, std::memory_order_release);
    for (auto& th : ts) th.join();
    const auto c = instrument::snapshot();
    EXPECT_GT(c.aux_hops, 0u) << "no auxiliary chain was ever traversed";
    EXPECT_GT(c.aux_compactions, 0u) << "no chain was ever compacted";
    EXPECT_GT(c.cas_failures, 0u) << "no CAS ever lost a race";
    auto r = audit_list(map.list());
    EXPECT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.aux_chains, 0u);
}

TEST(ChaosStress, SkipListChurn) {
    skip_list_map<int, int> map(2048, 6);
    constexpr int kThreads = 6;
    std::atomic<bool> go{false};
    std::vector<std::vector<long>> ins(kThreads, std::vector<long>(16, 0));
    std::vector<std::vector<long>> del(kThreads, std::vector<long>(16, 0));
    std::vector<std::thread> ts;
    for (int t = 0; t < kThreads; ++t) {
        ts.emplace_back([&, t] {
            xorshift64 rng(0x5417 + static_cast<std::uint64_t>(t));
            while (!go.load(std::memory_order_acquire)) {
            }
            for (int i = 0; i < 800; ++i) {
                const int k = static_cast<int>(rng.next_below(16));
                if (rng.next() % 2 == 0) {
                    if (map.insert(k, k)) ins[t][k]++;
                } else {
                    if (map.erase(k)) del[t][k]++;
                }
            }
        });
    }
    go.store(true, std::memory_order_release);
    for (auto& th : ts) th.join();

    for (int k = 0; k < 16; ++k) {
        long balance = 0;
        for (int t = 0; t < kThreads; ++t) balance += ins[t][k] - del[t][k];
        ASSERT_GE(balance, 0);
        ASSERT_LE(balance, 1);
        EXPECT_EQ(balance == 1, map.contains(k)) << "key " << k;
    }
}

}  // namespace
