// Empirical linearizability (§2.1 [14]): record real concurrent histories
// from every lock-free dictionary and verify each one has a valid
// linearization. Includes self-tests proving the checker rejects
// non-linearizable histories (a checker that accepts everything proves
// nothing).
#include <gtest/gtest.h>

#include "test_scale.hpp"

#include <atomic>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "lin_checker.hpp"

#include "lfll/baseline/harris_michael_list.hpp"
#include "lfll/dict/bst.hpp"
#include "lfll/dict/hash_map.hpp"
#include "lfll/dict/sharded_kv.hpp"
#include "lfll/dict/skip_list.hpp"
#include "lfll/dict/sorted_list_map.hpp"
#include "lfll/dict/split_ordered_map.hpp"
#include "lfll/primitives/rng.hpp"

namespace {

using namespace lfll;
using lin::op_kind;
using lin::recorded_op;

// ---------------------------------------------------------------- checker
// self-tests: hand-built histories with known verdicts.

recorded_op mk(int thread, op_kind k, int key, bool result, std::uint64_t inv,
               std::uint64_t rsp) {
    return {thread, k, key, result, inv, rsp, 0, {}};
}

TEST(LinChecker, AcceptsSequentialHistory) {
    std::vector<recorded_op> h{
        mk(0, op_kind::insert, 1, true, 0, 1),
        mk(0, op_kind::contains, 1, true, 2, 3),
        mk(0, op_kind::erase, 1, true, 4, 5),
        mk(0, op_kind::contains, 1, false, 6, 7),
    };
    EXPECT_TRUE(lin::is_linearizable(h));
}

TEST(LinChecker, RejectsReadOfNeverInsertedKey) {
    std::vector<recorded_op> h{
        mk(0, op_kind::contains, 5, true, 0, 1),  // true, but 5 never inserted
    };
    EXPECT_FALSE(lin::is_linearizable(h));
}

TEST(LinChecker, AcceptsOverlappingOpsEitherOrder) {
    // insert(1) and contains(1)=false overlap: linearize the read first.
    std::vector<recorded_op> h{
        mk(0, op_kind::insert, 1, true, 0, 3),
        mk(1, op_kind::contains, 1, false, 1, 2),
    };
    EXPECT_TRUE(lin::is_linearizable(h));
}

TEST(LinChecker, RespectsRealTimePrecedence) {
    // contains(1)=false strictly AFTER insert(1) completed: no valid order.
    std::vector<recorded_op> h{
        mk(0, op_kind::insert, 1, true, 0, 1),
        mk(1, op_kind::contains, 1, false, 2, 3),
    };
    EXPECT_FALSE(lin::is_linearizable(h));
}

TEST(LinChecker, RejectsDoubleSuccessfulInsert) {
    std::vector<recorded_op> h{
        mk(0, op_kind::insert, 7, true, 0, 1),
        mk(1, op_kind::insert, 7, true, 2, 3),  // no erase between
    };
    EXPECT_FALSE(lin::is_linearizable(h));
}

TEST(LinChecker, RejectsLostUpdate) {
    // Two successful erases of one successful insert.
    std::vector<recorded_op> h{
        mk(0, op_kind::insert, 3, true, 0, 1),
        mk(0, op_kind::erase, 3, true, 2, 5),
        mk(1, op_kind::erase, 3, true, 3, 4),
    };
    EXPECT_FALSE(lin::is_linearizable(h));
}

TEST(LinChecker, AcceptsConcurrentInsertLoserSeesWinner) {
    std::vector<recorded_op> h{
        mk(0, op_kind::insert, 2, true, 0, 3),
        mk(1, op_kind::insert, 2, false, 1, 2),  // overlaps; loses
    };
    EXPECT_TRUE(lin::is_linearizable(h));
}

recorded_op mkr(int thread, int lo, int hi, std::vector<int> keys,
                std::uint64_t inv, std::uint64_t rsp) {
    return {thread, op_kind::range, lo, true, inv, rsp, hi, std::move(keys)};
}

TEST(LinChecker, AcceptsConsistentRange) {
    std::vector<recorded_op> h{
        mk(0, op_kind::insert, 1, true, 0, 1),
        mk(0, op_kind::insert, 3, true, 2, 3),
        mkr(1, 0, 10, {1, 3}, 4, 5),
        mk(0, op_kind::erase, 1, true, 6, 7),
        mkr(1, 0, 10, {3}, 8, 9),
        mkr(1, 2, 3, {}, 10, 11),  // bounds exclude 3
    };
    EXPECT_TRUE(lin::is_linearizable(h));
}

TEST(LinChecker, RejectsTornRange) {
    // Both inserts completed before the query was invoked, yet the query
    // saw only one of them: no single linearization point explains it.
    std::vector<recorded_op> h{
        mk(0, op_kind::insert, 1, true, 0, 1),
        mk(0, op_kind::insert, 2, true, 2, 3),
        mkr(1, 0, 10, {2}, 4, 5),
    };
    EXPECT_FALSE(lin::is_linearizable(h));
}

TEST(LinChecker, AcceptsRangeOverlappingInsertEitherWay) {
    std::vector<recorded_op> h{
        mk(0, op_kind::insert, 5, true, 0, 3),
        mkr(1, 0, 10, {}, 1, 2),  // linearized before the insert
    };
    EXPECT_TRUE(lin::is_linearizable(h));
}

TEST(LinChecker, RejectsRangeResurrectingErasedKey) {
    std::vector<recorded_op> h{
        mk(0, op_kind::insert, 4, true, 0, 1),
        mk(0, op_kind::erase, 4, true, 2, 3),
        mkr(1, 0, 10, {4}, 4, 5),  // strictly after the erase completed
    };
    EXPECT_FALSE(lin::is_linearizable(h));
}

// Batched sub-ops share one invoke/response window (record_batch) but
// each needs its own linearization point inside it.

TEST(LinChecker, AcceptsBatchSubOpsOrderedWithinSharedWindow) {
    // One batch @0..1 carrying contains(1)=false and insert(1)=true: only
    // read-before-insert works, and the shared window permits it.
    std::vector<recorded_op> h{
        mk(0, op_kind::contains, 1, false, 0, 1),
        mk(0, op_kind::insert, 1, true, 0, 1),
    };
    EXPECT_TRUE(lin::is_linearizable(h));
}

TEST(LinChecker, SharedWindowDoesNotLaunderSubOpResults) {
    // insert(1) completed before the batch window opened; the batch still
    // claims insert(1)=true with no erase anywhere — no order explains it.
    std::vector<recorded_op> h{
        mk(0, op_kind::insert, 1, true, 0, 1),
        mk(1, op_kind::insert, 1, true, 2, 3),   // batch sub-op
        mk(1, op_kind::contains, 1, true, 2, 3),  // batch sub-op
    };
    EXPECT_FALSE(lin::is_linearizable(h));
}

TEST(LinChecker, RespectsPrecedenceBetweenBatches) {
    // Batch A (insert(2)=true) fully precedes batch B, so B's
    // contains(2)=false has no valid point.
    std::vector<recorded_op> h{
        mk(0, op_kind::insert, 2, true, 0, 1),
        mk(0, op_kind::contains, 3, false, 0, 1),
        mk(1, op_kind::contains, 2, false, 2, 3),
        mk(1, op_kind::insert, 3, true, 2, 3),
    };
    EXPECT_FALSE(lin::is_linearizable(h));
}

// ------------------------------------------------------------- recording
// real histories from the library's dictionaries.

using lin::recorder;  // shared with the sched explorer (lin_checker.hpp)

/// Runs `threads` x `ops_per_thread` random ops on `keys` hot keys and
/// checks the resulting history. Repeats for several rounds: small
/// histories, many samples.
template <typename MakeDict>
void check_structure(MakeDict&& make, int rounds) {
    constexpr int kThreads = 3;
    constexpr int kOpsPerThread = 8;  // 24-op histories: exhaustively checkable
    constexpr int kKeys = 3;
    for (int round = 0; round < rounds; ++round) {
        auto dict = make();
        recorder rec;
        std::atomic<bool> go{false};
        std::vector<std::thread> ts;
        for (int t = 0; t < kThreads; ++t) {
            ts.emplace_back([&, t] {
                xorshift64 rng(0x11A + static_cast<std::uint64_t>(round) * 131 +
                               static_cast<std::uint64_t>(t) * 7);
                while (!go.load(std::memory_order_acquire)) {
                }
                for (int i = 0; i < kOpsPerThread; ++i) {
                    const int k = static_cast<int>(rng.next_below(kKeys));
                    switch (rng.next() % 3) {
                        case 0:
                            rec.record(t, op_kind::insert, k,
                                       [&] { return dict->insert(k); });
                            break;
                        case 1:
                            rec.record(t, op_kind::erase, k, [&] { return dict->erase(k); });
                            break;
                        default:
                            rec.record(t, op_kind::contains, k,
                                       [&] { return dict->contains(k); });
                            break;
                    }
                }
            });
        }
        go.store(true, std::memory_order_release);
        for (auto& th : ts) th.join();
        ASSERT_TRUE(lin::is_linearizable(rec.history))
            << "round " << round << "\n"
            << lin::describe(rec.history);
    }
}

/// Like check_structure, but one op in four is a range query, so every
/// history exercises snapshot isolation against concurrent inserts and
/// erases (including physical unlinks and the victim hand-off path).
template <typename MakeDict>
void check_structure_rq(MakeDict&& make, int rounds) {
    constexpr int kThreads = 3;
    constexpr int kOpsPerThread = 7;
    constexpr int kKeys = 4;
    for (int round = 0; round < rounds; ++round) {
        auto dict = make();
        recorder rec;
        std::atomic<bool> go{false};
        std::vector<std::thread> ts;
        for (int t = 0; t < kThreads; ++t) {
            ts.emplace_back([&, t] {
                xorshift64 rng(0x5EA + static_cast<std::uint64_t>(round) * 131 +
                               static_cast<std::uint64_t>(t) * 7);
                while (!go.load(std::memory_order_acquire)) {
                }
                for (int i = 0; i < kOpsPerThread; ++i) {
                    const int k = static_cast<int>(rng.next_below(kKeys));
                    switch (rng.next() % 4) {
                        case 0:
                            rec.record(t, op_kind::insert, k,
                                       [&] { return dict->insert(k); });
                            break;
                        case 1:
                            rec.record(t, op_kind::erase, k, [&] { return dict->erase(k); });
                            break;
                        case 2:
                            rec.record(t, op_kind::contains, k,
                                       [&] { return dict->contains(k); });
                            break;
                        default: {
                            const int lo = k;
                            const int hi = k + 1 + static_cast<int>(rng.next_below(kKeys));
                            rec.record_range(t, lo, hi,
                                             [&] { return dict->range(lo, hi); });
                            break;
                        }
                    }
                }
            });
        }
        go.store(true, std::memory_order_release);
        for (auto& th : ts) th.join();
        ASSERT_TRUE(lin::is_linearizable(rec.history))
            << "round " << round << "\n"
            << lin::describe(rec.history);
    }
}

/// Like check_structure, but roughly half the ops arrive as batched
/// multi-ops (apply_batch through the shim): each batch is recorded with
/// record_batch, so every sub-op must linearize individually inside the
/// batch call's window while other threads' batches and single ops race
/// the shared traversal.
template <typename MakeDict>
void check_structure_batched(MakeDict&& make, int rounds) {
    constexpr int kThreads = 3;
    constexpr int kItersPerThread = 3;
    constexpr int kKeys = 3;
    for (int round = 0; round < rounds; ++round) {
        auto dict = make();
        recorder rec;
        std::atomic<bool> go{false};
        std::vector<std::thread> ts;
        for (int t = 0; t < kThreads; ++t) {
            ts.emplace_back([&, t] {
                xorshift64 rng(0xBA7C + static_cast<std::uint64_t>(round) * 131 +
                               static_cast<std::uint64_t>(t) * 7);
                while (!go.load(std::memory_order_acquire)) {
                }
                auto pick_kind = [&rng] {
                    switch (rng.next() % 3) {
                        case 0:  return op_kind::insert;
                        case 1:  return op_kind::erase;
                        default: return op_kind::contains;
                    }
                };
                for (int i = 0; i < kItersPerThread; ++i) {
                    if (rng.next_below(2) == 0) {
                        // A 3-op batch; duplicate keys allowed, so batches
                        // exercise the same-key cursor-resume path too.
                        std::vector<recorder::batch_sub> subs;
                        for (int j = 0; j < 3; ++j) {
                            subs.push_back({pick_kind(),
                                            static_cast<int>(rng.next_below(kKeys))});
                        }
                        rec.record_batch(t, subs,
                                         [&] { return dict->apply(subs); });
                    } else {
                        for (int j = 0; j < 2; ++j) {
                            const int k = static_cast<int>(rng.next_below(kKeys));
                            switch (pick_kind()) {
                                case op_kind::insert:
                                    rec.record(t, op_kind::insert, k,
                                               [&] { return dict->insert(k); });
                                    break;
                                case op_kind::erase:
                                    rec.record(t, op_kind::erase, k,
                                               [&] { return dict->erase(k); });
                                    break;
                                default:
                                    rec.record(t, op_kind::contains, k,
                                               [&] { return dict->contains(k); });
                                    break;
                            }
                        }
                    }
                }
            });
        }
        go.store(true, std::memory_order_release);
        for (auto& th : ts) th.join();
        ASSERT_TRUE(lin::is_linearizable(rec.history))
            << "round " << round << "\n"
            << lin::describe(rec.history);
    }
}

/// Translates recorder sub-ops into one apply_batch call and returns the
/// per-op outcomes in input order.
template <typename Map>
std::vector<bool> apply_recorded_batch(
    Map& m, const std::vector<lin::recorder::batch_sub>& subs) {
    std::vector<lfll::batch_op<int, int>> ops;
    ops.reserve(subs.size());
    for (const auto& s : subs) {
        lfll::batch_op_kind k = lfll::batch_op_kind::get;
        if (s.kind == op_kind::insert) k = lfll::batch_op_kind::insert;
        if (s.kind == op_kind::erase) k = lfll::batch_op_kind::erase;
        ops.push_back({k, s.key, s.key});
    }
    std::vector<lfll::batch_result<int>> out(ops.size());
    m.apply_batch(ops.data(), ops.size(), out.data());
    std::vector<bool> res;
    res.reserve(out.size());
    for (const auto& r : out) res.push_back(r.ok);
    return res;
}

// Set-interface shims.
struct flat_shim {
    sorted_list_map<int, int> m{64};
    bool insert(int k) { return m.insert(k, k); }
    bool erase(int k) { return m.erase(k); }
    bool contains(int k) { return m.contains(k); }
    std::vector<int> range(int lo, int hi) {
        std::vector<int> out;
        for (const auto& kv : m.range_query(lo, hi)) out.push_back(kv.first);
        return out;
    }
    std::vector<bool> apply(const std::vector<lin::recorder::batch_sub>& subs) {
        return apply_recorded_batch(m, subs);
    }
};
struct hash_shim {
    hash_map<int, int> m{4, 8};
    bool insert(int k) { return m.insert(k, k); }
    bool erase(int k) { return m.erase(k); }
    bool contains(int k) { return m.contains(k); }
};
struct skip_shim {
    skip_list_map<int, int> m{128, 4};
    bool insert(int k) { return m.insert(k, k); }
    bool erase(int k) { return m.erase(k); }
    bool contains(int k) { return m.contains(k); }
    std::vector<int> range(int lo, int hi) {
        std::vector<int> out;
        for (const auto& kv : m.range_query(lo, hi)) out.push_back(kv.first);
        return out;
    }
};
struct bst_shim {
    bst_set<int> m{128};
    bool insert(int k) { return m.insert(k); }
    bool erase(int k) { return m.erase(k); }
    bool contains(int k) { return m.contains(k); }
    std::vector<int> range(int lo, int hi) { return m.range_query(lo, hi); }
};
struct so_shim {
    // Tiny directory + low max-load: resizes happen DURING the recorded
    // histories, so range queries span bucket splits.
    split_ordered_map<int, int> m{2, 32};
    bool insert(int k) { return m.insert(k, k); }
    bool erase(int k) { return m.erase(k); }
    bool contains(int k) { return m.contains(k); }
    std::vector<int> range(int lo, int hi) {
        std::vector<int> out;
        for (const auto& kv : m.range_query(lo, hi)) out.push_back(kv.first);
        return out;
    }
    std::vector<bool> apply(const std::vector<lin::recorder::batch_sub>& subs) {
        return apply_recorded_batch(m, subs);
    }
};
struct sharded_shim {
    // Batches scatter across shards and gather back into input order.
    sharded_kv<sorted_list_map<int, int>> m{
        2, [](std::size_t) { return std::make_unique<sorted_list_map<int, int>>(64); }};
    bool insert(int k) { return m.insert(k, k); }
    bool erase(int k) { return m.erase(k); }
    bool contains(int k) { return m.contains(k); }
    std::vector<bool> apply(const std::vector<lin::recorder::batch_sub>& subs) {
        return apply_recorded_batch(m, subs);
    }
};
struct hm_shim {
    harris_michael_list<int, int> m;
    bool insert(int k) { return m.insert(k, k); }
    bool erase(int k) { return m.erase(k); }
    bool contains(int k) { return m.contains(k); }
};

const int kRounds = lfll_test::scaled(200);

TEST(Linearizability, SortedListMap) {
    check_structure([] { return std::make_unique<flat_shim>(); }, kRounds);
}
TEST(Linearizability, HashMap) {
    check_structure([] { return std::make_unique<hash_shim>(); }, kRounds);
}
TEST(Linearizability, SkipListMap) {
    check_structure([] { return std::make_unique<skip_shim>(); }, kRounds);
}
TEST(Linearizability, BstSet) {
    check_structure([] { return std::make_unique<bst_shim>(); }, kRounds);
}
TEST(Linearizability, HarrisMichael) {
    check_structure([] { return std::make_unique<hm_shim>(); }, kRounds);
}

TEST(Linearizability, SortedListMapRange) {
    check_structure_rq([] { return std::make_unique<flat_shim>(); }, kRounds);
}
TEST(Linearizability, SplitOrderedMapRange) {
    check_structure_rq([] { return std::make_unique<so_shim>(); }, kRounds);
}
TEST(Linearizability, SkipListMapRange) {
    check_structure_rq([] { return std::make_unique<skip_shim>(); }, kRounds);
}
TEST(Linearizability, BstSetRange) {
    check_structure_rq([] { return std::make_unique<bst_shim>(); }, kRounds);
}

// Batched multi-ops: each sub-op of an apply_batch call must linearize
// individually inside the call's window (record_batch), racing single
// ops and other batches. The split-ordered shim keeps its tiny directory
// so batches span live resizes.
TEST(Linearizability, SortedListMapBatched) {
    check_structure_batched([] { return std::make_unique<flat_shim>(); },
                            kRounds);
}
TEST(Linearizability, SplitOrderedMapBatched) {
    check_structure_batched([] { return std::make_unique<so_shim>(); },
                            kRounds);
}
TEST(Linearizability, ShardedKvBatched) {
    check_structure_batched([] { return std::make_unique<sharded_shim>(); },
                            kRounds);
}

}  // namespace
