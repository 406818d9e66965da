// E4 — hash-table dictionary (§4.1): "if we assume that the hash function
// evenly distributes the operations across the lists, then we would
// expect the extra work done to be O(1)."
//
// Three views:
//  1. retries/op vs. threads for a well-provisioned table — must stay
//     near zero (contrast with E3's flat list).
//  2. throughput vs. bucket count at fixed threads — one bucket
//     degenerates to E3's list; more buckets dilute contention AND
//     shorten chains.
//  3. uniform vs. Zipf keys — what happens when the even-distribution
//     assumption fails.
//  4. (E4c) split-ordered find cost per reclamation policy at 1 thread,
//     on maps several times larger than L2, where every node a find
//     reads past its stop cell costs a miss; such over-reads show as
//     hops/find above cells/find. Each row is the median (and IQR) of
//     five timing windows taken in alternating policy order.
#include <memory>
#include <vector>

#include "bench_common.hpp"
#include "lfll/baseline/locked_hash_map.hpp"
#include "lfll/dict/hash_map.hpp"
#include "lfll/dict/split_ordered_map.hpp"
#include "lfll/primitives/zipf.hpp"
#include "lfll/reclaim/epoch_policy.hpp"

namespace {

using namespace bench;
using namespace lfll;
using lfll::harness::dict_worker_zipf;

void sweep_p(std::uint64_t keys, int millis) {
    const op_mix mix = op_mix::mixed();
    table t({"structure", "threads", "ops/s", "retries/op", "cells/op"});
    for (int threads : thread_counts()) {
        hash_map<int, int> map(256, 16);
        prefill(map, keys);
        auto res = run_timed(threads, millis, [&](int tid, std::atomic<bool>& stop) {
            return dict_worker(map, mix, keys, tid, stop);
        });
        t.add_row({"lockfree-hash256", std::to_string(threads), fmt_si(res.ops_per_sec),
                   fmt_fixed(res.per_op(res.counters.insert_retries +
                                        res.counters.delete_retries),
                             5),
                   fmt_fixed(res.per_op(res.counters.cells_traversed), 2)});
    }
    for (int threads : thread_counts()) {
        locked_hash_map<int, int> map(256);
        prefill(map, keys);
        auto res = run_timed(threads, millis, [&](int tid, std::atomic<bool>& stop) {
            return dict_worker(map, mix, keys, tid, stop);
        });
        t.add_row({"locked-hash256", std::to_string(threads), fmt_si(res.ops_per_sec), "-",
                   "-"});
    }
    emit("E4 hash table extra work vs p, " + std::to_string(keys) + " keys", t);
}

void sweep_buckets(std::uint64_t keys, int threads, int millis) {
    const op_mix mix = op_mix::mixed();
    table t({"buckets", "ops/s", "retries/op", "cells/op"});
    for (std::size_t buckets : {1u, 4u, 16u, 64u, 256u}) {
        hash_map<int, int> map(buckets, 1 + keys / buckets);
        prefill(map, keys);
        auto res = run_timed(threads, millis, [&](int tid, std::atomic<bool>& stop) {
            return dict_worker(map, mix, keys, tid, stop);
        });
        t.add_row({std::to_string(buckets), fmt_si(res.ops_per_sec),
                   fmt_fixed(res.per_op(res.counters.insert_retries +
                                        res.counters.delete_retries),
                             5),
                   fmt_fixed(res.per_op(res.counters.cells_traversed), 2)});
    }
    emit("E4 throughput vs buckets, " + std::to_string(keys) + " keys, " +
             std::to_string(threads) + " threads",
         t);
}

void skew(std::uint64_t keys, int threads, int millis) {
    const op_mix mix = op_mix::mixed();
    table t({"distribution", "ops/s", "retries/op"});
    for (double theta : {0.0, 0.9, 1.2}) {
        hash_map<int, int> map(256, 16);
        prefill(map, keys);
        zipf_generator zipf(keys, theta);
        auto res = run_timed(threads, millis, [&](int tid, std::atomic<bool>& stop) {
            return dict_worker_zipf(map, mix, zipf, tid, stop);
        });
        t.add_row({theta == 0.0 ? "uniform" : ("zipf-" + fmt_fixed(theta, 1)),
                   fmt_si(res.ops_per_sec),
                   fmt_fixed(res.per_op(res.counters.insert_retries +
                                        res.counters.delete_retries),
                             5)});
    }
    emit("E4 key-distribution skew, 256 buckets, " + std::to_string(threads) + " threads", t);
}

// Fixed slab vs split-ordered resizable, same workload. Two regimes:
// both tables sized right (the resizable design's overhead: dummy cells
// on the walk, the directory indirection), and both started at 8 buckets
// (where "fixed" means long chains forever and "resizable" splits out).
void fixed_vs_resizable(std::uint64_t keys, int threads, int millis) {
    const op_mix mix = op_mix::mixed();
    table t({"structure", "ops/s", "retries/op", "cells/op", "buckets end"});
    auto run_map = [&](const std::string& name, auto& map) {
        prefill(map, keys);
        auto res = run_timed(threads, millis, [&](int tid, std::atomic<bool>& stop) {
            return dict_worker(map, mix, keys, tid, stop);
        });
        t.add_row({name, fmt_si(res.ops_per_sec),
                   fmt_fixed(res.per_op(res.counters.insert_retries +
                                        res.counters.delete_retries),
                             5),
                   fmt_fixed(res.per_op(res.counters.cells_traversed), 2),
                   std::to_string(map.bucket_count())});
    };
    {
        hash_map<int, int> map(256, 16);
        run_map("fixed-256", map);
    }
    {
        split_ordered_map<int, int> map(256, 4096);
        run_map("so-256", map);
    }
    {
        hash_map<int, int> map(8, 512);
        run_map("fixed-8", map);
    }
    {
        split_ordered_map<int, int> map(8, 4096);
        run_map("so-8", map);
    }
    emit("E4b fixed vs resizable, " + std::to_string(keys) + " keys, " +
             std::to_string(threads) + " threads",
         t);
}

/// Timing windows per E4c row. One 150 ms window per policy cannot
/// separate policies closer than ~40% on a shared host, so each row is
/// the median of several windows whose policy order alternates.
constexpr int kE4cReps = 5;

/// One E4c row: a prefilled map under one policy and its per-window
/// ns/find samples.
template <typename Policy>
struct so_find_cell {
    split_ordered_map<int, int, std::hash<int>, std::less<int>, Policy> map;
    std::uint64_t entries;
    std::vector<double> ns_per_find;
    std::uint64_t ops = 0, hops = 0, cells = 0;

    explicit so_find_cell(std::uint64_t n) : entries(n) { prefill(map, 2 * n); }

    void measure(int millis) {
        auto res = run_timed(1, millis, [&](int tid, std::atomic<bool>& stop) {
            return dict_worker(map, op_mix{100, 0, 0}, 2 * entries, tid, stop);
        });
        ns_per_find.push_back(1e9 / res.ops_per_sec);
        ops += res.total_ops;
        hops += res.counters.traverse_hops;
        cells += res.counters.cells_traversed;
    }

    void add_row(table& t) const {
        const spread ns = median_iqr(ns_per_find);
        const auto per_op = [&](std::uint64_t c) {
            return ops == 0 ? 0.0 : static_cast<double>(c) / static_cast<double>(ops);
        };
        t.add_row({Policy::name, std::to_string(entries), std::to_string(map.bucket_count()),
                   fmt_fixed(ns.median, 0), fmt_fixed(ns.iqr, 0), fmt_fixed(per_op(hops), 2),
                   fmt_fixed(per_op(cells), 2)});
    }
};

void so_find_by_policy(int millis) {
    table t({"policy", "entries", "buckets", "ns/find", "iqr ns", "hops/find",
             "cells/find"});
    for (std::uint64_t entries : {25'000u, 100'000u}) {
        so_find_cell<valois_refcount> counted(entries);
        so_find_cell<epoch_policy> epochs(entries);
        for (int rep = 0; rep < kE4cReps; ++rep) {
            if (rep % 2 == 0) {
                counted.measure(millis);
                epochs.measure(millis);
            } else {
                epochs.measure(millis);
                counted.measure(millis);
            }
        }
        counted.add_row(t);
        epochs.add_row(t);
    }
    emit("E4c split-ordered find by policy, 1 thread, uniform hit/miss 50/50, median of " +
             std::to_string(kE4cReps) + " alternating reps",
         t);
}

}  // namespace

int main() {
    bench::telemetry_session telemetry("bench_e4_hash");
    const int millis = bench_millis(150);
    sweep_p(4096, millis);
    sweep_buckets(1024, 4, millis);
    skew(4096, 4, millis);
    fixed_vs_resizable(4096, 4, millis);
    so_find_by_policy(millis);
    return 0;
}
