// Dictionary workload generation: operation mixes and key distributions.
//
// All experiments drive dictionaries through this one loop so that every
// structure sees byte-identical operation streams for a given seed.
#pragma once

#include <atomic>
#include <cstdint>

#include "lfll/primitives/rng.hpp"
#include "lfll/primitives/zipf.hpp"

namespace lfll::harness {

struct op_mix {
    int find_pct = 80;
    int insert_pct = 10;
    int erase_pct = 10;

    static op_mix read_heavy() { return {90, 5, 5}; }
    static op_mix mixed() { return {50, 25, 25}; }
    static op_mix write_only() { return {0, 50, 50}; }
    static op_mix update_heavy() { return {50, 50, 0}; }
};

/// Keeps a benchmark result alive: an empty asm that takes the value's
/// address and clobbers memory, so the compiler must materialize `v` —
/// and therefore run the call that produced it. Without it a locked
/// baseline's find, whose only other effect is a mutex round-trip, has
/// its whole walk deleted as dead code. Every driver's lookups and every
/// bench's timed result go through this one sink.
template <typename T>
inline void consume(const T& v) noexcept {
    asm volatile("" : : "r"(&v) : "memory");
}

/// Fills the map to ~50% occupancy of the key range (every even key), so
/// finds hit half the time and insert/erase both have work to do.
template <typename Map>
void prefill(Map& m, std::uint64_t key_range) {
    for (std::uint64_t k = 0; k < key_range; k += 2) {
        m.insert(static_cast<int>(k), static_cast<int>(k));
    }
}

/// One worker's benchmark loop over a map with insert(k,v)/erase(k)/find(k).
/// Returns completed operations. Uniform keys.
template <typename Map>
std::uint64_t dict_worker(Map& m, const op_mix& mix, std::uint64_t key_range, int thread_id,
                          std::atomic<bool>& stop) {
    xorshift64 rng(0x12340000ULL + static_cast<std::uint64_t>(thread_id) * 7919);
    std::uint64_t ops = 0;
    while (!stop.load(std::memory_order_relaxed)) {
        const int k = static_cast<int>(rng.next_below(key_range));
        const int pick = static_cast<int>(rng.next_below(100));
        if (pick < mix.find_pct) {
            consume(m.find(k));
        } else if (pick < mix.find_pct + mix.insert_pct) {
            (void)m.insert(k, k);
        } else {
            (void)m.erase(k);
        }
        ++ops;
    }
    return ops;
}

/// As dict_worker, with Zipf-distributed keys (hot-spot contention).
template <typename Map>
std::uint64_t dict_worker_zipf(Map& m, const op_mix& mix, const zipf_generator& zipf,
                               int thread_id, std::atomic<bool>& stop) {
    xorshift64 rng(0x56780000ULL + static_cast<std::uint64_t>(thread_id) * 104729);
    std::uint64_t ops = 0;
    while (!stop.load(std::memory_order_relaxed)) {
        const int k = static_cast<int>(zipf(rng));
        const int pick = static_cast<int>(rng.next_below(100));
        if (pick < mix.find_pct) {
            consume(m.find(k));
        } else if (pick < mix.find_pct + mix.insert_pct) {
            (void)m.insert(k, k);
        } else {
            (void)m.erase(k);
        }
        ++ops;
    }
    return ops;
}

/// A complete request shape: an operation mix plus a key distribution
/// (theta == 0 means uniform; anything else is Zipf with that skew). The
/// named presets are the YCSB-flavoured vocabulary every bench shares, so
/// "zipf99" in E4's skew sweep, E10's service report, and a CI smoke row
/// all mean byte-identical request streams for a given seed.
struct request_mix {
    const char* name = "uniform";
    op_mix ops{};
    double zipf_theta = 0.0;

    bool zipfian() const noexcept { return zipf_theta > 0.0; }

    /// 50/25/25 over uniform keys (the default dict_worker shape).
    static request_mix uniform() { return {"uniform", op_mix::mixed(), 0.0}; }
    /// 50/25/25 over the classic YCSB skew (theta 0.99): hot keys, and
    /// under a resizable map, continuous growth pressure on a few buckets.
    static request_mix zipf99() { return {"zipf99", op_mix::mixed(), 0.99}; }
    /// 90/5/5 uniform — YCSB-B-shaped read-mostly serving.
    static request_mix read_heavy() { return {"read_heavy", op_mix::read_heavy(), 0.0}; }
    /// 0/50/50 uniform — churn; exercises resize + reclamation hardest.
    static request_mix write_heavy() { return {"write_heavy", op_mix::write_only(), 0.0}; }
    /// 50/50/0 uniform — YCSB-A-shaped read/update: half the requests
    /// are writes against mostly-present keys (no erase churn), so CAS
    /// retries and find-then-fail inserts dominate — the contention
    /// shape the profiler's cas_retry attribution exists to explain.
    static request_mix update_heavy() { return {"update_heavy", op_mix::update_heavy(), 0.0}; }

    static const request_mix* all(std::size_t& count) {
        static const request_mix presets[] = {uniform(), zipf99(), read_heavy(),
                                              update_heavy(), write_heavy()};
        count = sizeof(presets) / sizeof(presets[0]);
        return presets;
    }
};

/// Preset-dispatching worker: routes to dict_worker or dict_worker_zipf
/// so callers write one loop per bench, not one per distribution.
template <typename Map>
std::uint64_t dict_worker_mix(Map& m, const request_mix& mix, std::uint64_t key_range,
                              int thread_id, std::atomic<bool>& stop) {
    if (mix.zipfian()) {
        const zipf_generator zipf(key_range, mix.zipf_theta);
        return dict_worker_zipf(m, mix.ops, zipf, thread_id, stop);
    }
    return dict_worker(m, mix.ops, key_range, thread_id, stop);
}

}  // namespace lfll::harness
