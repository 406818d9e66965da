// Server-shaped KV harness: N client threads driving a (sharded)
// dictionary through a named request mix, with per-op latency sampling
// and live per-shard telemetry — the shape of the "millions of users"
// deployment the ROADMAP's north star describes, shrunk to a bench cell.
//
// What it adds over run_timed():
//  * clients issue get/put/del per a request_mix preset (workload.hpp),
//    so E10's rows and CI's smoke speak the YCSB-flavoured vocabulary;
//  * every 2^sample_shift-th request is timed into a latency_sink
//    reservoir (p50/p99 come out of the report);
//  * a coordinator samples per-shard gauges while clients run —
//    lfll_kv_shard_{size,buckets,pool_free,pool_capacity}{shard="i"} —
//    so a live exporter (LFLL_TELEMETRY) or lfll_top shows shards
//    filling and the split-ordered directories doubling in real time;
//  * the report captures resize activity (buckets before/after, grow/
//    shrink counts) to assert growth happened *while* clients ran —
//    the "no stop-the-world" acceptance is that ops_per_sec stays
//    healthy and p99 stays bounded across those windows.
//
// The Store is duck-typed: anything with insert/erase/find plus
// shard_count()/shard_at(i) (sharded_kv). Per-shard stats degrade
// gracefully — stats a map type lacks (e.g. the fixed hash_map has no
// grow_count) simply read as zero, so fixed-vs-resizable A/B runs share
// this one harness.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "lfll/harness/latency.hpp"
#include "lfll/harness/pipeline.hpp"
#include "lfll/harness/runner.hpp"
#include "lfll/harness/stats.hpp"
#include "lfll/harness/workload.hpp"
#include "lfll/primitives/rng.hpp"
#include "lfll/primitives/zipf.hpp"
#include "lfll/telemetry/metrics.hpp"
#include "lfll/telemetry/profiler.hpp"

namespace lfll::harness {

struct kv_service_config {
    int clients = 4;
    int millis = 200;
    std::uint64_t key_range = std::uint64_t{1} << 16;
    request_mix mix = request_mix::zipf99();
    /// Latency sampling: every 2^shift-th request is timed.
    std::uint32_t sample_shift = 4;
    /// Per-shard gauge sampling cadence while clients run.
    int telemetry_interval_ms = 25;
    /// Pipelined mode: 0 (default) = the classic one-op-per-call path;
    /// W > 0 = each client submits W async requests through a
    /// request_pipeline and then completes the window, so shard
    /// executors see real batches. Ignored (falls back to one-op-per-
    /// call) when the store's shard maps lack apply_batch.
    std::size_t pipeline_window = 0;
    /// Executor knobs for pipelined mode (batch_max / batch_wait_us /
    /// ring capacity; defaults follow LFLL_BATCH_MAX / LFLL_BATCH_WAIT_US).
    pipeline_config pipeline{};
    /// 0 = closed-loop saturation (clients issue as fast as the store
    /// answers). >0 = open-loop: clients collectively pace to this many
    /// logical ops/s, sleeping between requests (or submit windows), so
    /// latency is measured at EQUAL OFFERED LOAD across submission modes
    /// — at saturation, p99 only reflects how many requests each mode
    /// keeps in flight (Little's law), not how well it serves them.
    std::uint64_t pace_ops_per_sec = 0;
};

struct kv_report {
    run_result run;                 ///< throughput + instrumentation delta
    summary latency_ns;             ///< over the sampled reservoir
    std::size_t shards = 0;
    std::size_t buckets_before = 0;  ///< summed across shards
    std::size_t buckets_after = 0;
    std::uint64_t grows = 0;         ///< resize events during the run
    std::uint64_t shrinks = 0;
    std::uint64_t dummies = 0;       ///< buckets lazily initialized
    std::size_t size_after = 0;      ///< live entries at quiescence
    /// Logical ops per client call into the store: 1.0 on the classic
    /// path, the submit window in pipelined mode. run.total_ops counts
    /// LOGICAL ops in both modes, so throughput rows divide out
    /// comparably; this field records how they were submitted.
    double ops_per_request = 1.0;
    /// Sampled-profiler phase attribution over this run: per-phase count,
    /// total ns, and p50/p99 ns across the sampled requests. Empty when
    /// the profiler is disabled or nothing was sampled in the window.
    std::vector<telemetry::prof::phase_stat> phases;

    double growth_factor() const {
        return buckets_before == 0 ? 0.0
                                   : static_cast<double>(buckets_after) /
                                         static_cast<double>(buckets_before);
    }
};

namespace kv_detail {

/// Stats shards may or may not expose; absent ones read as zero so the
/// fixed hash_map runs under the same harness as the resizable map.
template <typename Map>
std::size_t buckets_of(const Map& m) {
    if constexpr (requires { m.bucket_count(); }) return m.bucket_count();
    return 0;
}
template <typename Map>
std::uint64_t grows_of(const Map& m) {
    if constexpr (requires { m.grow_count(); }) return m.grow_count();
    return 0;
}
template <typename Map>
std::uint64_t shrinks_of(const Map& m) {
    if constexpr (requires { m.shrink_count(); }) return m.shrink_count();
    return 0;
}
template <typename Map>
std::uint64_t dummies_of(const Map& m) {
    if constexpr (requires { m.dummy_count(); }) return m.dummy_count();
    return 0;
}
template <typename Map>
std::int64_t approx_size_of(const Map& m) {
    if constexpr (requires { m.size_approx(); }) return m.size_approx();
    return 0;
}

/// Resolved per-shard gauge handles (resolve once, set every tick).
struct shard_gauges {
    telemetry::gauge* size;
    telemetry::gauge* buckets;
    telemetry::gauge* pool_capacity;
    telemetry::gauge* pool_free;
};

inline shard_gauges resolve_shard_gauges(std::size_t shard) {
    auto& reg = telemetry::registry::global();
    const std::string label = "shard=\"" + std::to_string(shard) + "\"";
    return {&reg.get_gauge("lfll_kv_shard_size", label),
            &reg.get_gauge("lfll_kv_shard_buckets", label),
            &reg.get_gauge("lfll_kv_shard_pool_capacity", label),
            &reg.get_gauge("lfll_kv_shard_pool_free", label)};
}

template <typename Map>
void sample_shard(const Map& m, const shard_gauges& g) {
    g.size->set(approx_size_of(m));
    g.buckets->set(static_cast<std::int64_t>(buckets_of(m)));
    if constexpr (requires { m.pool(); }) {
        g.pool_capacity->set(static_cast<std::int64_t>(m.pool().capacity()));
        g.pool_free->set(static_cast<std::int64_t>(m.pool().free_count()));
    }
}

/// Open-loop pacing: spaces one client's issue points so the fleet
/// collectively offers pace_ops_per_sec logical ops. The schedule is
/// absolute (next += period) so sleep overshoot does not accumulate,
/// but a backlog deeper than a few periods resets to "now" — a stalled
/// client must not repay its debt as a burst that re-saturates the
/// store and poisons the equal-load comparison.
struct pacer {
    std::chrono::nanoseconds period{0};
    std::chrono::steady_clock::time_point next{};

    pacer(std::uint64_t ops_per_sec, int clients, std::uint64_t ops_per_tick,
          int phase = 0) {
        if (ops_per_sec == 0) return;
        const int n = clients < 1 ? 1 : clients;
        const double per_client_hz =
            static_cast<double>(ops_per_sec) / static_cast<double>(n);
        period = std::chrono::nanoseconds(static_cast<std::uint64_t>(
            1e9 * static_cast<double>(ops_per_tick) / per_client_hz));
        // Stagger the fleet across one period: clients all start at the
        // same instant, so a shared phase would fire every issue point
        // as one synchronized burst and measure convoy latency instead
        // of the offered load.
        next = std::chrono::steady_clock::now() + (period * phase) / n;
    }

    void tick() {
        if (period.count() == 0) return;
        next += period;
        const auto now = std::chrono::steady_clock::now();
        if (next + 4 * period < now) {
            next = now;  // cap the catch-up backlog
        } else if (next > now) {
            std::this_thread::sleep_until(next);
        }
    }
};

}  // namespace kv_detail

/// Drives `store` with cfg.clients request threads for cfg.millis, per
/// cfg.mix. Returns throughput, latency order statistics, and the resize
/// activity observed across the run.
template <typename Store>
kv_report run_kv_service(Store& store, const kv_service_config& cfg) {
    using key_type = typename Store::key_type;
    kv_report rep;
    rep.shards = store.shard_count();
    std::vector<kv_detail::shard_gauges> gauges;
    gauges.reserve(rep.shards);
    std::uint64_t grows0 = 0, shrinks0 = 0, dummies0 = 0;
    for (std::size_t i = 0; i < rep.shards; ++i) {
        gauges.push_back(kv_detail::resolve_shard_gauges(i));
        rep.buckets_before += kv_detail::buckets_of(store.shard_at(i));
        grows0 += kv_detail::grows_of(store.shard_at(i));
        shrinks0 += kv_detail::shrinks_of(store.shard_at(i));
        dummies0 += kv_detail::dummies_of(store.shard_at(i));
    }

    latency_sink sink;
    // One CDF, shared read-only by every client (it is O(key_range) to
    // build — per-thread copies would dominate short runs). Uniform runs
    // skip the build entirely.
    std::optional<zipf_generator> zipf;
    if (cfg.mix.zipfian()) zipf.emplace(cfg.key_range, cfg.mix.zipf_theta);

    // Per-shard gauge sampler: runs alongside the clients, stopped after
    // run_timed() returns (then samples once more so the final state is
    // what an exporter flush publishes).
    std::atomic<bool> sampler_stop{false};
    std::thread sampler([&] {
        for (;;) {
            for (std::size_t i = 0; i < rep.shards; ++i) {
                kv_detail::sample_shard(store.shard_at(i), gauges[i]);
            }
            if (sampler_stop.load(std::memory_order_acquire)) return;
            std::this_thread::sleep_for(
                std::chrono::milliseconds(cfg.telemetry_interval_ms));
        }
    });

    const op_mix mix = cfg.mix.ops;
    // Snapshot the profiler's phase histograms so the report's attribution
    // covers exactly this run, not whatever ran before it in the process.
    telemetry::prof::phase_delta prof_delta;

    // The classic one-op-per-call client.
    auto direct_worker = [&](int tid, std::atomic<bool>& stop) {
        xorshift64 rng(0xABCD0000ULL + static_cast<std::uint64_t>(tid) * 48271);
        latency_sampler lat(sink, cfg.sample_shift);
        kv_detail::pacer pace(cfg.pace_ops_per_sec, cfg.clients, 1, tid);
        std::uint64_t ops = 0;
        while (!stop.load(std::memory_order_relaxed)) {
            pace.tick();
            const std::uint64_t k64 =
                zipf.has_value() ? (*zipf)(rng) : rng.next_below(cfg.key_range);
            const auto k = static_cast<key_type>(k64);
            const int pick = static_cast<int>(rng.next_below(100));
            {
                auto g = lat.measure();
                if (pick < mix.find_pct) {
                    consume(store.find(k));
                } else if (pick < mix.find_pct + mix.insert_pct) {
                    (void)store.insert(k, static_cast<typename Store::mapped_type>(k));
                } else {
                    (void)store.erase(k);
                }
            }
            ++ops;
        }
        return ops;
    };

    // Pipelined mode needs shard maps with apply_batch; stores without it
    // (the fixed hash_map A/B rows) transparently keep the classic path.
    constexpr bool batchable = requires {
        std::declval<Store&>().shard_at(std::size_t{0}).apply_batch(
            static_cast<const batch_op<key_type, typename Store::mapped_type>*>(
                nullptr),
            std::size_t{0},
            static_cast<batch_result<typename Store::mapped_type>*>(nullptr));
    };
    if constexpr (batchable) {
        if (cfg.pipeline_window > 0) {
            const std::size_t window = cfg.pipeline_window;
            rep.ops_per_request = static_cast<double>(window);
            request_pipeline<Store> pipe(store, cfg.pipeline);
            rep.run =
                run_timed(cfg.clients, cfg.millis, [&](int tid, std::atomic<bool>& stop) {
                    using pipe_type = request_pipeline<Store>;
                    xorshift64 rng(0xABCD0000ULL +
                                   static_cast<std::uint64_t>(tid) * 48271);
                    latency_sampler lat(sink, cfg.sample_shift);
                    kv_detail::pacer pace(cfg.pace_ops_per_sec, cfg.clients,
                                          window, tid);
                    std::vector<typename pipe_type::request> slots(window);
                    std::uint64_t ops = 0;
                    while (!stop.load(std::memory_order_relaxed)) {
                        pace.tick();
                        {
                            // The sampled latency is the window HEAD's true
                            // request latency: submit -> completion, queueing
                            // and drain included (the guard closes right
                            // after slot 0's wait).
                            auto g = lat.measure();
                            for (std::size_t w = 0; w < window; ++w) {
                                const std::uint64_t k64 =
                                    zipf.has_value() ? (*zipf)(rng)
                                                     : rng.next_below(cfg.key_range);
                                const auto k = static_cast<key_type>(k64);
                                const int pick = static_cast<int>(rng.next_below(100));
                                batch_op_kind kind;
                                if (pick < mix.find_pct) {
                                    kind = batch_op_kind::get;
                                } else if (pick < mix.find_pct + mix.insert_pct) {
                                    kind = batch_op_kind::insert;
                                } else {
                                    kind = batch_op_kind::erase;
                                }
                                // No executor wake: this worker completes
                                // the window itself (inline drain), so
                                // waking an executor only adds a switch.
                                pipe.submit(
                                    slots[w], kind, k,
                                    static_cast<typename Store::mapped_type>(k),
                                    /*wake=*/false);
                            }
                            pipe.complete(slots[0]);
                        }
                        for (std::size_t w = 1; w < window; ++w) pipe.complete(slots[w]);
                        ops += window;
                    }
                    return ops;
                });
        } else {
            rep.run = run_timed(cfg.clients, cfg.millis, direct_worker);
        }
    } else {
        rep.run = run_timed(cfg.clients, cfg.millis, direct_worker);
    }

    sampler_stop.store(true, std::memory_order_release);
    sampler.join();

    for (std::size_t i = 0; i < rep.shards; ++i) {
        const auto& m = store.shard_at(i);
        rep.buckets_after += kv_detail::buckets_of(m);
        rep.grows += kv_detail::grows_of(m);
        rep.shrinks += kv_detail::shrinks_of(m);
        rep.dummies += kv_detail::dummies_of(m);
    }
    rep.grows -= grows0;
    rep.shrinks -= shrinks0;
    rep.dummies -= dummies0;
    rep.size_after = store.size_slow();
    rep.latency_ns = sink.summarize_ns();
    rep.phases = prof_delta.stats();
    return rep;
}

}  // namespace lfll::harness
