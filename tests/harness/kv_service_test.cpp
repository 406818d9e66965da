// KV service harness: request-mix presets, per-shard telemetry, the
// growth-under-load report the E10 acceptance relies on, and the
// client-batched mode's logical-op accounting.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <type_traits>

#include "lfll/core/audit.hpp"
#include "lfll/dict/hash_map.hpp"
#include "lfll/dict/sharded_kv.hpp"
#include "lfll/harness/kv_service.hpp"
#include "lfll/telemetry/metrics.hpp"
#include "test_scale.hpp"

namespace {

using namespace lfll;
using harness::kv_report;
using harness::kv_service_config;
using harness::request_mix;
using harness::run_kv_service;

TEST(RequestMix, PresetsCoverTheYcsbVocabulary) {
    std::size_t n = 0;
    const request_mix* all = request_mix::all(n);
    ASSERT_EQ(n, 5u);
    EXPECT_STREQ(all[0].name, "uniform");
    EXPECT_FALSE(all[0].zipfian());
    EXPECT_STREQ(all[1].name, "zipf99");
    EXPECT_TRUE(all[1].zipfian());
    EXPECT_DOUBLE_EQ(all[1].zipf_theta, 0.99);
    EXPECT_EQ(all[2].ops.find_pct, 90);
    EXPECT_STREQ(all[3].name, "update_heavy");  // YCSB-A: 50/50/0, no erase
    EXPECT_EQ(all[3].ops.find_pct, 50);
    EXPECT_EQ(all[3].ops.erase_pct, 0);
    EXPECT_EQ(all[4].ops.find_pct, 0);
    for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(all[i].ops.find_pct + all[i].ops.insert_pct + all[i].ops.erase_pct,
                  100)
            << all[i].name;
    }
}

TEST(KvService, ReportsGrowthUnderZipfLoad) {
    split_ordered_config cfg;
    cfg.initial_buckets = 4;
    cfg.capacity_hint = 64;
    cfg.max_load = 2.0;
    cfg.resize_check_period = 1;
    auto store = make_sharded_kv<int, int>(2, cfg);

    kv_service_config sc;
    sc.clients = 4;
    sc.millis = lfll_test::scaled_min(150, 60);
    sc.key_range = 1 << 14;
    sc.mix = request_mix{"grow", {10, 80, 10}, 0.99};
    const kv_report rep = run_kv_service(store, sc);

    EXPECT_GT(rep.run.total_ops, 0u);
    EXPECT_EQ(rep.shards, 2u);
    EXPECT_EQ(rep.buckets_before, 8u);  // 2 shards x 4 buckets
    // Insert-heavy Zipf over 16k keys must trigger splits in-flight.
    EXPECT_GT(rep.grows, 0u);
    EXPECT_GT(rep.buckets_after, rep.buckets_before);
    EXPECT_GT(rep.dummies, 0u);
    EXPECT_EQ(rep.size_after, store.size_slow());
    // Latency sampling produced a usable reservoir.
    EXPECT_GT(rep.latency_ns.n, 0u);
    EXPECT_GE(rep.latency_ns.p99, rep.latency_ns.p50);
}

TEST(KvService, PublishesPerShardGauges) {
    split_ordered_config cfg;
    cfg.initial_buckets = 8;
    auto store = make_sharded_kv<int, int>(2, cfg);
    kv_service_config sc;
    sc.clients = 2;
    sc.millis = lfll_test::scaled_min(80, 40);
    sc.key_range = 1 << 12;
    sc.mix = request_mix::uniform();
    (void)run_kv_service(store, sc);

    auto& reg = telemetry::registry::global();
    for (std::size_t s = 0; s < 2; ++s) {
        const std::string label = "shard=\"" + std::to_string(s) + "\"";
        EXPECT_GT(reg.get_gauge("lfll_kv_shard_buckets", label).value(), 0)
            << "shard " << s;
        EXPECT_GT(reg.get_gauge("lfll_kv_shard_pool_capacity", label).value(), 0)
            << "shard " << s;
    }
}

TEST(KvService, FixedMapRunsUnderTheSameHarness) {
    // The fixed slab lacks grow_count/size_approx; stats degrade to zero
    // but the harness itself must run unchanged (A/B requirement).
    sharded_kv<hash_map<int, int>> store(2, [](std::size_t) {
        return std::make_unique<hash_map<int, int>>(64, 16);
    });
    kv_service_config sc;
    sc.clients = 2;
    sc.millis = lfll_test::scaled_min(80, 40);
    sc.key_range = 1 << 12;
    sc.mix = request_mix::read_heavy();
    const kv_report rep = run_kv_service(store, sc);
    EXPECT_GT(rep.run.total_ops, 0u);
    EXPECT_EQ(rep.grows, 0u);
    EXPECT_EQ(rep.buckets_after, 128u);  // 2 shards x 64 fixed buckets
}

TEST(KvService, BatchWindowCountsLogicalOps) {
    // Client-batched mode: each client call is one apply_batch over an
    // 8-op window, and run.total_ops counts the ops, not the calls.
    split_ordered_config cfg;
    cfg.initial_buckets = 4;
    cfg.capacity_hint = 256;
    auto store = make_sharded_kv<int, int>(2, cfg);
    kv_service_config sc;
    sc.clients = 2;
    sc.millis = lfll_test::scaled_min(80, 40);
    sc.key_range = 1 << 10;
    sc.mix = request_mix{"churn", {40, 30, 30}, 0.0};
    sc.batch_window = 8;
    const kv_report rep = run_kv_service(store, sc);
    EXPECT_DOUBLE_EQ(rep.ops_per_request, 8.0);
    EXPECT_GT(rep.run.total_ops, 0u);
    EXPECT_EQ(rep.run.total_ops % 8, 0u);
    EXPECT_EQ(rep.size_after, store.size_slow());
    EXPECT_GT(rep.latency_ns.n, 0u);
    for (std::size_t s = 0; s < store.shard_count(); ++s) {
        auto& m = store.shard_at(s);
        using map_t = std::remove_reference_t<decltype(m)>;
        m.list().pool().drain_retired();
        std::map<const typename map_t::node*, std::size_t> external;
        m.for_each_bucket_slot(
            [&](std::size_t, typename map_t::node* d) { external[d] += 1; });
        const audit_report r = audit_list(m.list(), external);
        EXPECT_TRUE(r.ok) << "shard " << s << ": " << r.error;
    }
}

}  // namespace
