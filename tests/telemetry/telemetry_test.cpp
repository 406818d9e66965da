// Telemetry subsystem: registry primitives, exporter formats, the trace
// round-trip, and the policy-health gauges typed over both memory
// policies.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "lfll/baseline/harris_michael_list.hpp"
#include "lfll/dict/sorted_list_map.hpp"
#include "lfll/memory/policy.hpp"
#include "lfll/primitives/instrument.hpp"
#include "lfll/reclaim/epoch_policy.hpp"
#include "lfll/telemetry/exporter.hpp"
#include "lfll/telemetry/metrics.hpp"
#include "lfll/telemetry/trace.hpp"

namespace {

using namespace lfll::telemetry;

// ---------------------------------------------------------------- counter

TEST(Counter, FoldsConcurrentShardedAdds) {
    counter c;
    constexpr int kThreads = 8;
    constexpr std::uint64_t kPerThread = 10000;
    std::vector<std::thread> ts;
    for (int t = 0; t < kThreads; ++t) {
        ts.emplace_back([&c] {
            for (std::uint64_t i = 0; i < kPerThread; ++i) c.inc();
        });
    }
    for (auto& th : ts) th.join();
    EXPECT_EQ(c.value(), kThreads * kPerThread);
    c.clear();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Gauge, SetAddValue) {
    gauge g;
    EXPECT_EQ(g.value(), 0);
    g.set(42);
    EXPECT_EQ(g.value(), 42);
    g.add(-50);
    EXPECT_EQ(g.value(), -8);
}

// -------------------------------------------------------------- histogram

TEST(Histogram, BucketBoundaries) {
    // Bucket b holds values of bit width b: 0 -> 0, [2^(b-1), 2^b - 1] -> b.
    EXPECT_EQ(histogram::bucket_of(0), 0);
    EXPECT_EQ(histogram::bucket_of(1), 1);
    EXPECT_EQ(histogram::bucket_of(2), 2);
    EXPECT_EQ(histogram::bucket_of(3), 2);
    EXPECT_EQ(histogram::bucket_of(4), 3);
    EXPECT_EQ(histogram::bucket_of(1023), 10);
    EXPECT_EQ(histogram::bucket_of(1024), 11);
    EXPECT_EQ(histogram::bucket_of(~std::uint64_t{0}), 63);

    EXPECT_EQ(histogram::bucket_bound(0), 0u);
    EXPECT_EQ(histogram::bucket_bound(1), 1u);
    EXPECT_EQ(histogram::bucket_bound(10), 1023u);
    EXPECT_EQ(histogram::bucket_bound(63), ~std::uint64_t{0});

    // Every bucket's bound is exactly the largest value it accepts.
    for (int b = 0; b < histogram::bucket_count - 1; ++b) {
        EXPECT_EQ(histogram::bucket_of(histogram::bucket_bound(b)), b);
        EXPECT_EQ(histogram::bucket_of(histogram::bucket_bound(b) + 1), b + 1);
    }
}

TEST(Histogram, RecordCountSumBuckets) {
    histogram h;
    h.record(0);
    h.record(1);
    h.record(5);    // bucket 3 ([4,7])
    h.record(5);
    h.record(100);  // bucket 7 ([64,127])
    EXPECT_EQ(h.count(), 5u);
    EXPECT_EQ(h.sum(), 111u);
    const auto b = h.buckets();
    EXPECT_EQ(b[0], 1u);
    EXPECT_EQ(b[1], 1u);
    EXPECT_EQ(b[3], 2u);
    EXPECT_EQ(b[7], 1u);
    h.clear();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.sum(), 0u);
}

TEST(Histogram, ConcurrentRecordsFold) {
    histogram h;
    constexpr int kThreads = 4;
    constexpr int kPerThread = 5000;
    std::vector<std::thread> ts;
    for (int t = 0; t < kThreads; ++t) {
        ts.emplace_back([&h] {
            for (int i = 0; i < kPerThread; ++i) h.record(7);
        });
    }
    for (auto& th : ts) th.join();
    EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads * kPerThread));
    EXPECT_EQ(h.sum(), static_cast<std::uint64_t>(kThreads * kPerThread) * 7u);
}

// --------------------------------------------------------------- registry

TEST(Registry, IdentityIsNameAndLabels) {
    auto& reg = registry::global();
    counter& a = reg.get_counter("telemetry_test_ident");
    counter& b = reg.get_counter("telemetry_test_ident");
    counter& c = reg.get_counter("telemetry_test_ident", R"(policy="x")");
    EXPECT_EQ(&a, &b);
    EXPECT_NE(&a, &c);

    gauge& g1 = reg.get_gauge("telemetry_test_g", R"(policy="x")");
    gauge& g2 = reg.get_gauge("telemetry_test_g", R"(policy="y")");
    EXPECT_NE(&g1, &g2);
}

TEST(Registry, SnapshotContainsRegisteredRows) {
    auto& reg = registry::global();
    reg.get_counter("telemetry_test_snap_c").add(7);
    reg.get_gauge("telemetry_test_snap_g", R"(policy="z")").set(-3);
    reg.get_histogram("telemetry_test_snap_h").record(9);

    bool saw_c = false, saw_g = false, saw_h = false;
    for (const metric_row& r : reg.snapshot()) {
        if (r.name == "telemetry_test_snap_c") {
            saw_c = true;
            EXPECT_EQ(r.kind, metric_kind::counter);
            EXPECT_GE(r.value, 7.0);
        } else if (r.name == "telemetry_test_snap_g") {
            saw_g = true;
            EXPECT_EQ(r.kind, metric_kind::gauge);
            EXPECT_EQ(r.labels, R"(policy="z")");
            EXPECT_EQ(r.value, -3.0);
        } else if (r.name == "telemetry_test_snap_h") {
            saw_h = true;
            EXPECT_EQ(r.kind, metric_kind::histogram);
            EXPECT_GE(r.hist_count, 1u);
            EXPECT_GE(r.hist_sum, 9u);
        }
    }
    EXPECT_TRUE(saw_c);
    EXPECT_TRUE(saw_g);
    EXPECT_TRUE(saw_h);
}

TEST(Registry, SnapshotFoldsOpCounterBackend) {
    lfll::instrument::reset();
    lfll::instrument::tls().cas_attempts.add(5);
    lfll::instrument::tls().aux_hops.add(2);

    double cas = -1, hops = -1;
    for (const metric_row& r : registry::global().snapshot()) {
        if (r.name == "lfll_op_cas_attempts_total") cas = r.value;
        if (r.name == "lfll_op_aux_hops_total") hops = r.value;
    }
    EXPECT_EQ(cas, 5.0);
    EXPECT_EQ(hops, 2.0);
    lfll::instrument::reset();
}

TEST(Registry, HistogramQuantileFromBuckets) {
    auto& reg = registry::global();
    histogram& h = reg.get_histogram("telemetry_test_quant");
    h.clear();
    for (int i = 0; i < 99; ++i) h.record(10);   // bucket 4, bound 15
    h.record(1000000);                           // far tail
    for (const metric_row& r : reg.snapshot()) {
        if (r.name != "telemetry_test_quant") continue;
        EXPECT_EQ(r.quantile(0.50), 15.0);
        // The single far-tail sample is the maximum: q=1 must reach its
        // bucket (bound 2^20 - 1), not the bulk's.
        EXPECT_EQ(r.quantile(1.0), 1048575.0);
        EXPECT_GT(r.quantile(1.0), r.quantile(0.5));
    }
}

// -------------------------------------------------------------- exporters

TEST(Exporter, PrometheusTextFormat) {
    auto& reg = registry::global();
    reg.get_counter("telemetry_test_prom_total", R"(policy="epoch")").add(3);
    reg.get_histogram("telemetry_test_prom_hist").record(5);
    const std::string text = render_prometheus(reg.snapshot());

    EXPECT_NE(text.find("# TYPE telemetry_test_prom_total counter"),
              std::string::npos);
    EXPECT_NE(text.find("telemetry_test_prom_total{policy=\"epoch\"} 3"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE telemetry_test_prom_hist histogram"),
              std::string::npos);
    // Cumulative buckets: value 5 lands in le="7"; +Inf must equal _count.
    EXPECT_NE(text.find("telemetry_test_prom_hist_bucket{le=\"7\"} 1"),
              std::string::npos);
    EXPECT_NE(text.find("telemetry_test_prom_hist_bucket{le=\"+Inf\"} 1"),
              std::string::npos);
    EXPECT_NE(text.find("telemetry_test_prom_hist_sum 5"), std::string::npos);
    EXPECT_NE(text.find("telemetry_test_prom_hist_count 1"), std::string::npos);
}

TEST(Exporter, JsonlEscapesLabelQuotes) {
    std::vector<metric_row> rows(1);
    rows[0].name = "m";
    rows[0].labels = R"(policy="epoch")";
    rows[0].kind = metric_kind::gauge;
    rows[0].value = 4;
    const std::string line = render_jsonl(rows, 123);
    EXPECT_EQ(line,
              "{\"ts_ms\":123,\"metrics\":{\"m{policy=\\\"epoch\\\"}\":4}}\n");
}

TEST(Exporter, JsonlBalancedAndOneLine) {
    const std::string line = render_jsonl(registry::global().snapshot(), 1);
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.back(), '\n');
    EXPECT_EQ(line.find('\n'), line.size() - 1);  // single line
    // Braces balance outside strings — cheap well-formedness check.
    int depth = 0;
    bool in_str = false;
    for (std::size_t i = 0; i < line.size(); ++i) {
        const char c = line[i];
        if (in_str) {
            if (c == '\\') ++i;
            else if (c == '"') in_str = false;
        } else if (c == '"') {
            in_str = true;
        } else if (c == '{') {
            ++depth;
        } else if (c == '}') {
            --depth;
            EXPECT_GE(depth, 0);
        }
    }
    EXPECT_EQ(depth, 0);
    EXPECT_FALSE(in_str);
}

// ------------------------------------------------------- trace round-trip

TEST(Trace, ChromeJsonSchemaRoundTrip) {
    trace_reset();
    {
        // Generate some ops; with LFLL_TRACE off these leave no events.
        lfll::sorted_list_map<int, int> m(256);
        for (int i = 0; i < 32; ++i) m.insert(i, i);
        for (int i = 0; i < 32; i += 2) m.erase(i);
        for (int i = 0; i < 32; ++i) (void)m.contains(i);
    }
    const std::string json = chrome_trace_json();
    // Always a valid Chrome trace envelope.
    EXPECT_EQ(json.rfind("{\"displayTimeUnit\":", 0), 0u);
    EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
    EXPECT_EQ(json.back(), '}');

    if constexpr (trace_enabled) {
        EXPECT_GT(trace_event_count(), 0u);
        EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
        EXPECT_NE(json.find("\"name\":\"insert\""), std::string::npos);
        EXPECT_NE(json.find("\"name\":\"erase\""), std::string::npos);
        EXPECT_NE(json.find("\"name\":\"find\""), std::string::npos);
        EXPECT_NE(json.find("\"ts\":"), std::string::npos);
        EXPECT_NE(json.find("\"dur\":"), std::string::npos);
        EXPECT_NE(json.find("\"key_hash\":"), std::string::npos);
    } else {
        EXPECT_EQ(trace_event_count(), 0u);
        EXPECT_NE(json.find("\"traceEvents\":[]"), std::string::npos);
    }
    trace_reset();
}

// ------------------------------------- policy health gauges, typed matrix

template <typename Policy>
class PolicyTelemetry : public ::testing::Test {};

class PolicyNames {
public:
    template <typename Policy>
    static std::string GetName(int) {
        return Policy::name;
    }
};

using AllPolicies = ::testing::Types<lfll::valois_refcount, lfll::epoch_policy>;
TYPED_TEST_SUITE(PolicyTelemetry, AllPolicies, PolicyNames);

template <typename Policy>
std::string policy_label() {
    return std::string("policy=\"") + Policy::name + "\"";
}

TYPED_TEST(PolicyTelemetry, OpCountersTrackKnownSequence) {
    lfll::instrument::reset();
    const lfll::op_counters before = lfll::instrument::snapshot();
    {
        lfll::sorted_list_map<int, int, std::less<int>, TypeParam> m(512);
        for (int i = 0; i < 64; ++i) ASSERT_TRUE(m.insert(i, i));
        for (int i = 0; i < 64; ++i) ASSERT_TRUE(m.erase(i));
        m.list().pool().drain_retired();
    }
    const lfll::op_counters after = lfll::instrument::snapshot();

    // 64 inserts allocate at least one cell each (plus aux cells); 64
    // uncontended erases retire them all, and the drain recycles every
    // retired node regardless of policy.
    EXPECT_GE(after.nodes_allocated - before.nodes_allocated, 64u);
    EXPECT_GE(after.nodes_reclaimed - before.nodes_reclaimed, 64u);
    EXPECT_GT(after.cells_traversed - before.cells_traversed, 0u);
    EXPECT_GT(after.cas_attempts - before.cas_attempts, 0u);
    // Single-threaded: no contention retries.
    EXPECT_EQ(after.insert_retries - before.insert_retries, 0u);
    EXPECT_EQ(after.delete_retries - before.delete_retries, 0u);
}

TYPED_TEST(PolicyTelemetry, RegistryPublishesOpRowsForPolicy) {
    lfll::instrument::reset();
    {
        lfll::sorted_list_map<int, int, std::less<int>, TypeParam> m(512);
        for (int i = 0; i < 16; ++i) m.insert(i, i);
    }
    double allocated = 0;
    for (const metric_row& r : registry::global().snapshot()) {
        if (r.name == "lfll_op_nodes_allocated_total") allocated = r.value;
    }
    EXPECT_GE(allocated, 16.0);
    lfll::instrument::reset();
}

TYPED_TEST(PolicyTelemetry, RetiredBacklogGaugeTracksDrain) {
    auto& reg = registry::global();
    gauge& backlog =
        reg.get_gauge("lfll_retired_backlog", policy_label<TypeParam>());

    lfll::sorted_list_map<int, int, std::less<int>, TypeParam> m(512);
    for (int i = 0; i < 64; ++i) ASSERT_TRUE(m.insert(i, i));
    for (int i = 0; i < 64; ++i) ASSERT_TRUE(m.erase(i));

    const std::int64_t after_erase = backlog.value();
    EXPECT_GE(after_erase, 0);
    if constexpr (!TypeParam::counted_traversal) {
        // Deferred reclamation banks retired nodes; 64 erasures must
        // have left a visible backlog sample.
        EXPECT_GT(after_erase, 0);
    }

    // Forced drain: the gauge must fall monotonically to quiescent zero.
    m.list().pool().drain_retired();
    const std::int64_t after_drain = backlog.value();
    EXPECT_LE(after_drain, after_erase);
    EXPECT_EQ(after_drain, 0);
    EXPECT_EQ(m.list().pool().retired_count(), 0u);
}

TYPED_TEST(PolicyTelemetry, FreeListDepthGaugeSampled) {
    auto& reg = registry::global();
    lfll::sorted_list_map<int, int, std::less<int>, TypeParam> m(512);
    for (int i = 0; i < 8; ++i) m.insert(i, i);
    for (int i = 0; i < 8; ++i) m.erase(i);
    m.list().pool().drain_retired();
    // The pool registered its gauges under this policy's label and
    // sampled them at the drain boundary just now.
    EXPECT_GT(reg.get_gauge("lfll_pool_capacity", policy_label<TypeParam>()).value(),
              0);
    EXPECT_GT(
        reg.get_gauge("lfll_free_list_depth", policy_label<TypeParam>()).value(), 0);
}

TEST(PolicyGauges, EpochLagAndHazardOccupancyRegistered) {
    auto& reg = registry::global();
    // Exercise both deferred domains so their gauges exist: hazard
    // pointers through the Harris-Michael baseline, epochs through the
    // Valois stack.
    {
        lfll::harris_michael_list<int, int> l;
        for (int i = 0; i < 32; ++i) l.insert(i, i);
        for (int i = 0; i < 32; ++i) l.erase(i);
        l.domain().drain();
    }
    {
        lfll::sorted_list_map<int, int, std::less<int>, lfll::epoch_policy> m(256);
        for (int i = 0; i < 32; ++i) m.insert(i, i);
        for (int i = 0; i < 32; ++i) m.erase(i);
        m.list().pool().drain_retired();
    }
    bool saw_lag = false, saw_occ = false;
    for (const metric_row& r : reg.snapshot()) {
        if (r.name == "lfll_epoch_lag") saw_lag = true;
        if (r.name == "lfll_hazard_slots_occupied") {
            saw_occ = true;
            EXPECT_GE(r.value, 0.0);
        }
    }
    EXPECT_TRUE(saw_lag);
    EXPECT_TRUE(saw_occ);
}

}  // namespace
