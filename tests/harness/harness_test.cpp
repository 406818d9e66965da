// Benchmark harness: statistics, table formatting, the thread driver, and
// the instrumentation registry the experiments rely on.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <sstream>
#include <thread>

#include "lfll/baseline/coarse_list.hpp"
#include "lfll/core/list.hpp"
#include "lfll/harness/runner.hpp"
#include "lfll/harness/stats.hpp"
#include "lfll/harness/table.hpp"
#include "lfll/harness/workload.hpp"
#include "lfll/primitives/instrument.hpp"

namespace {

using namespace lfll;
using namespace lfll::harness;

TEST(Stats, SummaryOfKnownSamples) {
    auto s = summarize({1, 2, 3, 4, 5});
    EXPECT_DOUBLE_EQ(s.min, 1);
    EXPECT_DOUBLE_EQ(s.max, 5);
    EXPECT_DOUBLE_EQ(s.mean, 3);
    EXPECT_DOUBLE_EQ(s.p50, 3);
    EXPECT_NEAR(s.stddev, 1.5811, 1e-3);
    EXPECT_EQ(s.n, 5u);
}

TEST(Stats, EmptyAndSingleton) {
    EXPECT_EQ(summarize({}).n, 0u);
    auto s = summarize({7.0});
    EXPECT_DOUBLE_EQ(s.mean, 7.0);
    EXPECT_DOUBLE_EQ(s.stddev, 0.0);
    EXPECT_DOUBLE_EQ(s.p99, 7.0);
}

TEST(Stats, FmtSi) {
    EXPECT_EQ(fmt_si(950), "950");
    EXPECT_EQ(fmt_si(1500), "1.50k");
    EXPECT_EQ(fmt_si(1234567), "1.23M");
    EXPECT_EQ(fmt_si(25e9), "25.0G");
}

TEST(Table, AlignsColumns) {
    table t({"name", "v"});
    t.add_row({"a", "1"});
    t.add_row({"longer", "22"});
    std::ostringstream os;
    t.print(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("name"), std::string::npos);
    EXPECT_NE(out.find("longer"), std::string::npos);
    // Both data lines start columns at the same offset.
    EXPECT_NE(out.find("a       1"), std::string::npos);
}

TEST(Table, CsvOutput) {
    table t({"a", "b"});
    t.add_row({"1", "2"});
    std::ostringstream os;
    t.print_csv(os);
    EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

TEST(Table, ShortRowsArePadded) {
    table t({"a", "b", "c"});
    t.add_row({"only"});
    std::ostringstream os;
    t.print_csv(os);
    EXPECT_EQ(os.str(), "a,b,c\nonly,,\n");
}

TEST(Runner, RunsAllThreadsAndCounts) {
    auto res = run_timed(3, 50, [&](int, std::atomic<bool>& stop) {
        std::uint64_t n = 0;
        while (!stop.load(std::memory_order_relaxed)) ++n;
        return n;
    });
    EXPECT_EQ(res.per_thread_ops.size(), 3u);
    for (auto ops : res.per_thread_ops) EXPECT_GT(ops, 0u);
    EXPECT_GE(res.seconds, 0.045);
    EXPECT_GT(res.ops_per_sec, 0.0);
    EXPECT_EQ(res.total_ops,
              res.per_thread_ops[0] + res.per_thread_ops[1] + res.per_thread_ops[2]);
}

TEST(Runner, CapturesInstrumentDelta) {
    auto res = run_timed(2, 30, [&](int, std::atomic<bool>& stop) {
        std::uint64_t n = 0;
        while (!stop.load(std::memory_order_relaxed)) {
            instrument::tls().aux_hops++;
            ++n;
        }
        return n;
    });
    EXPECT_EQ(res.counters.aux_hops, res.total_ops);
    EXPECT_DOUBLE_EQ(res.per_op(res.counters.aux_hops), 1.0);
}

TEST(Runner, ReportsTraversalCountersOfListWalk) {
    valois_list<int> list(64);
    {
        valois_list<int>::cursor c(list);
        for (int v = 0; v < 16; ++v) list.insert(c, v);
    }
    auto res = run_timed(1, 30, [&](int, std::atomic<bool>& stop) {
        std::uint64_t n = 0;
        while (!stop.load(std::memory_order_relaxed)) {
            for (valois_list<int>::cursor c(list); !c.at_end(); list.next(c)) {
            }
            ++n;
        }
        return n;
    });
    EXPECT_GT(res.total_ops, 0u);
    EXPECT_GE(res.counters.traverse_hops, 16 * res.total_ops);
    EXPECT_GT(res.counters.traverse_fast_hops, 0u);
}

/// The drivers consume lookup results (harness::consume), so a locked
/// baseline's sequential walk survives optimization: a find-only
/// dict_worker on a 2048-key coarse list must run far slower than on a
/// 2-key one. Were the walk dead-code-eliminated, both would cost one
/// mutex round-trip and the ratio would sit near 1.
TEST(Workload, DictWorkerKeepsLockedFindWalkAlive) {
    const auto best_ops_per_sec = [](std::uint64_t key_range) {
        coarse_list_map<int, int> m;
        prefill(m, key_range);
        double best = 0;
        for (int rep = 0; rep < 3; ++rep) {
            auto res = run_timed(1, 30, [&](int tid, std::atomic<bool>& stop) {
                return dict_worker(m, op_mix{100, 0, 0}, key_range, tid, stop);
            });
            best = std::max(best, res.ops_per_sec);
        }
        return best;
    };
    const double two_keys = best_ops_per_sec(4);
    const double many_keys = best_ops_per_sec(4096);
    ASSERT_GT(many_keys, 0);
    EXPECT_GT(two_keys / many_keys, 4.0)
        << "2 keys: " << two_keys << " finds/s, 2048 keys: " << many_keys << " finds/s";
}

TEST(Instrument, SnapshotSumsLiveAndRetiredThreads) {
    instrument::reset();
    instrument::tls().cas_attempts += 5;
    std::thread t([] { instrument::tls().cas_attempts += 7; });
    t.join();  // folded into the retired total
    auto snap = instrument::snapshot();
    EXPECT_GE(snap.cas_attempts, 12u);
}

TEST(Instrument, ResetClearsEverything) {
    instrument::tls().safe_reads += 100;
    instrument::reset();
    // Other live test threads may be incrementing, but this thread's slot
    // and the retired pile were zeroed; our contribution is gone.
    auto snap = instrument::snapshot();
    EXPECT_LT(snap.safe_reads, 100u);
}

}  // namespace
