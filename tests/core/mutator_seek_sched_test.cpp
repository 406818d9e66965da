// Scheduler coverage for the mutator seek (seek_while / land_seek,
// step_kind::batch_seek) across both reclamation policies. The
// window under test is the landing: the seek has crossed its cells with
// plain loads and is about to try_ref the last crossed cell and protect
// the target; a preemption there lets churners recycle crossed nodes,
// and the post-landing incarnation re-sweep must catch it (a missed
// catch surfaces as a count-audit imbalance or a cursor on a recycled
// cell). A caught one restarts the walk once from the cursor's target
// and then takes a counted hop.
//
// Pinned seeds replay fixed schedules through the deterministic
// scheduler — replay any one with LFLL_SCHED_REPLAY=<seed>. The seed
// sweeps run LFLL_SCHED_SEEDS seeds (default 8). Under epoch_policy the
// unreferenced walk compiles out (counted_traversal false); the same
// bodies must still run clean, with zero window entries.
#define LFLL_SCHED_CHAOS 1

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "lfll/core/audit.hpp"
#include "lfll/dict/sorted_list_map.hpp"
#include "lfll/reclaim/epoch_policy.hpp"
#include "lfll/sched/session.hpp"
#include "lfll/telemetry/metrics.hpp"
#include "sched_seeds.hpp"

namespace {

using namespace lfll;

sched::options pinned(std::uint64_t seed) {
    sched::options o;
    o.seed = seed;
    o.sched_mode = (seed % 2 == 0) ? sched::mode::random_walk : sched::mode::pct;
    o.change_points = 3;
    o.max_steps = 2'000'000;
    o.record_trace = true;
    return o;
}

/// Cursor-based lookup through the mutator seek. map::find() rides
/// lookup() and never lands a cursor; the chaos window lives on the
/// find_from path, so the seeker body must drive it directly.
/// Also checks the landed triple: pre_cell is First or a cell (live or
/// deleted) sorting before `key` — a landing that pinned a recycled node
/// instead of the cell its walk crossed shows here first.
template <typename Map>
std::optional<int> seek_find(Map& map, int key) {
    typename Map::cursor c(map.list());
    const bool found = map.find_from(key, c);
    const auto* pre = c.pre_cell();
    EXPECT_TRUE(pre == map.list().head() || (pre->is_cell() && pre->value().first < key))
        << "landed pre_cell is not a cell before key " << key;
    if (!found) return std::nullopt;
    return (*c).second;
}

/// Drain the policy's retired nodes so the §5 audit sees a quiescent
/// structure.
template <typename Map>
audit_report quiesce_and_audit(Map& map) {
    map.list().pool().drain_retired();
    return audit_list(map.list());
}

/// Handoff window: seekers (find on mid-list keys, so the batch stops
/// inside a snapshot and must hand off into the referenced cursor)
/// race insert/erase churners over the same short stretch of list on a
/// tiny recycling pool.
template <typename Policy>
void run_handoff_window(std::uint64_t seed) {
    using map_t = sorted_list_map<int, int, std::less<int>, Policy>;
    map_t map(24);  // tiny pool: erased cells recycle under the seekers
    for (int k = 0; k < 10; ++k) map.insert(k, 100 + k);
    std::vector<std::function<void()>> bodies;
    bodies.push_back([&map] {  // seeker: lands mid-batch every time
        for (int round = 0; round < 4; ++round) {
            for (int k = 3; k <= 7; ++k) {
                auto v = seek_find(map, k);
                if (v) {
                    EXPECT_GE(*v, 100);
                    EXPECT_LE(*v, 120);
                }
            }
        }
    });
    for (int t = 0; t < 2; ++t) {
        bodies.push_back([&map, t] {  // churners: recycle snapshot nodes
            for (int i = 0; i < 4; ++i) {
                const int k = 3 + (t * 2 + i) % 5;
                map.erase(k);
                map.insert(k, 110 + k);
            }
        });
    }
    sched::run(pinned(seed), std::move(bodies));
    if constexpr (map_t::list_type::pool_type::counts_traversal) {
        EXPECT_GT(sched::scheduler::instance().kind_count(sched::step_kind::batch_seek),
                  0u)
            << "schedule never entered the handoff window, seed " << seed;
    } else {
        EXPECT_EQ(sched::scheduler::instance().kind_count(sched::step_kind::batch_seek),
                  0u);
    }
    auto r = quiesce_and_audit(map);
    EXPECT_TRUE(r.ok) << r.error << "\nseed " << seed
                      << " — replay with LFLL_SCHED_REPLAY=" << seed;
}

TEST(MutatorSeekSched, PinnedSeed_HandoffWindow_Refcount) {
    for (std::uint64_t seed : {3ull, 8ull, 17ull, 29ull, 41ull, 56ull}) {
        run_handoff_window<valois_refcount>(seed);
    }
}

TEST(MutatorSeekSched, PinnedSeed_HandoffWindow_EpochCompilesOut) {
    for (std::uint64_t seed : {4ull, 9ull}) {
        run_handoff_window<epoch_policy>(seed);
    }
}

/// The unreferenced walk's failure-path counter `name` under Policy.
template <typename Policy>
std::uint64_t walk_failures(const char* name) {
    return telemetry::registry::global()
        .get_counter(name, std::string("policy=\"") + Policy::name + "\"")
        .value();
}

/// How often the unreferenced walk restarted and fell back.
struct failure_counts {
    std::uint64_t restarts = 0;
    std::uint64_t fallbacks = 0;
};

/// Reclaim before the landing: a seeker walks to a stable key in the
/// middle of the list while three churners erase and re-insert the keys
/// on both sides of it, so nodes the walk crossed are reclaimed and
/// recycled — some re-linked past the stable key — between the walk and
/// the landing's sweep. A landing that trusted a recycled aux would stop
/// past the key and miss it. The seek must land on the stable key with
/// its original value, and the §5 audit must balance afterwards.
template <typename Policy>
failure_counts run_reclaim_before_landing(std::uint64_t seed) {
    using map_t = sorted_list_map<int, int, std::less<int>, Policy>;
    const std::uint64_t r0 = walk_failures<Policy>("lfll_traverse_restarts_total");
    const std::uint64_t f0 = walk_failures<Policy>("lfll_traverse_fallbacks_total");
    // Tiny pool without magazines, and a drain after every erase, so the
    // erased cells are reclaimed and recycled while the seeker walks.
    typename map_t::list_type::pool_type pool(pool_config{24, 0});
    map_t map(pool);
    constexpr int kStable = 6;
    for (int k = 0; k <= 2 * kStable; ++k) map.insert(k, 100 + k);
    int wrong = 0;
    std::vector<std::function<void()>> bodies;
    bodies.push_back([&map, &wrong] {  // seeker: crosses the churned keys below
        for (int round = 0; round < 10; ++round) {
            if (seek_find(map, kStable) != 100 + kStable) ++wrong;
        }
    });
    for (int t = 0; t < 3; ++t) {
        bodies.push_back([&map, t] {  // churners: 1..5 and 7..11
            for (int i = 0; i < 10; ++i) {
                const int j = (t * 3 + i) % 10;
                const int k = j < 5 ? 1 + j : 2 + j;
                map.erase(k);
                map.list().pool().drain_retired();
                map.insert(k, 100 + k);
            }
        });
    }
    sched::run(pinned(seed), std::move(bodies));
    EXPECT_EQ(wrong, 0) << "seed " << seed;
    auto r = quiesce_and_audit(map);
    EXPECT_TRUE(r.ok) << r.error << "\nseed " << seed
                      << " — replay with LFLL_SCHED_REPLAY=" << seed;
    return {walk_failures<Policy>("lfll_traverse_restarts_total") - r0,
            walk_failures<Policy>("lfll_traverse_fallbacks_total") - f0};
}

/// Pinned schedules in which the sweep after the landing fails for real:
/// across them the walk both restarts from the cursor's target and, when
/// the restart fails too, takes the counted hop.
template <typename Policy>
void expect_restart_and_fallback(std::initializer_list<std::uint64_t> seeds) {
    failure_counts total;
    for (std::uint64_t seed : seeds) {
        const failure_counts f = run_reclaim_before_landing<Policy>(seed);
        total.restarts += f.restarts;
        total.fallbacks += f.fallbacks;
    }
    EXPECT_GT(total.restarts, 0u) << "no pinned schedule failed a landing sweep";
    EXPECT_GT(total.fallbacks, 0u) << "no pinned schedule failed a restart";
}

TEST(MutatorSeekSched, PinnedSeed_ReclaimBeforeLanding_Refcount) {
    expect_restart_and_fallback<valois_refcount>({2, 40, 54, 140});
}

TEST(MutatorSeekSched, SeedSweep_ReclaimBeforeLanding) {
    for (std::uint64_t seed : lfll_test::sweep_seeds(8)) {
        run_reclaim_before_landing<valois_refcount>(seed);
        run_reclaim_before_landing<epoch_policy>(seed);
    }
}

}  // namespace
