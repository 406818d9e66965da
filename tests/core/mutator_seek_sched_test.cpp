// Scheduler coverage for the batched mutator seek (seek_while /
// batch_seek_step, step_kind::batch_seek) across all three reclamation
// policies. The window under test is the batch-snapshot ->
// referenced-cursor handoff: batch_seek_step has snapshotted a segment
// and is about to try_ref the landing pre/target cells; a preemption
// there lets churners recycle snapshot nodes, and the post-ref
// incarnation re-sweep must catch it (a missed catch surfaces as a
// count-audit imbalance or a cursor on a recycled cell).
//
// Pinned seeds replay fixed schedules through the deterministic
// scheduler — replay any one with LFLL_SCHED_REPLAY=<seed>. Under
// epoch_policy the superhop compiles out (counted_traversal false); the
// same bodies must still run clean, with zero window entries.
#define LFLL_SCHED_CHAOS 1

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "lfll/core/audit.hpp"
#include "lfll/dict/sorted_list_map.hpp"
#include "lfll/reclaim/epoch_policy.hpp"
#include "lfll/reclaim/hazard_policy.hpp"
#include "lfll/sched/session.hpp"

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

/// Cursor-based lookup through the batched mutator seek. map::find()
/// rides scan() and never enters batch_seek_step; the chaos window
/// lives on the find_from path, so the seeker body must drive it
/// directly.
template <typename Map>
std::optional<int> seek_find(Map& map, int key) {
    typename Map::cursor c(map.list());
    if (!map.find_from(key, c)) return std::nullopt;
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

TEST(MutatorSeekSched, PinnedSeed_HandoffWindow_Hazard) {
    for (std::uint64_t seed : {5ull, 12ull, 23ull, 38ull}) {
        run_handoff_window<hazard_policy>(seed);
    }
}

TEST(MutatorSeekSched, PinnedSeed_HandoffWindow_EpochCompilesOut) {
    for (std::uint64_t seed : {4ull, 9ull}) {
        run_handoff_window<epoch_policy>(seed);
    }
}

}  // namespace
