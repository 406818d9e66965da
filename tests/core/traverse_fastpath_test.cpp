// Scheduler coverage for the traversal fast-path engine: the elided-aux
// hop window (hop_over_aux / batch_commit, step_kind::ref_transfer) and
// the batched scan's incarnation sweep. Pinned seeds replay fixed
// schedules through the deterministic scheduler — exact regression pins,
// replay any one with LFLL_SCHED_REPLAY=<seed>.
#define LFLL_SCHED_CHAOS 1

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "lfll/core/audit.hpp"
#include "lfll/core/list.hpp"
#include "lfll/sched/session.hpp"

namespace {

using list_t = lfll::valois_list<char>;
using cursor_t = list_t::cursor;

void append(list_t& list, char v) {
    cursor_t c(list);
    while (!c.at_end()) list.next(c);
    list.insert(c, v);
}

lfll::sched::options pinned(std::uint64_t seed) {
    lfll::sched::options o;
    o.seed = seed;
    o.sched_mode = (seed % 2 == 0) ? lfll::sched::mode::random_walk
                                   : lfll::sched::mode::pct;
    o.change_points = 3;
    o.max_steps = 2'000'000;
    o.record_trace = true;
    return o;
}

/// The hop window: two traversers (one cursor-stepping, one scan()-ing —
/// char is batch_scannable, so the scan exercises batch_hop/batch_commit)
/// racing a deleter/re-inserter on a tiny recycling pool. The schedules
/// preempt inside the snapshot -> protect -> validate sandwich, so the
/// validation-failure fallbacks run for real; a hop that survived a
/// recycle it should have detected would surface as a count-audit error
/// or a value that was never in the list.
TEST(TraverseFastPath, PinnedSeed_ElidedHopValidationWindow) {
    for (std::uint64_t seed : {3ull, 8ull, 17ull, 29ull, 41ull, 56ull}) {
        list_t list(8);  // tiny: deletions recycle under the traversers
        for (char v : {'A', 'B', 'C', 'D'}) append(list, v);
        std::vector<std::function<void()>> bodies;
        bodies.push_back([&list] {  // cursor traverser
            for (int round = 0; round < 3; ++round) {
                for (cursor_t c(list); !c.at_end(); list.next(c)) {
                    const char v = *c;
                    ASSERT_GE(v, 'A');
                    ASSERT_LE(v, 'Z');
                }
            }
        });
        bodies.push_back([&list] {  // batched scanner
            for (int round = 0; round < 3; ++round) {
                list.scan([](const char& v) {
                    EXPECT_GE(v, 'A');
                    EXPECT_LE(v, 'Z');
                    return true;
                });
            }
        });
        bodies.push_back([&list] {  // churner: delete front, reinsert
            for (int i = 0; i < 4; ++i) {
                cursor_t c(list);
                if (!c.at_end() && list.try_delete(c)) {
                    list.update(c);
                    list.insert(c, static_cast<char>('E' + i));
                }
                c.reset();
            }
        });
        lfll::sched::run(pinned(seed), std::move(bodies));
        EXPECT_GT(lfll::sched::scheduler::instance().kind_count(
                      lfll::sched::step_kind::ref_transfer),
                  0u)
            << "schedule never entered the elided-hop window, seed " << seed;
        list.pool().drain_retired();
        auto r = lfll::audit_list(list);
        EXPECT_TRUE(r.ok) << r.error << "\nseed " << seed
                          << " — replay with LFLL_SCHED_REPLAY=" << seed;
    }
}

/// Batch sweep rejection and the walk predicate's torn-copy guard, staged
/// deterministically. Parking a walker mid-hop is not possible from
/// outside, but an erase/reinsert storm on a tiny pool under
/// high-preemption schedules recycles snapshot nodes under the finders,
/// so batch_hop's per-cell incarnation re-check and batch_commit's sweep
/// both fail and fall back for real. Every payload ever stored keeps
/// second == 2*first+1, so a walk predicate that sees the invariant
/// broken has been handed bytes from a torn or recycled copy; every
/// value a find returns must likewise be the one stored under its key.
TEST(TraverseFastPath, PinnedSeed_BatchSweepSurvivesRecycleStorm) {
    using entry_t = std::pair<int, int>;
    using pair_list = lfll::valois_list<entry_t>;
    const auto entry = [](int k) { return entry_t{k, 2 * k + 1}; };
    for (std::uint64_t seed : {5ull, 11ull, 19ull, 31ull, 47ull}) {
        pair_list list(8);  // tiny: deletions recycle under the finders
        for (int k = 0; k < 10; ++k) {
            pair_list::cursor c(list);
            while (!c.at_end()) list.next(c);
            list.insert(c, entry(k));
        }
        int violations = 0;  // walk-predicate calls on a broken payload
        int wrong = 0;       // surfaced payloads that were never stored
        // Keep-walking predicate of a find for `key`; the list is not
        // kept sorted, so a find walks until it meets the key.
        const auto walk_to = [&violations](int key) {
            return [&violations, key](const entry_t& e) {
                if (e.second != 2 * e.first + 1) ++violations;
                return e.first != key;
            };
        };
        std::vector<std::function<void()>> bodies;
        bodies.push_back([&] {  // finders: scan() and the mutator seek
            for (int round = 0; round < 4; ++round) {
                for (int key = 0; key < 10; ++key) {
                    list.scan(
                        [&wrong, key](const entry_t& e) {
                            if (e.second != 2 * e.first + 1) ++wrong;
                            return e.first != key;
                        },
                        walk_to(key));
                    pair_list::cursor c(list);
                    list.seek_while(c, walk_to(key));
                    if (!c.at_end() && (*c).second != 2 * key + 1) ++wrong;
                }
            }
        });
        for (int t = 0; t < 2; ++t) {
            bodies.push_back([&list, &entry, t] {  // churners across the segment
                for (int i = 0; i < 4; ++i) {
                    pair_list::cursor c(list);
                    for (int h = 0; h < 2 * t + i && !c.at_end(); ++h) list.next(c);
                    if (!c.at_end() && list.try_delete(c)) {
                        list.update(c);
                        list.insert(c, entry((t + i) % 10));
                    }
                    c.reset();
                }
            });
        }
        lfll::sched::run(pinned(seed), std::move(bodies));
        EXPECT_EQ(violations, 0) << "seed " << seed;
        EXPECT_EQ(wrong, 0) << "seed " << seed;
        list.pool().drain_retired();
        auto r = lfll::audit_list(list);
        EXPECT_TRUE(r.ok) << r.error << "\nseed " << seed
                          << " — replay with LFLL_SCHED_REPLAY=" << seed;
    }
}

}  // namespace
