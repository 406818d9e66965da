// Concurrency stress: many threads hammer the structures, then we join and
// check (a) set semantics against per-thread ledgers, (b) the §3 theorem —
// no adjacent auxiliary nodes at quiescence, (c) the full §5 reference-
// count / leak audit. Parameterized over thread count and operation mix.
#include <gtest/gtest.h>

#include "test_scale.hpp"

#include <atomic>
#include <thread>
#include <tuple>
#include <vector>

#include "lfll/core/audit.hpp"
#include "lfll/core/list.hpp"
#include "lfll/dict/hash_map.hpp"
#include "lfll/dict/sorted_list_map.hpp"
#include "lfll/primitives/rng.hpp"

namespace {

using namespace lfll;
using lfll_test::scaled;

struct ledger {
    std::vector<long> ins;  // successful inserts per key
    std::vector<long> del;  // successful erases per key
    explicit ledger(std::size_t keys) : ins(keys, 0), del(keys, 0) {}
    ledger& operator+=(const ledger& o) {
        for (std::size_t k = 0; k < ins.size(); ++k) {
            ins[k] += o.ins[k];
            del[k] += o.del[k];
        }
        return *this;
    }
};

// threads, keys, insert%, erase% (rest find), ops/thread
using stress_params = std::tuple<int, int, int, int, int>;

std::string param_name(const ::testing::TestParamInfo<stress_params>& info) {
    const auto t = std::get<0>(info.param);
    const auto k = std::get<1>(info.param);
    const auto i = std::get<2>(info.param);
    const auto d = std::get<3>(info.param);
    // Built by appending: GCC 12 at -O3 raises a false -Wrestrict on
    // `"literal" + std::string`.
    std::string name = "t";
    name += std::to_string(t) + "_k" + std::to_string(k) + "_i" + std::to_string(i) + "_d" +
            std::to_string(d);
    return name;
}

class MapStress : public ::testing::TestWithParam<stress_params> {};

TEST_P(MapStress, SortedListMapSetSemanticsAndAudit) {
    const auto [threads, keys, ins_pct, del_pct, ops0] = GetParam();
    const int ops = scaled(ops0);
    sorted_list_map<int, int> map(256);
    std::vector<ledger> ledgers(threads, ledger(keys));
    std::atomic<bool> go{false};
    std::atomic<int> value_corruptions{0};
    std::vector<std::thread> ts;
    for (int t = 0; t < threads; ++t) {
        ts.emplace_back([&, t] {
            xorshift64 rng(0x1234 + static_cast<std::uint64_t>(t) * 7919);
            while (!go.load(std::memory_order_acquire)) {
            }
            for (int i = 0; i < ops; ++i) {
                const int k = static_cast<int>(rng.next_below(keys));
                const int pick = static_cast<int>(rng.next_below(100));
                if (pick < ins_pct) {
                    if (map.insert(k, k * 1000 + 7)) ledgers[t].ins[k]++;
                } else if (pick < ins_pct + del_pct) {
                    if (map.erase(k)) ledgers[t].del[k]++;
                } else {
                    auto v = map.find(k);
                    // Values are a pure function of the key: any torn or
                    // stale-beyond-reclaim read shows up here.
                    if (v.has_value() && *v != k * 1000 + 7) value_corruptions++;
                }
            }
        });
    }
    go.store(true, std::memory_order_release);
    for (auto& th : ts) th.join();

    EXPECT_EQ(value_corruptions.load(), 0);

    ledger total(keys);
    for (const auto& l : ledgers) total += l;
    for (int k = 0; k < keys; ++k) {
        const long balance = total.ins[k] - total.del[k];
        ASSERT_GE(balance, 0) << "key " << k << ": more erases than inserts succeeded";
        ASSERT_LE(balance, 1) << "key " << k << ": duplicate key admitted";
        EXPECT_EQ(balance == 1, map.contains(k)) << "key " << k << " membership mismatch";
    }

    auto r = audit_list(map.list());
    EXPECT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.aux_chains, 0u) << "aux chain survived quiescence (§3 theorem)";
}

INSTANTIATE_TEST_SUITE_P(
    Mixes, MapStress,
    ::testing::Values(
        // balanced mix, growing contention
        stress_params{2, 32, 40, 40, 4000},
        stress_params{4, 32, 40, 40, 3000},
        stress_params{8, 32, 40, 40, 2000},
        // read-heavy
        stress_params{4, 64, 10, 10, 4000},
        // write-only, few keys: maximum structural churn
        stress_params{8, 8, 50, 50, 2000},
        // single hot key: the Fig. 2/3 neighbourhood constantly recycled
        stress_params{8, 1, 50, 50, 2000},
        // insert-heavy growth then mixed
        stress_params{4, 128, 70, 20, 3000}),
    param_name);

class HashStress : public ::testing::TestWithParam<stress_params> {};

TEST_P(HashStress, HashMapSetSemanticsAndAudit) {
    const auto [threads, keys, ins_pct, del_pct, ops0] = GetParam();
    const int ops = scaled(ops0);
    hash_map<int, int> map(16, 16);
    std::vector<ledger> ledgers(threads, ledger(keys));
    std::atomic<bool> go{false};
    std::vector<std::thread> ts;
    for (int t = 0; t < threads; ++t) {
        ts.emplace_back([&, t] {
            xorshift64 rng(0x777 + static_cast<std::uint64_t>(t) * 104729);
            while (!go.load(std::memory_order_acquire)) {
            }
            for (int i = 0; i < ops; ++i) {
                const int k = static_cast<int>(rng.next_below(keys));
                const int pick = static_cast<int>(rng.next_below(100));
                if (pick < ins_pct) {
                    if (map.insert(k, -k)) ledgers[t].ins[k]++;
                } else if (pick < ins_pct + del_pct) {
                    if (map.erase(k)) ledgers[t].del[k]++;
                } else {
                    (void)map.find(k);
                }
            }
        });
    }
    go.store(true, std::memory_order_release);
    for (auto& th : ts) th.join();

    ledger total(keys);
    for (const auto& l : ledgers) total += l;
    for (int k = 0; k < keys; ++k) {
        const long balance = total.ins[k] - total.del[k];
        ASSERT_GE(balance, 0);
        ASSERT_LE(balance, 1);
        EXPECT_EQ(balance == 1, map.contains(k)) << "key " << k;
    }
    for (std::size_t b = 0; b < map.bucket_count(); ++b) {
        auto r = audit_list(map.bucket_at(b).list());
        EXPECT_TRUE(r.ok) << "bucket " << b << ": " << r.error;
    }
}

INSTANTIATE_TEST_SUITE_P(Mixes, HashStress,
                         ::testing::Values(stress_params{4, 256, 40, 40, 3000},
                                           stress_params{8, 64, 45, 45, 2000},
                                           stress_params{8, 1024, 30, 30, 2000}),
                         param_name);

// Raw-list stress: cursors inserted/deleted at random interior positions —
// the access pattern dictionaries never produce (multiple equal values,
// arbitrary positions), checking the list itself rather than map logic.
TEST(RawListStress, InteriorChurnKeepsStructureSound) {
    valois_list<int> list(512);
    constexpr int kThreads = 6;
    std::atomic<bool> go{false};
    std::atomic<long> net_inserted{0};
    std::vector<std::thread> ts;
    for (int t = 0; t < kThreads; ++t) {
        ts.emplace_back([&, t] {
            xorshift64 rng(0xfeed + static_cast<std::uint64_t>(t));
            valois_list<int>::cursor c(list);
            long local_net = 0;
            while (!go.load(std::memory_order_acquire)) {
            }
            for (int i = 0; i < scaled(3000); ++i) {
                list.first(c);
                const int hops = static_cast<int>(rng.next_below(8));
                for (int h = 0; h < hops && !c.at_end(); ++h) list.next(c);
                if (rng.next() % 2 == 0) {
                    list.insert(c, t);
                    local_net++;
                } else if (!c.at_end()) {
                    if (list.try_delete(c)) local_net--;
                }
            }
            c.reset();
            net_inserted.fetch_add(local_net);
        });
    }
    go.store(true, std::memory_order_release);
    for (auto& th : ts) th.join();

    EXPECT_EQ(list.size_slow(), static_cast<std::size_t>(net_inserted.load()));
    auto r = audit_list(list);
    EXPECT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.aux_chains, 0u);
}

// Readers traverse continuously while writers churn: traversals must
// always terminate and only ever see values writers actually wrote.
TEST(RawListStress, ReadersNeverTrapDuringChurn) {
    valois_list<int> list(256);
    std::atomic<bool> stop{false};
    std::atomic<int> bad_values{0};

    std::vector<std::thread> writers;
    for (int t = 0; t < 3; ++t) {
        writers.emplace_back([&, t] {
            xorshift64 rng(0xc0ffee + static_cast<std::uint64_t>(t));
            valois_list<int>::cursor c(list);
            for (int i = 0; i < scaled(4000); ++i) {
                list.first(c);
                if (rng.next() % 2 == 0) {
                    list.insert(c, 42);
                } else if (!c.at_end()) {
                    list.try_delete(c);
                }
            }
            c.reset();
        });
    }
    std::vector<std::thread> readers;
    for (int t = 0; t < 3; ++t) {
        readers.emplace_back([&] {
            while (!stop.load(std::memory_order_acquire)) {
                valois_list<int>::cursor c(list);
                while (!c.at_end()) {
                    if (*c != 42) bad_values++;
                    list.next(c);
                }
            }
        });
    }
    for (auto& w : writers) w.join();
    stop.store(true, std::memory_order_release);
    for (auto& r : readers) r.join();

    EXPECT_EQ(bad_values.load(), 0);
    auto r = audit_list(list);
    EXPECT_TRUE(r.ok) << r.error;
}

}  // namespace
