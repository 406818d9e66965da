// E1 — "performance competitive with spin locks" (§1, §6).
//
// Dictionary throughput vs. thread count: the Valois lock-free sorted
// list against the same sorted list under every mutual-exclusion regime
// (coarse std::mutex / TAS / TTAS / ticket / MCS, and fine-grained lock
// coupling), for a read-heavy and a write-heavy mix.
//
// Expected shape (paper claim): at 1 thread the locked lists win slightly
// (no SafeRead traffic); as threads exceed cores the coarse locks
// collapse (lock-holder preemption serializes everyone behind a
// descheduled holder — TAS worst, MCS best) while the lock-free list
// degrades gracefully. Fine-grained locking pays two lock transfers per
// traversal hop and lands well below both.
#include <memory>
#include <mutex>

#include "bench_common.hpp"
#include "lfll/baseline/coarse_list.hpp"
#include "lfll/baseline/fine_list.hpp"
#include "lfll/dict/sorted_list_map.hpp"
#include "lfll/primitives/mcs_lock.hpp"
#include "lfll/primitives/ticket_lock.hpp"
#include "lfll/reclaim/epoch_policy.hpp"

namespace {

using namespace bench;
using namespace lfll;

void run_mix(const op_mix& mix, std::uint64_t keys, int millis) {
    table t({"structure", "threads", "ops/s", "retries/op", "cas_fail/op"});
    sweep_threads(t, "valois-lockfree", mix, keys, millis,
                  [&] { return std::make_unique<sorted_list_map<int, int>>(2 * keys); });
    sweep_threads(t, "coarse-mutex", mix, keys, millis,
                  [&] { return std::make_unique<coarse_list_map<int, int, std::mutex>>(); });
    sweep_threads(t, "coarse-tas", mix, keys, millis,
                  [&] { return std::make_unique<coarse_list_map<int, int, tas_lock>>(); });
    sweep_threads(t, "coarse-ttas", mix, keys, millis,
                  [&] { return std::make_unique<coarse_list_map<int, int, ttas_lock>>(); });
    sweep_threads(t, "coarse-ticket", mix, keys, millis,
                  [&] { return std::make_unique<coarse_list_map<int, int, ticket_lock>>(); });
    sweep_threads(t, "coarse-mcs", mix, keys, millis,
                  [&] { return std::make_unique<coarse_list_map<int, int, mcs_basic_lock>>(); });
    sweep_threads(t, "fine-lockcoupling", mix, keys, millis,
                  [&] { return std::make_unique<fine_list_map<int, int>>(); });
    emit("E1 list throughput, " + std::to_string(keys) + " keys, mix " + mix_name(mix), t);
}

// Contention section: the 256-key sweeps above keep every thread on a
// ~64-cell private stretch of list, so on one hardware core a thread
// runs its whole CAS window inside a quantum and the retry counters sit
// at zero — misleadingly suggesting the instrumentation is dead. Eight
// hot keys and oversubscription (up to 32 threads) force overlapping
// windows: preemption between a find_from landing and its try_insert /
// try_delete CAS gets another thread's swing in first, and the
// retries/op and cas_fail/op columns show real, non-zero contention.
void run_contention(int millis) {
    table t({"structure", "threads", "ops/s", "retries/op", "cas_fail/op"});
    constexpr std::uint64_t keys = 8;
    const std::vector<int> counts = {4, 8, 16, 32};
    sweep_threads(
        t, "valois-lockfree", op_mix::mixed(), keys, millis,
        [&] { return std::make_unique<sorted_list_map<int, int>>(8 * keys); }, counts);
    sweep_threads(
        t, "fine-lockcoupling", op_mix::mixed(), keys, millis,
        [&] { return std::make_unique<fine_list_map<int, int>>(); }, counts);
    emit("E1 hot-key contention, " + std::to_string(keys) + " keys, mix " +
             mix_name(op_mix::mixed()),
         t);
}

// Policy scaling section (ROADMAP D11): the same 256-key sorted list
// under each reclamation policy at 1 and 4 threads, for a read-only mix
// and a 50% find mix. A find that writes shared lines (counts on the
// head or on the nodes it protects) stops scaling with threads; one that
// only reads scales like the epoch row.
void run_policy_scaling(int millis) {
    constexpr std::uint64_t keys = 256;
    const std::vector<int> counts = {1, 4};
    for (const op_mix mix : {op_mix{100, 0, 0}, op_mix::mixed()}) {
        table t({"structure", "threads", "ops/s", "retries/op", "cas_fail/op"});
        sweep_threads(
            t, "valois-refcount", mix, keys, millis,
            [&] { return std::make_unique<sorted_list_map<int, int>>(2 * keys); }, counts);
        sweep_threads(
            t, "valois-epoch", mix, keys, millis,
            [&] {
                return std::make_unique<
                    sorted_list_map<int, int, std::less<int>, epoch_policy>>(2 * keys);
            },
            counts);
        emit("E1 policy scaling, " + std::to_string(keys) + " keys, mix " + mix_name(mix), t);
    }
}

}  // namespace

int main() {
    bench::telemetry_session telemetry("bench_e1_vs_locks");
    const int millis = bench_millis(150);
    run_mix(op_mix::read_heavy(), 256, millis);
    run_mix(op_mix::mixed(), 256, millis);
    run_contention(millis);
    run_policy_scaling(millis);
    return 0;
}
