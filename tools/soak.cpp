// soak: long-running randomized reliability driver.
//
// Runs the full mixed workload against every structure in rotation —
// including the sorted-list dictionary under both memory policies —
// with per-round ledger verification and quiescent audits, until the
// time budget expires. Intended for hours-long burn-in runs that CI's
// short test suite cannot provide:
//
//     ./build/tools/soak 3600          # one hour
//     ./build/tools/soak 60 42         # one minute, seed 42
//
// Telemetry: a once-per-second ticker prints live throughput and the
// reclamation health gauges (retired backlog per policy, free-list
// depth); set LFLL_TELEMETRY=jsonl:<path> to also stream registry
// snapshots for `tools/lfll_top`, and build with -DLFLL_TRACE=ON to get
// a Chrome/Perfetto trace of the final window (LFLL_TRACE_OUT, default
// soak_trace.json) on exit.
//
// Exit code 0 = every round verified; nonzero = invariant violation
// (details on stderr).
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "lfll/baseline/harris_michael_list.hpp"
#include "lfll/core/audit.hpp"
#include "lfll/lfll.hpp"
#include "lfll/telemetry/exporter.hpp"
#include "lfll/telemetry/trace.hpp"

namespace {

using namespace lfll;

struct round_config {
    int threads;
    int keys;
    int ops_per_thread;
};

int failures = 0;

/// Completed-op count for the live ticker (bumped in chunks per thread).
std::atomic<std::uint64_t> soak_ops{0};

void fail(const char* what) {
    std::fprintf(stderr, "SOAK FAILURE: %s\n", what);
    ++failures;
}

/// Ledger-verified mixed run against any set-like structure.
template <typename Insert, typename Erase, typename Contains>
void ledger_round(std::uint64_t seed, const round_config& cfg, Insert&& ins, Erase&& ers,
                  Contains&& has) {
    std::vector<std::vector<long>> insc(cfg.threads, std::vector<long>(cfg.keys, 0));
    std::vector<std::vector<long>> delc(cfg.threads, std::vector<long>(cfg.keys, 0));
    std::atomic<bool> go{false};
    std::vector<std::thread> ts;
    for (int t = 0; t < cfg.threads; ++t) {
        ts.emplace_back([&, t] {
            xorshift64 rng(seed + static_cast<std::uint64_t>(t) * 7919);
            while (!go.load(std::memory_order_acquire)) {
            }
            for (int i = 0; i < cfg.ops_per_thread; ++i) {
                const int k = static_cast<int>(rng.next_below(cfg.keys));
                switch (rng.next() % 3) {
                    case 0:
                        if (ins(k)) insc[t][k]++;
                        break;
                    case 1:
                        if (ers(k)) delc[t][k]++;
                        break;
                    default:
                        (void)has(k);
                        break;
                }
            }
            soak_ops.fetch_add(static_cast<std::uint64_t>(cfg.ops_per_thread),
                               std::memory_order_relaxed);
        });
    }
    go.store(true, std::memory_order_release);
    for (auto& th : ts) th.join();
    for (int k = 0; k < cfg.keys; ++k) {
        long balance = 0;
        for (int t = 0; t < cfg.threads; ++t) balance += insc[t][k] - delc[t][k];
        if (balance < 0 || balance > 1) fail("ledger balance out of {0,1}");
        if ((balance == 1) != has(k)) fail("final membership mismatch");
    }
}

/// Mixed run + quiescent audit of the sorted-list dictionary under one
/// memory policy. Running both per cycle keeps every policy's
/// reclamation gauges (retired backlog, free-list depth, epoch lag) live
/// in the telemetry stream.
template <typename Policy>
void dict_round(std::uint64_t seed, const round_config& cfg) {
    sorted_list_map<int, int, std::less<int>, Policy> m(2048);
    ledger_round(
        seed, cfg, [&](int k) { return m.insert(k, k); },
        [&](int k) { return m.erase(k); }, [&](int k) { return m.contains(k); });
    m.list().pool().drain_retired();
    auto r = audit_list(m.list());
    if (!r.ok)
        fail(("sorted_list_map<" + std::string(Policy::name) + "> audit: " + r.error)
                 .c_str());
}

void one_cycle(std::uint64_t seed, const round_config& cfg) {
    dict_round<valois_refcount>(seed, cfg);
    dict_round<epoch_policy>(seed + 6, cfg);
    {
        hash_map<int, int> m(32, 16);
        ledger_round(
            seed + 1, cfg, [&](int k) { return m.insert(k, k); },
            [&](int k) { return m.erase(k); }, [&](int k) { return m.contains(k); });
        for (std::size_t b = 0; b < m.bucket_count(); ++b) {
            auto r = audit_list(m.bucket_at(b).list());
            if (!r.ok) fail(("hash_map bucket audit: " + r.error).c_str());
        }
    }
    {
        skip_list_map<int, int> m(4096, 10);
        ledger_round(
            seed + 2, cfg, [&](int k) { return m.insert(k, k); },
            [&](int k) { return m.erase(k); }, [&](int k) { return m.contains(k); });
        std::vector<valois_list<skip_list_map<int, int>::entry>*> lists;
        for (int i = 0; i < m.max_level(); ++i) lists.push_back(&m.level(i));
        auto r = audit_shared(m.pool(), lists);
        if (!r.ok) fail(("skip_list audit: " + r.error).c_str());
    }
    {
        bst_set<int> m(4096);
        ledger_round(
            seed + 3, cfg, [&](int k) { return m.insert(k); },
            [&](int k) { return m.erase(k); }, [&](int k) { return m.contains(k); });
        const std::string err = m.validate_slow();
        if (!err.empty()) fail(("bst audit: " + err).c_str());
    }
    {
        harris_michael_list<int, int> m;
        ledger_round(
            seed + 4, cfg, [&](int k) { return m.insert(k, k); },
            [&](int k) { return m.erase(k); }, [&](int k) { return m.contains(k); });
    }
    // Queue conservation round.
    {
        valois_queue<long> q(1024);
        std::atomic<long> in{0}, out{0};
        std::vector<std::thread> ts;
        for (int t = 0; t < cfg.threads; ++t) {
            ts.emplace_back([&, t] {
                xorshift64 rng(seed + 100 + static_cast<std::uint64_t>(t));
                for (int i = 0; i < cfg.ops_per_thread; ++i) {
                    if (rng.next() % 2 == 0) {
                        q.enqueue(1);
                        in.fetch_add(1);
                    } else if (q.dequeue().has_value()) {
                        out.fetch_add(1);
                    }
                }
                soak_ops.fetch_add(static_cast<std::uint64_t>(cfg.ops_per_thread),
                                   std::memory_order_relaxed);
            });
        }
        for (auto& th : ts) th.join();
        long rest = 0;
        while (q.dequeue().has_value()) ++rest;
        if (rest != in.load() - out.load()) fail("queue conservation");
    }
}

std::int64_t gauge_value(const char* name, const char* labels = "") {
    return telemetry::registry::global().get_gauge(name, labels).value();
}

/// Once-per-second live ticker: throughput since the last tick plus the
/// reclamation health gauges for every policy.
void ticker_loop(const std::atomic<bool>& done, const std::atomic<long>& cycles) {
    std::uint64_t last_ops = 0;
    auto last = std::chrono::steady_clock::now();
    const auto start = last;
    while (!done.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1000));
        const auto now = std::chrono::steady_clock::now();
        const std::uint64_t ops = soak_ops.load(std::memory_order_relaxed);
        const double dt = std::chrono::duration<double>(now - last).count();
        const double rate =
            dt > 0 ? static_cast<double>(ops - last_ops) / dt / 1e6 : 0.0;
        std::printf(
            "soak %5.0fs | %ld cycles | %6.2f Mops/s | backlog v/e %lld/%lld | "
            "free %lld | epoch lag %lld | hp slots %lld\n",
            std::chrono::duration<double>(now - start).count(), cycles.load(), rate,
            static_cast<long long>(
                gauge_value("lfll_retired_backlog", "policy=\"valois_refcount\"")),
            static_cast<long long>(
                gauge_value("lfll_retired_backlog", "policy=\"epoch\"")),
            static_cast<long long>(
                gauge_value("lfll_free_list_depth", "policy=\"valois_refcount\"")),
            static_cast<long long>(gauge_value("lfll_epoch_lag", "policy=\"epoch\"")),
            static_cast<long long>(
                gauge_value("lfll_hazard_slots_occupied", "policy=\"hazard\"")));
        std::fflush(stdout);
        last_ops = ops;
        last = now;
    }
}

}  // namespace

int main(int argc, char** argv) {
    const double seconds = argc > 1 ? std::atof(argv[1]) : 10.0;
    std::uint64_t seed = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 20260704ULL;

    auto exporter = telemetry::exporter_from_env();
    std::atomic<bool> done{false};
    std::atomic<long> cycles{0};
    std::thread ticker(ticker_loop, std::cref(done), std::cref(cycles));

    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::duration<double>(seconds);
    const round_config configs[] = {
        {4, 32, 3000}, {8, 8, 2000}, {2, 256, 4000}, {6, 1, 1500},
    };
    while (std::chrono::steady_clock::now() < deadline && failures == 0) {
        one_cycle(seed, configs[cycles.load() % (sizeof configs / sizeof configs[0])]);
        seed = splitmix64(seed).next();
        cycles.fetch_add(1);
    }

    done.store(true, std::memory_order_release);
    ticker.join();
    if (exporter != nullptr) exporter->stop();
    if constexpr (telemetry::trace_enabled) {
        const char* out = std::getenv("LFLL_TRACE_OUT");
        const std::string path = out != nullptr ? out : "soak_trace.json";
        telemetry::write_chrome_trace(path);
        std::printf("soak: flight-recorder trace written to %s\n", path.c_str());
    }
    std::printf("soak finished: %ld cycles, %d failures, %llu ops\n", cycles.load(),
                failures, static_cast<unsigned long long>(soak_ops.load()));
    return failures == 0 ? 0 : 1;
}
