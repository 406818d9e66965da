// lfll_perfbench — the repository benchmark driver (see README.md here).
//
// Runs one named workload against the library's public API from one
// process: 4 closed-loop client threads replay op streams generated from
// (seed, client) before timing, every result is checked, and the run ends
// with quiescent count identities, the §5 audit and a single-thread replay
// against a std::map oracle. The last stdout line is one JSON report.
//
//   lfll_perfbench --workload kv-read --seed 1 --seconds 10 --trace 0
//                  [--stub none|wrong-value|lost-insert] [--spans-out FILE]
//
// --trace 0 reports the end-to-end metrics, medians over rounds that each
// set up a fresh store. --trace 1 runs one round: an untraced half and a
// traced half of the window, and reports the per-layer metrics:
// spans timed around each layer's public call, counter deltas of
// instrument::snapshot(), and pool/directory stats. --stub wraps the store
// in a deliberately faulty one; the run must then fail its checks.
#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <malloc.h>

#include "lfll/core/audit.hpp"
#include "lfll/dict/sharded_kv.hpp"
#include "lfll/dict/sorted_list_map.hpp"
#include "lfll/primitives/instrument.hpp"
#include "perfbench_build_info.hpp"

extern char** environ;

namespace {

constexpr int kClients = 4;
constexpr std::size_t kShards = 4;
constexpr std::size_t kStreamLen = std::size_t{1} << 20;  // ops per client, replayed cyclically
constexpr std::uint64_t kLatencyStride = 16;              // untraced: time every 16th op
constexpr std::size_t kLatencyCap = std::size_t{1} << 20; // samples per client
constexpr std::uint64_t kTraceStride = 64;                // traced: span every 64th op
constexpr std::size_t kTraceCap = std::size_t{1} << 15;   // traced ops per client
constexpr std::size_t kReplayOps = 16384;
constexpr double kWarmupS = 0.5;
constexpr double kTracedWarmupS = 0.25;

enum : std::uint32_t { kFind = 0, kInsert = 1, kErase = 2 };
constexpr unsigned kKindShift = 30;
constexpr std::uint32_t kKeyMask = (std::uint32_t{1} << kKindShift) - 1;
const char* const kOpNames[] = {"find", "insert", "erase"};

/// The value every key maps to: a zero, default or stale value fails.
constexpr int value_of(int key) { return 2 * key + 1; }

struct workload {
    const char* name;
    bool kv;                 // sharded_kv over split_ordered_map, else sorted_list_map
    std::uint32_t key_range; // power of two; every even key is prefilled
    double find_share;
    double insert_share;     // erase takes the rest
    double zipf_theta;       // 0 = uniform
    int setup_reps;          // set-ups timed per round (median over all reported)
};

/// An untraced run is split into this many rounds, each on a freshly set
/// up store; the end-to-end metrics are medians over rounds.
constexpr int kRounds = 5;

const workload kWorkloads[] = {
    {"kv-read", true, std::uint32_t{1} << 18, 0.90, 0.05, 0.99, 1},
    {"kv-churn", true, std::uint32_t{1} << 18, 0.00, 0.50, 0.0, 1},
    {"list-walk", false, 1024, 0.80, 0.10, 0.0, 10},
};

std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double seconds_since(std::int64_t t0) { return static_cast<double>(now_ns() - t0) * 1e-9; }

struct splitmix64 {
    std::uint64_t s;
    std::uint64_t next() {
        std::uint64_t z = (s += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }
    double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
};

/// Bytes the process has allocated from the heap and not freed (every
/// malloc arena plus mmapped blocks): what a store holds, without the
/// page-granular noise of RSS on a small store.
std::size_t heap_bytes() {
    const struct mallinfo2 mi = mallinfo2();
    return mi.uordblks + mi.hblkhd;
}

std::string cpu_model() {
    std::ifstream f("/proc/cpuinfo");
    for (std::string line; std::getline(f, line);) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos) return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    }
    return "unknown";
}

/// Type-7 (linear interpolation) quantile; sorts `v` in place.
template <typename T>
double quantile(std::vector<T>& v, double q) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return static_cast<double>(v[lo]) +
           (pos - static_cast<double>(lo)) * (static_cast<double>(v[hi]) - static_cast<double>(v[lo]));
}

/// Samples that lie beyond the q-quantile (must be >= 10 for a usable p99).
std::size_t beyond(std::size_t n, double q) {
    return n - std::min(n, static_cast<std::size_t>(std::ceil(q * static_cast<double>(n))));
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

// ---------------------------------------------------------------- JSON out

std::string json_escape(const std::string& s) {
    std::string out;
    for (const char ch : s) {
        if (ch == '"' || ch == '\\') {
            out += '\\';
            out += ch;
        } else if (static_cast<unsigned char>(ch) < 0x20) {
            out += ' ';
        } else {
            out += ch;
        }
    }
    return out;
}

std::string json_number(double v) {
    if (!std::isfinite(v)) return "0";
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

class json_object {
public:
    json_object& raw(const std::string& k, const std::string& v) {
        os_ << (empty_ ? "{" : ",") << '"' << json_escape(k) << "\":" << v;
        empty_ = false;
        return *this;
    }
    json_object& num(const std::string& k, double v) { return raw(k, json_number(v)); }
    json_object& integer(const std::string& k, std::uint64_t v) { return raw(k, std::to_string(v)); }
    json_object& str(const std::string& k, const std::string& v) {
        return raw(k, '"' + json_escape(v) + '"');
    }
    json_object& boolean(const std::string& k, bool v) { return raw(k, v ? "true" : "false"); }
    std::string done() const { return empty_ ? "{}" : os_.str() + "}"; }

private:
    std::ostringstream os_;
    bool empty_ = true;
};

struct metric {
    std::string name;
    double value;
    std::string unit;
};

std::string metrics_json(const std::vector<metric>& ms) {
    json_object o;
    for (const auto& m : ms) {
        o.raw(m.name, json_object().num("value", m.value).str("unit", m.unit).done());
    }
    return o.done();
}

// ------------------------------------------------------------ op streams

using stream = std::vector<std::uint32_t>;

/// Each client's op kinds and keys, drawn from (seed, client) before any
/// timing. Zipf keys are ranks of a CDF search, scattered over the key
/// range by an odd multiplier (a bijection mod 2^n) so the hot set is
/// spread across shards and buckets the same way for every seed.
std::vector<stream> make_streams(const workload& w, std::uint64_t seed) {
    std::vector<double> cdf;
    if (w.zipf_theta > 0) {
        cdf.resize(w.key_range);
        double sum = 0;
        for (std::uint32_t i = 0; i < w.key_range; ++i) {
            sum += 1.0 / std::pow(static_cast<double>(i + 1), w.zipf_theta);
            cdf[i] = sum;
        }
        for (auto& c : cdf) c /= sum;
    }
    const std::uint32_t mask = w.key_range - 1;
    std::vector<stream> out(kClients, stream(kStreamLen));
    for (int c = 0; c < kClients; ++c) {
        splitmix64 rng{seed * 0xd1342543de82ef95ULL + static_cast<std::uint64_t>(c) + 1};
        for (auto& op : out[c]) {
            const double u = rng.unit();
            const std::uint32_t kind =
                u < w.find_share ? kFind : u < w.find_share + w.insert_share ? kInsert : kErase;
            std::uint32_t key;
            if (cdf.empty()) {
                key = static_cast<std::uint32_t>(rng.next()) & mask;
            } else {
                const auto rank = static_cast<std::uint32_t>(
                    std::lower_bound(cdf.begin(), cdf.end(), rng.unit()) - cdf.begin());
                key = (std::min(rank, mask) * 0x9e3779b1u) & mask;
            }
            op = (kind << kKindShift) | key;
        }
    }
    return out;
}

// ---------------------------------------------------------------- stores

using kv_store = decltype(lfll::make_sharded_kv<int, int>(kShards));
using so_map = kv_store::map_type;
using list_store = lfll::sorted_list_map<int, int>;

/// Store construction plus prefill of every even key, with library
/// defaults. Returns the number of prefill inserts that failed.
template <typename Store>
std::unique_ptr<Store> make_store(const workload& w, std::uint64_t& failed) {
    std::unique_ptr<Store> s;
    if constexpr (std::is_same_v<Store, kv_store>) {
        s = std::make_unique<kv_store>(lfll::make_sharded_kv<int, int>(kShards));
    } else {
        s = std::make_unique<list_store>();
    }
    for (int k = 0; k < static_cast<int>(w.key_range); k += 2) failed += !s->insert(k, value_of(k));
    return s;
}

std::uint64_t prefill_count(const workload& w) { return w.key_range / 2; }

/// Faults the stub store injects, so the benchmark's own checks can be
/// shown to catch them.
enum class fault { none, wrong_value, lost_insert };

template <typename Store>
class faulty_store {
public:
    faulty_store(Store& s, fault f) : s_(s), f_(f) {}
    std::optional<int> find(int k) {
        std::optional<int> r = s_.find(k);
        if (r && f_ == fault::wrong_value && (k & 63) == 2) *r += 2;
        return r;
    }
    bool insert(int k, int v) {
        if (f_ == fault::lost_insert && (k & 63) == 1) return true;  // claims success, stores nothing
        return s_.insert(k, v);
    }
    bool erase(int k) { return s_.erase(k); }

private:
    Store& s_;
    fault f_;
};

/// §5 audit of every list in the store; empty string when clean. A
/// split-ordered bucket slot holds one counted reference on its dummy,
/// which the audit must be told about.
std::string audit(kv_store& kv) {
    for (std::size_t i = 0; i < kv.shard_count(); ++i) {
        std::map<const so_map::node*, std::size_t> external;
        kv.shard_at(i).for_each_bucket_slot(
            [&](std::size_t, so_map::node* d) { external[d] += 1; });
        const lfll::audit_report r = lfll::audit_list(kv.shard_at(i).list(), external);
        if (!r.ok) return "shard " + std::to_string(i) + ": " + r.error;
    }
    return "";
}

std::string audit(list_store& m) {
    const lfll::audit_report r = lfll::audit_list(m.list());
    return r.ok ? "" : r.error;
}

struct pool_stats {
    double capacity = 0, free = 0;  // slots
    double free_bytes = 0;          // heap bytes of the free slots
};

pool_stats pools(kv_store& kv) {
    pool_stats p;
    for (std::size_t i = 0; i < kv.shard_count(); ++i) {
        p.capacity += static_cast<double>(kv.shard_at(i).pool().capacity());
        p.free += static_cast<double>(kv.shard_at(i).pool().free_count());
    }
    p.free_bytes = p.free * sizeof(so_map::node);
    return p;
}

pool_stats pools(list_store& m) {
    const double free = static_cast<double>(m.list().pool().free_count());
    return {static_cast<double>(m.list().pool().capacity()), free, free * sizeof(list_store::node)};
}

// ---------------------------------------------------------------- clients

/// What one traced op recorded: the root `op` span is [t0, t3]; on kv
/// workloads `sharded_kv.route` is [t1, t2] and the map call [t2, t3],
/// on list-walk the map call is [t1, t3] (t2 unused).
struct traced_op {
    std::uint64_t id;
    std::uint32_t kind;
    std::int64_t t0, t1, t2, t3;
};

struct alignas(64) client_stats {
    std::uint64_t ops = 0;       // every op this phase ran (warm-up included)
    std::uint64_t measured = 0;  // ops inside the timed window
    std::uint64_t finds = 0, hits = 0, bad_values = 0;
    std::uint64_t inserts = 0, inserted = 0, erases = 0, erased = 0;
    std::span<std::uint32_t> latency;  // untraced per-op ns samples
    std::size_t latency_n = 0;
    std::span<traced_op> traced;
    std::size_t traced_n = 0;
    std::array<std::uint64_t, kShards> shard_ops{};
    std::string error;
};

/// Issues one op through `t`'s public API and consumes its result: a
/// find hit must carry value_of(key).
template <typename Target>
inline void apply(Target& t, std::uint32_t kind, int key, client_stats& st) {
    if (kind == kFind) {
        ++st.finds;
        const std::optional<int> r = t.find(key);
        if (r) {
            ++st.hits;
            st.bad_values += *r != value_of(key);
        }
    } else if (kind == kInsert) {
        ++st.inserts;
        st.inserted += t.insert(key, value_of(key));
    } else {
        ++st.erases;
        st.erased += t.erase(key);
    }
}

struct phase_result {
    double window_s = 0;
    std::vector<client_stats> clients = std::vector<client_stats>(kClients);

    std::uint64_t sum(std::uint64_t client_stats::*f) const {
        std::uint64_t n = 0;
        for (const auto& c : clients) n += c.*f;
        return n;
    }
    double ops_per_s() const { return ratio(static_cast<double>(sum(&client_stats::measured)), window_s); }
};

using stream_pos = std::array<std::uint64_t, kClients>;

/// Closed loop: each client issues its next op when the previous one
/// returns. Clients run a warm-up, then the timed window; `op(st, word,
/// index, measuring)` executes one op. Each client continues its stream
/// from `next[c]`, which is advanced past the ops it ran.
template <typename OpFn>
void run_phase(phase_result& res, const std::vector<stream>& streams, stream_pos& next,
               double warmup_s, double measure_s, OpFn op) {
    std::atomic<int> phase{0};  // 0 start, 1 warm-up, 2 measure, 3 stop
    {
        std::vector<std::jthread> threads;
        // If a thread fails to start, release the started ones before the
        // jthreads join.
        struct stop_on_unwind {
            std::atomic<int>& phase;
            ~stop_on_unwind() { phase.store(3, std::memory_order_release); }
        } guard{phase};
        for (int c = 0; c < kClients; ++c) {
            threads.emplace_back([&, c] {
                client_stats& st = res.clients[c];
                const stream& ops = streams[c];
                while (phase.load(std::memory_order_acquire) == 0) std::this_thread::yield();
                const std::uint64_t first = next[c];
                std::uint64_t i = first, start = first;
                bool measuring = false;
                try {
                    for (;;) {
                        const int ph = phase.load(std::memory_order_relaxed);
                        if (ph == 3) break;
                        if (ph == 2 && !measuring) {
                            measuring = true;
                            start = i;
                        }
                        op(st, ops[i & (kStreamLen - 1)], i, measuring);
                        ++i;
                    }
                } catch (const std::exception& e) {
                    st.error = e.what();
                }
                st.ops = i - first;
                st.measured = measuring ? i - start : 0;
                next[c] = i;
            });
        }
        phase.store(1, std::memory_order_release);
        std::this_thread::sleep_for(std::chrono::duration<double>(warmup_s));
        phase.store(2, std::memory_order_release);
        const std::int64_t t0 = now_ns();
        std::this_thread::sleep_for(std::chrono::duration<double>(measure_s));
        phase.store(3, std::memory_order_release);
        res.window_s = seconds_since(t0);
    }  // jthreads join here
}

/// Untraced op: every kLatencyStride-th measured op is timed around the
/// single public call.
template <typename Target>
auto untraced_op(Target& t) {
    return [&t](client_stats& st, std::uint32_t word, std::uint64_t i, bool measuring) {
        const std::uint32_t kind = word >> kKindShift;
        const int key = static_cast<int>(word & kKeyMask);
        if (measuring && i % kLatencyStride == 0 && st.latency_n < st.latency.size()) {
            const std::int64_t t0 = now_ns();
            apply(t, kind, key, st);
            const std::int64_t d = now_ns() - t0;
            st.latency[st.latency_n++] = static_cast<std::uint32_t>(std::min<std::int64_t>(d, UINT32_MAX));
        } else {
            apply(t, kind, key, st);
        }
    };
}

/// Traced op on a sharded store: routing and the shard's map call are
/// issued separately (the same two steps sharded_kv::find/insert/erase
/// take) so each gets its own span.
auto traced_op_fn(kv_store& kv) {
    return [&kv](client_stats& st, std::uint32_t word, std::uint64_t i, bool measuring) {
        if (!(measuring && i % kTraceStride == 0 && st.traced_n < st.traced.size())) {
            const int key = static_cast<int>(word & kKeyMask);
            const std::size_t s = kv.shard_of(key);
            ++st.shard_ops[s];
            apply(kv.shard_at(s), word >> kKindShift, key, st);
            return;
        }
        traced_op& r = st.traced[st.traced_n++];
        r.t0 = now_ns();
        r.id = i;
        r.kind = word >> kKindShift;
        const int key = static_cast<int>(word & kKeyMask);
        r.t1 = now_ns();
        const std::size_t s = kv.shard_of(key);
        r.t2 = now_ns();
        ++st.shard_ops[s];
        apply(kv.shard_at(s), r.kind, key, st);
        r.t3 = now_ns();
    };
}

auto traced_op_fn(list_store& m) {
    return [&m](client_stats& st, std::uint32_t word, std::uint64_t i, bool measuring) {
        if (!(measuring && i % kTraceStride == 0 && st.traced_n < st.traced.size())) {
            ++st.shard_ops[0];
            apply(m, word >> kKindShift, static_cast<int>(word & kKeyMask), st);
            return;
        }
        traced_op& r = st.traced[st.traced_n++];
        r.t0 = now_ns();
        r.id = i;
        r.kind = word >> kKindShift;
        const int key = static_cast<int>(word & kKeyMask);
        r.t1 = now_ns();
        ++st.shard_ops[0];
        apply(m, r.kind, key, st);
        r.t3 = r.t2 = now_ns();
    };
}

// ---------------------------------------------------------------- checks

struct check_log {
    std::uint64_t failed = 0;
    std::vector<std::string> notes;

    void fail(std::uint64_t n, const std::string& what) {
        if (n == 0) return;
        failed += n;
        notes.push_back(what + " (" + std::to_string(n) + ")");
    }
};

std::uint64_t absdiff(std::uint64_t a, std::uint64_t b) { return a > b ? a - b : b - a; }

/// Quiescent identities: prefill + successful inserts - successful erases
/// == size_slow() == the for_each count, and every visited entry is a
/// distinct in-range key carrying value_of(key).
template <typename Store>
std::uint64_t check_contents(Store& s, const workload& w, std::uint64_t expected, check_log& log) {
    const std::uint64_t size = s.size_slow();
    std::uint64_t seen = 0, bad = 0;
    std::vector<bool> present(w.key_range);
    s.for_each([&](const int& k, const int& v) {
        ++seen;
        if (k < 0 || k >= static_cast<int>(w.key_range) || present[k]) {
            ++bad;
            return;
        }
        present[k] = true;
        bad += v != value_of(k);
    });
    log.fail(absdiff(size, expected), "size_slow() != prefill + inserted - erased");
    log.fail(absdiff(seen, expected), "for_each count != prefill + inserted - erased");
    log.fail(bad, "for_each entries with a bad key or value");
    return size;
}

/// Single-thread replay of the streams' prefix (clients interleaved
/// round-robin) on a freshly set-up store, op for op against std::map.
template <typename Target>
void replay(Target& t, const workload& w, const std::vector<stream>& streams, check_log& log) {
    std::map<int, int> oracle;
    for (int k = 0; k < static_cast<int>(w.key_range); k += 2) oracle.emplace(k, value_of(k));
    std::uint64_t mismatches = 0;
    for (std::size_t j = 0; j < kReplayOps; ++j) {
        const std::uint32_t word = streams[j % kClients][j / kClients];
        const int key = static_cast<int>(word & kKeyMask);
        switch (word >> kKindShift) {
        case kFind: {
            const std::optional<int> got = t.find(key);
            const auto it = oracle.find(key);
            mismatches += it == oracle.end() ? got.has_value() : got != it->second;
            break;
        }
        case kInsert:
            mismatches += t.insert(key, value_of(key)) != oracle.emplace(key, value_of(key)).second;
            break;
        default:
            mismatches += t.erase(key) != (oracle.erase(key) == 1);
        }
    }
    log.fail(mismatches, "replay results that differ from the std::map oracle");
}

// ---------------------------------------------------------------- counters

/// after - before over all 16 op_counters fields.
lfll::op_counters delta(const lfll::op_counters& a, const lfll::op_counters& b) {
    static_assert(sizeof(lfll::op_counters) == 16 * sizeof(std::uint64_t),
                  "op_counters changed: update the benchmark's delta()");
    lfll::op_counters d;
    d.safe_reads = b.safe_reads - a.safe_reads;
    d.saferead_retries = b.saferead_retries - a.saferead_retries;
    d.cas_attempts = b.cas_attempts - a.cas_attempts;
    d.cas_failures = b.cas_failures - a.cas_failures;
    d.insert_retries = b.insert_retries - a.insert_retries;
    d.delete_retries = b.delete_retries - a.delete_retries;
    d.aux_hops = b.aux_hops - a.aux_hops;
    d.aux_compactions = b.aux_compactions - a.aux_compactions;
    d.cells_traversed = b.cells_traversed - a.cells_traversed;
    d.nodes_allocated = b.nodes_allocated - a.nodes_allocated;
    d.nodes_reclaimed = b.nodes_reclaimed - a.nodes_reclaimed;
    d.traverse_hops = b.traverse_hops - a.traverse_hops;
    d.traverse_fast_hops = b.traverse_fast_hops - a.traverse_fast_hops;
    d.traverse_prefetches = b.traverse_prefetches - a.traverse_prefetches;
    d.deferred_releases = b.deferred_releases - a.deferred_releases;
    d.deferred_flushes = b.deferred_flushes - a.deferred_flushes;
    return d;
}

/// Mean ns of one back-to-back pair of clock reads: the floor under any
/// span or latency sample.
double clock_pair_ns() {
    constexpr int kPairs = 200000;
    std::int64_t total = 0;
    for (int i = 0; i < kPairs; ++i) {
        const std::int64_t a = now_ns();
        total += now_ns() - a;
    }
    return static_cast<double>(total) / kPairs;
}

// ---------------------------------------------------------------- the run

struct options {
    const workload* w = nullptr;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    fault stub = fault::none;
    std::string spans_out;
};

/// Per-layer span durations of a traced phase, by layer and op kind.
struct span_times {
    std::vector<std::int64_t> op_self, route;
    std::array<std::vector<std::int64_t>, 3> map;  // by op kind
};

span_times collect_spans(const phase_result& ph, bool kv) {
    span_times s;
    for (const auto& c : ph.clients) {
        for (std::size_t i = 0; i < c.traced_n; ++i) {
            const traced_op& r = c.traced[i];
            if (kv) {
                s.route.push_back(r.t2 - r.t1);
                s.map[r.kind].push_back(r.t3 - r.t2);
            } else {
                s.map[r.kind].push_back(r.t3 - r.t1);
            }
            s.op_self.push_back(r.t1 - r.t0);  // children cover [t1, t3] = the op's end
        }
    }
    return s;
}

void write_spans(const std::string& path, const phase_result& ph, const workload& w) {
    std::ofstream f(path);
    const std::string layer = w.kv ? "split_ordered_map." : "sorted_list_map.";
    f << "{\"workload\":\"" << w.name << "\",\"clock\":\"steady_clock_ns\","
      << "\"fields\":[\"op_id\",\"name\",\"parent\",\"start_ns\",\"end_ns\"],\"spans\":[";
    bool first = true;
    auto span = [&](std::uint64_t id, const std::string& name, const char* parent,
                    std::int64_t a, std::int64_t b) {
        f << (first ? "" : ",") << "\n[" << id << ",\"" << name << "\","
          << (parent ? std::string("\"") + parent + "\"" : "null") << ',' << a << ',' << b << ']';
        first = false;
    };
    for (std::size_t c = 0; c < ph.clients.size(); ++c) {
        const client_stats& st = ph.clients[c];
        for (std::size_t i = 0; i < st.traced_n; ++i) {
            const traced_op& r = st.traced[i];
            const std::uint64_t id = (static_cast<std::uint64_t>(c) << 48) | r.id;
            span(id, "op", nullptr, r.t0, r.t3);
            if (w.kv) {
                span(id, "sharded_kv.route", "op", r.t1, r.t2);
                span(id, layer + kOpNames[r.kind], "op", r.t2, r.t3);
            } else {
                span(id, layer + kOpNames[r.kind], "op", r.t1, r.t3);
            }
        }
    }
    f << "\n]}\n";
}

/// Quiescent checks of one store after its clients stopped: client
/// errors, wrong find values, the count identities, and the §5 audit.
/// Returns the live entry count.
template <typename Store>
std::uint64_t settle(Store& store, const workload& w, std::uint64_t base,
                     const std::vector<const phase_result*>& phases, check_log& log) {
    std::uint64_t inserted = 0, erased = 0;
    for (const phase_result* ph : phases) {
        inserted += ph->sum(&client_stats::inserted);
        erased += ph->sum(&client_stats::erased);
        log.fail(ph->sum(&client_stats::bad_values), "find hits with a wrong value");
        for (const auto& c : ph->clients) log.fail(!c.error.empty(), "client error: " + c.error);
    }
    const std::uint64_t live = check_contents(store, w, base + inserted - erased, log);
    const std::string e = audit(store);
    log.fail(!e.empty(), "audit: " + e);
    return live;
}

std::string json_array(const std::vector<double>& v) {
    std::string out = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
        if (i) out += ',';
        out += json_number(v[i]);
    }
    return out + "]";
}

double median(std::vector<double> v) { return quantile(v, 0.5); }

template <typename Store>
int run(const options& o) {
    const workload& w = *o.w;
    check_log log;
    std::uint64_t attempted = 0;

    const std::int64_t g0 = now_ns();
    const std::vector<stream> streams = make_streams(w, o.seed);
    const double gen_s = seconds_since(g0);

    // Driver-owned sample buffers, allocated before any heap baseline.
    std::vector<std::vector<std::uint32_t>> lat_buf(kClients, std::vector<std::uint32_t>(kLatencyCap));
    std::vector<std::vector<traced_op>> trace_buf(kClients, std::vector<traced_op>(o.trace ? kTraceCap : 0));
    const double clock_ns = clock_pair_ns();

    std::uint64_t prefill_failed = 0, live = 0;
    {
        // On a store of its own: the main thread's allocator caches from
        // the replay would otherwise inflate a measured store's pool.
        const auto store = make_store<Store>(w, prefill_failed);
        faulty_store<Store> target(*store, o.stub);
        replay(target, w, streams, log);
        attempted += kReplayOps;
        const std::string e = audit(*store);
        log.fail(!e.empty(), "audit after replay: " + e);
    }

    stream_pos next{};
    const int rounds = o.trace ? 1 : kRounds;
    std::vector<double> setup_s, ops_s, p50, p99, bpe, pool_slots;
    std::size_t min_beyond_p99 = SIZE_MAX;
    std::vector<metric> metrics;
    json_object info;

    for (int r = 0; r < rounds; ++r) {
        for (int k = 1; k < w.setup_reps; ++k) {
            const std::int64_t t0 = now_ns();
            const auto extra = make_store<Store>(w, prefill_failed);
            setup_s.push_back(seconds_since(t0));
        }
        const std::size_t heap0 = heap_bytes();
        const std::int64_t t0 = now_ns();
        std::unique_ptr<Store> store = make_store<Store>(w, prefill_failed);
        setup_s.push_back(seconds_since(t0));

        const std::uint64_t base = prefill_count(w);

        phase_result untraced;
        for (int c = 0; c < kClients; ++c) untraced.clients[c].latency = lat_buf[c];
        const double untraced_s = o.trace ? o.seconds / 2 : o.seconds / rounds;
        if (o.stub != fault::none) {  // a measured run calls the store directly
            faulty_store<Store> stub(*store, o.stub);
            run_phase(untraced, streams, next, kWarmupS, untraced_s, untraced_op(stub));
        } else {
            run_phase(untraced, streams, next, kWarmupS, untraced_s, untraced_op(*store));
        }
        attempted += untraced.sum(&client_stats::ops);

        if (!o.trace) {
            const std::size_t heap1 = heap_bytes();
            const pool_stats pool = pools(*store);
            pool_slots.push_back(pool.capacity);
            live = settle(*store, w, base, {&untraced}, log);
            std::vector<std::uint32_t> lat;
            for (const auto& c : untraced.clients) {
                lat.insert(lat.end(), c.latency.begin(),
                           c.latency.begin() + static_cast<std::ptrdiff_t>(c.latency_n));
            }
            min_beyond_p99 = std::min(min_beyond_p99, beyond(lat.size(), 0.99));
            ops_s.push_back(untraced.ops_per_s());
            p50.push_back(quantile(lat, 0.50));
            p99.push_back(quantile(lat, 0.99));
            // Free pool slots are left out: on list-walk the pool doubles
            // (4108 -> 8216 slots) in some rounds and not others, with a
            // probability that follows the host's speed; the slack shows in
            // memory.pool_slots_per_entry instead.
            bpe.push_back(ratio(static_cast<double>(heap1) - static_cast<double>(heap0) - pool.free_bytes,
                                static_cast<double>(live)));
            continue;
        }

        // Traced half: same store, the streams continue.
        phase_result traced;
        for (int c = 0; c < kClients; ++c) traced.clients[c].traced = trace_buf[c];
        const lfll::op_counters before = lfll::instrument::snapshot();
        run_phase(traced, streams, next, kTracedWarmupS, o.seconds - untraced_s, traced_op_fn(*store));
        const lfll::op_counters ctr = delta(before, lfll::instrument::snapshot());
        attempted += traced.sum(&client_stats::ops);
        const pool_stats pool = pools(*store);
        double buckets = 0, grows = 0, dummies = 0;
        if constexpr (std::is_same_v<Store, kv_store>) {
            for (std::size_t i = 0; i < store->shard_count(); ++i) {
                buckets += static_cast<double>(store->shard_at(i).bucket_count());
                grows += static_cast<double>(store->shard_at(i).grow_count());
                dummies += static_cast<double>(store->shard_at(i).dummy_count());
            }
        }
        live = settle(*store, w, base, {&untraced, &traced}, log);

        span_times sp = collect_spans(traced, w.kv);
        const double ops = static_cast<double>(traced.sum(&client_stats::ops));
        const double finds = static_cast<double>(traced.sum(&client_stats::finds));
        const double inserts = static_cast<double>(traced.sum(&client_stats::inserts));
        const double erases = static_cast<double>(traced.sum(&client_stats::erases));
        const double hops_per_op = ratio(static_cast<double>(ctr.traverse_hops), ops);
        double map_ns_total = 0, map_n = 0;
        for (const auto& v : sp.map) {
            for (const auto d : v) map_ns_total += static_cast<double>(d);
            map_n += static_cast<double>(v.size());
        }
        double skew = 0;
        if (w.kv) {
            std::array<double, kShards> per{};
            for (const auto& c : traced.clients) {
                for (std::size_t s = 0; s < kShards; ++s) per[s] += static_cast<double>(c.shard_ops[s]);
            }
            skew = ratio(*std::max_element(per.begin(), per.end()), ops / kShards);
        }
        const auto per_op = [&](std::uint64_t v) { return ratio(static_cast<double>(v), ops); };
        const auto share = [](std::uint64_t a, std::uint64_t b) {
            return ratio(static_cast<double>(a), static_cast<double>(b));
        };
        metrics = {
            {"driver.gen_s", gen_s, "s"},
            {"driver.clock_ns", clock_ns, "ns"},
            {"driver.trace_overhead", ratio(traced.ops_per_s(), untraced.ops_per_s()), "ratio"},
            {"driver.op_self_ns_p50", quantile(sp.op_self, 0.5), "ns"},
            {"sharded_kv.route_ns_p50", quantile(sp.route, 0.5), "ns"},
            {"sharded_kv.shard_skew", skew, "ratio"},
        };
        for (const char* layer : {"split_ordered_map", "sorted_list_map"}) {
            // The layer a workload bypasses did no work: its metrics read 0.
            const bool so = std::strcmp(layer, "split_ordered_map") == 0;
            const double used = so == w.kv ? 1.0 : 0.0;
            for (std::uint32_t k = 0; k < 3; ++k) {
                const std::string base_name = std::string(layer) + "." + kOpNames[k];
                metrics.push_back({base_name + "_ns_p50", used * quantile(sp.map[k], 0.5), "ns"});
                metrics.push_back({base_name + "_ns_p99", used * quantile(sp.map[k], 0.99), "ns"});
            }
            metrics.push_back({std::string(layer) + ".find_hit_ratio",
                               used * ratio(static_cast<double>(traced.sum(&client_stats::hits)), finds),
                               "ratio"});
            metrics.push_back({std::string(layer) + ".insert_ok_ratio",
                               used * ratio(static_cast<double>(traced.sum(&client_stats::inserted)), inserts),
                               "ratio"});
            metrics.push_back({std::string(layer) + ".erase_ok_ratio",
                               used * ratio(static_cast<double>(traced.sum(&client_stats::erased)), erases),
                               "ratio"});
            if (so) {
                metrics.push_back({"split_ordered_map.buckets", buckets, "count"});
                metrics.push_back({"split_ordered_map.grows", grows, "count"});
                metrics.push_back({"split_ordered_map.dummies", dummies, "count"});
                metrics.push_back({"split_ordered_map.entries_per_bucket",
                                   ratio(static_cast<double>(live), buckets), "entry/bucket"});
            }
        }
        const std::vector<metric> counters = {
            {"core.hops_per_op", hops_per_op, "hop/op"},
            {"core.cells_per_op", per_op(ctr.cells_traversed), "cell/op"},
            {"core.hops_per_cell", share(ctr.traverse_hops, ctr.cells_traversed), "hop/cell"},
            {"core.fast_hop_ratio", share(ctr.traverse_fast_hops, ctr.traverse_hops), "ratio"},
            {"core.aux_hops_per_op", per_op(ctr.aux_hops), "hop/op"},
            {"core.aux_compactions_per_op", per_op(ctr.aux_compactions), "1/op"},
            {"core.prefetches_per_op", per_op(ctr.traverse_prefetches), "1/op"},
            {"core.cas_per_op", per_op(ctr.cas_attempts), "1/op"},
            {"core.cas_fail_ratio", share(ctr.cas_failures, ctr.cas_attempts), "ratio"},
            {"core.insert_retries_per_op", per_op(ctr.insert_retries), "1/op"},
            {"core.delete_retries_per_op", per_op(ctr.delete_retries), "1/op"},
            {"core.ns_per_hop", ratio(ratio(map_ns_total, map_n), hops_per_op), "ns/hop"},
            {"memory.safe_reads_per_op", per_op(ctr.safe_reads), "1/op"},
            {"memory.saferead_retry_ratio", share(ctr.saferead_retries, ctr.safe_reads), "ratio"},
            {"memory.allocs_per_op", per_op(ctr.nodes_allocated), "1/op"},
            {"memory.reclaims_per_op", per_op(ctr.nodes_reclaimed), "1/op"},
            {"memory.reclaim_ratio", share(ctr.nodes_reclaimed, ctr.nodes_allocated), "ratio"},
            {"memory.deferred_releases_per_op", per_op(ctr.deferred_releases), "1/op"},
            {"memory.deferred_flushes_per_op", per_op(ctr.deferred_flushes), "1/op"},
            {"memory.pool_slots_per_entry", ratio(pool.capacity, static_cast<double>(live)), "slot/entry"},
            {"memory.pool_free_ratio", ratio(pool.free, pool.capacity), "ratio"},
        };
        metrics.insert(metrics.end(), counters.begin(), counters.end());
        std::size_t sampled = 0;
        for (const auto& c : traced.clients) sampled += c.traced_n;
        if (!o.spans_out.empty()) write_spans(o.spans_out, traced, w);
        info.num("untraced_ops_per_s", untraced.ops_per_s())
            .num("traced_ops_per_s", traced.ops_per_s())
            .integer("traced_phase_ops", static_cast<std::uint64_t>(ops))
            .integer("sampled_ops", sampled)
            .integer("trace_stride", kTraceStride)
            .num("pool_slots", pool.capacity)
            .str("spans_file", o.spans_out);
    }
    log.fail(prefill_failed, "prefill inserts that failed");

    if (!o.trace) {
        log.fail(min_beyond_p99 < 10, "a round left fewer than 10 latency samples beyond p99");
        metrics = {
            {"ops_per_s", median(ops_s), "1/s"},
            {"p50_ns", median(p50), "ns"},
            {"p99_ns", median(p99), "ns"},
            {"setup_s", median(setup_s), "s"},
            {"bytes_per_entry", median(bpe), "B"},
        };
        info.integer("rounds", rounds)
            .num("round_s", o.seconds / rounds)
            .raw("round_ops_per_s", json_array(ops_s))
            .raw("round_p50_ns", json_array(p50))
            .raw("round_p99_ns", json_array(p99))
            .raw("round_bytes_per_entry", json_array(bpe))
            .raw("round_pool_slots", json_array(pool_slots))
            .raw("setup_samples_s", json_array(setup_s))
            .integer("min_latency_samples_beyond_p99", min_beyond_p99)
            .integer("latency_stride", kLatencyStride);
    }

    std::string notes = "[";
    for (std::size_t i = 0; i < log.notes.size(); ++i) {
        if (i) notes += ',';
        notes += '"' + json_escape(log.notes[i]) + '"';
    }
    info.num("gen_s", gen_s)
        .num("clock_ns", clock_ns)
        .integer("live_entries", live)
        .integer("setup_reps", setup_s.size());

    json_object prov;
    prov.integer("nproc", std::thread::hardware_concurrency())
        .str("cpu_model", cpu_model())
        .str("compiler", PERFBENCH_COMPILER)
        .str("compiler_version", __VERSION__)
        .str("cxx_flags", PERFBENCH_CXX_FLAGS)
        .str("build_type", PERFBENCH_BUILD_TYPE)
        .str("policy", "valois_refcount")
        .integer("clients", kClients)
        .integer("seed", o.seed)
        .num("seconds", o.seconds)
        .integer("rounds", rounds)
        .integer("setup_reps", setup_s.size())
        .integer("warmup_ms", static_cast<std::uint64_t>(kWarmupS * 1000));

    json_object report;
    report.str("workload", w.name)
        .integer("trace", o.trace)
        .boolean("correct", log.failed == 0)
        .integer("attempted", attempted)
        .integer("failed", log.failed)
        .num("fail_ratio", ratio(static_cast<double>(log.failed), static_cast<double>(attempted)))
        .raw("metrics", metrics_json(metrics))
        .raw("checks_failed", notes + "]")
        .raw("info", info.done())
        .raw("provenance", prov.done());
    std::printf("%s\n", report.done().c_str());
    return log.failed == 0 ? 0 : 1;
}

int usage(const char* msg) {
    std::fprintf(stderr,
                 "lfll_perfbench: %s\nusage: lfll_perfbench --workload kv-read|kv-churn|list-walk "
                 "--seed N --seconds S --trace 0|1 [--stub none|wrong-value|lost-insert] "
                 "[--spans-out FILE]\n",
                 msg);
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    // Parent and change must both be measured on library defaults.
    for (char** e = environ; *e != nullptr; ++e) {
        if (std::strncmp(*e, "LFLL_", 5) == 0) {
            std::fprintf(stderr, "lfll_perfbench: refusing to run with %s set; unset every LFLL_* variable\n", *e);
            return 2;
        }
    }
#if !defined(__OPTIMIZE__)
    std::fprintf(stderr, "lfll_perfbench: refusing to run an unoptimised build (%s)\n", PERFBENCH_BUILD_TYPE);
    return 2;
#endif

    options o;
    if (argc % 2 == 0) return usage("every flag takes one value");
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string k = argv[i], v = argv[i + 1];
        if (k == "--workload") {
            for (const auto& w : kWorkloads) {
                if (v == w.name) o.w = &w;
            }
            if (o.w == nullptr) return usage(("unknown workload " + v).c_str());
        } else if (k == "--seed") {
            o.seed = std::strtoull(v.c_str(), nullptr, 10);
        } else if (k == "--seconds") {
            o.seconds = std::strtod(v.c_str(), nullptr);
        } else if (k == "--trace") {
            o.trace = v == "1";
        } else if (k == "--stub") {
            o.stub = v == "wrong-value" ? fault::wrong_value
                     : v == "lost-insert" ? fault::lost_insert
                                          : fault::none;
            if (o.stub == fault::none && v != "none") return usage(("unknown stub " + v).c_str());
        } else if (k == "--spans-out") {
            o.spans_out = v;
        } else {
            return usage(("unknown argument " + k).c_str());
        }
    }
    if (o.w == nullptr) return usage("--workload is required");
    if (!(o.seconds > 0 && o.seconds <= 600)) return usage("--seconds must be in (0, 600]");
    if (o.trace && o.stub != fault::none) return usage("--stub runs untraced only");
    return o.w->kv ? run<kv_store>(o) : run<list_store>(o);
}
