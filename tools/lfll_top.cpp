// lfll_top: live terminal view of an LFLL JSON-lines telemetry stream.
//
// Tails the file a jsonl exporter appends to (see telemetry/exporter.hpp)
// and redraws a per-metric table whenever a new snapshot line lands:
//
//     LFLL_TELEMETRY=jsonl:/tmp/m.jsonl ./build/tools/soak 600 &
//     ./build/tools/lfll_top /tmp/m.jsonl
//
// Counters (metrics ending in _total or _count) additionally show a
// per-second rate computed from the previous snapshot's value and the
// ts_ms delta. Modes:
//
//     lfll_top <file>                live view (ANSI redraw, ^C to quit)
//     lfll_top --once <file>         render the newest snapshot and exit
//     lfll_top --selftest            parse + render a built-in sample line
//
// The parser handles exactly the exporter's flat schema —
// {"ts_ms":N,"metrics":{"name{labels}":number,...}} — not general JSON.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <chrono>

namespace {

struct snapshot {
    std::uint64_t ts_ms = 0;
    std::map<std::string, double> metrics;
};

/// Parses a JSON string starting at s[i] == '"'; unescapes \" and \\.
/// Returns false on malformed input, else leaves i one past the closing
/// quote.
bool parse_string(const std::string& s, std::size_t& i, std::string& out) {
    if (i >= s.size() || s[i] != '"') return false;
    out.clear();
    for (++i; i < s.size(); ++i) {
        const char c = s[i];
        if (c == '"') {
            ++i;
            return true;
        }
        if (c == '\\') {
            if (++i >= s.size()) return false;
            out += s[i];
        } else {
            out += c;
        }
    }
    return false;
}

bool parse_number(const std::string& s, std::size_t& i, double& out) {
    char* end = nullptr;
    out = std::strtod(s.c_str() + i, &end);
    if (end == s.c_str() + i) return false;
    i = static_cast<std::size_t>(end - s.c_str());
    return true;
}

/// Parses one exporter line. Tolerant of trailing whitespace, strict
/// about the schema otherwise.
bool parse_line(const std::string& line, snapshot& out) {
    const char* ts_tag = "{\"ts_ms\":";
    if (line.compare(0, std::strlen(ts_tag), ts_tag) != 0) return false;
    std::size_t i = std::strlen(ts_tag);
    double ts = 0;
    if (!parse_number(line, i, ts)) return false;
    out.ts_ms = static_cast<std::uint64_t>(ts);

    const char* m_tag = ",\"metrics\":{";
    if (line.compare(i, std::strlen(m_tag), m_tag) != 0) return false;
    i += std::strlen(m_tag);
    out.metrics.clear();
    if (i < line.size() && line[i] == '}') return true;  // empty registry
    for (;;) {
        std::string key;
        double value = 0;
        if (!parse_string(line, i, key)) return false;
        if (i >= line.size() || line[i] != ':') return false;
        ++i;
        if (!parse_number(line, i, value)) return false;
        out.metrics[key] = value;
        if (i >= line.size()) return false;
        if (line[i] == ',') {
            ++i;
            continue;
        }
        if (line[i] == '}') return true;
        return false;
    }
}

bool is_rate_metric(const std::string& key) {
    const auto brace = key.find('{');
    const std::string name = brace == std::string::npos ? key : key.substr(0, brace);
    auto ends_with = [&](const char* suf) {
        const std::size_t n = std::strlen(suf);
        return name.size() >= n && name.compare(name.size() - n, n, suf) == 0;
    };
    return ends_with("_total") || ends_with("_count");
}

/// Profiler panel: folds the rank-labelled hot-key gauges the sampled
/// profiler publishes (telemetry/profiler.hpp) into one table under the
/// metric list, so a live view answers "which keys hurt" directly.
void render_profiler_panel(const snapshot& cur) {
    const auto get = [&](const std::string& k) -> const double* {
        const auto it = cur.metrics.find(k);
        return it == cur.metrics.end() ? nullptr : &it->second;
    };
    const double* sampled = get("lfll_prof_sampled_ops_total");
    if (sampled == nullptr) return;  // profiler not in this stream
    const double* slow = get("lfll_prof_slow_ops_total");
    std::printf("\nprofiler: %.0f sampled, %.0f slow\n", *sampled,
                slow != nullptr ? *slow : 0.0);
    std::printf("%4s %20s %10s %14s %6s\n", "rank", "key", "hits", "cas_failures",
                "shard");
    for (int r = 0;; ++r) {
        const std::string label = "{rank=\"" + std::to_string(r) + "\"}";
        const double* key = get("lfll_prof_hot_key" + label);
        if (key == nullptr) break;
        if (*key < 0) continue;  // unused rank
        const double* hits = get("lfll_prof_hot_key_hits" + label);
        const double* fails = get("lfll_prof_hot_key_cas_failures" + label);
        const double* shard = get("lfll_prof_hot_key_shard" + label);
        char shard_s[16] = "-";
        if (shard != nullptr && *shard >= 0)
            std::snprintf(shard_s, sizeof shard_s, "%.0f", *shard);
        std::printf("%4d %20.0f %10.0f %14.0f %6s\n", r, *key,
                    hits != nullptr ? *hits : 0.0, fails != nullptr ? *fails : 0.0,
                    shard_s);
    }
}

/// Traversal panel: the unreferenced walk's two failure-path counters
/// (core/list.hpp), one row per policy label, as totals plus the change
/// since the previous snapshot. Restarts climbing means reclaim races
/// walks; fallbacks tracking restarts means the restart stopped paying
/// (docs/telemetry.md, "Traversal failure-path counters").
void render_traversal_panel(const snapshot& cur, const snapshot* prev) {
    const std::string restarts = "lfll_traverse_restarts_total";
    const std::string fallbacks = "lfll_traverse_fallbacks_total";
    std::set<std::string> labels;  // e.g. {policy="valois_refcount"}
    for (const auto& entry : cur.metrics) {
        for (const std::string& name : {restarts, fallbacks}) {
            if (entry.first.compare(0, name.size(), name) == 0) {
                labels.insert(entry.first.substr(name.size()));
            }
        }
    }
    if (labels.empty()) return;  // no walk has failed in this stream
    const auto value = [](const snapshot& s, const std::string& k) {
        const auto it = s.metrics.find(k);
        return it == s.metrics.end() ? 0.0 : it->second;
    };
    const auto delta = [&](const std::string& k) {
        char buf[32] = "-";
        if (prev != nullptr) {
            std::snprintf(buf, sizeof buf, "%.0f", value(cur, k) - value(*prev, k));
        }
        return std::string(buf);
    };
    std::printf("\ntraversal failures:\n%-32s %12s %10s %12s %10s\n", "labels",
                "restarts", "+tick", "fallbacks", "+tick");
    for (const std::string& l : labels) {
        std::printf("%-32s %12.0f %10s %12.0f %10s\n", l.c_str(),
                    value(cur, restarts + l), delta(restarts + l).c_str(),
                    value(cur, fallbacks + l), delta(fallbacks + l).c_str());
    }
}

void render(const snapshot& cur, const snapshot* prev, bool ansi) {
    if (ansi) std::fputs("\x1b[H\x1b[2J", stdout);
    std::printf("lfll_top — %zu metrics, ts_ms=%llu\n\n", cur.metrics.size(),
                static_cast<unsigned long long>(cur.ts_ms));
    std::printf("%-64s %16s %12s\n", "METRIC", "VALUE", "RATE/s");
    const double dt_s =
        (prev != nullptr && cur.ts_ms > prev->ts_ms)
            ? static_cast<double>(cur.ts_ms - prev->ts_ms) / 1000.0
            : 0.0;
    for (const auto& [key, value] : cur.metrics) {
        char val[32];
        if (value == static_cast<double>(static_cast<long long>(value))) {
            std::snprintf(val, sizeof val, "%lld", static_cast<long long>(value));
        } else {
            std::snprintf(val, sizeof val, "%.3f", value);
        }
        char rate[32] = "";
        if (dt_s > 0 && is_rate_metric(key)) {
            const auto it = prev->metrics.find(key);
            if (it != prev->metrics.end()) {
                std::snprintf(rate, sizeof rate, "%.0f", (value - it->second) / dt_s);
            }
        }
        std::printf("%-64s %16s %12s\n", key.c_str(), val, rate);
    }
    render_profiler_panel(cur);
    render_traversal_panel(cur, prev);
    std::fflush(stdout);
}

/// Reads the last parseable line of `path` into `out`; false if none.
bool read_last_snapshot(const char* path, snapshot& out) {
    std::FILE* f = std::fopen(path, "r");
    if (f == nullptr) return false;
    bool got = false;
    std::string line;
    char buf[1 << 16];
    while (std::fgets(buf, sizeof buf, f) != nullptr) {
        line = buf;
        snapshot s;
        if (parse_line(line, s)) {
            out = std::move(s);
            got = true;
        }
    }
    std::fclose(f);
    return got;
}

int run_selftest() {
    const std::string sample =
        "{\"ts_ms\":1754265600000,\"metrics\":{"
        "\"lfll_runs_total\":3,"
        "\"lfll_retired_backlog{policy=\\\"epoch\\\"}\":128,"
        "\"lfll_op_latency_ns_p99\":2048.5,"
        "\"lfll_traverse_restarts_total{policy=\\\"valois_refcount\\\"}\":7}}";
    snapshot s;
    if (!parse_line(sample, s) || s.metrics.size() != 4 ||
        s.metrics.at("lfll_retired_backlog{policy=\"epoch\"}") != 128) {
        std::fprintf(stderr, "lfll_top: selftest parse failed\n");
        return 1;
    }
    render(s, nullptr, /*ansi=*/false);
    std::puts("lfll_top: selftest ok");
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    bool once = false;
    const char* path = nullptr;
    long interval_ms = 500;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--selftest") == 0) return run_selftest();
        if (std::strcmp(argv[i], "--once") == 0) {
            once = true;
        } else if (std::strcmp(argv[i], "--interval") == 0 && i + 1 < argc) {
            interval_ms = std::atol(argv[++i]);
            if (interval_ms <= 0) interval_ms = 500;
        } else {
            path = argv[i];
        }
    }
    if (path == nullptr) {
        std::fprintf(stderr,
                     "usage: lfll_top [--once] [--interval ms] <metrics.jsonl>\n"
                     "       lfll_top --selftest\n");
        return 2;
    }

    if (once) {
        snapshot s;
        if (!read_last_snapshot(path, s)) {
            std::fprintf(stderr, "lfll_top: no parseable snapshot in %s\n", path);
            return 1;
        }
        render(s, nullptr, /*ansi=*/false);
        return 0;
    }

    snapshot prev, cur;
    bool have_prev = false;
    for (;;) {
        if (read_last_snapshot(path, cur)) {
            if (!have_prev || cur.ts_ms != prev.ts_ms) {
                render(cur, have_prev ? &prev : nullptr, /*ansi=*/true);
                prev = cur;
                have_prev = true;
            }
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
    }
}
