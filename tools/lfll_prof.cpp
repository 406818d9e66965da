// lfll_prof: offline profiler report over an LFLL JSON-lines telemetry
// stream.
//
// The jsonl exporter interleaves two kinds of lines (telemetry/exporter):
//   {"ts_ms":N,"metrics":{"name{labels}":number,...}}   periodic snapshot
//   {"slow_op":{...}}                                   one slow capture
// lfll_top tails the first kind live; this tool reads the whole file
// after a run and renders the profiler's story:
//
//   * phase attribution — where sampled latency went (traverse /
//     cas_retry / safe_read / alloc / reclaim / backoff / bucket_split),
//     count, total, p50/p99 and share per phase, from the final snapshot;
//   * hot keys — the space-saving sketch's top-K ranks with per-key hit
//     and CAS-failure counts (and owning shard, when the store is
//     sharded);
//   * slow-op log — every capture the run produced, with its full phase
//     breakdown and the policy-health gauges at capture time.
//
// Usage:
//     LFLL_TELEMETRY=jsonl:/tmp/m.jsonl LFLL_SLOW_OP_NS=20000 ./bench/bench_e10_kv
//     ./build/tools/lfll_prof /tmp/m.jsonl
//     lfll_prof --selftest          parse + render built-in sample lines
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

namespace {

const char* const kPhases[] = {"traverse", "cas_retry", "safe_read", "alloc",
                               "reclaim",  "backoff",   "bucket_split"};
constexpr int kPhaseCount = 7;

// ------------------------------------------------------------ parsing
// The exporter's schema is flat and regular; this is a schema parser,
// not a general JSON one (same stance as lfll_top).

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

/// Parses a {"key":value,...} object starting at s[i] == '{' where each
/// value is a number, a string, or a nested object of the same shape.
/// Nested keys flatten with a dot: phases.traverse. Strings land in
/// `strings`, numbers in `nums`.
bool parse_flat_object(const std::string& s, std::size_t& i, const std::string& prefix,
                       std::map<std::string, double>& nums,
                       std::map<std::string, std::string>& strings) {
    if (i >= s.size() || s[i] != '{') return false;
    ++i;
    if (i < s.size() && s[i] == '}') {
        ++i;
        return true;
    }
    for (;;) {
        std::string key;
        if (!parse_string(s, i, key)) return false;
        if (i >= s.size() || s[i] != ':') return false;
        ++i;
        const std::string full = prefix.empty() ? key : prefix + "." + key;
        if (i < s.size() && s[i] == '{') {
            if (!parse_flat_object(s, i, full, nums, strings)) return false;
        } else if (i < s.size() && s[i] == '"') {
            std::string v;
            if (!parse_string(s, i, v)) return false;
            strings[full] = std::move(v);
        } else {
            double v = 0;
            if (!parse_number(s, i, v)) return false;
            nums[full] = v;
        }
        if (i >= s.size()) return false;
        if (s[i] == ',') {
            ++i;
            continue;
        }
        if (s[i] == '}') {
            ++i;
            return true;
        }
        return false;
    }
}

struct slow_op {
    std::map<std::string, double> nums;        // ts_ns, key, total_ns, ...
    std::map<std::string, std::string> strings;  // op
};

struct report_input {
    std::map<std::string, double> metrics;  // final snapshot wins
    std::uint64_t ts_ms = 0;
    std::size_t snapshots = 0;
    std::vector<slow_op> slow_ops;
};

bool consume_line(const std::string& line, report_input& in) {
    const char* ts_tag = "{\"ts_ms\":";
    const char* slow_tag = "{\"slow_op\":";
    if (line.compare(0, std::strlen(ts_tag), ts_tag) == 0) {
        std::size_t i = std::strlen(ts_tag);
        double ts = 0;
        if (!parse_number(line, i, ts)) return false;
        const char* m_tag = ",\"metrics\":";
        if (line.compare(i, std::strlen(m_tag), m_tag) != 0) return false;
        i += std::strlen(m_tag);
        std::map<std::string, double> nums;
        std::map<std::string, std::string> strings;
        if (!parse_flat_object(line, i, "", nums, strings)) return false;
        in.metrics = std::move(nums);  // later snapshots supersede earlier
        in.ts_ms = static_cast<std::uint64_t>(ts);
        in.snapshots++;
        return true;
    }
    if (line.compare(0, std::strlen(slow_tag), slow_tag) == 0) {
        std::size_t i = std::strlen(slow_tag);
        slow_op op;
        if (!parse_flat_object(line, i, "", op.nums, op.strings)) return false;
        in.slow_ops.push_back(std::move(op));
        return true;
    }
    return false;  // unknown line shape: skipped by the caller
}

// ---------------------------------------------------------- rendering

double metric_or(const report_input& in, const std::string& key, double dflt) {
    const auto it = in.metrics.find(key);
    return it == in.metrics.end() ? dflt : it->second;
}

std::string phase_key(const char* phase, const char* suffix) {
    return std::string("lfll_prof_phase_ns") + suffix + "{phase=\"" + phase + "\"}";
}

void render_phase_table(const report_input& in) {
    std::puts("== phase attribution (final snapshot) ==");
    double total = 0;
    for (const char* p : kPhases) total += metric_or(in, phase_key(p, "_sum"), 0);
    std::printf("%-14s %10s %12s %10s %10s %8s\n", "phase", "samples", "total_ms",
                "p50_ns", "p99_ns", "share%");
    for (const char* p : kPhases) {
        const double count = metric_or(in, phase_key(p, "_count"), 0);
        const double sum = metric_or(in, phase_key(p, "_sum"), 0);
        const double p50 = metric_or(in, phase_key(p, "_p50"), 0);
        const double p99 = metric_or(in, phase_key(p, "_p99"), 0);
        std::printf("%-14s %10.0f %12.3f %10.0f %10.0f %8.1f\n", p, count, sum / 1e6,
                    p50, p99, total > 0 ? 100.0 * sum / total : 0.0);
    }
    std::printf("\nsampled ops: %.0f   slow ops: %.0f\n\n",
                metric_or(in, "lfll_prof_sampled_ops_total", 0),
                metric_or(in, "lfll_prof_slow_ops_total", 0));
}

void render_hot_keys(const report_input& in) {
    std::puts("== hot keys (space-saving sketch, by sampled hits) ==");
    std::printf("%4s %20s %10s %14s %6s\n", "rank", "key", "hits", "cas_failures",
                "shard");
    int shown = 0;
    for (int r = 0;; ++r) {
        const std::string label = "{rank=\"" + std::to_string(r) + "\"}";
        const auto it = in.metrics.find("lfll_prof_hot_key" + label);
        if (it == in.metrics.end()) break;
        if (it->second < 0) continue;  // unused rank
        const double hits = metric_or(in, "lfll_prof_hot_key_hits" + label, 0);
        const double fails = metric_or(in, "lfll_prof_hot_key_cas_failures" + label, 0);
        const double shard = metric_or(in, "lfll_prof_hot_key_shard" + label, -1);
        char shard_s[16] = "-";
        if (shard >= 0) std::snprintf(shard_s, sizeof shard_s, "%.0f", shard);
        std::printf("%4d %20.0f %10.0f %14.0f %6s\n", r, it->second, hits, fails,
                    shard_s);
        ++shown;
    }
    if (shown == 0) std::puts("(no hot keys recorded — profiler off or no samples)");
    std::puts("");
}

void render_slow_ops(const report_input& in) {
    std::printf("== slow ops (%zu captured) ==\n", in.slow_ops.size());
    for (const slow_op& op : in.slow_ops) {
        const auto num = [&](const char* k) {
            const auto it = op.nums.find(k);
            return it == op.nums.end() ? 0.0 : it->second;
        };
        const auto it_op = op.strings.find("op");
        std::printf("%-7s key=%-12.0f shard=%-3.0f tid=%-3.0f total=%.0fns "
                    "cas_fails=%.0f\n",
                    it_op == op.strings.end() ? "?" : it_op->second.c_str(),
                    num("key"), num("shard"), num("tid"), num("total_ns"),
                    num("cas_failures"));
        std::printf("        phases:");
        for (const char* p : kPhases) {
            const double ns = num(("phases." + std::string(p)).c_str());
            if (ns > 0) std::printf(" %s=%.0fns", p, ns);
        }
        std::printf("\n        health: retired(epoch)=%.0f free_list=%.0f epoch_lag=%.0f\n",
                    num("health.retired_backlog_epoch"),
                    num("health.free_list_depth_refcount"), num("health.epoch_lag"));
    }
    std::puts("");
}

int run_report(const char* path) {
    std::FILE* f = std::fopen(path, "r");
    if (f == nullptr) {
        std::fprintf(stderr, "lfll_prof: cannot open %s\n", path);
        return 1;
    }
    report_input in;
    char buf[1 << 16];
    while (std::fgets(buf, sizeof buf, f) != nullptr) {
        (void)consume_line(buf, in);  // unknown/torn lines are skipped
    }
    std::fclose(f);
    if (in.snapshots == 0 && in.slow_ops.empty()) {
        std::fprintf(stderr, "lfll_prof: no profiler data in %s\n", path);
        return 1;
    }
    std::printf("lfll_prof — %zu snapshot(s), final ts_ms=%" PRIu64 "\n\n",
                in.snapshots, in.ts_ms);
    render_phase_table(in);
    render_hot_keys(in);
    render_slow_ops(in);
    return 0;
}

int run_selftest() {
    const char* lines[] = {
        "{\"ts_ms\":1754265600000,\"metrics\":{"
        "\"lfll_prof_phase_ns_count{phase=\\\"traverse\\\"}\":100,"
        "\"lfll_prof_phase_ns_sum{phase=\\\"traverse\\\"}\":250000,"
        "\"lfll_prof_phase_ns_p50{phase=\\\"traverse\\\"}\":2047,"
        "\"lfll_prof_phase_ns_p99{phase=\\\"traverse\\\"}\":8191,"
        "\"lfll_prof_phase_ns_count{phase=\\\"cas_retry\\\"}\":12,"
        "\"lfll_prof_phase_ns_sum{phase=\\\"cas_retry\\\"}\":50000,"
        "\"lfll_prof_sampled_ops_total\":100,"
        "\"lfll_prof_slow_ops_total\":1,"
        "\"lfll_prof_hot_key{rank=\\\"0\\\"}\":42,"
        "\"lfll_prof_hot_key_hits{rank=\\\"0\\\"}\":17,"
        "\"lfll_prof_hot_key_cas_failures{rank=\\\"0\\\"}\":3,"
        "\"lfll_prof_hot_key_shard{rank=\\\"0\\\"}\":2,"
        "\"lfll_prof_hot_key{rank=\\\"1\\\"}\":-1}}",
        "{\"slow_op\":{\"ts_ns\":123456,\"op\":\"insert\",\"key\":42,\"tid\":1,"
        "\"shard\":2,\"total_ns\":150000,\"cas_failures\":4,\"phases\":{"
        "\"traverse\":90000,\"cas_retry\":50000,\"safe_read\":0,\"alloc\":10000,"
        "\"reclaim\":0,\"backoff\":0,\"bucket_split\":0},\"health\":{"
        "\"retired_backlog_epoch\":64,"
        "\"free_list_depth_refcount\":512,\"epoch_lag\":1}}}",
    };
    report_input in;
    for (const char* l : lines) {
        if (!consume_line(l, in)) {
            std::fprintf(stderr, "lfll_prof: selftest parse failed\n");
            return 1;
        }
    }
    if (in.snapshots != 1 || in.slow_ops.size() != 1 ||
        in.metrics.at("lfll_prof_hot_key{rank=\"0\"}") != 42 ||
        in.slow_ops[0].nums.at("phases.cas_retry") != 50000 ||
        in.slow_ops[0].strings.at("op") != "insert") {
        std::fprintf(stderr, "lfll_prof: selftest check failed\n");
        return 1;
    }
    render_phase_table(in);
    render_hot_keys(in);
    render_slow_ops(in);
    std::puts("lfll_prof: selftest ok");
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    if (argc == 2 && std::strcmp(argv[1], "--selftest") == 0) return run_selftest();
    if (argc != 2) {
        std::fprintf(stderr,
                     "usage: lfll_prof <metrics.jsonl>\n"
                     "       lfll_prof --selftest\n");
        return 2;
    }
    return run_report(argv[1]);
}
