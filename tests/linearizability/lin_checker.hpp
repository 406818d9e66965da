// A Wing & Gong-style linearizability checker for set histories.
//
// The paper (§2.1): "We also require our objects to be linearizable [14]
// ... Proofs that our data structures are linearizable are beyond the
// scope of this paper, but are straightforward." This checker makes the
// omitted claim empirically testable: record a concurrent history of
// insert/erase/contains calls (with global invocation/response tickets),
// then search for a linearization — a total order consistent with
// real-time precedence in which every recorded result is correct for a
// sequential set.
//
// Search notes:
//  * A candidate for the next linearized op must be minimal w.r.t.
//    precedence: no other pending op responded before it was invoked.
//  * For a set with recorded results, the abstract state after a SET of
//    linearized ops is independent of their order (successful ops have
//    deterministic effects; failed ops have none), so memoizing failed
//    masks makes the search practical for histories up to ~40 ops.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <sstream>
#include <string>
#include <unordered_set>
#include <vector>

namespace lin {

enum class op_kind { insert, erase, contains, range };

struct recorded_op {
    int thread;
    op_kind kind;
    int key;      ///< range: the inclusive lower bound `lo`
    bool result;  ///< range: unused (always true)
    std::uint64_t invoke;    ///< global ticket taken before the call
    std::uint64_t response;  ///< global ticket taken after the return
    int hi = 0;              ///< range only: exclusive upper bound
    std::vector<int> keys;   ///< range only: returned keys, sorted
};

inline const char* op_name(op_kind k) {
    switch (k) {
        case op_kind::insert:   return "insert";
        case op_kind::erase:    return "erase";
        case op_kind::contains: return "contains";
        case op_kind::range:    return "range";
    }
    return "?";
}

/// Thread-safe history recorder: global tickets bracket each call so the
/// checker sees true real-time precedence.
struct recorder {
    std::atomic<std::uint64_t> ticket{0};
    std::mutex mu;
    std::vector<recorded_op> history;

    template <typename F>
    void record(int thread, op_kind k, int key, F&& call) {
        const std::uint64_t inv = ticket.fetch_add(1, std::memory_order_acq_rel);
        const bool result = call();
        const std::uint64_t rsp = ticket.fetch_add(1, std::memory_order_acq_rel);
        std::lock_guard lk(mu);
        history.push_back({thread, k, key, result, inv, rsp, 0, {}});
    }

    /// One sub-operation of a batched multi-op call.
    struct batch_sub {
        op_kind kind;
        int key;
    };

    /// Records one batched call (apply_batch / multi_*): `call` performs
    /// the whole batch and returns one bool per sub-op, in input order.
    /// Every sub-op enters the history as its OWN operation, but all of
    /// them share the batch call's invoke/response window — so the
    /// checker must find each sub-op an individual linearization point
    /// inside that window. That is exactly the batching contract: one
    /// traversal, per-op linearization.
    template <typename F>
    void record_batch(int thread, const std::vector<batch_sub>& subs, F&& call) {
        const std::uint64_t inv = ticket.fetch_add(1, std::memory_order_acq_rel);
        const std::vector<bool> results = call();
        const std::uint64_t rsp = ticket.fetch_add(1, std::memory_order_acq_rel);
        std::lock_guard lk(mu);
        for (std::size_t i = 0; i < subs.size(); ++i) {
            history.push_back({thread, subs[i].kind, subs[i].key,
                               i < results.size() && results[i], inv, rsp, 0,
                               {}});
        }
    }

    /// Records a range query [lo, hi): `call` returns the key vector. The
    /// whole query is one operation with one linearization point.
    template <typename F>
    void record_range(int thread, int lo, int hi, F&& call) {
        const std::uint64_t inv = ticket.fetch_add(1, std::memory_order_acq_rel);
        std::vector<int> keys = call();
        const std::uint64_t rsp = ticket.fetch_add(1, std::memory_order_acq_rel);
        std::sort(keys.begin(), keys.end());
        std::lock_guard lk(mu);
        history.push_back({thread, op_kind::range, lo, true, inv, rsp, hi,
                           std::move(keys)});
    }
};

/// Human-readable dump of a history (one op per line, invocation order),
/// for failure messages.
inline std::string describe(const std::vector<recorded_op>& history) {
    std::ostringstream os;
    for (const recorded_op& o : history) {
        if (o.kind == op_kind::range) {
            os << "  [t" << o.thread << "] range(" << o.key << ", " << o.hi
               << ") -> {";
            for (std::size_t i = 0; i < o.keys.size(); ++i) {
                if (i != 0) os << ' ';
                os << o.keys[i];
            }
            os << "}   @" << o.invoke << ".." << o.response << '\n';
            continue;
        }
        os << "  [t" << o.thread << "] " << op_name(o.kind) << '(' << o.key
           << ") -> " << (o.result ? "true" : "false") << "   @" << o.invoke
           << ".." << o.response << '\n';
    }
    return os.str();
}

/// Failure banner for schedule-driven runs: names the seed that produced
/// the history and the exact knob that replays the interleaving.
inline std::string replay_hint(std::uint64_t seed) {
    std::ostringstream os;
    os << "schedule seed " << seed << " — replay this exact interleaving with "
       << "LFLL_SCHED_REPLAY=" << seed << " (same binary, same filter)";
    return os.str();
}

namespace detail {

struct search {
    const std::vector<recorded_op>& ops;
    std::unordered_set<std::uint64_t> failed_masks;

    bool valid(const recorded_op& o, const std::unordered_set<int>& state) const {
        if (o.kind == op_kind::range) {
            // The whole query has ONE linearization point: its keys must
            // equal the abstract state restricted to [lo, hi), exactly.
            std::vector<int> expect;
            for (int k : state) {
                if (k >= o.key && k < o.hi) expect.push_back(k);
            }
            std::sort(expect.begin(), expect.end());
            return expect == o.keys;
        }
        const bool present = state.count(o.key) != 0;
        switch (o.kind) {
            case op_kind::insert:
                return o.result != present;  // succeeds iff absent
            case op_kind::erase:
                return o.result == present;  // succeeds iff present
            case op_kind::contains:
                return o.result == present;
            case op_kind::range:
                break;  // handled above
        }
        return false;
    }

    bool dfs(std::uint64_t done_mask, std::unordered_set<int>& state) {
        const std::uint64_t full = (ops.size() == 64)
                                       ? ~std::uint64_t{0}
                                       : ((std::uint64_t{1} << ops.size()) - 1);
        if (done_mask == full) return true;
        if (failed_masks.count(done_mask) != 0) return false;

        for (std::size_t i = 0; i < ops.size(); ++i) {
            const std::uint64_t bit = std::uint64_t{1} << i;
            if (done_mask & bit) continue;
            // Minimality: no pending op responded before ops[i] was invoked.
            bool minimal = true;
            for (std::size_t j = 0; j < ops.size(); ++j) {
                if (i == j || (done_mask & (std::uint64_t{1} << j))) continue;
                if (ops[j].response < ops[i].invoke) {
                    minimal = false;
                    break;
                }
            }
            if (!minimal) continue;
            if (!valid(ops[i], state)) continue;
            // Apply.
            const bool mutate =
                ops[i].result && (ops[i].kind == op_kind::insert ||
                                  ops[i].kind == op_kind::erase);
            if (mutate) {
                if (ops[i].kind == op_kind::insert)
                    state.insert(ops[i].key);
                else
                    state.erase(ops[i].key);
            }
            if (dfs(done_mask | bit, state)) return true;
            // Undo.
            if (mutate) {
                if (ops[i].kind == op_kind::insert)
                    state.erase(ops[i].key);
                else
                    state.insert(ops[i].key);
            }
        }
        failed_masks.insert(done_mask);
        return false;
    }
};

}  // namespace detail

/// True iff `history` (at most 64 ops) has a linearization starting from
/// an empty set.
inline bool is_linearizable(const std::vector<recorded_op>& history) {
    detail::search s{history, {}};
    std::unordered_set<int> state;
    return s.dfs(0, state);
}

}  // namespace lin
