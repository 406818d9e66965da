// MemoryPolicy adapter over epoch_domain for the Valois stack.
//
// Hybrid scheme: shared links and long-held private pointers stay on the
// per-node count word — a counted link blocks retirement outright, which
// is what lets skip-list predecessor hints and adapter-held nodes outlive
// any single pin. Traversal references, by contrast, are raw pointers
// valid only under the guard's pin: protect() is a plain acquire load,
// the zero-cost read side that E7/A2 contrast with SafeRead's two RMWs
// per hop.
//
// Soundness of raw traversal pointers (induction over one continuous
// pin): every pointer a thread holds rawly was obtained by protect()
// under its current pin, from a location inside a node that was itself
// not yet reclaimed; the location's counted link proves the target was
// not yet *retired* at the read. A node retired after the pin started is
// banked at an epoch >= the pin's, and its bucket cannot be freed until
// the pin dies — so every raw pointer stays dereferenceable for the
// guard's lifetime. Acquiring a *count* on a raw pointer must go through
// node_pool::try_ref (claim-bit check): the node may have been retired
// since, and a claimed node must never be re-linked or resurrected.
//
// Guards are reentrant per (thread, domain): a cursor guard nested in an
// operation guard shares one pin.
#pragma once

#include <cassert>
#include <cstdint>
#include <unordered_map>

#include "lfll/memory/policy.hpp"
#include "lfll/reclaim/epoch.hpp"

namespace lfll {

struct epoch_policy {
    using header = counted_header;
    /// Traversal references are raw pointers under the guard's pin.
    static constexpr bool counted_traversal = false;
    static constexpr const char* name = "epoch";

    struct domain {
        epoch_domain ed;
        std::uint64_t id = next_policy_domain_id();

        explicit domain(int max_threads = 128, std::size_t advance_threshold = 64)
            : ed(max_threads, advance_threshold) {}

        std::size_t retired_count() const noexcept { return ed.retired_count(); }
        void drain() { ed.drain(); }
    };

    struct tl_state {
        int ctx = -1;
        int depth = 0;
    };

    /// Per-(thread, domain) record, keyed by the domain's unique id so a
    /// record never aliases a dead domain. The single-entry cache makes
    /// the common one-domain-per-structure case two loads and a compare.
    static tl_state& tls(domain& d) {
        thread_local std::unordered_map<std::uint64_t, tl_state> records;
        thread_local std::uint64_t cached_id = 0;
        thread_local tl_state* cached = nullptr;
        if (cached_id == d.id) return *cached;
        cached = &records[d.id];
        cached_id = d.id;
        return *cached;
    }

    static void enter(domain& d) {
        tl_state& t = tls(d);
        if (t.depth++ == 0) t.ctx = d.ed.client_enter();
    }

    static void leave(domain& d) {
        tl_state& t = tls(d);
        assert(t.depth > 0 && "epoch_policy: leave without enter");
        if (--t.depth == 0) {
            d.ed.client_exit(t.ctx);
            t.ctx = -1;
        }
    }

    /// The reclaim callback runs on whichever thread advances the epoch,
    /// and funnels through node_pool::reclaim — so with magazines on,
    /// deferred drains refill the draining thread's magazines (and the
    /// depot), not the global free list past them.
    static void retire(domain& d, void* p, reclaim_fn fn, void* ctx) {
        telemetry::prof::phase_scope prof_phase(telemetry::prof::phase::reclaim);
        enter(d);  // transient pin when called outside a guard
        d.ed.client_retire(tls(d).ctx, p, fn, ctx);
        leave(d);
    }

    template <typename Node>
    static Node* protect(domain& d, const std::atomic<Node*>& location, reclaim_fn,
                         void*) noexcept {
        assert(tls(d).depth > 0 && "epoch_policy: protect outside a guard");
        (void)d;
        instrument::tls().safe_reads++;
        testing_hooks::chaos_point(sched::step_kind::safe_read);  // hop under the pin
        return location.load(std::memory_order_acquire);
    }
};

}  // namespace lfll
