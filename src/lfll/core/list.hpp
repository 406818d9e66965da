// The Valois lock-free singly-linked list (§3).
//
// Structure invariants (checked by core/audit.hpp):
//   * The list runs First(dummy) -> aux -> ... -> aux -> Last(dummy).
//   * Every normal cell has an auxiliary node as predecessor and successor.
//   * Chains of adjacent auxiliary nodes may exist transiently, but only
//     while some TryDelete is in progress (§3's theorem); Update and
//     TryDelete compact them.
//
// All mutation is by single-word CAS on `next` fields, with the counted-
// link discipline described in memory/node_pool.hpp. Reclamation is
// pluggable (memory/policy.hpp): the Policy parameter decides what a
// traversal hop costs (SafeRead's two RMWs or a plain load under an
// epoch pin) and when dead nodes recycle; the default is
// the paper's §5 scheme, under which the operations map 1:1 onto the
// paper's figures:
//   first()      — Fig. 6        try_insert() — Fig. 9
//   next()       — Fig. 7        try_delete() — Fig. 10
//   update()     — Fig. 5
//
// --- Traversal fast path (counting policies) ----------------------------
//
// A literal Fig. 5-7 hop under §5 counting costs ~6 RMWs: SafeRead the
// aux (2), SafeRead the next cell (2), Release the old pre_cell and
// pre_aux (2). The cursor hop cuts that to ~2 RMWs (one protect, one
// Release); lookups and ordered seeks cross cells with plain loads and
// take references only where they land — none for a find, two for a
// seek, however far it walks (see DESIGN.md "Traversal fast path"):
//
//  1. Aux reference elision. The cursor's pre_aux is demoted to an
//     UNREFERENCED hint under every policy: hops read the aux through
//     the ref'd predecessor without counting it, validated by an
//     incarnation check (node.hpp) sandwiched around a seq_cst re-read
//     of the predecessor's next (hop_over_aux below). Slabs never
//     return to the OS, so a stale read is harmless; the validation
//     only decides fast-commit vs slow-path.
//  2. Hand-over-hand reference transfer. next() re-uses the target's
//     existing reference as the new pre_cell reference instead of the
//     copy+drop pair; the old pre_cell's reference is released the
//     moment the cursor leaves it (Fig. 16 Release).
//  3. Software prefetch of the hop-after-next while the current hop's
//     validation retires.
//  4. The unreferenced walk (trivially-copyable payloads only;
//     batch_hop below is its one engine). A walk crosses the chain with
//     plain loads, recording every node it reads through with its
//     incarnation at first touch and copying each cell's payload
//     seqlock-style; an incarnation sweep then proves none of them was
//     reclaimed, so every link it followed was real when read. scan()
//     (for_each, snapshots) sweeps every kScanBatch cells and ends each
//     segment on a protect, because its visitors have side effects and
//     must resume, not restart, after a failed sweep.
//  5. Reads that don't write. lookup()/lookup_from() walk from a
//     borrowed anchor (head_, or a hash bucket's dummy) with the
//     caller's pure "keep going" predicate and return a validated copy
//     of the stop cell: segments are swept and their last cell carried
//     unreferenced into the next, so a successful find performs no RMW
//     at all. seek_while() crosses the same way and takes references
//     only at the landing — try_ref(pre_cell) plus protect(target),
//     then a re-sweep — so the Figs. 9-10 CAS windows are
//     reference-held exactly as if the cursor had walked hand-over-hand.
//     A failed sweep restarts once from the anchor; a second failure
//     takes the counted path (scan_from, or one next()), which keeps
//     every walk lock-free.
//
// Mutators never trust the hint: try_insert/try_delete re-pin the
// CURRENT aux via protect(pre_cell->next) — the swing's
// CAS-expected target still detects staleness, exactly as in Figs.
// 9-10.
#pragma once

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>

#include "lfll/core/node.hpp"
#include "lfll/memory/node_pool.hpp"
#include "lfll/memory/policy.hpp"
#include "lfll/primitives/instrument.hpp"
#include "lfll/telemetry/metrics.hpp"

// Marks the seqlock-style racy payload copy in batch_hop: it may race
// with construct_cell on a recycled node, and the incarnation sweep
// discards the bytes whenever that can have happened. This is the
// standard validated-optimistic-read idiom; instrumenting it would only
// make TSan report the race the validation exists to mask.
#if defined(__SANITIZE_THREAD__)
#define LFLL_NO_TSAN __attribute__((no_sanitize("thread")))
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define LFLL_NO_TSAN __attribute__((no_sanitize("thread")))
#else
#define LFLL_NO_TSAN
#endif
#else
#define LFLL_NO_TSAN
#endif

// The same copy may read a payload that on_reclaim already poisoned
// (node.hpp); the sweep discards those bytes too.
#if defined(LFLL_ASAN)
#define LFLL_NO_ASAN __attribute__((no_sanitize("address")))
#else
#define LFLL_NO_ASAN
#endif

namespace lfll {

template <typename T, typename Policy = valois_refcount>
class valois_list {
public:
    using policy_type = Policy;
    using node = list_node<T, Policy>;
    using pool_type = node_pool<node, Policy>;
    using guard = typename pool_type::guard;

    class cursor;

    explicit valois_list(std::size_t initial_capacity = 1024)
        : owned_pool_(std::make_unique<pool_type>(initial_capacity + 3)),
          pool_(owned_pool_.get()) {
        init_dummies();
    }

    /// Builds a list on a pool owned elsewhere. Several lists may share
    /// one pool — required when payloads hold counted links across lists
    /// (the skip list's levels) — and the pool must outlive them all.
    explicit valois_list(pool_type& shared_pool) : pool_(&shared_pool) { init_dummies(); }

private:
    void init_dummies() {
        // Fig. 4: an empty list is First -> aux -> Last.
        head_ = pool_->alloc();
        head_->set_kind(node_kind::head);
        tail_ = pool_->alloc();
        tail_->set_kind(node_kind::tail);
        node* aux = pool_->alloc();  // a pool node comes out as an aux
        // Wire head -> aux -> tail. Link accounting: head_'s and tail_'s
        // root pointers keep the private references alloc() handed us; the
        // head->aux link consumes aux's private reference; the aux->tail
        // link is a second reference on tail and must be acquired.
        aux->next.store(pool_->ref(tail_), std::memory_order_relaxed);
        head_->next.store(aux, std::memory_order_relaxed);
    }

public:
    /// Tears the chain down through the normal reclamation cascade so
    /// payload destructors run and, with a shared pool, the nodes return
    /// for other lists to reuse. Requires quiescence and no outstanding
    /// cursors (cursor references would — correctly — keep nodes alive,
    /// but the cursor would then outlive its list, which is UB by
    /// contract). Runs before member destruction, so the pool (owned or
    /// not) is still alive.
    ~valois_list() {
        if (head_ != nullptr) {
            node* first_aux = head_->next.exchange(nullptr, std::memory_order_acq_rel);
            pool_->unref(first_aux);  // cascades down the chain
            pool_->unref(head_);
            pool_->unref(tail_);
        }
    }

    valois_list(const valois_list&) = delete;
    valois_list& operator=(const valois_list&) = delete;

    /// A cursor is the paper's (pre_cell, pre_aux, target) triple. It
    /// holds one traversal reference on pre_cell and target and keeps a
    /// policy guard engaged for its whole attached lifetime, so the nodes
    /// it points at — even deleted ones — cannot be recycled under it
    /// (counts under refcount, the pin's grace period under
    /// epochs). pre_aux is an UNREFERENCED hint under every policy (the
    /// traversal fast path's aux elision): reads through it are racy but
    /// safe — slabs never return to the OS — and every consumer either
    /// validates it against pre_aux->next == target (update's early-out,
    /// valid()) or ignores it and re-pins the current aux from the ref'd
    /// pre_cell (mutators). Cursors are thread-local objects: copy them
    /// only on the owning thread.
    class cursor {
    public:
        cursor() = default;
        explicit cursor(valois_list& l) : list_(&l) { l.first(*this); }

        cursor(const cursor& o) : list_(o.list_), guard_(o.guard_) {
            pre_cell_ = copy(o.pre_cell_);
            pre_aux_ = o.pre_aux_;  // hint: no reference to duplicate
            target_ = copy(o.target_);
        }

        cursor& operator=(const cursor& o) {
            if (this == &o) return *this;
            cursor tmp(o);
            swap(tmp);
            return *this;
        }

        cursor(cursor&& o) noexcept { swap(o); }
        cursor& operator=(cursor&& o) noexcept {
            if (this != &o) {
                reset();
                swap(o);
            }
            return *this;
        }

        ~cursor() { reset(); }

        /// Releases all references (then the guard); cursor becomes
        /// detached.
        void reset() noexcept {
            if (list_ == nullptr) return;
            list_->pool_->drop(pre_cell_);
            list_->pool_->drop(target_);  // pre_aux_ is a hint: nothing to drop
            pre_cell_ = pre_aux_ = target_ = nullptr;
            guard_.reset();
        }

        /// True when the cursor is at the end-of-list position.
        bool at_end() const noexcept { return target_ != nullptr && target_->is_tail(); }

        /// True when the cursor still reflects the list structure
        /// (pre_aux -> target). Invalidated by concurrent (or own)
        /// insertions/deletions nearby; revalidate with list.update().
        bool valid() const noexcept {
            return target_ != nullptr &&
                   pre_aux_ != nullptr &&
                   pre_aux_->next.load(std::memory_order_acquire) == target_;
        }

        /// The visited item. Only callable when !at_end() and the target is
        /// a normal cell (which it always is for a cursor produced by
        /// first()/next()/update()).
        T& operator*() const noexcept {
            assert(target_ != nullptr && target_->is_cell());
            return target_->value();
        }

        node* target() const noexcept { return target_; }
        node* pre_aux() const noexcept { return pre_aux_; }
        node* pre_cell() const noexcept { return pre_cell_; }
        valois_list* list() const noexcept { return list_; }

        void swap(cursor& o) noexcept {
            std::swap(list_, o.list_);
            guard_.swap(o.guard_);
            std::swap(pre_cell_, o.pre_cell_);
            std::swap(pre_aux_, o.pre_aux_);
            std::swap(target_, o.target_);
        }

    private:
        friend class valois_list;

        node* copy(node* p) const noexcept {
            return list_ == nullptr ? nullptr : list_->pool_->copy(p);
        }

        valois_list* list_ = nullptr;
        guard guard_;
        node* pre_cell_ = nullptr;
        node* pre_aux_ = nullptr;
        node* target_ = nullptr;
    };

    // --- traversal (Figs. 5-7) -------------------------------------------

    /// Fig. 6: positions c at the first item (or end-of-list if empty).
    void first(cursor& c) {
        c.reset();
        c.list_ = this;
        c.guard_ = pool_->make_guard();
        c.pre_cell_ = pool_->copy(head_);  // root pointer never changes
        c.pre_aux_ = nullptr;
        c.target_ = nullptr;
        reposition(c);
    }

    /// Fig. 7: advances c one position. Returns false at end-of-list.
    /// Steady state under a counting policy is the fast path: one
    /// protect (on the next cell), the aux elided, the old pre_cell's
    /// reference released — ~2 RMWs instead of the literal ~6.
    bool next(cursor& c) {
        assert(c.list_ == this && c.target_ != nullptr);
        if (c.target_->is_tail()) return false;
        auto& ctr = instrument::tls();
        ctr.traverse_hops++;
        if constexpr (pool_type::counts_traversal) {
            node* aux = nullptr;
            if (node* n = hop_over_aux(c.target_, aux)) {
                ctr.traverse_fast_hops++;
                pool_->drop(c.pre_cell_);
                c.pre_cell_ = c.target_;  // hand-over-hand: the reference transfers
                c.pre_aux_ = aux;
                c.target_ = n;
                return true;
            }
        }
        // Slow path (and the whole path under epochs, where protects are
        // plain loads): step onto the target and re-derive the position.
        pool_->drop(c.pre_cell_);
        c.pre_cell_ = c.target_;  // the target reference transfers too
        c.target_ = nullptr;
        reposition(c);
        return true;
    }

    /// Ordered seek: advances c while `pred(value)` holds, stopping at
    /// the first cell whose payload fails the predicate or at
    /// end-of-list. This is the dictionaries' find loop, lifted into the
    /// list so a counting policy can cross every cell that satisfies the
    /// predicate with plain loads (the unreferenced walk, evaluating it
    /// on validated payload copies) and take references only at the
    /// landing (land_seek) — the caller's subsequent
    /// try_insert/try_delete see exactly the hand-over-hand triple
    /// contract. `pred` must be pure (it runs on snapshot copies ahead
    /// of the cursor, and more than once per cell).
    template <typename Pred>
    void seek_while(cursor& c, Pred&& pred) {
        assert(c.list_ == this && c.target_ != nullptr);
        auto& ctr = instrument::tls();
        for (;;) {
            if (c.target_->is_tail()) return;
            ctr.cells_traversed++;
            if (!pred(static_cast<const T&>(c.target_->value()))) return;
            if constexpr (pool_type::counts_traversal && batch_scannable) {
                if (land_seek(c, pred)) continue;
            }
            next(c);  // the counted hop: epochs, payloads the walk cannot copy, fallback
        }
    }

    /// A validated copy of the cell a lookup stopped at: its payload and
    /// version stamps, read inside one incarnation window, so the triple
    /// is an atomic snapshot of the cell.
    struct landing {
        T value;
        std::uint64_t born_ts;
        std::uint64_t dead_ts;
    };

    /// Read-only lookup: walks from First past every cell whose payload
    /// satisfies the pure "keep going" predicate `walk` and returns a
    /// copy of the first cell that fails it, or nullopt at end-of-list.
    /// Under a counting policy with a batch_scannable payload this
    /// writes no shared memory at all (see lookup_from).
    template <typename Walk>
    std::optional<landing> lookup(Walk&& walk) {
        return lookup_from(head_, walk);
    }

    /// As lookup(), but starting immediately AFTER `anchor`, a normal
    /// cell the caller keeps live for the duration WITHOUT lending it a
    /// traversal reference: head_ (the list's root reference) or a hash
    /// bucket's dummy (its directory slot's counted reference). `anchor`
    /// is not visited. The walk borrows it, crosses cells with plain
    /// loads, sweeps each segment and carries its last cell into the
    /// next, and validates the stop cell's copy with a final sweep — no
    /// protect, no count. A failed sweep restarts once from the anchor;
    /// a second failure takes the counted scan.
    template <typename Walk>
    std::optional<landing> lookup_from(node* anchor, Walk&& walk) {
        assert(anchor != nullptr && anchor->is_normal());
        if constexpr (pool_type::counts_traversal && batch_scannable) {
            for (int attempt = 0; attempt < kOptimisticTries; ++attempt) {
                batch_snapshot s;
                node* x = anchor;
                if (unreferenced_walk(x, s, walk) && s.unchanged()) {
                    count_walk(s, s.crossed + (s.stop_cell ? 1 : 0));
                    if (!s.stop_cell) return std::nullopt;
                    return landing{s.value(s.cells), s.born[s.cells], s.dead[s.cells]};
                }
                note_walk_failure(attempt);
            }
        }
        std::optional<landing> out;
        scan_from(anchor, [&](const T& v, std::uint64_t born, std::uint64_t dead) {
            if (walk(v)) return true;
            out.emplace(landing{v, born, dead});
            return false;
        });
        return out;
    }

    /// Fig. 5: makes c valid again, skipping (and best-effort compacting)
    /// auxiliary-node chains. target ends on the next normal cell or Last.
    void update(cursor& c) {
        assert(c.list_ == this && c.pre_cell_ != nullptr);
        testing_hooks::chaos_point(sched::step_kind::revalidate);
        // Early-out anchored at the referenced pre_cell. Its next always
        // names the current auxiliary node, and that aux is kept live by
        // the link's own reference — so reading a->next is not a read of
        // recycled memory. (Checking only the unreferenced pre_aux_ hint
        // here would be unsound: a recycled hint whose next happens to
        // equal target would make this early-out fire forever while the
        // mutators' CASes keep failing — a livelock.) A transient
        // unlink/recycle between the two loads can still produce one
        // spurious pass; the next failed CAS routes back here and re-reads.
        if (c.target_ != nullptr) {
            node* a = c.pre_cell_->next.load(std::memory_order_acquire);
            if (a != nullptr && a->is_aux() &&
                a->next.load(std::memory_order_acquire) == c.target_) {
                c.pre_aux_ = a;  // refresh the hint while we are here
                return;          // already valid
            }
        }
        reposition(c);
    }

    // --- mutation (Figs. 9-10) -------------------------------------------

    /// Allocates a cell node carrying `args...` and an auxiliary node, for
    /// use with try_insert. The caller owns one counted reference on each
    /// and must release them (release_node) when done — whether or not the
    /// pair was successfully inserted (the list takes its own references
    /// via links).
    template <typename... Args>
    node* make_cell(Args&&... args) {
        node* q = pool_->alloc();
        q->construct_cell(std::forward<Args>(args)...);
        return q;
    }

    node* make_aux() { return pool_->alloc(); }

    void release_node(node* p) noexcept { pool_->unref(p); }

    /// Fig. 9: inserts cell q followed by auxiliary node a at the position
    /// before c's target. Requires c valid; returns false (leaving q and a
    /// unlinked, reusable for a retry) if the CAS loses a race — or if the
    /// cursor's target has already been retired under a deferred policy
    /// (the cursor is then stale by definition; update() recovers).
    bool try_insert(cursor& c, node* q, node* a) {
        assert(c.list_ == this && q->is_cell() && a->is_aux());
        store_link(q->next, a);
        if (!store_link_checked(a->next, c.target_)) {
            instrument::tls().insert_retries++;
            return false;
        }
        // Re-pin the CURRENT aux after pre_cell: the cursor's pre_aux_ is
        // an unreferenced hint and must not be CAS'd through. The swing's
        // expected == target still detects staleness — if pa is not the
        // aux before target, the CAS fails and the caller update()s.
        node* pa = pool_->protect(c.pre_cell_->next);
        if (pa == nullptr || !pa->is_aux()) {  // defensive: see reposition()
            pool_->drop(pa);
            instrument::tls().insert_retries++;
            return false;
        }
        const bool won = swing(pa->next, c.target_, q);
        if (won) c.pre_aux_ = pa;  // refresh the hint: pa->next == q now
        pool_->drop(pa);
        if (!won) instrument::tls().insert_retries++;
        return won;
    }

    /// Convenience: retries try_insert (re-validating with update) until
    /// the value is inserted at the cursor's (current) position. On
    /// return the cursor targets the inserted cell — valid by
    /// construction (the winning swing left pre_aux->next == q), so no
    /// trailing rescan is needed.
    void insert(cursor& c, T value) {
        node* q = make_cell(std::move(value));
        node* a = make_aux();
        while (!try_insert(c, q, a)) update(c);
        pool_->unref(a);
        land_on_inserted(c, q);
    }

    /// After a winning try_insert(c, q, a): repoint the cursor AT the
    /// freshly linked cell, consuming the caller's allocation reference
    /// on q. The winning swing left pre_aux->next == q, so the landed
    /// triple is valid by construction. Batched multi-ops resume the next
    /// key's seek from here — a later equal-key op in the same batch must
    /// observe the cell this one linked.
    void land_on_inserted(cursor& c, node* q) noexcept {
        assert(c.list_ == this && q->is_cell());
        if constexpr (pool_type::counts_traversal) {
            pool_->drop(c.target_);
            c.target_ = q;  // q's alloc reference becomes the cursor's
        } else {
            c.target_ = q;  // traversal references are free here
            pool_->unref(q);  // the list's link holds its own reference
        }
    }

    /// Fig. 10: deletes c's target from the list. Returns false if the
    /// cursor was invalid (structure changed); the cursor is left pointing
    /// at the deleted cell on success — call update() to move on.
    bool try_delete(cursor& c) {
        assert(c.list_ == this && c.target_ != nullptr);
        node* d = c.target_;
        if (!d->is_cell()) return false;  // cannot delete the dummies
        auto& ctr = instrument::tls();
        // Unlink d: swing the aux before d from d to the aux after d. The
        // aux is re-pinned from the ref'd pre_cell (the cursor's pre_aux_
        // is an unreferenced hint); the CAS expecting d detects staleness.
        node* n = pool_->protect(d->next);
        node* pa = pool_->protect(c.pre_cell_->next);
        if (pa == nullptr || !pa->is_aux() || !swing(pa->next, d, n)) {
            pool_->drop(pa);
            pool_->drop(n);
            ctr.delete_retries++;
            return false;
        }
        c.pre_aux_ = pa;  // refresh the hint (pa->next == n: cursor invalid, as documented)
        pool_->drop(pa);
        // Fig. 10 line 6: leave a trail for deleters of adjacent cells.
        // Best effort under deferred policies: if pre_cell was itself
        // retired meanwhile, the trail stays null and retreating deleters
        // simply stop one hop short (compaction remains best-effort).
        testing_hooks::chaos_point(sched::step_kind::back_link);
        publish_back_link(d->back_link, c.pre_cell_);

        // Retreat to the first cell that has not itself been deleted.
        node* p = pool_->copy(c.pre_cell_);
        for (;;) {
            node* bl = pool_->protect(p->back_link);
            if (bl == nullptr) break;
            pool_->drop(p);
            p = bl;
        }
        // s: current head of the auxiliary chain following p.
        node* s = pool_->protect(p->next);
        // Advance n to the last auxiliary node of the chain (lines 13-16).
        for (;;) {
            node* nn = pool_->protect(n->next);
            if (nn->is_normal()) {
                pool_->drop(nn);
                break;
            }
            pool_->drop(n);
            n = nn;
        }
        // Lines 17-21: swing p->next across the chain. Give up if p gets
        // deleted or the chain grows past n — the deleter that caused
        // either will finish the compaction (§3's progress argument).
        for (;;) {
            if (swing(p->next, s, n)) break;
            pool_->drop(s);
            s = pool_->protect(p->next);
            if (p->is_deleted()) break;
            node* after = n->next.load(std::memory_order_acquire);
            if (after == nullptr || !after->is_normal()) break;  // chain grew
        }
        pool_->drop(p);
        pool_->drop(s);
        pool_->drop(n);
        return true;
    }

    // --- introspection ----------------------------------------------------

    node* head() const noexcept { return head_; }
    node* tail() const noexcept { return tail_; }
    pool_type& pool() noexcept { return *pool_; }
    const pool_type& pool() const noexcept { return *pool_; }

    /// Positions c immediately AFTER `start`, which must be a cell the
    /// caller holds a counted reference on (it may be deleted — traversal
    /// resumes on the live suffix, per cell persistence). Used by the skip
    /// list to descend via `down` pointers without rescanning from First.
    void seek(cursor& c, node* start) {
        assert(start != nullptr);
        c.reset();
        c.list_ = this;
        c.guard_ = pool_->make_guard();
        c.pre_cell_ = pool_->copy(start);
        c.pre_aux_ = nullptr;
        c.target_ = nullptr;
        reposition(c);
    }

    /// Lightweight read-only traversal: visits each cell's payload in
    /// list order until `visit` returns false. Holds one traversal
    /// reference at a time (the minimum for safety) instead of a full
    /// cursor triple — use it for visitors with side effects (for_each,
    /// range scans); a point lookup should use lookup(), which writes
    /// nothing. Under counting policies the steady state is the
    /// unreferenced walk, one protect per kScanBatch cells, falling back
    /// to the cell-to-cell fast hop (one protect per cell, aux elided,
    /// departures released as they go); under epochs every step is
    /// already a plain load. Fully concurrent-safe.
    ///
    /// The snapshot/range-query layer passes a stamped visitor instead:
    ///   visit(const T&, uint64_t born_ts, uint64_t dead_ts) -> bool
    /// Batched segments surface the stamps captured inside the same
    /// incarnation-validated window as the payload copy, so a validated
    /// (payload, born, dead) triple is an atomic snapshot of the cell.
    template <typename Visit>
    void scan(Visit&& visit) {
        guard g = pool_->make_guard();
        scan_loop(pool_->protect(head_->next),  // first aux: never null
                  std::forward<Visit>(visit));
    }

    /// As scan(), but starting immediately AFTER `start`, which must be a
    /// normal cell the caller keeps provably live for the duration (a
    /// counted link it owns — e.g. a hash bucket's dummy-cell anchor).
    /// `start` itself is not visited. The split-ordered hash map uses this
    /// to begin lookups at a bucket shortcut instead of First, keeping the
    /// batched-superhop fast path for intra-bucket hops.
    template <typename Visit>
    void scan_from(node* start, Visit&& visit) {
        assert(start != nullptr && start->is_normal());
        guard g = pool_->make_guard();
        scan_loop(pool_->copy(start), std::forward<Visit>(visit));
    }

private:
    /// True when the scan visitor wants version stamps alongside the
    /// payload (the snapshot/range-query layer's shape).
    template <typename Visit>
    static constexpr bool stamped_visitor =
        std::is_invocable_v<Visit&, const T&, std::uint64_t, std::uint64_t>;

    /// Shared body of scan()/scan_from(): `p` arrives carrying one
    /// traversal reference (under counting policies) and the caller's
    /// guard spans the call.
    template <typename Visit>
    void scan_loop(node* p, Visit&& visit) {
        auto& ctr = instrument::tls();
        for (;;) {
            node* n = nullptr;
            // Batched hop: cross up to kScanBatch cells on ONE protect by
            // snapshotting payloads seqlock-style and validating the whole
            // segment with an incarnation sweep. Snapshot cells are visited
            // from the validated copies; the segment's end (Last, the cap,
            // or a link that moved under the walk) arrives protected and
            // is visited below like any single-step arrival.
            if constexpr (pool_type::counts_traversal && batch_scannable) {
                batch_snapshot s;
                node* x = p;
                const auto every_cell = [](const T&) { return true; };
                if (batch_hop(x, s, every_cell) != seg_end::fail) n = batch_commit(x, s);
                if (n != nullptr) {
                    count_walk(s, 0);
                    pool_->drop(p);
                    for (int i = 0; i < s.cells; ++i) {
                        ctr.cells_traversed++;
                        const T& v = s.value(i);
                        bool keep;
                        if constexpr (stamped_visitor<Visit>) {
                            keep = visit(v, s.born[i], s.dead[i]);
                        } else {
                            keep = visit(v);
                        }
                        if (!keep) {
                            pool_->drop(n);
                            return;
                        }
                    }
                }
            }
            if (n == nullptr) {
                ctr.traverse_hops++;
                if constexpr (pool_type::counts_traversal) {
                    if (p->is_normal()) {  // cell-to-cell: elide the aux between
                        node* aux_hint = nullptr;
                        n = hop_over_aux(p, aux_hint);
                        if (n != nullptr) ctr.traverse_fast_hops++;
                    }
                }
                if (n == nullptr) n = pool_->protect(p->next);  // single step
                pool_->drop(p);
            }
            if (n == nullptr || n->is_tail()) {
                pool_->drop(n);
                return;
            }
            if (n->is_cell()) {
                ctr.cells_traversed++;
                bool keep;
                if constexpr (stamped_visitor<Visit>) {
                    // n is protected: direct stamp reads are reads of live
                    // memory, no seqlock dance needed.
                    keep = visit(static_cast<const T&>(n->value()),
                                 n->born_ts.load(std::memory_order_acquire),
                                 n->dead_ts.load(std::memory_order_acquire));
                } else {
                    keep = visit(static_cast<const T&>(n->value()));
                }
                if (!keep) {
                    pool_->drop(n);
                    return;
                }
            } else {
                ctr.aux_hops++;
            }
            p = n;
        }
    }

public:
    /// Number of normal cells currently in the list. O(n); quiescent use.
    std::size_t size_slow() const {
        std::size_t count = 0;
        for (node* p = head_->next.load(std::memory_order_acquire); p != nullptr && !p->is_tail();
             p = p->next.load(std::memory_order_acquire)) {
            if (p->is_cell()) ++count;
        }
        return count;
    }

    bool empty_slow() const { return size_slow() == 0; }

private:
    /// Re-derives (pre_aux, target) from the cursor's ref'd pre_cell: the
    /// Fig. 5 walk, rooted at pre_cell->next instead of the old counted
    /// pre_aux. Compacts aux chains behind pre_cell as it goes. On exit
    /// pre_aux is the (unreferenced) hint and target holds a traversal
    /// reference to the next normal cell or Last.
    void reposition(cursor& c) {
        telemetry::prof::phase_scope prof_phase(telemetry::prof::phase::safe_read);
        auto& ctr = instrument::tls();
        pool_->drop(c.target_);
        c.target_ = nullptr;
        // pre_cell is ref'd and a cell's next always links an aux (every
        // cell is flanked by auxes; deleted cells keep their outgoing
        // next until reclaim), so p is a genuine aux here.
        node* p = pool_->protect(c.pre_cell_->next);
        node* n = pool_->protect(p->next);
        while (n->is_aux()) {
            ctr.aux_hops++;
            // Compact the chain behind pre_cell. Best effort: failure just
            // means someone else is restructuring here.
            if (swing(c.pre_cell_->next, p, n)) ctr.aux_compactions++;
            node* nn = pool_->protect(n->next);
            pool_->drop(p);
            p = n;
            n = nn;
        }
        c.pre_aux_ = p;
        pool_->drop(p);  // demote to hint: the cursor keeps no reference
        c.target_ = n;
        if (node* nx = n->next.load(std::memory_order_relaxed)) {
            __builtin_prefetch(static_cast<const void*>(nx), 0, 1);
            ctr.traverse_prefetches++;
        }
    }

    /// The elided-aux hop: from a node the caller holds a reference on,
    /// reach the normal cell two links away with ONE protect and no
    /// reference on the intervening aux. Validation sandwich:
    ///   1. snapshot aux = from->next and its tag (incarnation and kind
    ///      in one word: it must read as an aux);
    ///   2. protect n = aux->next (the only RMW);
    ///   3. re-read from->next seq_cst — the location is only written by
    ///      seq_cst CASes, so this read is current, and equality proves
    ///      aux was still linked (hence unreclaimed) when the protect
    ///      landed;
    ///   4. re-check the tag — catches the ABA where aux was
    ///      recycled and re-linked at the same spot (the re-link
    ///      happens-after the incarnation bump through the free-list
    ///      pop chain, so seeing the re-link at (3) forces (4) to see
    ///      the bump).
    /// On any failure the speculative reference is dropped (a net-zero
    /// blind pair on a pool node is always safe: counts are preserved
    /// across recycle — see ref_count.hpp) and nullptr is returned; the
    /// caller takes the fully counted slow path. Returns the protected
    /// next cell and writes the validated aux to `aux_hint`.
    node* hop_over_aux(node* from, node*& aux_hint) {
        node* aux = from->next.load(std::memory_order_acquire);
        if (aux == nullptr) return nullptr;
        const std::uint64_t tag = aux->tag.load(std::memory_order_acquire);
        if (kind_of(tag) != node_kind::aux) return nullptr;
        testing_hooks::chaos_point(sched::step_kind::ref_transfer);
        node* n = pool_->protect(aux->next);
        if (from->next.load(std::memory_order_seq_cst) != aux ||
            aux->tag.load(std::memory_order_acquire) != tag ||
            n == nullptr || !n->is_normal()) {
            pool_->drop(n);
            return nullptr;
        }
        if (node* nx = n->next.load(std::memory_order_relaxed)) {
            __builtin_prefetch(static_cast<const void*>(nx), 0, 1);
            instrument::tls().traverse_prefetches++;
        }
        aux_hint = aux;
        return n;
    }

    /// Payloads eligible for the batched scan hop. Two requirements, both
    /// load-bearing for soundness (not just performance):
    ///   * trivially destructible — reclaim's payload teardown writes
    ///     nothing, so a cell's bytes mutate strictly between incarnation
    ///     bumps and the seqlock validation window is airtight;
    ///   * trivially copy-constructible — the snapshot is a plain byte
    ///     copy, so a torn racy read cannot run user code before the
    ///     validation sweep discards it.
    /// (Deliberately NOT is_trivially_copyable: std::pair's user-provided
    /// operator= fails that check while its copy remains a byte copy.)
    static constexpr bool batch_scannable =
        std::is_trivially_destructible_v<T> && std::is_trivially_copy_constructible_v<T>;

    /// Cells per walk segment. A scan segment ends on a protect, so this
    /// caps the cells a for_each or snapshot crosses per RMW; a lookup or
    /// seek segment ends on an incarnation sweep and carries its last
    /// cell into the next, so there it only bounds the snapshot's size
    /// and how far a walk can wander through recycled nodes before a
    /// sweep notices. At 8 the E7 seek row ran ~1.49x epoch, at 16
    /// ~1.35-1.45x; 32 measured no better, so 16 keeps the snapshot under
    /// 1 KiB of stack for typical payloads.
    static constexpr int kScanBatch = 16;

    /// Unreferenced attempts a lookup or seek makes before it takes the
    /// counted path: the first walk and one restart from the anchor.
    static constexpr int kOptimisticTries = 2;

    /// One segment of the unreferenced walk: every node read through
    /// without a reference (with its tag at first touch) plus raw
    /// payload snapshots of the cells crossed. Nothing here is surfaced
    /// until the whole set validates.
    struct batch_snapshot {
        /// Two records per crossed cell (the cell and the aux after it),
        /// one for the first aux, two carried from the previous segment
        /// and slack for a transient aux chain.
        static constexpr int kRecords = 2 * kScanBatch + 4;

        const node* src[kRecords];
        std::uint64_t tag[kRecords];
        int nsrc = 0;
        /// Record index of the last cell crossed since the walk began
        /// (the landing's pre_cell); -1 while the walk has crossed none.
        int pre = -1;
        alignas(T) unsigned char vals[kScanBatch][sizeof(T)];
        /// Version stamps captured inside the same incarnation window as
        /// the payload copy (snapshot/range-query layer).
        std::uint64_t born[kScanBatch];
        std::uint64_t dead[kScanBatch];
        int cells = 0;  ///< cells crossed in this segment (copies in vals)
        std::uint64_t crossed = 0;  ///< cells crossed over every segment
        std::uint64_t chain = 0;    ///< extra aux nodes crossed (aux chains)
        /// On seg_end::stop: true when the walk stopped at a cell, whose
        /// validated copy and stamps sit at index `cells`; false at Last.
        bool stop_cell = false;

        void record(const node* n, std::uint64_t t) noexcept {
            src[nsrc] = n;
            tag[nsrc] = t;
            ++nsrc;
        }

        const T& value(int i) const noexcept {
            return *std::launder(reinterpret_cast<const T*>(vals[i]));
        }

        /// The incarnation sweep: true iff no recorded node's tag moved
        /// since first touch — no reclaim, and no kind change either. The
        /// acquire fence orders every read the walk made before the tag
        /// reloads (seqlock reader).
        bool unchanged() const noexcept {
            std::atomic_thread_fence(std::memory_order_acquire);
            for (int i = 0; i < nsrc; ++i) {
                if (src[i]->tag.load(std::memory_order_relaxed) != tag[i]) return false;
            }
            return true;
        }

        /// Starts the next segment of a swept walk: keeps the records of
        /// the last crossed cell and of the node the walk stands on (the
        /// last record), whose link the next segment reads and whose
        /// liveness the next sweep must therefore still prove.
        void carry() noexcept {
            int k = 0;
            if (pre >= 0) {
                src[0] = src[pre];
                tag[0] = tag[pre];
                pre = 0;
                k = 1;
            }
            if (nsrc > k) {
                src[k] = src[nsrc - 1];
                tag[k] = tag[nsrc - 1];
                ++k;
            }
            nsrc = k;
            cells = 0;
        }
    };

    /// Why a walk segment ended.
    enum class seg_end : std::uint8_t {
        stop,  ///< reached the stop cell (the first that fails the walk) or Last
        cut,   ///< ended early at the node it stands on: the segment is full,
               ///< or that node's link moved or led to a recycled cell
        fail,  ///< read something only a reclaimed node can hold
    };

    /// Seqlock-style racy snapshot of a cell payload (batch_scannable T
    /// only, so this is a byte copy that runs no user code). May race
    /// with a concurrent construct_cell on a recycled node; batch_hop
    /// re-checks the incarnation before the walk predicate sees the copy
    /// and the sweep re-checks it again before anything is surfaced, so
    /// a torn copy is never observed.
    LFLL_NO_TSAN LFLL_NO_ASAN static void racy_value_copy(unsigned char* dst,
                                                          const node* src) noexcept {
#if defined(LFLL_ASAN)
        // Byte loads through volatile: a memcpy the compiler emitted for
        // the copy would go through ASan's interceptor, which checks the
        // poison this function is exempt from.
        const volatile unsigned char* from = src->storage;
        for (std::size_t i = 0; i < sizeof(T); ++i) dst[i] = from[i];
#else
        ::new (static_cast<void*>(dst)) T(*reinterpret_cast<const T*>(src->storage));
#endif
    }

    /// First touch of `n`, just read from x's link: load its tag, then
    /// re-read the link. Closes the link -> first-touch gap: without the
    /// re-read, `n` could be unlinked, reclaimed and re-linked elsewhere
    /// between the two loads, and the walk would carry on from its new
    /// position under a tag that validates. With it, `n` held `tag`
    /// while x still linked it, so once x's own tag is swept the edge
    /// x -> n was real. The caller takes n's kind from `tag` and never
    /// reloads it. False when the link moved: the caller ends its
    /// segment at x, as hop_over_aux does.
    bool first_touch(node* x, node* n, std::uint64_t& tag) {
        tag = n->tag.load(std::memory_order_acquire);
        testing_hooks::chaos_point(sched::step_kind::first_touch);
        return x->next.load(std::memory_order_acquire) == n;
    }

    /// The walk engine for counting policies: from `x`, which the caller
    /// holds live (a counted reference, a borrowed anchor) or which the
    /// previous segment carried (recorded in `s`), cross the cells whose
    /// validated copy satisfies `walk`, with plain loads and no reference
    /// on anything. On return `x` is the node the walk stands on: on
    /// stop, the aux whose link reaches the stop cell. Soundness comes
    /// from the sweep the caller runs afterwards:
    ///
    ///   * Every node read through is recorded with its tag at first
    ///     touch, and its kind is taken from that word. An unchanged tag
    ///     at the sweep proves the node was not reclaimed (nor turned
    ///     into another kind) across the window, hence (a) every
    ///     read of its fields was a read of unreclaimed memory, and (b)
    ///     its outgoing link still held the link's counted reference at
    ///     the instant that link was read (links are released only inside
    ///     reclaim — node.hpp drop_links), so the successor was alive at
    ///     that instant. first_touch pins that successor's tag to the
    ///     same instant. Induction carries liveness from the anchor
    ///     down the chain.
    ///   * Payload bytes are copied inside each cell's tag window
    ///     (seqlock reader: tag load, copy, acquire fence, reload),
    ///     and `walk` only runs on a copy whose reload matched,
    ///     so it never sees torn bytes. The stop cell's copy (and
    ///     stamps) stays at s.vals[s.cells].
    ///   * Aux chains are crossed (recorded, counted in s.chain). A cell
    ///     that recycled under its copy, or whose link moved or does not
    ///     lead to an aux, cuts the segment before it: x stays on the aux
    ///     that links it.
    template <typename Walk>
    seg_end batch_hop(node*& x, batch_snapshot& s, Walk& walk) {
        for (;;) {
            if (s.cells == kScanBatch - 1 || s.nsrc + 2 > batch_snapshot::kRecords) {
                return seg_end::cut;
            }
            // Only a node under reclamation has a null link (Last's is
            // never read): fail rather than wait for its incarnation bump.
            node* n = x->next.load(std::memory_order_acquire);
            if (n == nullptr) return seg_end::fail;
            std::uint64_t in;
            if (!first_touch(x, n, in)) return seg_end::cut;
            // The kind comes from the first-touch word: a cell seen under
            // `in` (an acquire that orders after the construct_cell that
            // set its kind) has its payload fully constructed for that
            // incarnation.
            const node_kind k = kind_of(in);
            if (k == node_kind::aux) {  // a cell's aux, or the next of an aux chain
                if (x->is_aux()) s.chain++;  // telemetry only
                s.record(n, in);
                x = n;
                continue;
            }
            if (k != node_kind::cell) {
                s.stop_cell = false;  // Last
                return seg_end::stop;
            }
            racy_value_copy(s.vals[s.cells], n);
            // Stamps ride the same validation window as the payload bytes
            // (construct_cell resets them, never on_reclaim, so they too
            // mutate only strictly between incarnation bumps). The loads
            // are acquire on purpose: reading a cell's release-stored
            // born stamp synchronizes-with the inserter, which makes any
            // stamp the inserter itself observed (e.g. the dead mark of
            // the same-key predecessor it positioned behind) visible to
            // this walk's LATER stamp reads — the alive-first cluster
            // order then guarantees a snapshot never shows two live
            // incarnations of one key.
            s.born[s.cells] = n->born_ts.load(std::memory_order_acquire);
            s.dead[s.cells] = n->dead_ts.load(std::memory_order_acquire);
            std::atomic_thread_fence(std::memory_order_acquire);
            if (n->tag.load(std::memory_order_relaxed) != in) return seg_end::cut;
            if (!walk(s.value(s.cells))) {
                s.stop_cell = true;
                return seg_end::stop;
            }
            // Cross n onto the aux after it; a link that moved or leads
            // somewhere else cuts the segment before n instead.
            node* a = n->next.load(std::memory_order_acquire);
            std::uint64_t ia;
            if (a == nullptr || !first_touch(n, a, ia) || kind_of(ia) != node_kind::aux) {
                return seg_end::cut;
            }
            s.record(n, in);
            s.pre = s.nsrc - 1;
            s.record(a, ia);
            ++s.cells;
            ++s.crossed;
            x = a;
        }
    }

    /// Runs batch_hop to the stop cell across as many segments as it
    /// takes, sweeping each full or cut segment and carrying its last
    /// cell (and the node it stands on) into the next. True when the
    /// walk reached its stop; the caller still owes the final sweep,
    /// after whatever references it takes at the landing.
    template <typename Walk>
    bool unreferenced_walk(node*& x, batch_snapshot& s, Walk& walk) {
        for (;;) {
            const seg_end r = batch_hop(x, s, walk);
            if (r == seg_end::stop) return true;
            if (r == seg_end::fail || !s.unchanged()) return false;
            s.carry();
        }
    }

    /// Ends a scan segment: protect the link of the node the walk stands
    /// on and run the incarnation sweep.
    node* batch_commit(node* x, batch_snapshot& s) {
        // The widest elided window in the engine: everything in `s` was
        // read without references. A preemption here lets deleters and
        // the reclaim cascade churn the snapshotted nodes so the sweep's
        // failure path gets real coverage under the scheduler.
        testing_hooks::chaos_point(sched::step_kind::ref_transfer);
        node* res = pool_->protect(x->next);
        if (res == nullptr || !res->is_normal() || !s.unchanged()) {
            pool_->drop(res);
            s.cells = 0;
            return nullptr;
        }
        return res;
    }

    /// The mutator seek's unreferenced walk and landing: from the
    /// cursor's referenced target (a cell the predicate keeps), cross
    /// every cell that satisfies `pred` and land the cursor with the
    /// referenced-triple contract intact:
    ///   pre_cell <- the last crossed cell (try_ref), or the old target
    ///               if none was crossed (its reference transfers);
    ///   pre_aux  <- the aux the walk stands on (unreferenced hint);
    ///   target   <- protect(pre_aux->next): the stop cell, or whatever
    ///               replaced it.
    /// Both references land on pointers the walk read without one, so
    /// the snapshot is swept AFTER them: unchanged incarnations prove no
    /// recorded node was reclaimed since first touch, hence the try_ref
    /// pinned the cell the predicate was evaluated on (not a same-address
    /// recycle) and the protect read a live link — the triple is exactly
    /// what a hand-over-hand walk would have produced, and §5 counts
    /// balance because every reference the cursor ends up holding was
    /// acquired through try_ref/protect and every one it gives up goes
    /// through drop. A failed walk or sweep undoes the speculative
    /// references and restarts once from the target; a second failure
    /// returns false and the caller takes one counted hop.
    template <typename Pred>
    bool land_seek(cursor& c, Pred& pred) {
        node* from = c.target_;  // referenced cell (caller checked)
        for (int attempt = 0; attempt < kOptimisticTries; ++attempt) {
            batch_snapshot s;
            node* x = from;
            if (unreferenced_walk(x, s, pred)) {
                node* pre = s.pre < 0 ? nullptr : const_cast<node*>(s.src[s.pre]);
                testing_hooks::chaos_point(sched::step_kind::batch_seek);
                if (pre == nullptr || pool_->try_ref(pre)) {
                    testing_hooks::chaos_point(sched::step_kind::batch_seek);
                    node* res = pool_->protect(x->next);
                    if (res != nullptr && res->is_normal() && s.unchanged()) {
                        pool_->drop(c.pre_cell_);
                        if (pre != nullptr) {
                            pool_->drop(from);
                            c.pre_cell_ = pre;
                        } else {
                            c.pre_cell_ = from;  // the target reference transfers
                        }
                        c.pre_aux_ = x;
                        c.target_ = res;
                        count_walk(s, s.crossed);
                        return true;
                    }
                    pool_->drop(res);
                    if (pre != nullptr) pool_->unref(pre);
                }
            }
            note_walk_failure(attempt);
        }
        return false;
    }

    /// Hop accounting for a committed walk: one hop per cell crossed plus
    /// the hop onto the landing, every one of them a fast hop.
    void count_walk(const batch_snapshot& s, std::uint64_t cells) {
        auto& ctr = instrument::tls();
        ctr.traverse_hops += s.crossed + 1;
        ctr.traverse_fast_hops += s.crossed + 1;
        ctr.aux_hops += s.chain;
        ctr.cells_traversed += cells;
    }

    /// Failure-path telemetry of the unreferenced walk: a failed first
    /// attempt is a restart, a failed last attempt a fallback onto the
    /// counted path. The success path touches neither counter.
    static void note_walk_failure(int attempt) {
        static telemetry::counter& restarts = walk_counter("lfll_traverse_restarts_total");
        static telemetry::counter& fallbacks = walk_counter("lfll_traverse_fallbacks_total");
        (attempt + 1 < kOptimisticTries ? restarts : fallbacks).inc();
    }

    static telemetry::counter& walk_counter(const char* name) {
        return telemetry::registry::global().get_counter(
            name, std::string("policy=\"") + Policy::name + "\"");
    }

    /// The counted-link CAS: swing `loc` from `expected` to `desired`,
    /// transferring reference counts as described in node_pool.hpp. Fails
    /// without attempting the CAS if `desired` has already been retired
    /// (deferred policies): a claimed node must never be re-linked.
    bool swing(std::atomic<node*>& loc, node* expected, node* desired) {
        auto& ctr = instrument::tls();
        ctr.cas_attempts++;
        if (!pool_->try_ref(desired)) {  // the link's reference, speculative
            ctr.cas_failures++;
            return false;
        }
        testing_hooks::chaos_point(sched::step_kind::cas);  // between speculation and CAS
        node* e = expected;
        if (loc.compare_exchange_strong(e, desired, std::memory_order_seq_cst,
                                        std::memory_order_acquire)) {
            pool_->unref(expected);  // the dying link's reference
            return true;
        }
        ctr.cas_failures++;
        pool_->unref(desired);  // undo speculation
        return false;
    }

    /// Counted store to a location the caller exclusively owns (a private
    /// node's field, or a once-only field like back_link after winning
    /// the unlink CAS). The target must be provably live (an owned fresh
    /// node, or a link-counted one).
    void store_link(std::atomic<node*>& loc, node* target) {
        pool_->ref(target);
        node* old = loc.exchange(target, std::memory_order_acq_rel);
        pool_->unref(old);
    }

    /// As store_link, but the target may already be retired (a cursor's
    /// traversal reference under a deferred policy): refuses — leaving
    /// `loc` untouched — instead of resurrecting a claimed node.
    bool store_link_checked(std::atomic<node*>& loc, node* target) {
        if (!pool_->try_ref(target)) return false;
        node* old = loc.exchange(target, std::memory_order_acq_rel);
        pool_->unref(old);
        return true;
    }

    /// The back_link publication (Fig. 10 line 6): null -> pre_cell, by
    /// the winning deleter, exactly once. An unconditional exchange here
    /// would let a second writer replace an already-published trail —
    /// dropping the counted reference a concurrent retreat may be about
    /// to follow — so the "set once" contract (node.hpp) is enforced
    /// structurally with a CAS from null. Refuses (trail stays null)
    /// when `target` has already been retired, like store_link_checked.
    bool publish_back_link(std::atomic<node*>& loc, node* target) {
        if (!pool_->try_ref(target)) return false;
        node* expected = nullptr;
        if (loc.compare_exchange_strong(expected, target, std::memory_order_acq_rel,
                                        std::memory_order_acquire)) {
            return true;
        }
        pool_->unref(target);  // lost: a trail is already published
        return false;
    }

    std::unique_ptr<pool_type> owned_pool_;  // null when the pool is shared
    pool_type* pool_ = nullptr;
    node* head_ = nullptr;
    node* tail_ = nullptr;
};

}  // namespace lfll
