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
// traversal hop costs (SafeRead's two RMWs, a hazard publish, or a plain
// load under an epoch pin) and when dead nodes recycle; the default is
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
// pre_aux (2). The fast path cuts the steady state to ~2 RMWs per hop
// (one protect, one Release) with these mechanisms (see DESIGN.md
// "Traversal fast path"):
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
//  4. Batched scan hops (trivially-copyable payloads only): scan()
//     crosses up to kScanBatch cells per protect by walking the chain
//     with plain loads, snapshotting each payload seqlock-style, and
//     validating the whole segment with one incarnation sweep before
//     any snapshot is surfaced (batch_hop below). Any mismatch discards
//     the batch and falls back to the per-cell hop. The walk's pure
//     "keep going" predicate bounds every segment: the first cell whose
//     validated copy fails it is not crossed but becomes the protected
//     segment end, so a lookup reads exactly the cells it needs and the
//     kScanBatch cap only binds on long walks.
//  5. Batched MUTATOR seeks (seek_while / batch_seek_step): the same
//     predicate-bounded superhop drives the dictionaries' ordered
//     seeks, so the landing cell is always the protected segment end.
//     The hand-off into the ordinary referenced cursor upgrades only
//     pre_cell (the last crossed cell) to a counted reference (try_ref)
//     and re-sweeps the WHOLE snapshot so that reference provably
//     attached to the node the snapshot read — which keeps the
//     Figs. 9-10 CAS windows reference-held exactly as if the cursor
//     had walked hand-over-hand.
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
#include <type_traits>
#include <utility>

#include "lfll/core/node.hpp"
#include "lfll/memory/node_pool.hpp"
#include "lfll/memory/policy.hpp"
#include "lfll/primitives/instrument.hpp"

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
        head_->kind.store(node_kind::head, std::memory_order_relaxed);
        tail_ = pool_->alloc();
        tail_->kind.store(node_kind::tail, std::memory_order_relaxed);
        node* aux = pool_->alloc();
        aux->kind.store(node_kind::aux, std::memory_order_relaxed);
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
    /// (counts under refcount/hazard, the pin's grace period under
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
    /// list so the counted fast path can cross up to kScanBatch cells
    /// per RMW (batch_seek_step): the batch evaluates the predicate on
    /// validated payload copies, ends its segment at the first cell that
    /// fails it, and hands off into the ordinary referenced cursor there
    /// — the caller's subsequent try_insert/try_delete see exactly the
    /// hand-over-hand triple contract. `pred` must be pure (it runs on
    /// snapshot copies ahead of the cursor, and more than once per cell).
    template <typename Pred>
    void seek_while(cursor& c, Pred&& pred) {
        assert(c.list_ == this && c.target_ != nullptr);
        auto& ctr = instrument::tls();
        for (;;) {
            if (c.target_->is_tail()) return;
            ctr.cells_traversed++;
            if (!pred(static_cast<const T&>(c.target_->value()))) return;
            if constexpr (pool_type::counts_traversal && batch_scannable) {
                if (batch_seek_step(c, pred)) continue;
            }
            next(c);
        }
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

    node* make_aux() {
        node* a = pool_->alloc();
        a->kind.store(node_kind::aux, std::memory_order_release);
        return a;
    }

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

    /// The default scan walk predicate: never ends a segment early.
    struct every_cell {
        constexpr bool operator()(const T&) const noexcept { return true; }
    };

    /// Lightweight read-only traversal: visits each cell's payload in
    /// list order until `visit` returns false. Holds one traversal
    /// reference at a time (the minimum for safety) instead of a full
    /// cursor triple — use it for pure lookups; use cursors when the
    /// position will be mutated. Under counting policies the steady
    /// state is the cell-to-cell fast hop (one protect per cell, aux
    /// elided, departures released as they go); under epochs
    /// every step is already a plain load. Fully concurrent-safe.
    ///
    /// `walk` is the optional pure "keep going" predicate of a lookup
    /// (true while the walk must continue past a cell). It bounds the
    /// batched superhop: a segment ends at the first cell whose validated
    /// copy fails it, so nothing past the stop cell is read. It never
    /// replaces `visit`, which still decides where the scan stops; the
    /// default keeps every segment at full width (for_each, snapshots).
    template <typename Visit, typename Walk = every_cell>
    void scan(Visit&& visit, Walk&& walk = {}) {
        guard g = pool_->make_guard();
        scan_loop(pool_->protect(head_->next),  // first aux: never null
                  std::forward<Visit>(visit), walk);
    }

    /// Stamped scan for the snapshot/range-query layer: identical
    /// traversal engine (superhop, aux elision), but the
    /// visitor receives each cell's version stamps alongside the payload:
    ///   visit(const T&, uint64_t born_ts, uint64_t dead_ts) -> bool
    /// Batched segments surface the stamps captured inside the same
    /// incarnation-validated window as the payload copy, so a validated
    /// (payload, born, dead) triple is an atomic snapshot of the cell.
    /// scan()/scan_from() accept stamped visitors directly; these names
    /// exist so call sites read as what they are.
    template <typename Visit>
    void snapshot_scan(Visit&& visit) {
        scan(std::forward<Visit>(visit));
    }

    template <typename Visit>
    void snapshot_scan_from(node* start, Visit&& visit) {
        scan_from(start, std::forward<Visit>(visit));
    }

    /// As scan(), but starting immediately AFTER `start`, which must be a
    /// normal cell the caller keeps provably live for the duration (a
    /// counted link it owns — e.g. a hash bucket's dummy-cell anchor).
    /// `start` itself is not visited. The split-ordered hash map uses this
    /// to begin lookups at a bucket shortcut instead of First, keeping the
    /// batched-superhop fast path for intra-bucket hops.
    template <typename Visit, typename Walk = every_cell>
    void scan_from(node* start, Visit&& visit, Walk&& walk = {}) {
        assert(start != nullptr && start->is_normal());
        guard g = pool_->make_guard();
        scan_loop(pool_->copy(start), std::forward<Visit>(visit), walk);
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
    template <typename Visit, typename Walk>
    void scan_loop(node* p, Visit&& visit, Walk& walk) {
        auto& ctr = instrument::tls();
        for (;;) {
            node* n = nullptr;
            // Batched hop: cross up to kScanBatch cells on ONE protect by
            // snapshotting payloads seqlock-style and validating the whole
            // segment with an incarnation sweep. Snapshot cells are visited
            // from the validated copies; the segment's last node (the
            // walk's stop cell, or the cap) arrives protected and is
            // visited below like any single-step arrival.
            if constexpr (pool_type::counts_traversal && batch_scannable) {
                batch_snapshot s;
                n = batch_hop(p, s, walk);
                if (n != nullptr) {
                    const auto crossed = static_cast<std::uint64_t>(s.cells) + 1;
                    ctr.traverse_hops += crossed;
                    ctr.traverse_fast_hops += crossed;
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
    ///   1. snapshot aux = from->next and its incarnation;
    ///   2. protect n = aux->next (the only RMW);
    ///   3. re-read from->next seq_cst — the location is only written by
    ///      seq_cst CASes, so this read is current, and equality proves
    ///      aux was still linked (hence unreclaimed) when the protect
    ///      landed;
    ///   4. re-check the incarnation — catches the ABA where aux was
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
        if (aux == nullptr || !aux->is_aux()) return nullptr;
        testing_hooks::chaos_point(sched::step_kind::ref_transfer);
        const std::uint64_t inc = aux->incarnation.load(std::memory_order_acquire);
        node* n = pool_->protect(aux->next);
        if (from->next.load(std::memory_order_seq_cst) != aux ||
            aux->incarnation.load(std::memory_order_acquire) != inc ||
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

    /// Cap on the cells crossed per protect by the batched hop (scan and
    /// seek). The walk predicate ends a lookup's segment at its stop
    /// cell, so the cap only binds on long walks (ordered seeks deep into
    /// a list, for_each, snapshots); segments shorter than it (stop cell,
    /// tail, aux chain, concurrent restructuring) simply commit a shorter
    /// batch. At 8 the E7 seek row ran ~1.49x epoch, at 16 ~1.35-1.45x;
    /// 32 measured no better (the protect is already amortized to noise;
    /// the residual is per-cell snapshot work), so 16 keeps the snapshot
    /// under 1 KiB of stack for typical payloads.
    static constexpr int kScanBatch = 16;

    /// One batched-hop attempt: every unreferenced node read through
    /// (with its incarnation at first touch) plus raw payload snapshots
    /// of the cells crossed. Nothing here is surfaced until the whole
    /// set validates.
    struct batch_snapshot {
        const node* src[2 * kScanBatch];
        std::uint64_t inc[2 * kScanBatch];
        int nsrc = 0;
        alignas(T) unsigned char vals[kScanBatch][sizeof(T)];
        /// Version stamps captured inside the same incarnation window as
        /// the payload copy (snapshot/range-query layer).
        std::uint64_t born[kScanBatch];
        std::uint64_t dead[kScanBatch];
        int cells = 0;

        void record(const node* n, std::uint64_t i) noexcept {
            src[nsrc] = n;
            inc[nsrc] = i;
            ++nsrc;
        }

        const T& value(int i) const noexcept {
            return *std::launder(reinterpret_cast<const T*>(vals[i]));
        }

        /// The incarnation sweep: true iff no recorded node was reclaimed
        /// since first touch. Callers fence (acquire) before sweeping.
        bool unchanged() const noexcept {
            for (int i = 0; i < nsrc; ++i) {
                if (src[i]->incarnation.load(std::memory_order_relaxed) != inc[i]) return false;
            }
            return true;
        }
    };

    /// Seqlock-style racy snapshot of a cell payload (batch_scannable T
    /// only, so this is a byte copy that runs no user code). May race
    /// with a concurrent construct_cell on a recycled node; batch_hop
    /// re-checks the incarnation before the walk predicate sees the copy
    /// and the commit sweep re-checks it again before anything is
    /// surfaced, so a torn copy is never observed.
    LFLL_NO_TSAN static void racy_value_copy(unsigned char* dst, const node* src) noexcept {
        ::new (static_cast<void*>(dst)) T(*reinterpret_cast<const T*>(src->storage));
    }

    /// Generalization of hop_over_aux to a whole segment: from a node the
    /// caller holds a reference on, cross up to kScanBatch cells with ONE
    /// protect (on the segment's last link) and zero references on the
    /// nodes between, stopping before the first cell whose payload fails
    /// `walk`. The walk uses plain loads; soundness comes from the
    /// validation sweep at the end:
    ///
    ///   * `from` is referenced, so the first link read is current.
    ///   * Every node read through is recorded with its incarnation at
    ///     first touch. An unchanged incarnation at the sweep proves the
    ///     node was not reclaimed across the window, hence (a) every read
    ///     of its fields was a read of unreclaimed memory, and (b) its
    ///     outgoing link still held the link's counted reference at the
    ///     instant that link was read (links are released only inside
    ///     reclaim — node.hpp drop_links), so the successor was alive at
    ///     that instant. Induction down the chain carries liveness from
    ///     `from` to the final link, and the protect's own post-RMW
    ///     revalidation then lands the counted reference exactly as in
    ///     hop_over_aux.
    ///   * Payload bytes are copied inside each cell's incarnation window
    ///     (seqlock reader: incarnation load, copy, acquire fence,
    ///     reload), and `walk` only runs on a copy whose reload matched,
    ///     so it never sees torn bytes; the sweep re-checks the window,
    ///     so a surfaced snapshot equals some live value the cell held
    ///     during the walk.
    ///   * A cell that fails `walk` (or changed under its copy) is not
    ///     recorded: the segment ends at the aux before it, whose next —
    ///     the stop cell, or whatever replaced it — arrives protected.
    ///
    /// On any mismatch the speculative reference is dropped (blind
    /// net-zero pair: always safe on pool nodes) and nullptr is returned;
    /// the caller falls back to the per-cell hop. Returns the protected
    /// segment-end node (a cell or Last) and fills `s` with the validated
    /// snapshots of the cells crossed before it, every one of which
    /// satisfied `walk`.
    template <typename Walk>
    node* batch_hop(node* from, batch_snapshot& s, Walk& walk) {
        node* a;  // the aux whose next is read through next
        if (from->is_aux()) {
            a = from;  // referenced: no incarnation record needed
        } else {
            a = from->next.load(std::memory_order_acquire);
            if (a == nullptr || !a->is_aux()) return nullptr;
            s.record(a, a->incarnation.load(std::memory_order_acquire));
        }
        for (;;) {
            node* c = a->next.load(std::memory_order_acquire);
            if (c == nullptr) return nullptr;
            // First touch before the kind checks: a cell seen under ic (an
            // acquire that orders after the reclaim that produced ic) has
            // its payload fully constructed for that incarnation.
            const std::uint64_t ic = c->incarnation.load(std::memory_order_acquire);
            if (!c->is_normal()) return nullptr;  // aux chain: fall back
            if (!c->is_cell() || s.cells == kScanBatch - 1) {
                // Tail reached or batch full: protect the last link.
                return batch_commit(a, s);
            }
            racy_value_copy(s.vals[s.cells], c);
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
            s.born[s.cells] = c->born_ts.load(std::memory_order_acquire);
            s.dead[s.cells] = c->dead_ts.load(std::memory_order_acquire);
            node* a2 = c->next.load(std::memory_order_acquire);
            std::atomic_thread_fence(std::memory_order_acquire);
            if (c->incarnation.load(std::memory_order_relaxed) != ic ||
                !walk(s.value(s.cells)) || a2 == nullptr || !a2->is_aux()) {
                // Stop cell, recycled under the copy, or disorder past c:
                // end the segment before c, which arrives protected.
                return batch_commit(a, s);
            }
            s.record(c, ic);
            ++s.cells;
            s.record(a2, a2->incarnation.load(std::memory_order_acquire));
            a = a2;
        }
    }

    /// Protect the segment-end link and run the incarnation sweep.
    node* batch_commit(node* a, batch_snapshot& s) {
        // The widest elided window in the engine: everything in `s` was
        // read without references. A preemption here lets deleters and
        // the reclaim cascade churn the snapshotted nodes so the sweep's
        // failure path gets real coverage under the scheduler.
        testing_hooks::chaos_point(sched::step_kind::ref_transfer);
        node* res = pool_->protect(a->next);
        std::atomic_thread_fence(std::memory_order_acquire);
        if (res == nullptr || !res->is_normal() || !s.unchanged()) {
            pool_->drop(res);
            s.cells = 0;
            return nullptr;
        }
        return res;
    }

    /// One batched mutator-seek step: from the cursor's referenced target
    /// (a cell), cross the cells ahead that satisfy the predicate
    /// (batch_hop) and land the cursor on the protected segment end with
    /// the referenced-triple contract intact:
    ///   pre_cell <- the last crossed cell (upgraded to a counted
    ///               reference via try_ref), or the old target if none;
    ///   pre_aux  <- the aux after it (unreferenced hint, as always);
    ///   target   <- the segment end (already protected by batch_commit).
    /// The upgrade try_ref lands on a SNAPSHOTTED pointer, so after it
    /// succeeds the ENTIRE snapshot is re-swept: unchanged incarnations
    /// prove no snapshotted node was reclaimed since first touch, hence
    /// the reference attached to the node the snapshot actually read
    /// (not a same-address recycle) and the landing triple is exactly
    /// what a hand-over-hand walk would have produced — §5 counts balance
    /// because every reference the cursor ends up holding was acquired
    /// through try_ref/protect and every one it gives up goes through
    /// drop. Any failure undoes the speculative references and returns
    /// false; the caller falls back to the per-cell hop.
    template <typename Pred>
    bool batch_seek_step(cursor& c, Pred& pred) {
        node* from = c.target_;  // referenced cell (caller checked)
        batch_snapshot s;
        node* res = batch_hop(from, s, pred);
        if (res == nullptr) return false;
        if (res->is_cell() && pred(static_cast<const T&>(res->value()))) {
            // Advance-only fast path: the cap (or a concurrent insert)
            // ended the segment while the walk goes on, so the seek
            // continues from res — no triple handoff yet, hence no extra
            // RMWs (batch_commit's sweep already validated the segment).
            // The cursor's pre_cell_ deliberately goes STALE: it keeps its
            // counted reference (holding a reference only delays
            // reclamation), and the batch that terminates the seek — or a
            // fallback next() — re-anchors it before seek_while returns,
            // so callers never observe the stale triple.
            pool_->drop(from);
        } else {
            // With `from` a cell, the snapshot is laid out
            //   src[0]      = the aux after from,
            //   src[2i+1]   = crossed cell i,
            //   src[2i+2]   = the aux after it,     for i in [0, s.cells)
            // and res (protected) follows src[nsrc-1].
            node* pre = s.cells == 0 ? from : const_cast<node*>(s.src[2 * s.cells - 1]);
            testing_hooks::chaos_point(sched::step_kind::batch_seek);
            if (pre != from && !pool_->try_ref(pre)) {
                pool_->drop(res);
                return false;
            }
            testing_hooks::chaos_point(sched::step_kind::batch_seek);
            std::atomic_thread_fence(std::memory_order_acquire);
            if (!s.unchanged()) {
                if (pre != from) pool_->unref(pre);
                pool_->drop(res);
                return false;
            }
            pool_->drop(c.pre_cell_);
            if (pre != from) pool_->drop(from);  // else the target reference transfers
            c.pre_cell_ = pre;
            c.pre_aux_ = const_cast<node*>(s.src[2 * s.cells]);
        }
        c.target_ = res;
        auto& ctr = instrument::tls();
        const auto span = static_cast<std::uint64_t>(s.cells) + 1;
        ctr.traverse_hops += span;
        ctr.traverse_fast_hops += span;
        ctr.cells_traversed += static_cast<std::uint64_t>(s.cells);
        return true;
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
