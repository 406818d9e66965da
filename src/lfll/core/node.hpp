// List node: one type for the paper's normal cells, auxiliary nodes, and
// the First/Last dummy cells (§3, Fig. 4).
//
// The paper's auxiliary node "contains only a next field". One node type
// still serves all four kinds: every node flows through the same
// fixed-size pool (§5.2: "free cells must all be of the same size"), a
// freed cell may come back as an aux and vice versa, and algorithms can
// ask "is this a normal cell?" of an arbitrary successor, which TryDelete
// and Update need. The payload is raw storage that is only constructed
// for kind == cell.
//
// The header is five words after the policy's count word:
//   next, back_link  — the §3 links (Fig. 10's back_link on cells only);
//   tag              — (incarnation << 2) | kind, one atomic word;
//   born_ts, dead_ts — the snapshot layer's version stamps (cells only).
// Folding the kind into the incarnation word keeps a node with a 16-B
// payload (a split-ordered <int,int> entry) inside one 64-B line. The
// node stays cacheline-aligned, so no two nodes share a line and none
// straddles two.
//
// Reclamation state lives in the base class the MemoryPolicy provides
// (policy.hpp); for every shipped policy that is counted_header, i.e. the
// §5 refct word, so `node->refct` reads the same as in the paper.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <new>
#include <utility>

#include "lfll/memory/policy.hpp"
#include "lfll/primitives/cacheline.hpp"

#if defined(__SANITIZE_ADDRESS__)
#define LFLL_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define LFLL_ASAN 1
#endif
#endif

#if defined(LFLL_ASAN)
#include <sanitizer/asan_interface.h>
#endif

namespace lfll {

enum class node_kind : std::uint8_t {
    aux = 0,    ///< auxiliary node: only `next` is meaningful
    cell = 1,   ///< normal cell: carries a value, may be deleted
    head = 2,   ///< the First dummy cell
    tail = 3,   ///< the Last dummy cell
};

/// Layout of list_node::tag: the kind in the low bits, the incarnation
/// above them.
inline constexpr unsigned kKindBits = 2;
inline constexpr std::uint64_t kKindMask = (std::uint64_t{1} << kKindBits) - 1;

constexpr node_kind kind_of(std::uint64_t tag) noexcept {
    return static_cast<node_kind>(tag & kKindMask);
}
constexpr std::uint64_t incarnation_of(std::uint64_t tag) noexcept { return tag >> kKindBits; }

template <typename T, typename Policy = valois_refcount>
struct alignas(cacheline_size) list_node : Policy::header {
    std::atomic<list_node*> next{nullptr};
    /// Set once (null -> predecessor cell) by the winning deleter of this
    /// cell (Fig. 10 line 6); non-null implies "deleted from the list".
    std::atomic<list_node*> back_link{nullptr};
    /// (incarnation << kKindBits) | kind. The incarnation is bumped on
    /// every reclamation (on_reclaim), which also resets the kind to aux;
    /// construct_cell and the dummy set-up change only the kind bits.
    /// The traversal fast path reads nodes without a counted reference:
    /// it loads this word at first touch, takes the kind from it, reads
    /// through, and re-checks the whole word. Any change — a recycle, or
    /// a recycled slot becoming a cell — fails the check. Slabs never
    /// return to the OS, so a recycled read is stale, never a fault.
    std::atomic<std::uint64_t> tag{0};
    /// Version stamps for the snapshot/range-query layer (vCAS-lite).
    /// A cell is visible to a range query at timestamp t iff
    /// `born_ts <= t < dead_ts`. born_ts is stamped *after* the winning
    /// link CAS (0 means "insert still in flight" and readers exclude);
    /// dead_ts is stamped by the erase linearization CAS (inf -> D).
    /// Both are reset in construct_cell, never in on_reclaim: racy batch
    /// readers rely on node bytes mutating only strictly between tag
    /// changes, and construct_cell happens-after the bump via the
    /// free-list pop chain.
    std::atomic<std::uint64_t> born_ts{0};
    std::atomic<std::uint64_t> dead_ts{~std::uint64_t{0}};

    alignas(T) unsigned char storage[sizeof(T)];

    list_node() = default;
    list_node(const list_node&) = delete;
    list_node& operator=(const list_node&) = delete;

    node_kind kind() const noexcept { return kind_of(tag.load(std::memory_order_acquire)); }
    bool is_aux() const noexcept { return kind() == node_kind::aux; }
    bool is_cell() const noexcept { return kind() == node_kind::cell; }
    bool is_tail() const noexcept { return kind() == node_kind::tail; }
    /// "Normal cell" in the paper's sense: anything that is not auxiliary
    /// (the dummies are cells too; Update's scan stops at Last).
    bool is_normal() const noexcept { return !is_aux(); }
    bool is_deleted() const noexcept { return back_link.load(std::memory_order_acquire) != nullptr; }

    /// Payload access. Only valid for kind == cell; the value stays
    /// readable after deletion until the node is reclaimed ("cell
    /// persistence", §2.2), which the reference count guarantees cannot
    /// happen while anyone still holds a reference. Under AddressSanitizer
    /// a reclaimed node's payload is poisoned, so reading it is reported.
    T& value() noexcept { return *std::launder(reinterpret_cast<T*>(storage)); }
    const T& value() const noexcept {
        return *std::launder(reinterpret_cast<const T*>(storage));
    }

    /// Sets the kind bits, keeping the incarnation. The node must be
    /// private to the caller (freshly allocated).
    void set_kind(node_kind k) noexcept {
        const std::uint64_t t = tag.load(std::memory_order_relaxed);
        tag.store((t & ~kKindMask) | static_cast<std::uint64_t>(k), std::memory_order_release);
    }

    /// Constructs the payload and marks this node a normal cell. The node
    /// must be private to the caller (freshly allocated).
    template <typename... Args>
    void construct_cell(Args&&... args) {
        born_ts.store(0, std::memory_order_relaxed);
        dead_ts.store(~std::uint64_t{0}, std::memory_order_relaxed);
#if defined(LFLL_ASAN)
        ASAN_UNPOISON_MEMORY_REGION(storage, payload_span());
#endif
        ::new (static_cast<void*>(storage)) T(std::forward<Args>(args)...);
        set_kind(node_kind::cell);
    }

    // --- node_pool hooks -------------------------------------------------

    /// Hands each counted outgoing link to the reclamation cascade. If the
    /// payload type itself holds counted links into the same pool (e.g.
    /// the skip list's `down` pointers), it exposes them by defining
    /// `counted_links(sink)` and they are dropped here, while the payload
    /// is still alive.
    template <typename Sink>
    void drop_links(Sink&& drop) noexcept {
        drop(next.exchange(nullptr, std::memory_order_acq_rel));
        drop(back_link.exchange(nullptr, std::memory_order_acq_rel));
        if constexpr (requires(T& t) { t.counted_links(drop); }) {
            if (is_cell()) value().counted_links(drop);
        }
    }

    /// Destroys the payload (if any) and resets the node for reuse: one
    /// RMW bumps the incarnation and resets the kind to aux, invalidating
    /// any unreferenced fast-path snapshot of this node.
    void on_reclaim() noexcept {
        const std::uint64_t t = tag.load(std::memory_order_acquire);
        if (kind_of(t) == node_kind::cell) value().~T();
#if defined(LFLL_ASAN)
        ASAN_POISON_MEMORY_REGION(storage, payload_span());
#endif
        tag.fetch_add((std::uint64_t{1} << kKindBits) - (t & kKindMask),
                      std::memory_order_acq_rel);
    }

private:
    /// The payload bytes plus the padding up to the node's end: poisoning
    /// to the line boundary keeps ASan's 8-byte granules exact even for a
    /// payload smaller than a granule.
    std::size_t payload_span() const noexcept {
        return static_cast<std::size_t>(reinterpret_cast<const unsigned char*>(this) +
                                        sizeof(list_node) - storage);
    }
};

}  // namespace lfll
