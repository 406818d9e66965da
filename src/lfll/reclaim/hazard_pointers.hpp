// Hazard-pointer safe memory reclamation (Michael, 2004 style).
//
// Not part of the paper — the paper's answer to reclamation is reference
// counting (§5) — but the Harris-Michael baseline list (S12) needs one of
// the schemes that later became standard. This is a compact, fully
// functional domain: per-thread hazard slots, per-slot retired lists,
// and an O(R log H) scan. Clients use it through `pin`, an RAII slot-group
// checkout with protect/retire (duck-type-compatible with epoch/leaky).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

#include "lfll/primitives/cacheline.hpp"

namespace lfll {

class hazard_domain {
public:
    static constexpr int slots_per_thread = 4;

    explicit hazard_domain(int max_threads = 64, std::size_t scan_threshold = 64);
    ~hazard_domain();

    hazard_domain(const hazard_domain&) = delete;
    hazard_domain& operator=(const hazard_domain&) = delete;

    /// RAII thread participation: claims a hazard-slot group for the
    /// scope. Construct one per operation (cheap: one lock-free pop/push).
    class pin {
    public:
        explicit pin(hazard_domain& d);
        ~pin();

        pin(const pin&) = delete;
        pin& operator=(const pin&) = delete;

        /// Protect-and-validate load: afterwards the returned pointer is
        /// safe to dereference until the slot is overwritten or the pin
        /// dies, even if it is concurrently retired.
        template <typename T>
        T* protect(int slot, const std::atomic<T*>& src) {
            T* p = src.load(std::memory_order_acquire);
            for (;;) {
                set(slot, p);
                T* q = src.load(std::memory_order_acquire);
                if (q == p) return p;
                p = q;
            }
        }

        /// As protect(), for tagged-pointer words: `mask` bits are cleared
        /// before the address is published as hazardous (the mark bit of a
        /// Harris-style next pointer is not part of the address).
        std::uintptr_t protect_raw(int slot, const std::atomic<std::uintptr_t>& src,
                                   std::uintptr_t mask) {
            std::uintptr_t v = src.load(std::memory_order_acquire);
            for (;;) {
                set(slot, reinterpret_cast<void*>(v & ~mask));
                const std::uintptr_t w = src.load(std::memory_order_acquire);
                if (w == v) return v;
                v = w;
            }
        }

        /// Publish an already-validated pointer (e.g. copying a hazard
        /// from one slot to another while both are live).
        void set(int slot, void* p) noexcept;

        void clear(int slot) noexcept;
        void clear_all() noexcept;

        /// Hand `p` to the domain; `deleter(p)` runs once no hazard slot
        /// protects it. A deleter must not retire further nodes: drain()
        /// and the destructor sweep each group once.
        void retire(void* p, void (*deleter)(void*));

    private:
        hazard_domain& dom_;
        int group_;
    };

    /// Nodes retired but not yet freed (approximate; for tests/benches).
    std::size_t retired_count() const noexcept {
        return retired_total_.load(std::memory_order_relaxed);
    }

    /// Force a full scan from outside any pin (quiescent use in tests).
    void drain();

private:
    struct retired_node {
        void* ptr;
        void (*deleter)(void*);
    };

    struct alignas(cacheline_size) slot_group {
        std::atomic<void*> hp[slots_per_thread];
        /// Guards `retired`. The group holder is the only pusher, but
        /// drain() sweeps *all* groups from whatever thread calls it, so
        /// the list is not single-writer. Critical sections hold mu only
        /// for vector moves — never across deleters.
        std::mutex mu;
        std::vector<retired_node> retired;  // guarded by mu
        std::atomic<int> next_free{-1};     // slot-group free list link
    };

    /// Group free-list head: {tag:32, index:32}; index -1 = empty. The
    /// tag (bumped by every successful CAS) defeats free-list ABA: a
    /// stalled pop CASing a stale `next` in would hand one slot group to
    /// two threads, letting either clear the other's live hazards.
    static std::uint64_t pack_head(std::int32_t index, std::uint32_t tag) noexcept {
        return (static_cast<std::uint64_t>(tag) << 32) | static_cast<std::uint32_t>(index);
    }
    static std::int32_t head_index(std::uint64_t w) noexcept {
        return static_cast<std::int32_t>(static_cast<std::uint32_t>(w));
    }
    static std::uint32_t head_tag(std::uint64_t w) noexcept {
        return static_cast<std::uint32_t>(w >> 32);
    }

    // pin's helpers. A group's retired list stays with the group;
    // whoever claims it next inherits the backlog.
    int acquire_group();
    void release_group(int g);
    /// seq_cst: must be ordered before the caller's revalidation load
    /// and visible to any scan.
    void publish(int group, int slot, void* p) noexcept;
    void clear_slot(int group, int slot) noexcept;
    void retire_impl(int group, retired_node r);
    void scan(slot_group& g);

    std::vector<slot_group> groups_;
    // Own cache line: the slot-group free list is CAS-hammered at thread
    // churn and must not false-share with the scan bookkeeping.
    alignas(cacheline_size) std::atomic<std::uint64_t> free_head_{pack_head(-1, 0)};
    alignas(cacheline_size) std::atomic<std::size_t> retired_total_{0};
    std::size_t scan_threshold_;
};

}  // namespace lfll
