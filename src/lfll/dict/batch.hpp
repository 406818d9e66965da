// Shared types for the batched (multi-op) dictionary API.
//
// A batch is an array of independent point operations submitted in one
// call. The maps execute it as ONE sorted cursor pass: the ops are
// stable-sorted by key (split-ordered maps: by split-order coordinate,
// i.e. list position), and key i+1's seek resumes from key i's
// referenced landing cell via find_from/seek_while instead of restarting
// at the head. Results land at the op's ORIGINAL index, so callers never
// see the permutation.
//
// Linearizability: every sub-op keeps its individual protocol — insert
// linearizes at its Fig. 9 swing, erase at its dead_ts tombstone CAS,
// get at its traversal witness — and all of those instants fall inside
// the one batch call's invoke/response window, so each op linearizes
// individually (the lin-checker suite records batches exactly this way:
// shared call window, per-op linearization point). Within a batch,
// same-key ops take effect in submission order because the sort is
// stable; a repeated key re-seeks instead of resuming (see
// sorted_list_map::apply_batch for why).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

namespace lfll {

enum class batch_op_kind : std::uint8_t {
    get = 0,    ///< copy out the mapped value if the key is live
    insert,     ///< link key -> value; fails if the key is present
    erase,      ///< tombstone + unlink the key; fails if absent
};

/// One slot of a batch. `value` is only read for inserts.
template <typename Key, typename Value>
struct batch_op {
    batch_op_kind kind = batch_op_kind::get;
    Key key{};
    Value value{};
};

/// Outcome of one batch slot, written at the op's original index.
/// `ok` means: get -> key was live (value filled), insert -> the key was
/// absent and is now linked, erase -> the key was live and this call
/// tombstoned it.
template <typename Value>
struct batch_result {
    bool ok = false;
    std::optional<Value> value{};
};

namespace batch_detail {

/// The three convenience wrappers are identical across the dictionaries,
/// so each map's multi_* members delegate here. Results come back in the
/// caller's input order.
template <typename Map>
std::vector<std::optional<typename Map::mapped_type>> multi_get(
    Map& m, const std::vector<typename Map::key_type>& keys) {
    using V = typename Map::mapped_type;
    std::vector<batch_op<typename Map::key_type, V>> ops(keys.size());
    for (std::size_t i = 0; i < keys.size(); ++i) {
        ops[i].kind = batch_op_kind::get;
        ops[i].key = keys[i];
    }
    std::vector<batch_result<V>> res(keys.size());
    m.apply_batch(ops.data(), ops.size(), res.data());
    std::vector<std::optional<V>> out(keys.size());
    for (std::size_t i = 0; i < keys.size(); ++i) out[i] = std::move(res[i].value);
    return out;
}

template <typename Map>
std::vector<bool> multi_insert(
    Map& m, const std::vector<std::pair<typename Map::key_type,
                                        typename Map::mapped_type>>& kvs) {
    using V = typename Map::mapped_type;
    std::vector<batch_op<typename Map::key_type, V>> ops(kvs.size());
    for (std::size_t i = 0; i < kvs.size(); ++i) {
        ops[i].kind = batch_op_kind::insert;
        ops[i].key = kvs[i].first;
        ops[i].value = kvs[i].second;
    }
    std::vector<batch_result<V>> res(kvs.size());
    m.apply_batch(ops.data(), ops.size(), res.data());
    std::vector<bool> out(kvs.size());
    for (std::size_t i = 0; i < kvs.size(); ++i) out[i] = res[i].ok;
    return out;
}

template <typename Map>
std::vector<bool> multi_erase(Map& m,
                              const std::vector<typename Map::key_type>& keys) {
    using V = typename Map::mapped_type;
    std::vector<batch_op<typename Map::key_type, V>> ops(keys.size());
    for (std::size_t i = 0; i < keys.size(); ++i) {
        ops[i].kind = batch_op_kind::erase;
        ops[i].key = keys[i];
    }
    std::vector<batch_result<V>> res(keys.size());
    m.apply_batch(ops.data(), ops.size(), res.data());
    std::vector<bool> out(keys.size());
    for (std::size_t i = 0; i < keys.size(); ++i) out[i] = res[i].ok;
    return out;
}

}  // namespace batch_detail
}  // namespace lfll
