// Seed lists for schedule sweeps under the deterministic scheduler.
#pragma once

#include <cstdint>
#include <vector>

#include "lfll/sched/scheduler.hpp"

namespace lfll_test {

/// Seeds to sweep: the replayed one alone (LFLL_SCHED_REPLAY), or
/// 1..N, where N is LFLL_SCHED_SEEDS or else `dflt`. Nightly CI raises
/// LFLL_SCHED_SEEDS for a deep sweep.
inline std::vector<std::uint64_t> sweep_seeds(int dflt) {
    if (auto r = lfll::sched::replay_seed_from_env()) return {*r};
    const std::uint64_t n =
        lfll::sched::detail::env_u64("LFLL_SCHED_SEEDS").value_or(static_cast<std::uint64_t>(dflt));
    std::vector<std::uint64_t> seeds;
    for (std::uint64_t i = 1; i <= n; ++i) seeds.push_back(i);
    return seeds;
}

}  // namespace lfll_test
