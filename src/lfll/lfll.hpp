// Umbrella header: the full public surface.
//
//   #include "lfll/lfll.hpp"
//
// Fine-grained headers exist for every component (see the directories
// below); include those to keep compile times down in larger projects.
#pragma once

// The paper's core contribution (§3) and its §5 memory manager.
#include "lfll/core/audit.hpp"
#include "lfll/core/iterator.hpp"
#include "lfll/core/list.hpp"
#include "lfll/core/node.hpp"
#include "lfll/memory/buddy_allocator.hpp"
#include "lfll/memory/node_pool.hpp"
#include "lfll/memory/policy.hpp"
#include "lfll/memory/ref_count.hpp"
#include "lfll/reclaim/epoch_policy.hpp"

// Dictionaries (§4) and building-block adapters (§1, [27]).
#include "lfll/adapters/priority_queue.hpp"
#include "lfll/adapters/queue.hpp"
#include "lfll/adapters/stack.hpp"
#include "lfll/adapters/treiber_stack.hpp"
#include "lfll/adapters/valois_queue.hpp"
#include "lfll/dict/bst.hpp"
#include "lfll/dict/hash_map.hpp"
#include "lfll/dict/sharded_kv.hpp"
#include "lfll/dict/skip_list.hpp"
#include "lfll/dict/sorted_list_map.hpp"
#include "lfll/dict/split_ordered_map.hpp"

// Observability: metrics registry, exporters, flight recorder.
#include "lfll/telemetry/exporter.hpp"
#include "lfll/telemetry/metrics.hpp"
#include "lfll/telemetry/op_counters.hpp"
#include "lfll/telemetry/trace.hpp"

// Primitives.
#include "lfll/primitives/backoff.hpp"
#include "lfll/primitives/cas_emulation.hpp"
#include "lfll/primitives/instrument.hpp"
#include "lfll/primitives/mcs_lock.hpp"
#include "lfll/primitives/rng.hpp"
#include "lfll/primitives/spinlock.hpp"
#include "lfll/primitives/ticket_lock.hpp"
#include "lfll/primitives/zipf.hpp"
