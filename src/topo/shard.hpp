// Locality sharding: partition the machine's PUs into locality shards.
//
// The runtime keeps one node-bound arena and one CommMeter bank per
// locality domain, and routes each location's queue to the shard of its
// owner's placed PU, so the queue's memory and its hand-off counters sit
// on the node of the tasks that use it. This header provides the
// topology side of that design: a partition of the PUs into `num_shards`
// contiguous topology subtrees, NUMA-node-aligned whenever the machine
// has NUMA nodes.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "topo/cpuset.hpp"
#include "topo/topology.hpp"

namespace orwl::topo {

/// A partition of a machine's PUs into locality shards. PUs that share a
/// locality domain (NUMA node when available) share a shard, and shards
/// cover contiguous ranges of the topology's left-to-right PU order.
struct ShardMap {
  std::size_t num_shards = 1;

  /// Shard index per PU *os index* (the id used for binding); -1 for os
  /// indices that do not name a PU of the mapped machine.
  std::vector<int> shard_of_pu_os;

  /// Shard of the PU with the given os index.
  /// \param pu_os_index OS index of a PU (binding numbering).
  /// \return The shard index, or -1 when the os index is unknown
  ///         (callers fall back to a round-robin shard).
  int shard_of(int pu_os_index) const noexcept;
};

/// Natural shard count of a machine: its number of NUMA nodes, falling
/// back to packages and then groups for machines without a NUMA level.
/// Machines with no locality domain at all (flat fixtures, single-socket
/// hosts) get 1 — sharding buys nothing without distinct domains.
/// \param t The machine; an empty topology yields 1.
/// \return The recommended shard count (>= 1).
std::size_t recommended_shard_count(const Topology& t) noexcept;

/// Partition the PUs of `t` into `num_shards` shards. The partition is
/// computed on the shallowest topology level with at least `num_shards`
/// objects, assigning object i of that level to shard i*S/count, so each
/// shard is a union of whole subtrees (e.g. 20 NUMA nodes over 4 shards
/// => 5 consecutive nodes per shard).
/// \param t          The machine; an empty topology yields a
///                   single-shard map.
/// \param num_shards Desired shard count; clamped to [1, num_pus].
/// \return The PU-to-shard partition.
ShardMap make_shard_map(const Topology& t, std::size_t num_shards);

/// One tenant-sized carve-out of a machine: the ShardMap partitioning
/// rule generalized from "split everything into N shards" to "cut W PUs
/// out of whatever is still free". The carved PUs are always the union
/// of `num_objs` consecutive whole subtrees rooted at topology depth
/// `depth` — the same contiguous-subtree shape a shard has, so a tenant
/// never straddles a locality domain it does not fully own.
struct Carveout {
  /// OS indices of the carved PUs (the cpuset handed to the tenant).
  CpuSet pus;
  /// Depth of the carved subtree roots; -1 only in a default-constructed
  /// (invalid) carve-out.
  int depth = -1;
  /// Logical index of the first carved root at `depth`.
  std::size_t first_obj = 0;
  /// Number of consecutive subtree roots carved.
  std::size_t num_objs = 0;
  /// PUs actually covered; >= the requested width (whole subtrees only).
  std::size_t width = 0;
};

/// Carve `width` PUs out of the free part of `t` as a contiguous run of
/// whole subtrees, disjoint from `taken`. The carve is made at the
/// shallowest depth whose subtrees fit inside `width` (whole NUMA nodes
/// before cores before PUs — maximal locality per tenant), descending to
/// finer levels only when fragmentation leaves no coarse contiguous run.
/// First-fit in left-to-right PU order, so repeated carves pack the
/// machine front to back.
/// \param t     The machine.
/// \param width Requested PU count (> 0).
/// \param taken PU os indices already owned by other tenants.
/// \return The carve-out, or std::nullopt when no contiguous run of
///         whole free subtrees covering `width` PUs exists.
std::optional<Carveout> carve_subtrees(const Topology& t, std::size_t width,
                                       const CpuSet& taken);

/// Materialize the machine a carve-out sees: a deep copy of `t` keeping
/// only the PUs in `pus` (matched by os index) and the ancestors above
/// them. OS indices are preserved, so placements computed on the
/// sub-topology bind to the host's real PUs.
/// \param t    The full machine.
/// \param pus  PU os indices to keep; must select at least one PU of `t`.
/// \param name Display name of the sub-topology.
/// \throws std::invalid_argument when no PU of `t` is selected.
Topology subtopology(const Topology& t, const CpuSet& pus,
                     std::string name);

}  // namespace orwl::topo
