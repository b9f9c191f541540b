// Tenant carve-outs: cut a contiguous run of whole topology subtrees out
// of the free part of a machine, and materialize the sub-machine a tenant
// sees. The multi-tenant server (server::Server) admits each tenant onto
// one carve-out, so no two tenants share a PU or a locality domain that
// neither fully owns.
#pragma once

#include <cstddef>
#include <optional>
#include <string>

#include "topo/cpuset.hpp"
#include "topo/topology.hpp"

namespace orwl::topo {

/// One tenant-sized carve-out of a machine: W PUs cut out of whatever is
/// still free. The carved PUs are always the union of `num_objs`
/// consecutive whole subtrees rooted at topology depth `depth`, so a
/// tenant never straddles a locality domain it does not fully own.
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
