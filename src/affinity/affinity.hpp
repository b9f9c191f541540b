// The affinity module — the contribution of the paper (Sec. IV).
//
// "Transparent to the user, our module computes and enables an optimized
// binding strategy that takes the hardware topology and the application
// characteristics into account."
//
// The module is deliberately independent of the runtime's execution
// machinery: it consumes the frozen task-location graph (runtime/graph.hpp)
// and a hardware topology, and produces a Placement. The ORWL runtime
// calls it automatically at orwl_schedule() time when the environment
// variable ORWL_AFFINITY is set to 1, and exposes the advanced API
// (orwl_dependency_get / orwl_affinity_compute / orwl_affinity_set) on the
// Program class for dynamic re-placement.
#pragma once

#include <cstddef>

#include "runtime/graph.hpp"
#include "topo/topology.hpp"
#include "treematch/comm_matrix.hpp"
#include "treematch/treematch.hpp"

namespace orwl::aff {

/// orwl_dependency_get: derive the thread communication matrix from the
/// task-location graph.
///
/// Volume rule: each location of size S couples its writers and readers —
/// every (writer, reader) pair of distinct tasks exchanges S bytes per
/// iteration through the location, and every pair of distinct writers
/// shares S bytes as well (they alternate on the same buffer). Readers do
/// not exchange data among themselves (concurrent read sharing). A task
/// accessing a location in both modes counts once per mode pair.
tm::CommMatrix comm_matrix_from_graph(const rt::TaskGraph& graph);

struct ComputeOptions {
  std::size_t num_control_threads = 0;
  std::vector<int> control_associate;  ///< see tm::Options
  tm::GroupingEngine engine = tm::GroupingEngine::Auto;
  bool manage_control_threads = true;
};

/// orwl_affinity_compute: run Algorithm 1 on the extracted matrix and the
/// machine topology.
tm::Placement compute_placement(const tm::CommMatrix& m,
                                const topo::Topology& topology,
                                const ComputeOptions& opts = {});

}  // namespace orwl::aff
