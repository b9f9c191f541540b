// Human-readable renderings of the affinity module's data structures —
// the reproductions of Fig. 1 (communication matrix heat map) and Fig. 2
// (task allocation boxes per socket).
#pragma once

#include <string>
#include <vector>

#include "topo/topology.hpp"
#include "treematch/comm_matrix.hpp"
#include "treematch/treematch.hpp"

namespace orwl::aff {

/// Fig. 1: the communication matrix on a logarithmic gray scale.
std::string render_comm_matrix(const tm::CommMatrix& m);

/// Fig. 2: the task allocation, one box per socket (or NUMA node when the
/// topology has no package level), listing each core with the threads
/// bound to it. `task_names[i]` labels compute thread i (falls back to
/// "task <i>"); control threads are reported per core as "+N control".
/// A thread bound to a group of PUs (an oversubscribed placement) is
/// listed under its representative PU as "3:dilate [PUs 0-3]".
std::string render_mapping(const topo::Topology& topology,
                           const tm::Placement& placement,
                           const std::vector<std::string>& task_names = {});

}  // namespace orwl::aff
