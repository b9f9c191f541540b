// Algorithm 1 of the paper: the TreeMatch-derived mapping algorithm with
// the two ORWL adaptations — control-thread management and
// over-subscription.
//
//   Input: T (topology tree), m (communication matrix), D (tree depth)
//     m <- extend_to_manage_control_threads(m)
//     T <- manage_oversubscription(T, m)
//     foreach depth <- D-1 .. 1:                   // start from the leaves
//       groups[depth] <- GroupProcesses(T, m, depth)
//       m <- AggregateComMatrix(m, groups[depth])
//     MapGroups(T, groups)
//
// Control-thread policy (Sec. IV-A): "If hyperthreading is available, on
// each physical core we reserve one hyperthread sibling for control and
// one for computation. Otherwise, if there are more cores than tasks, we
// extend the communication matrix such that control threads will be
// mapped onto spare cores. If none of this suffices, control threads will
// not be mapped explicitly and we let the system schedule them."
//
// Over-subscription: "If oversubscribing is required, ORWL tasks are
// mapped to the physical cores by going up one level in the tree." The
// virtual leaf level still picks one representative PU per task (used for
// shard routing, the NUMA node and the modeled cost), but an
// oversubscribed task is bound to a group of PUs: the compute PUs of every
// core under its slot's nearest ancestor that covers more than one core,
// never above the slot's NUMA node. The OS then balances the tasks of one
// group over its cores, instead of stacking tasks that run at the same
// time (data-parallel splits reading one frame) on a single PU.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "topo/cpuset.hpp"
#include "topo/shard.hpp"
#include "topo/topology.hpp"
#include "treematch/comm_matrix.hpp"
#include "treematch/grouping.hpp"

namespace orwl::tm {

/// How control threads were handled by the algorithm.
enum class ControlPolicy {
  HyperthreadSiblings,  ///< One PU per core reserved for control threads.
  SpareCores,           ///< Matrix extended; control mapped to spare cores.
  Unmanaged,            ///< Left to the OS scheduler.
};

const char* to_string(ControlPolicy p) noexcept;

struct Options {
  GroupingEngine engine = GroupingEngine::Auto;

  /// Master switch for the control-thread adaptation.
  bool manage_control_threads = true;

  /// Number of runtime control threads to place.
  std::size_t num_control_threads = 0;

  /// control_associate[j] = compute thread whose locations control thread
  /// j manages; controls are placed near their associate. Empty =>
  /// round-robin association.
  std::vector<int> control_associate;
};

/// The result of the mapping: one PU os-index per compute thread (and per
/// control thread when managed), and the PUs each compute thread is bound
/// to.
struct Placement {
  std::vector<int> compute_pu;  ///< os index of the PU for each thread.

  /// PUs (os indices) compute thread t is bound to. {compute_pu[t]}
  /// unless `oversubscribed`, when it is the compute PUs of the group of
  /// cores around compute_pu[t] (see the header comment). May be left
  /// empty by hand-built placements: cpus_of() then falls back to
  /// compute_pu.
  std::vector<topo::CpuSet> compute_set;
  std::vector<int> control_pu;  ///< os index per control thread; -1 = OS.

  /// Resolved associate of each control thread: the compute thread whose
  /// locations control thread j manages (Options::control_associate with
  /// the round-robin default applied). Runtimes use this to map control
  /// threads onto control-plane shards.
  std::vector<int> control_associate;

  ControlPolicy control_policy = ControlPolicy::Unmanaged;
  bool oversubscribed = false;

  /// The PUs compute thread t is bound to: compute_set[t] when present,
  /// else {compute_pu[t]}; empty for an unplaced thread (PU -1).
  topo::CpuSet cpus_of(std::size_t t) const;

  /// True when every compute thread has a PU that exists in `t`, PUs are
  /// pairwise distinct unless oversubscribed, and (when compute_set is
  /// present) every thread's set is non-empty, lies inside `t` and
  /// contains its compute PU.
  bool valid_for(const topo::Topology& t) const;

  /// Multi-line description: "thread 3 -> PU 12 (NUMANode 1, Core 6)",
  /// or "thread 3 -> PUs 0-3 (Package 0)" for a thread bound to a group.
  std::string describe(const topo::Topology& t) const;
};

/// Run Algorithm 1. Requirements: symmetric topology (all the machines of
/// the paper are), m.order() >= 1. Throws std::invalid_argument otherwise.
Placement tree_match(const topo::Topology& topo, const CommMatrix& m,
                     const Options& opts = {});

/// Hop-distance communication cost of a placement:
/// sum over pairs of m(i,j) * distance(pu_i, pu_j). Lower is better. This
/// is the model objective used by tests and the ablation benches.
double modeled_cost(const topo::Topology& topo, const CommMatrix& m,
                    const Placement& placement);

/// Control-plane shard served by each control thread under `shards`: the
/// shard of its associate's compute PU (-1 when the associate is absent
/// or unplaced). Introspection helper for verifying that a placement's
/// control threads are aligned with the runtime's fixed thread -> shard
/// assignment (ControlPlane::shard_of_thread); the runtime itself routes
/// each location by its owner's compute PU (Program::route_queues).
std::vector<int> control_shard_of(const Placement& placement,
                                  const topo::ShardMap& shards);

}  // namespace orwl::tm
