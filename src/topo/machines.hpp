// Synthetic topologies of the machines used in the paper's evaluation.
//
// Table I of the paper describes the two PlaFRIM testbeds:
//
//   Name               SMP12E5            SMP20E7
//   Cores per socket   8                  8
//   NUMA nodes         12                 20
//   Socket per NUMA    1                  1
//   Socket             E5-4620            E7-8837
//   Clock rate         2600 MHz           2660 MHz
//   Hyper-Threading    Yes                No
//   L1 cache           32K                32K
//   L2 cache           256K               32K
//   L3 cache           20480K             24576K
//   Interconnect       NUMAlink6 6.5GB/s  NUMAlink5 15GB/s
//
// Fig. 2 additionally uses a 2-blade, 4-socket, 32-core machine for the
// video-tracking mapping illustration.
//
// We do not have this hardware; these builders produce topology trees with
// exactly the documented structure so that Algorithm 1 and the performance
// model operate on the machines the paper evaluated.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "topo/topology.hpp"

namespace orwl::topo {

/// SMP12E5: 12 NUMA nodes x 1 package x 8 cores x 2 PUs = 96 cores, 192 PUs.
Topology make_smp12e5();

/// SMP20E7: 20 NUMA nodes x 1 package x 8 cores x 1 PU = 160 cores.
Topology make_smp20e7();

/// The Fig. 2 machine: 2 blades x 2 sockets x 8 cores = 32 cores, no SMT.
Topology make_fig2_machine();

/// Flat machine: `n` PUs directly below the root (one core each). Used in
/// tests and as the detection fallback.
Topology make_flat(int n);

/// Generic symmetric NUMA machine for tests and sweeps.
Topology make_numa(int numa_nodes, int cores_per_node, int pus_per_core,
                   std::size_t l3_bytes = 20u * 1024 * 1024);

/// Cluster: graft per-host trees under a synthetic Machine root, one
/// Group ("host k") per member. Every inter-host PU pair then crosses
/// the root, so the hop-distance metric that drives tree_match makes the
/// inter-host distance dominate and tasks are placed host-first; within
/// a host the per-process comm-matrix / ORWL_REPLACE machinery keeps
/// working on the grafted subtree unchanged. Hosts must share one shape
/// (the tree is level-homogeneous); PU os indices are renumbered into
/// disjoint per-host ranges. Throws std::invalid_argument when `hosts`
/// is empty.
Topology make_cluster(const std::vector<Topology>& hosts);

/// Build a fixture from a textual spec, used by detection when the host
/// cannot be probed (ORWL_TOPOLOGY env var, CI runners without /sys).
/// Accepted specs: "smp12e5", "smp20e7", "fig2", "flat:<pus>",
/// "numa:<nodes>:<cores>:<pus-per-core>", and "cluster:<hosts>:<spec>"
/// (e.g. "cluster:4:numa:2:4:1" = four such hosts under one synthetic
/// root). Case-insensitive; returns std::nullopt for anything else.
std::optional<Topology> make_named(const std::string& spec);

}  // namespace orwl::topo
