// Host topology detection (Linux sysfs).
//
// A best-effort replacement for hwloc's discovery: reads
// /sys/devices/system/cpu/cpu*/topology and /sys/devices/system/node to
// reconstruct the NUMA / package / core / PU tree of the machine the
// process runs on. Used by the runtime when no explicit topology is
// supplied, so that `ORWL_AFFINITY=1` works out of the box on real hosts.
#pragma once

#include <string>

#include "topo/topology.hpp"

namespace orwl::topo {

/// Detect the host machine. Honors ORWL_TOPOLOGY as a fixture override;
/// never throws: on any inconsistency (including non-Linux hosts with no
/// sysfs) it falls back to a flat fixture over the online CPUs.
/// \return A fully finalized topology; never empty.
Topology detect_host();

/// Detection with an explicit sysfs root (for tests against a fake tree).
/// \param sysfs_root    Directory standing in for /sys/devices/system.
/// \param fallback_cpus PU count of the flat fixture used when the tree
///                      is unreadable or inconsistent.
/// \return The detected (or fallback) topology; never empty.
Topology detect_from_sysfs(const std::string& sysfs_root, int fallback_cpus);

}  // namespace orwl::topo
