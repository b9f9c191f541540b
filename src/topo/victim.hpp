// Steal-order victim tables: who a work-stealing PU should rob first.
//
// The work-stealing executor (rt::StealExecutor) wants, for every PU, a
// locality-ordered list of the other PUs: hyperthread sibling first, then
// the same core's other PUs, the same cache/package/NUMA-node PUs, and
// remote nodes last. Computing ancestor chains inside the steal loop
// would put tree walks on the hottest path of the runtime, so the order
// is precomputed here from the live topo::Topology tree as one flat row
// per PU.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "topo/topology.hpp"

namespace orwl::topo {

/// Per-PU steal order over a machine's PUs. Row p lists every other PU
/// (logical indices), nearest first: sorted by descending sharing depth
/// with the thief, so a hyperthread sibling precedes a same-core PU,
/// which precedes same-node PUs, which precede remote-node PUs. Ties at
/// equal sharing depth are broken by the clockwise logical distance from
/// the thief, so thieves at different PUs fan out over different victims
/// instead of converging on the lowest-numbered one.
struct VictimTable {
  std::size_t num_pus = 0;

  /// `num_pus` rows of `num_pus - 1` logical PU indices each, flattened.
  std::vector<int> victims;

  /// Steal order for one PU.
  /// \param pu Logical PU index (left-to-right order).
  /// \return All other PUs, nearest first; empty for out-of-range `pu`.
  std::span<const int> row(std::size_t pu) const noexcept;
};

/// Precompute the steal order for every PU of `t`.
/// \param t The machine; an empty topology yields an empty table.
/// \return The per-PU victim table (rows indexed by logical PU).
VictimTable make_victim_table(const Topology& t);

}  // namespace orwl::topo
