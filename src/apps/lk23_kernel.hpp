// The LK-23 cell kernel that every variant in lk23.cpp runs. It is
// declared apart from the public header so that a test can hand it halos
// that differ from the grid cells around its block.
#pragma once

#include <cstddef>

#include "apps/lk23.hpp"

namespace orwl::apps::lk23_detail {

/// Rows the skewed sweep keeps in flight.
inline constexpr std::size_t kRows = 4;

/// Rows [r0, r1) and columns [c0, c1) of the grid.
struct BlockGeom {
  std::size_t r0, r1;  ///< row range [r0, r1) within the grid
  std::size_t c0, c1;  ///< col range
  std::size_t h() const { return r1 - r0; }
  std::size_t w() const { return c1 - c0; }
};

/// One block of the grid and the values just outside it that a sweep
/// reads: the fixed boundary, a neighbour's cells, or a copy of them
/// received through a location.
struct Block {
  double* za;  ///< the n x n grid
  const Lk23Problem::Coefficients* cf;
  std::size_t n;
  BlockGeom g;
  const double* north;  ///< g.w() values above row g.r0
  const double* south;  ///< g.w() values below row g.r1 - 1
  const double* west;   ///< g.h() values left of column g.c0...
  const double* east;   ///< ...and right of column g.c1 - 1,
  std::size_t side_stride;  ///< this far apart
};

/// Sweeps the block once, in place, kRows rows at a time, each row
/// trailing the one above by a column. Every cell reads the values the
/// raster-order sweep reads and rounds identically. A cell next to the
/// block's edge reads the halo, never the grid cell beyond the edge.
void sweep_block(const Block& b);

}  // namespace orwl::apps::lk23_detail
