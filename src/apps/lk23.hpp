// Livermore Kernel 23: 2-D implicit hydrodynamics fragment (Sec. V-A).
//
//   for l:
//     for j in [1, m):
//       for k in [1, n):
//         qa = za[j+1][k]*zr[j][k] + za[j-1][k]*zb[j][k]
//            + za[j][k+1]*zu[j][k] + za[j][k-1]*zv[j][k] + zz[j][k];
//         za[j][k] += 0.175 * (qa - za[j][k]);
//
// The update is Gauss–Seidel-like: north (j-1) and west (k-1) operands
// are already-updated values of the current sweep, south and east are
// previous-sweep values. Parallelization pipelines block waves from the
// north-west to the south-east corner.
//
// Every variant below sweeps its cells with one kernel. In raster order
// each cell waits on its freshly written west neighbour, so a row is one
// chain of dependent floating-point operations. The kernel instead keeps
// four rows in flight, each trailing the row above by one column: a cell
// still reads the north and west values of the current sweep and the
// south and east values of the previous one, and does the same
// arithmetic in the same order, so `za` is bit-identical to the raster
// sweep while four dependency chains overlap.
//
// This module provides:
//  * a sequential reference,
//  * the ORWL decomposition (one iterative task per block, halo exchange
//    through locations — the implementation of [14] this paper reuses),
//  * the fork-join baseline (parallel-for over each anti-diagonal of
//    blocks — the shape of the paper's OpenMP comparison),
//  * the 4-operations-per-task graph builder used to extract the paper's
//    communication matrix ("Each block ... is processed by several
//    operations: 1 for computing central block and 3 for updating
//    borders", Sec. VI-B1).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "orwl/orwl.hpp"
#include "pool/thread_pool.hpp"
#include "treematch/comm_matrix.hpp"

namespace orwl::apps {

/// An n x n problem; deterministic pseudo-random fill.
struct Lk23Problem {
  /// The five constant coefficient grids (zb, zr, zu, zv, zz), read only
  /// inside lk23.cpp.
  struct Coefficients;

  std::size_t n = 0;  ///< grid is n x n, interior [1, n-1) updated
  std::vector<double> za;  ///< state, updated in place
  /// Never written after generate(), so every copy of a problem shares
  /// them: a copy costs one grid (`za`), not six.
  std::shared_ptr<const Coefficients> coefficients;

  static Lk23Problem generate(std::size_t n, std::uint64_t seed = 7);
};

/// Run `iters` sweeps sequentially; mutates p.za.
void lk23_sequential(Lk23Problem& p, std::size_t iters);

/// ORWL decomposition: blocks_y x blocks_x iterative tasks exchanging
/// halos through locations. Mutates p.za; the result is bit-identical to
/// the sequential sweep. `prog_opts.locations_per_task` is overridden (4
/// halo locations per task are required). When `stats_out` is non-null it
/// receives the runtime's ProgramStats snapshot after the run.
void lk23_orwl(Lk23Problem& p, std::size_t iters, std::size_t blocks_y,
               std::size_t blocks_x, rt::ProgramOptions prog_opts = {},
               rt::ProgramStats* stats_out = nullptr);

/// ORWL decomposition with a converged-predicate loop instead of a fixed
/// sweep count: after each sweep the per-block residuals (sum of squared
/// cell updates, summed in raster order) are sum-reduced across all
/// tasks, and every task keeps sweeping until the global residual drops
/// to `tol` or `max_iters` sweeps ran. Same wiring (and the same
/// bit-exact sweep) as lk23_orwl; only this variant computes a residual.
/// \return The number of sweeps executed (uniform across tasks).
std::size_t lk23_orwl_converged(Lk23Problem& p, double tol,
                                std::size_t max_iters, std::size_t blocks_y,
                                std::size_t blocks_x,
                                rt::ProgramOptions prog_opts = {});

/// Fork-join baseline: per sweep, parallel-for over each anti-diagonal of
/// blocks. Also bit-identical to the sequential sweep.
void lk23_forkjoin(Lk23Problem& p, std::size_t iters, std::size_t blocks_y,
                   std::size_t blocks_x, pool::ThreadPool& pool);

/// Build the communication matrix of the paper's thread decomposition
/// (4 operation threads per block: center compute + 3 border handlers)
/// for an n x n problem on blocks_y x blocks_x blocks. Declaratively
/// wired and read off the declarations (ProgramBuilder::comm_matrix) —
/// no runtime is created and no task is spawned.
/// Thread count = 4 * blocks_y * blocks_x.
tm::CommMatrix lk23_ops_comm_matrix(std::size_t n, std::size_t blocks_y,
                                    std::size_t blocks_x);

}  // namespace orwl::apps
