// Simulation workload builders for the three evaluation applications.
//
// These connect the real applications to the testbed performance model:
// the communication matrices are read off the actual ORWL wirings'
// declarations (ProgramBuilder::comm_matrix, the matrix a native run
// places by), and the per-thread compute / memory characteristics are
// derived from the applications' arithmetic (flops per cell, streamed
// arrays, working sets). The modeling notes are in sim/simulator.hpp.
#pragma once

#include "apps/video.hpp"
#include "sim/simulator.hpp"

namespace orwl::apps {

// ---- Livermore Kernel 23 (Fig. 4, Table II) -----------------------------

/// The ORWL decomposition at paper scale: `threads` operation threads
/// (4 per block when threads >= 4), n x n doubles, `iters` sweeps.
sim::Workload lk23_orwl_workload(std::size_t n, std::size_t iters,
                                 std::size_t threads);

/// The OpenMP-shaped baseline: `threads` row-block workers, fork-join
/// anti-diagonal waves per sweep.
sim::Workload lk23_forkjoin_workload(std::size_t n, std::size_t iters,
                                     std::size_t threads);

/// The block grid used for `threads` operation threads (by, bx).
std::pair<std::size_t, std::size_t> lk23_block_grid(std::size_t threads);

// ---- Matrix multiplication (Fig. 5, Table III) ---------------------------

/// Block-cyclic ORWL multiply: `tasks` tasks, T phases of ring
/// circulation (n x n doubles).
sim::Workload matmul_orwl_workload(std::size_t n, std::size_t tasks);

/// MKL-shaped baseline: one data-parallel GEMM; every thread reads the
/// full shared B (homed on thread 0's node).
sim::Workload matmul_mkl_workload(std::size_t n, std::size_t threads);

// ---- Video tracking (Fig. 6, Table IV) -----------------------------------

/// The 30-task ORWL data-flow graph processing `frames` frames.
sim::Workload video_orwl_workload(const VideoParams& params);

/// Fork-join-per-stage baseline with the same number of threads.
sim::Workload video_forkjoin_workload(const VideoParams& params);

/// Single-thread version (the "Sequential" series of Fig. 6).
sim::Workload video_sequential_workload(const VideoParams& params);

}  // namespace orwl::apps
