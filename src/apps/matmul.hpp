// Block-cyclic matrix multiplication C = A * B (Sec. V-B).
//
// "In our ORWL implementation each block of rows of the result matrix C
// corresponds to a task/thread ... A task processes the elements of a
// block of rows of the matrix C and circulates the input columns of the
// matrix B to the neighboring tasks by using ORWL's locations."
//
// The fork-join baseline mirrors the paper's MKL comparison: a single
// data-parallel GEMM where every thread computes a block of C rows
// reading the full shared B (that sharing pattern — not the kernel — is
// what makes the MKL baselines stop scaling across sockets).
#pragma once

#include <cstddef>
#include <vector>

#include "orwl/orwl.hpp"
#include "pool/thread_pool.hpp"
#include "treematch/comm_matrix.hpp"

namespace orwl::apps {

struct MatmulProblem {
  std::size_t n = 0;  ///< square matrices n x n, row-major
  std::vector<double> a, b, c;

  static MatmulProblem generate(std::size_t n, std::uint64_t seed = 11);
};

/// Sequential reference: C = A * B in one call of the packed dgemm
/// kernel (apps/dgemm.hpp), the same kernel every ORWL task runs.
void matmul_sequential(MatmulProblem& p);

/// ORWL block-cyclic multiply with `tasks` tasks. Each task owns a block
/// of rows of A and C and circulates column blocks of B around the task
/// ring through locations (declared up front with the v2 builder). n
/// must be a multiple of tasks. Overwrites p.c. When `stats_out` is
/// non-null it receives the runtime's ProgramStats snapshot after the run.
void matmul_orwl(MatmulProblem& p, std::size_t tasks,
                 rt::ProgramOptions prog_opts = {},
                 rt::ProgramStats* stats_out = nullptr);

/// Fork-join baseline: parallel-for over row blocks, full B shared.
void matmul_forkjoin(MatmulProblem& p, pool::ThreadPool& pool);

/// Communication matrix of the ORWL decomposition (ring of B-block
/// circulations). Declaratively wired: the matrix comes straight from
/// the declared graph — no task ever runs, no buffer is allocated.
tm::CommMatrix matmul_comm_matrix(std::size_t n, std::size_t tasks);

}  // namespace orwl::apps
