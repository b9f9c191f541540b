#include "apps/matmul.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "apps/dgemm.hpp"
#include "support/rng.hpp"

namespace orwl::apps {

MatmulProblem MatmulProblem::generate(std::size_t n, std::uint64_t seed) {
  if (n == 0) throw std::invalid_argument("MatmulProblem: n == 0");
  MatmulProblem p;
  p.n = n;
  support::SplitMix64 rng(seed);
  p.a.resize(n * n);
  p.b.resize(n * n);
  p.c.assign(n * n, 0.0);
  for (auto& x : p.a) x = rng.uniform() - 0.5;
  for (auto& x : p.b) x = rng.uniform() - 0.5;
  return p;
}

void matmul_sequential(MatmulProblem& p) {
  std::fill(p.c.begin(), p.c.end(), 0.0);
  dgemm(p.n, p.n, p.n, p.a.data(), p.n, p.b.data(), p.n, p.c.data(), p.n);
}

namespace {

/// Copy the column block [c0, c0+w) of the row-major n x n matrix src
/// into a dense w-wide row-major buffer.
void pack_cols(const double* src, std::size_t n, std::size_t c0,
               std::size_t w, double* dst) {
  for (std::size_t r = 0; r < n; ++r) {
    std::memcpy(dst + r * w, src + r * n + c0, w * sizeof(double));
  }
}

}  // namespace

namespace {

/// The declarative ring wiring shared by the run and the graph-only
/// extraction: each task's own slot circulates B column blocks — written
/// by the task (priority 0), read by its ring predecessor (priority 1).
ProgramBuilder matmul_builder(std::size_t n, std::size_t tasks,
                              rt::ProgramOptions prog_opts) {
  const std::size_t nb = n / tasks;
  ProgramBuilder b(tasks, prog_opts);
  for (rt::TaskId t = 0; t < tasks; ++t) {
    TaskSpec& spec = b.task(t);
    spec.owns<double[]>(n * nb);
    spec.writes<double[]>(loc(t), 0);
    if (tasks > 1) spec.reads<double[]>(loc((t + 1) % tasks), 1);
    spec.iterates(tasks);
  }
  return b;
}

}  // namespace

void matmul_orwl(MatmulProblem& p, std::size_t tasks,
                 rt::ProgramOptions prog_opts, rt::ProgramStats* stats_out) {
  const std::size_t n = p.n;
  if (tasks == 0 || n % tasks != 0) {
    throw std::invalid_argument(
        "matmul_orwl: n must be a positive multiple of tasks");
  }
  const std::size_t nb = n / tasks;  // rows / cols per block

  std::fill(p.c.begin(), p.c.end(), 0.0);
  ProgramBuilder builder = matmul_builder(n, tasks, prog_opts);
  builder.body([&, n, nb, tasks](Task& task) {
    const std::size_t t = task.id();
    WriteLink<double[]> own = task.write_link<double[]>(loc(t));
    ReadLink<double[]> next;
    if (tasks > 1) next = task.read_link<double[]>(loc((t + 1) % tasks));

    // Initial content: B column block t, packed dense.
    std::vector<double> cur(n * nb);
    pack_cols(p.b.data(), n, t * nb, nb, cur.data());
    std::vector<double> incoming(n * nb);

    const double* a_rows = p.a.data() + t * nb * n;  // my A row block
    task.run_iterations([&](std::size_t phase) {
      // Compute C(rows t, cols (t+phase) mod tasks) = A_rows * cur.
      const std::size_t cb = (t + phase) % tasks;
      dgemm(nb, nb, n, a_rows, n, cur.data(), nb,
            p.c.data() + t * nb * n + cb * nb, n);

      if (phase + 1 == tasks || tasks == 1) return;
      // Circulate: publish my block, take my successor's.
      {
        WriteGuard<double[]> out(own);
        std::copy(cur.begin(), cur.end(), out.begin());
      }
      {
        ReadGuard<double[]> in(next);
        std::copy(in.begin(), in.end(), incoming.begin());
      }
      cur.swap(incoming);
    });
  });

  Program prog = builder.build();
  prog.run();
  if (stats_out != nullptr) {
    *stats_out = prog.stats();
  }
}

void matmul_forkjoin(MatmulProblem& p, pool::ThreadPool& pool) {
  std::fill(p.c.begin(), p.c.end(), 0.0);
  const std::size_t n = p.n;
  pool.parallel_chunks(0, n, [&](std::size_t, std::size_t r0,
                                 std::size_t r1) {
    dgemm(r1 - r0, n, n, p.a.data() + r0 * n, n, p.b.data(), n,
          p.c.data() + r0 * n, n);
  });
}

tm::CommMatrix matmul_comm_matrix(std::size_t n, std::size_t tasks) {
  if (tasks == 0 || n % tasks != 0) {
    throw std::invalid_argument(
        "matmul_comm_matrix: n must be a positive multiple of tasks");
  }
  // Same wiring as the run, read off the declarations: nothing is
  // allocated and no runtime or task thread is created.
  return matmul_builder(n, tasks, {}).comm_matrix();
}

}  // namespace orwl::apps
