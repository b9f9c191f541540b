#include "apps/lk23.hpp"

#include <atomic>
#include <functional>
#include <stdexcept>

#include "support/rng.hpp"

namespace orwl::apps {

namespace {

using orwl::split_range;

constexpr double kRelax = 0.175;

/// One Gauss-Seidel cell update.
inline void update_cell(double& za_jk, double north, double south,
                        double east, double west, double zr, double zb,
                        double zu, double zv, double zz) {
  const double qa =
      south * zr + north * zb + east * zu + west * zv + zz;
  za_jk += kRelax * (qa - za_jk);
}

}  // namespace

Lk23Problem Lk23Problem::generate(std::size_t n, std::uint64_t seed) {
  if (n < 3) throw std::invalid_argument("Lk23Problem: n must be >= 3");
  Lk23Problem p;
  p.n = n;
  support::SplitMix64 rng(seed);
  auto fill = [&](std::vector<double>& v, double scale) {
    v.resize(n * n);
    for (auto& x : v) x = scale * (rng.uniform() - 0.5);
  };
  fill(p.za, 1.0);
  // Small coefficients keep the relaxation numerically tame.
  fill(p.zb, 0.05);
  fill(p.zr, 0.05);
  fill(p.zu, 0.05);
  fill(p.zv, 0.05);
  fill(p.zz, 0.1);
  return p;
}

void lk23_sequential(Lk23Problem& p, std::size_t iters) {
  const std::size_t n = p.n;
  double* za = p.za.data();
  const double* zb = p.zb.data();
  const double* zr = p.zr.data();
  const double* zu = p.zu.data();
  const double* zv = p.zv.data();
  const double* zz = p.zz.data();
  for (std::size_t l = 0; l < iters; ++l) {
    for (std::size_t j = 1; j + 1 < n; ++j) {
      for (std::size_t k = 1; k + 1 < n; ++k) {
        const std::size_t i = j * n + k;
        update_cell(za[i], za[i - n], za[i + n], za[i + 1], za[i - 1],
                    zr[i], zb[i], zu[i], zv[i], zz[i]);
      }
    }
  }
}

namespace {

/// Shared block geometry for the parallel variants.
struct BlockGeom {
  std::size_t r0, r1;  ///< row range [r0, r1) within the grid
  std::size_t c0, c1;  ///< col range
  std::size_t h() const { return r1 - r0; }
  std::size_t w() const { return c1 - c0; }
};

BlockGeom block_geom(std::size_t n, std::size_t by, std::size_t bx,
                     std::size_t bi, std::size_t bj) {
  // The interior [1, n-1) is tiled; boundary ring stays fixed.
  const auto rows = split_range(n - 2, by, bi);
  const auto cols = split_range(n - 2, bx, bj);
  return BlockGeom{rows.begin + 1, rows.end + 1, cols.begin + 1,
                   cols.end + 1};
}

/// Compute one block sweep. Neighbor values that live outside the block
/// come from the halo arrays (which the caller filled from locations or
/// from the fixed grid boundary).
/// \return The block's residual: the sum of squared cell updates this
///         sweep (the converged-predicate loop sums it across blocks;
///         the counted variants ignore it).
double sweep_block(Lk23Problem& p, const BlockGeom& g,
                   const std::vector<double>& halo_n,
                   const std::vector<double>& halo_s,
                   const std::vector<double>& halo_w,
                   const std::vector<double>& halo_e) {
  const std::size_t n = p.n;
  double* za = p.za.data();
  double residual = 0.0;
  for (std::size_t j = g.r0; j < g.r1; ++j) {
    for (std::size_t k = g.c0; k < g.c1; ++k) {
      const std::size_t i = j * n + k;
      const double north = j == g.r0 ? halo_n[k - g.c0] : za[i - n];
      const double south = j == g.r1 - 1 ? halo_s[k - g.c0] : za[i + n];
      const double west = k == g.c0 ? halo_w[j - g.r0] : za[i - 1];
      const double east = k == g.c1 - 1 ? halo_e[j - g.r0] : za[i + 1];
      const double before = za[i];
      update_cell(za[i], north, south, east, west, p.zr[i], p.zb[i],
                  p.zu[i], p.zv[i], p.zz[i]);
      const double d = za[i] - before;
      residual += d * d;
    }
  }
  return residual;
}

// Halo location slots per task (owner writes its borders after updating):
//   0 = N-out: own top row    (read by the NORTH neighbor, one-iter lag)
//   1 = S-out: own bottom row (read by the SOUTH neighbor, same iter)
//   2 = W-out: own left col   (read by the WEST  neighbor, one-iter lag)
//   3 = E-out: own right col  (read by the EAST  neighbor, same iter)
// Same-iteration locations order writer first (w:0, r:1); lagged ones
// order the reader first (r:0, w:1) and carry the initial border value.
constexpr std::size_t kLocN = 0;
constexpr std::size_t kLocS = 1;
constexpr std::size_t kLocW = 2;
constexpr std::size_t kLocE = 3;

/// One whole ORWL iteration of a block: gather halos, sweep, publish.
/// Returns the block residual (see sweep_block).
using BlockSweep = std::function<double(std::size_t)>;

/// The loop driver a variant plugs into the shared task body: counted
/// (lk23_orwl) or converged-predicate (lk23_orwl_converged).
using SweepDriver = std::function<void(Task&, const BlockSweep&)>;

/// Declare the by*bx halo-exchange tasks on `builder` — the one ORWL
/// wiring both iteration variants share; only the loop driver differs.
void wire_lk23_tasks(ProgramBuilder& builder, Lk23Problem& p,
                     std::size_t iters, std::size_t by, std::size_t bx,
                     const SweepDriver& drive) {
  for (rt::TaskId id = 0; id < by * bx; ++id) {
    const std::size_t bi = id / bx;
    const std::size_t bj = id % bx;
    const BlockGeom g = block_geom(p.n, by, bx, bi, bj);
    const bool has_north = bi > 0;
    const bool has_south = bi + 1 < by;
    const bool has_west = bj > 0;
    const bool has_east = bj + 1 < bx;

    TaskSpec& spec = builder.task(id);
    // Own halo locations. Same-iteration halos order the writer first
    // (w:0, r:1); lagged ones order the reader first (r:0, w:1) and
    // carry the initial border value (primed in the init hook below).
    spec.owns<double[]>(g.w(), kLocN).writes<double[]>(loc(id, kLocN), 1);
    spec.owns<double[]>(g.w(), kLocS).writes<double[]>(loc(id, kLocS), 0);
    spec.owns<double[]>(g.h(), kLocW).writes<double[]>(loc(id, kLocW), 1);
    spec.owns<double[]>(g.h(), kLocE).writes<double[]>(loc(id, kLocE), 0);
    // Incoming halos (absent on the grid boundary).
    if (has_north) {  // north's bottom row, same iteration
      spec.reads<double[]>(loc(id - bx, kLocS), 1);
    }
    if (has_south) {  // south's top row, one-iteration lag
      spec.reads<double[]>(loc(id + bx, kLocN), 0);
    }
    if (has_west) {  // west's right col, same iteration
      spec.reads<double[]>(loc(id - 1, kLocE), 1);
    }
    if (has_east) {  // east's left col, one-iteration lag
      spec.reads<double[]>(loc(id + 1, kLocW), 0);
    }
    spec.iterates(iters);

    // Prime the lagged halos with the initial border values (runs on the
    // task's thread before the schedule barrier, like the v1 init phase).
    spec.init([&p, g](Task& task) {
      const std::size_t n = p.n;
      std::span<double> init_n = task.my<double[]>(kLocN).span();
      std::span<double> init_w = task.my<double[]>(kLocW).span();
      for (std::size_t k = 0; k < g.w(); ++k) {
        init_n[k] = p.za[g.r0 * n + g.c0 + k];
      }
      for (std::size_t j = 0; j < g.h(); ++j) {
        init_w[j] = p.za[(g.r0 + j) * n + g.c0];
      }
    });

    // `drive` is copied into the body: the closure outlives this call
    // (it runs when the built program does).
    spec.body([&p, g, id, bx, has_north, has_south, has_west, has_east,
               drive](Task& task) {
      const std::size_t n = p.n;
      WriteLink<double[]> w_n = task.write_link<double[]>(loc(id, kLocN));
      WriteLink<double[]> w_s = task.write_link<double[]>(loc(id, kLocS));
      WriteLink<double[]> w_w = task.write_link<double[]>(loc(id, kLocW));
      WriteLink<double[]> w_e = task.write_link<double[]>(loc(id, kLocE));
      ReadLink<double[]> r_n, r_s, r_w, r_e;
      if (has_north) r_n = task.read_link<double[]>(loc(id - bx, kLocS));
      if (has_south) r_s = task.read_link<double[]>(loc(id + bx, kLocN));
      if (has_west) r_w = task.read_link<double[]>(loc(id - 1, kLocE));
      if (has_east) r_e = task.read_link<double[]>(loc(id + 1, kLocW));

      std::vector<double> halo_n(g.w()), halo_s(g.w());
      std::vector<double> halo_w(g.h()), halo_e(g.h());

      const BlockSweep sweep = [&](std::size_t) -> double {
        // -- gather phase ------------------------------------------------
        if (has_north) {
          ReadGuard<double[]> sec(r_n);
          std::copy(sec.begin(), sec.end(), halo_n.begin());
        } else {
          for (std::size_t k = 0; k < g.w(); ++k) {
            halo_n[k] = p.za[(g.r0 - 1) * n + g.c0 + k];
          }
        }
        if (has_west) {
          ReadGuard<double[]> sec(r_w);
          std::copy(sec.begin(), sec.end(), halo_w.begin());
        } else {
          for (std::size_t j = 0; j < g.h(); ++j) {
            halo_w[j] = p.za[(g.r0 + j) * n + g.c0 - 1];
          }
        }
        if (has_south) {
          ReadGuard<double[]> sec(r_s);
          std::copy(sec.begin(), sec.end(), halo_s.begin());
        } else {
          for (std::size_t k = 0; k < g.w(); ++k) {
            halo_s[k] = p.za[g.r1 * n + g.c0 + k];
          }
        }
        if (has_east) {
          ReadGuard<double[]> sec(r_e);
          std::copy(sec.begin(), sec.end(), halo_e.begin());
        } else {
          for (std::size_t j = 0; j < g.h(); ++j) {
            halo_e[j] = p.za[(g.r0 + j) * n + g.c1];
          }
        }

        // -- compute -----------------------------------------------------
        const double residual =
            sweep_block(p, g, halo_n, halo_s, halo_w, halo_e);

        // -- publish phase -----------------------------------------------
        {
          WriteGuard<double[]> sec(w_n);
          for (std::size_t k = 0; k < g.w(); ++k) {
            sec[k] = p.za[g.r0 * n + g.c0 + k];
          }
        }
        {
          WriteGuard<double[]> sec(w_s);
          for (std::size_t k = 0; k < g.w(); ++k) {
            sec[k] = p.za[(g.r1 - 1) * n + g.c0 + k];
          }
        }
        {
          WriteGuard<double[]> sec(w_w);
          for (std::size_t j = 0; j < g.h(); ++j) {
            sec[j] = p.za[(g.r0 + j) * n + g.c0];
          }
        }
        {
          WriteGuard<double[]> sec(w_e);
          for (std::size_t j = 0; j < g.h(); ++j) {
            sec[j] = p.za[(g.r0 + j) * n + g.c1 - 1];
          }
        }
        return residual;
      };
      drive(task, sweep);
    });
  }
}

}  // namespace

void lk23_orwl(Lk23Problem& p, std::size_t iters, std::size_t by,
               std::size_t bx, rt::ProgramOptions prog_opts,
               rt::ProgramStats* stats_out) {
  if (by == 0 || bx == 0 || by > p.n - 2 || bx > p.n - 2) {
    throw std::invalid_argument("lk23_orwl: bad block grid");
  }
  ProgramBuilder builder(by * bx, prog_opts);
  wire_lk23_tasks(builder, p, iters, by, bx,
                  [](Task& task, const BlockSweep& sweep) {
                    task.run_iterations(
                        [&sweep](std::size_t i) { sweep(i); });
                  });
  Program prog = builder.build();
  prog.run();
  if (stats_out != nullptr) {
    *stats_out = prog.stats();
  }
}

std::size_t lk23_orwl_converged(Lk23Problem& p, double tol,
                                std::size_t max_iters, std::size_t by,
                                std::size_t bx,
                                rt::ProgramOptions prog_opts) {
  if (by == 0 || bx == 0 || by > p.n - 2 || bx > p.n - 2) {
    throw std::invalid_argument("lk23_orwl_converged: bad block grid");
  }
  if (max_iters == 0) {
    throw std::invalid_argument("lk23_orwl_converged: max_iters must be > 0");
  }
  ProgramBuilder builder(by * bx, prog_opts);
  // The predicate runs on the all-task residual sum, so every task sees
  // the same value each iteration and the loop terminates uniformly —
  // the per-task iteration budget counts along but never diverges.
  std::atomic<std::size_t> executed{0};
  wire_lk23_tasks(
      builder, p, max_iters, by, bx,
      [tol, max_iters, &executed](Task& task, const BlockSweep& sweep) {
        std::size_t spent = 0;
        const std::size_t ran = task.run_iterations(
            [tol, max_iters, &spent](double residual) {
              return residual <= tol || ++spent >= max_iters;
            },
            sweep);
        executed.store(ran, std::memory_order_relaxed);
      });
  Program prog = builder.build();
  prog.run();
  return executed.load(std::memory_order_relaxed);
}

void lk23_forkjoin(Lk23Problem& p, std::size_t iters, std::size_t by,
                   std::size_t bx, pool::ThreadPool& pool) {
  if (by == 0 || bx == 0 || by > p.n - 2 || bx > p.n - 2) {
    throw std::invalid_argument("lk23_forkjoin: bad block grid");
  }
  // Per sweep, the anti-diagonals of the block grid are processed in
  // order; blocks on one diagonal are independent (their north/west
  // blocks belong to earlier diagonals, already updated this sweep).
  std::vector<double> halo_n, halo_s, halo_w, halo_e;  // filled per block
  for (std::size_t l = 0; l < iters; ++l) {
    for (std::size_t d = 0; d <= by + bx - 2; ++d) {
      // Blocks with bi + bj == d.
      std::vector<std::pair<std::size_t, std::size_t>> wave;
      for (std::size_t bi = 0; bi < by; ++bi) {
        if (d < bi) continue;
        const std::size_t bj = d - bi;
        if (bj < bx) wave.emplace_back(bi, bj);
      }
      pool.parallel_for(0, wave.size(), [&](std::size_t idx) {
        const auto [bi, bj] = wave[idx];
        const BlockGeom g = block_geom(p.n, by, bx, bi, bj);
        const std::size_t n = p.n;
        // Direct neighbor access: rows g.r0-1 / g.r1 and cols g.c0-1 /
        // g.c1 hold exactly the values the sequential sweep would see.
        std::vector<double> hn(g.w()), hs(g.w()), hw(g.h()), he(g.h());
        for (std::size_t k = 0; k < g.w(); ++k) {
          hn[k] = p.za[(g.r0 - 1) * n + g.c0 + k];
          hs[k] = p.za[g.r1 * n + g.c0 + k];
        }
        for (std::size_t j = 0; j < g.h(); ++j) {
          hw[j] = p.za[(g.r0 + j) * n + g.c0 - 1];
          he[j] = p.za[(g.r0 + j) * n + g.c1];
        }
        sweep_block(p, g, hn, hs, hw, he);
      });
    }
  }
}

tm::CommMatrix lk23_ops_comm_matrix(std::size_t n, std::size_t by,
                                    std::size_t bx) {
  // Thread layout per block b: 4b+0 center compute, 4b+1 row-border
  // handler (N/S), 4b+2 column-border handler (W/E), 4b+3 halo gatherer.
  // Locations (2 per task):
  //   center op (4b+0), slot 0: the block buffer — written by the center,
  //     read by both border handlers (block-sized: the dominant volume
  //     that makes Algorithm 1 group the 4 ops of a block together);
  //   gatherer (4b+3), slot 0: the assembled halo frame read by the
  //     center op;
  //   row handler (4b+1), slots 0/1: N-out / S-out halos;
  //   col handler (4b+2), slots 0/1: W-out / E-out halos;
  // The gatherer of a block reads the halo locations of the four
  // neighboring blocks.
  const std::size_t tasks = 4 * by * bx;
  ProgramBuilder builder(tasks);

  const auto task_of = [](std::size_t b, std::size_t r) { return b * 4 + r; };
  for (std::size_t id = 0; id < tasks; ++id) {
    const std::size_t block = id / 4;
    const std::size_t role = id % 4;
    const std::size_t bi = block / bx;
    const std::size_t bj = block % bx;
    const BlockGeom g = block_geom(n, by, bx, bi, bj);
    TaskSpec& spec = builder.task(id);

    switch (role) {
      case 0:  // center: writes block, reads the gatherer's frame
        spec.owns<double[]>(g.h() * g.w(), 0);
        spec.writes(loc(id, 0), 0);
        spec.reads(loc(task_of(block, 3), 0), 1);
        break;
      case 1:  // row borders: reads block, publishes N-out / S-out
        spec.owns<double[]>(g.w(), 0).owns<double[]>(g.w(), 1);
        spec.reads(loc(task_of(block, 0), 0), 1);
        spec.writes(loc(id, 0), 0).writes(loc(id, 1), 0);
        break;
      case 2:  // col borders: reads block, publishes W-out / E-out
        spec.owns<double[]>(g.h(), 0).owns<double[]>(g.h(), 1);
        spec.reads(loc(task_of(block, 0), 0), 1);
        spec.writes(loc(id, 0), 0).writes(loc(id, 1), 0);
        break;
      case 3:  // gatherer: writes frame, reads neighbor halos
        spec.owns<double[]>(2 * (g.w() + g.h()), 0);
        spec.writes(loc(id, 0), 0);
        if (bi > 0) {  // north block's S-out
          spec.reads(loc(task_of(block - bx, 1), 1), 1);
        }
        if (bi + 1 < by) {  // south block's N-out
          spec.reads(loc(task_of(block + bx, 1), 0), 1);
        }
        if (bj > 0) {  // west block's E-out
          spec.reads(loc(task_of(block - 1, 2), 1), 1);
        }
        if (bj + 1 < bx) {  // east block's W-out
          spec.reads(loc(task_of(block + 1, 2), 0), 1);
        }
        break;
    }
  }

  // The declared graph is the whole point here: no body, no build() —
  // the matrix falls out of the declarations directly.
  return builder.comm_matrix();
}

}  // namespace orwl::apps
