#include "apps/lk23.hpp"
#include "apps/lk23_kernel.hpp"

#include <algorithm>
#include <atomic>
#include <functional>
#include <stdexcept>
#include <string>
#include <utility>

#include "support/rng.hpp"

namespace orwl::apps {

struct Lk23Problem::Coefficients {
  std::vector<double> zb, zr, zu, zv, zz;
};

namespace {

using orwl::split_range;

using lk23_detail::Block;
using lk23_detail::BlockGeom;
using lk23_detail::kRows;

constexpr double kRelax = 0.175;

const Lk23Problem::Coefficients& coefficients_of(const Lk23Problem& p) {
  if (p.n < 3 || !p.coefficients || p.za.size() != p.n * p.n) {
    throw std::invalid_argument("lk23: problem not made by generate()");
  }
  return *p.coefficients;
}

/// Throws unless `p` is a generated problem with room for by x bx blocks.
void check_block_grid(const Lk23Problem& p, std::size_t by, std::size_t bx,
                      const char* what) {
  coefficients_of(p);
  if (by == 0 || bx == 0 || by > p.n - 2 || bx > p.n - 2) {
    throw std::invalid_argument(std::string(what) + ": bad block grid");
  }
}

BlockGeom block_geom(std::size_t n, std::size_t by, std::size_t bx,
                     std::size_t bi, std::size_t bj) {
  // The interior [1, n-1) is tiled; boundary ring stays fixed.
  const auto rows = split_range(n - 2, by, bi);
  const auto cols = split_range(n - 2, bx, bj);
  return BlockGeom{rows.begin + 1, rows.end + 1, cols.begin + 1,
                   cols.end + 1};
}

/// Up to kRows consecutive rows of a block, swept together.
struct RowGroup {
  double* za;  ///< first cell of the first row; rows are n apart
  const double *zr, *zb, *zu, *zv, *zz;  ///< the same cell's coefficients
  std::size_t n;     ///< row stride
  std::size_t w;     ///< columns
  std::size_t rows;  ///< rows in flight, 1..kRows
  const double* north;  ///< w values above the first row
  const double* south;  ///< w values below the last row
  double west[kRows];   ///< the value left of each row's first cell
  double east[kRows];   ///< the value right of each row's last cell
};

/// Step s of a row group: row r updates its column s - r. Its north and
/// west neighbours were updated at step s - 1 and are carried in
/// `prev` (row r - 1's and row r's last results); its south and east
/// neighbours are not updated yet and are read from the grid. These are
/// the values the raster-order sweep reads, and the arithmetic is the
/// same, so every cell rounds identically. `kSteady` steps run only where
/// every row is active and no row touches its first or last column.
template <bool kSteady>
inline void skew_step(const RowGroup& q, std::size_t s,
                      double (&prev)[kRows]) {
  const std::size_t rows = kSteady ? kRows : q.rows;
  const auto cell = [&](std::size_t r) {
    if (!kSteady && (s < r || s - r >= q.w)) return;  // not in flight
    const std::size_t k = s - r;
    const std::size_t i = r * q.n + k;
    const double north = r == 0 ? q.north[k] : prev[r - 1];
    const double south = r + 1 == rows ? q.south[k] : q.za[i + q.n];
    const double west = !kSteady && k == 0 ? q.west[r] : prev[r];
    const double east = !kSteady && k + 1 == q.w ? q.east[r] : q.za[i + 1];
    const double qa = south * q.zr[i] + north * q.zb[i] + east * q.zu[i] +
                      west * q.zv[i] + q.zz[i];
    const double za = q.za[i];
    prev[r] = q.za[i] = za + kRelax * (qa - za);
  };
  // Last row first: row r reads prev[r - 1] before row r - 1 replaces it.
  if constexpr (kSteady) {
    [&]<std::size_t... R>(std::index_sequence<R...>) {
      (cell(kRows - 1 - R), ...);
    }(std::make_index_sequence<kRows>{});
  } else {
    for (std::size_t r = rows; r-- > 0;) cell(r);
  }
}

void sweep_rows(const RowGroup& q) {
  double prev[kRows] = {};
  const std::size_t steps = q.w + q.rows - 1;
  std::size_t s = 0;
  if (q.rows == kRows) {
    for (; s < kRows; ++s) skew_step<false>(q, s, prev);
    for (; s + 1 < q.w; ++s) skew_step<true>(q, s, prev);
  }
  // Leftover rows, narrow blocks and the trailing steps of a group.
  for (; s < steps; ++s) skew_step<false>(q, s, prev);
}

}  // namespace

void lk23_detail::sweep_block(const Block& b) {
  const BlockGeom& g = b.g;
  const std::size_t n = b.n;
  for (std::size_t j = g.r0; j < g.r1; j += kRows) {
    RowGroup q{};
    const std::size_t at = j * n + g.c0;
    q.za = b.za + at;
    q.zr = b.cf->zr.data() + at;
    q.zb = b.cf->zb.data() + at;
    q.zu = b.cf->zu.data() + at;
    q.zv = b.cf->zv.data() + at;
    q.zz = b.cf->zz.data() + at;
    q.n = n;
    q.w = g.w();
    q.rows = std::min(kRows, g.r1 - j);
    q.north = j == g.r0 ? b.north : q.za - n;
    q.south = j + q.rows == g.r1 ? b.south : q.za + q.rows * n;
    for (std::size_t r = 0; r < q.rows; ++r) {
      q.west[r] = b.west[(j - g.r0 + r) * b.side_stride];
      q.east[r] = b.east[(j - g.r0 + r) * b.side_stride];
    }
    sweep_rows(q);
  }
}

namespace {

/// The block whose halos are the grid cells around it: the whole
/// interior, or a block whose neighbours are not being swept.
Block grid_block(Lk23Problem& p, const BlockGeom& g) {
  const std::size_t n = p.n;
  double* za = p.za.data();
  return Block{za,
               &coefficients_of(p),
               n,
               g,
               za + (g.r0 - 1) * n + g.c0,
               za + g.r1 * n + g.c0,
               za + g.r0 * n + g.c0 - 1,
               za + g.r0 * n + g.c1,
               n};
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
  auto cf = std::make_shared<Coefficients>();
  fill(cf->zb, 0.05);
  fill(cf->zr, 0.05);
  fill(cf->zu, 0.05);
  fill(cf->zv, 0.05);
  fill(cf->zz, 0.1);
  p.coefficients = std::move(cf);
  return p;
}

void lk23_sequential(Lk23Problem& p, std::size_t iters) {
  const Block b = grid_block(p, BlockGeom{1, p.n - 1, 1, p.n - 1});
  for (std::size_t l = 0; l < iters; ++l) sweep_block(b);
}

namespace {

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
/// Returns the block residual, or 0 when the wiring was asked for none.
using BlockSweep = std::function<double(std::size_t)>;

/// The loop driver a variant plugs into the shared task body: counted
/// (lk23_orwl) or converged-predicate (lk23_orwl_converged).
using SweepDriver = std::function<void(Task&, const BlockSweep&)>;

/// Copies the block's cells, row after row, into `out`.
void save_block(const Lk23Problem& p, const BlockGeom& g,
                std::vector<double>& out) {
  for (std::size_t j = g.r0; j < g.r1; ++j) {
    std::copy_n(p.za.begin() + j * p.n + g.c0, g.w(),
                out.begin() + (j - g.r0) * g.w());
  }
}

/// The sum of squared cell updates since save_block, in raster order.
double block_residual(const Lk23Problem& p, const BlockGeom& g,
                      const std::vector<double>& before) {
  double residual = 0.0;
  for (std::size_t j = g.r0; j < g.r1; ++j) {
    for (std::size_t k = g.c0; k < g.c1; ++k) {
      const double d =
          p.za[j * p.n + k] - before[(j - g.r0) * g.w() + k - g.c0];
      residual += d * d;
    }
  }
  return residual;
}

/// Declare the by*bx halo-exchange tasks on `builder` — the one ORWL
/// wiring both iteration variants share; only the loop driver differs,
/// and only the converged one asks for residuals.
void wire_lk23_tasks(ProgramBuilder& builder, Lk23Problem& p,
                     std::size_t iters, std::size_t by, std::size_t bx,
                     bool with_residual, const SweepDriver& drive) {
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
               with_residual, drive](Task& task) {
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

      // A side with a neighbour gets its halo through a location every
      // sweep; a side on the grid boundary never changes.
      std::vector<double> halo_n(g.w()), halo_s(g.w());
      std::vector<double> halo_w(g.h()), halo_e(g.h());
      const Block grid = grid_block(p, g);
      if (!has_north) std::copy_n(grid.north, g.w(), halo_n.begin());
      if (!has_south) std::copy_n(grid.south, g.w(), halo_s.begin());
      for (std::size_t j = 0; j < g.h(); ++j) {
        if (!has_west) halo_w[j] = grid.west[j * n];
        if (!has_east) halo_e[j] = grid.east[j * n];
      }
      const Block block{grid.za,       grid.cf,       n,
                        g,             halo_n.data(), halo_s.data(),
                        halo_w.data(), halo_e.data(), 1};
      std::vector<double> before(with_residual ? g.h() * g.w() : 0);

      const BlockSweep sweep = [&](std::size_t) -> double {
        // -- gather phase ------------------------------------------------
        if (has_north) {
          ReadGuard<double[]> sec(r_n);
          std::copy(sec.begin(), sec.end(), halo_n.begin());
        }
        if (has_west) {
          ReadGuard<double[]> sec(r_w);
          std::copy(sec.begin(), sec.end(), halo_w.begin());
        }
        if (has_south) {
          ReadGuard<double[]> sec(r_s);
          std::copy(sec.begin(), sec.end(), halo_s.begin());
        }
        if (has_east) {
          ReadGuard<double[]> sec(r_e);
          std::copy(sec.begin(), sec.end(), halo_e.begin());
        }

        // -- compute -----------------------------------------------------
        if (with_residual) save_block(p, g, before);
        sweep_block(block);
        const double residual =
            with_residual ? block_residual(p, g, before) : 0.0;

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
  check_block_grid(p, by, bx, "lk23_orwl");
  ProgramBuilder builder(by * bx, prog_opts);
  wire_lk23_tasks(builder, p, iters, by, bx, /*with_residual=*/false,
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
  check_block_grid(p, by, bx, "lk23_orwl_converged");
  if (max_iters == 0) {
    throw std::invalid_argument("lk23_orwl_converged: max_iters must be > 0");
  }
  ProgramBuilder builder(by * bx, prog_opts);
  // The predicate runs on the all-task residual sum, so every task sees
  // the same value each iteration and the loop terminates uniformly —
  // the per-task iteration budget counts along but never diverges.
  std::atomic<std::size_t> executed{0};
  wire_lk23_tasks(
      builder, p, max_iters, by, bx, /*with_residual=*/true,
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
  check_block_grid(p, by, bx, "lk23_forkjoin");
  // Per sweep, the anti-diagonals of the block grid are processed in
  // order; blocks on one diagonal are independent (their north/west
  // blocks belong to earlier diagonals, already updated this sweep, and
  // their south/east blocks to later ones). So a block reads its halos
  // straight from the grid: they hold exactly the values the sequential
  // sweep would see.
  std::vector<std::pair<std::size_t, std::size_t>> wave;
  for (std::size_t l = 0; l < iters; ++l) {
    for (std::size_t d = 0; d <= by + bx - 2; ++d) {
      // Blocks with bi + bj == d.
      wave.clear();
      for (std::size_t bi = 0; bi < by; ++bi) {
        if (d < bi) continue;
        const std::size_t bj = d - bi;
        if (bj < bx) wave.emplace_back(bi, bj);
      }
      pool.parallel_for(0, wave.size(), [&](std::size_t idx) {
        const auto [bi, bj] = wave[idx];
        sweep_block(grid_block(p, block_geom(p.n, by, bx, bi, bj)));
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
