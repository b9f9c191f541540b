#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "apps/lk23.hpp"
#include "apps/lk23_kernel.hpp"
#include "support/rng.hpp"

namespace {

using namespace orwl::apps;
using lk23_detail::BlockGeom;

orwl::rt::ProgramOptions quiet() {
  orwl::rt::ProgramOptions o;
  o.affinity = orwl::rt::AffinityMode::Off;
  o.acquire_timeout_ms = 30000;
  return o;
}

// ------------------------------------------------- reference kernel ----

/// The raster-order scalar sweep, one cell at a time, on its own copy of
/// Lk23Problem::generate's grids (same generator, same fill order). The
/// library's skewed kernel must reproduce it bit for bit.
struct Reference {
  std::size_t n;
  std::vector<double> za, zb, zr, zu, zv, zz;

  explicit Reference(std::size_t n_, std::uint64_t seed = 7) : n(n_) {
    orwl::support::SplitMix64 rng(seed);
    auto fill = [&](std::vector<double>& v, double scale) {
      v.resize(n * n);
      for (auto& x : v) x = scale * (rng.uniform() - 0.5);
    };
    fill(za, 1.0);
    fill(zb, 0.05);
    fill(zr, 0.05);
    fill(zu, 0.05);
    fill(zv, 0.05);
    fill(zz, 0.1);
  }

  /// One sweep of the interior; returns the sum of squared cell updates
  /// in raster order.
  double sweep() { return sweep({1, n - 1, 1, n - 1}); }

  /// One sweep of the block `g` alone.
  double sweep(const BlockGeom& g) {
    double residual = 0.0;
    for (std::size_t j = g.r0; j < g.r1; ++j) {
      for (std::size_t k = g.c0; k < g.c1; ++k) {
        const std::size_t i = j * n + k;
        const double qa = za[i + n] * zr[i] + za[i - n] * zb[i] +
                          za[i + 1] * zu[i] + za[i - 1] * zv[i] + zz[i];
        const double before = za[i];
        za[i] += 0.175 * (qa - za[i]);
        const double d = za[i] - before;
        residual += d * d;
      }
    }
    return residual;
  }
};

std::vector<double> reference_za(std::size_t n, std::size_t iters) {
  Reference r(n);
  for (std::size_t l = 0; l < iters; ++l) r.sweep();
  return r.za;
}

TEST(Lk23, ReferenceStartsFromTheGeneratedState) {
  for (std::size_t n : {3u, 9u, 34u}) {
    EXPECT_EQ(Reference(n).za, Lk23Problem::generate(n).za) << "n=" << n;
  }
}

TEST(Lk23, SequentialMatchesScalarReference) {
  // Sizes around the 4-row groups and the 6-column (kRows + 2) threshold
  // of the steady loop, plus the server's request (258) with its 8 sweeps.
  for (std::size_t n : {3u, 4u, 5u, 6u, 7u, 9u, 34u, 67u, 258u}) {
    const std::size_t iters = n == 258 ? 8 : 3;
    auto p = Lk23Problem::generate(n);
    lk23_sequential(p, iters);
    EXPECT_EQ(p.za, reference_za(n, iters)) << "n=" << n;
  }
}

class Lk23KernelTest : public ::testing::TestWithParam<BlockGeom> {};

TEST_P(Lk23KernelTest, ReadsItsHalosNotTheGridAroundTheBlock) {
  // The grid cells around the block hold a poison value and the halos
  // hold other values: the kernel must read only the halos. The
  // reference sweeps the block with the halo values written around it.
  constexpr double kPoison = 1e3;
  const std::size_t n = 20;
  const BlockGeom g = GetParam();
  std::vector<double> north(g.w()), south(g.w()), west(g.h()), east(g.h());
  for (std::size_t k = 0; k < g.w(); ++k) {
    north[k] = 0.3 + 0.01 * static_cast<double>(k);
    south[k] = -0.2 + 0.02 * static_cast<double>(k);
  }
  for (std::size_t j = 0; j < g.h(); ++j) {
    west[j] = 0.4 - 0.03 * static_cast<double>(j);
    east[j] = -0.1 - 0.01 * static_cast<double>(j);
  }
  Reference ref(n);
  auto p = Lk23Problem::generate(n);
  const auto around = [&](auto&& visit) {
    for (std::size_t k = 0; k < g.w(); ++k) {
      visit((g.r0 - 1) * n + g.c0 + k, north[k]);
      visit(g.r1 * n + g.c0 + k, south[k]);
    }
    for (std::size_t j = 0; j < g.h(); ++j) {
      visit((g.r0 + j) * n + g.c0 - 1, west[j]);
      visit((g.r0 + j) * n + g.c1, east[j]);
    }
  };
  around([&](std::size_t i, double halo) {
    ref.za[i] = halo;
    p.za[i] = kPoison;
  });
  ref.sweep(g);
  lk23_detail::sweep_block({p.za.data(), p.coefficients.get(), n, g,
                            north.data(), south.data(), west.data(),
                            east.data(), 1});
  around([&](std::size_t i, double) { ref.za[i] = kPoison; });
  EXPECT_EQ(p.za, ref.za);
}

INSTANTIATE_TEST_SUITE_P(
    Blocks, Lk23KernelTest,
    ::testing::Values(BlockGeom{1, 19, 1, 19},  // the whole interior
                      BlockGeom{4, 14, 3, 12},  // 2 groups + 2 rows
                      BlockGeom{2, 10, 5, 10},  // 5 columns: no steady step
                      BlockGeom{2, 5, 2, 5},    // narrow, leftover rows only
                      BlockGeom{7, 8, 7, 8}));  // one cell

TEST(Lk23, CopiesShareTheCoefficients) {
  const auto p = Lk23Problem::generate(9);
  Lk23Problem q = p;
  EXPECT_EQ(q.coefficients, p.coefficients);
  lk23_sequential(q, 2);
  EXPECT_EQ(p.za, Lk23Problem::generate(9).za) << "the copy swept alone";
  EXPECT_EQ(q.za, reference_za(9, 2));
}

TEST(Lk23, RejectsAProblemWithoutCoefficients) {
  Lk23Problem p;
  p.n = 8;
  p.za.assign(64, 0.0);
  EXPECT_THROW(lk23_sequential(p, 1), std::invalid_argument);
  EXPECT_THROW(lk23_orwl(p, 1, 1, 1, quiet()), std::invalid_argument);
}

TEST(Lk23, GenerateValidatesSize) {
  EXPECT_THROW(Lk23Problem::generate(2), std::invalid_argument);
  const auto p = Lk23Problem::generate(8);
  EXPECT_EQ(p.za.size(), 64u);
}

TEST(Lk23, SequentialChangesInterior) {
  auto p = Lk23Problem::generate(16);
  const auto before = p.za;
  lk23_sequential(p, 3);
  // Boundary ring untouched.
  for (std::size_t k = 0; k < 16; ++k) {
    EXPECT_EQ(p.za[k], before[k]);
    EXPECT_EQ(p.za[15 * 16 + k], before[15 * 16 + k]);
    EXPECT_EQ(p.za[k * 16], before[k * 16]);
    EXPECT_EQ(p.za[k * 16 + 15], before[k * 16 + 15]);
  }
  // Interior changed somewhere.
  EXPECT_NE(p.za, before);
}

TEST(Lk23, SequentialIsDeterministic) {
  auto p1 = Lk23Problem::generate(20);
  auto p2 = Lk23Problem::generate(20);
  lk23_sequential(p1, 5);
  lk23_sequential(p2, 5);
  EXPECT_EQ(p1.za, p2.za);
}

struct Lk23Case {
  std::size_t n, iters, by, bx;
};

class Lk23OrwlTest : public ::testing::TestWithParam<Lk23Case> {};

TEST_P(Lk23OrwlTest, BitIdenticalToSequential) {
  const auto [n, iters, by, bx] = GetParam();
  auto par = Lk23Problem::generate(n);
  lk23_orwl(par, iters, by, bx, quiet());
  EXPECT_EQ(reference_za(n, iters), par.za)
      << "Gauss-Seidel wavefront must reproduce the sequential sweep "
         "exactly";
}

// Besides the shapes of the wavefront, these cover the kernel's paths:
// rows per block that are not a multiple of its 4-row groups (leftover
// rows) and blocks narrower than 6 columns (kRows + 2: no steady loop).
INSTANTIATE_TEST_SUITE_P(
    Sweep, Lk23OrwlTest,
    ::testing::Values(Lk23Case{10, 1, 1, 1},   // single block
                      Lk23Case{10, 3, 2, 2},   // 2x2 blocks
                      Lk23Case{18, 4, 2, 4},   // rectangular grid
                      Lk23Case{18, 4, 4, 2},
                      Lk23Case{33, 2, 3, 3},   // uneven block sizes
                      Lk23Case{16, 6, 1, 4},   // column strips
                      Lk23Case{16, 6, 4, 1},   // row strips
                      Lk23Case{40, 2, 5, 5},
                      Lk23Case{258, 8, 1, 2},  // the server's request
                      Lk23Case{9, 3, 3, 1},    // 2-3 rows per block
                      Lk23Case{9, 3, 1, 3},    // 2-3 columns per block
                      Lk23Case{9, 3, 5, 3},
                      Lk23Case{34, 3, 3, 1},   // 10-11 rows per block
                      Lk23Case{34, 3, 1, 3},
                      Lk23Case{34, 3, 5, 3}));

class Lk23ForkJoinTest : public ::testing::TestWithParam<Lk23Case> {};

TEST_P(Lk23ForkJoinTest, BitIdenticalToSequential) {
  const auto [n, iters, by, bx] = GetParam();
  auto par = Lk23Problem::generate(n);
  orwl::pool::ThreadPool pool(4);
  lk23_forkjoin(par, iters, by, bx, pool);
  EXPECT_EQ(reference_za(n, iters), par.za);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, Lk23ForkJoinTest,
    ::testing::Values(Lk23Case{10, 3, 2, 2}, Lk23Case{18, 4, 3, 2},
                      Lk23Case{33, 2, 4, 4}, Lk23Case{16, 5, 1, 1},
                      Lk23Case{258, 8, 1, 2}, Lk23Case{9, 3, 3, 1},
                      Lk23Case{9, 3, 1, 3}, Lk23Case{9, 3, 5, 3},
                      Lk23Case{34, 3, 3, 1}, Lk23Case{34, 3, 1, 3},
                      Lk23Case{34, 3, 5, 3}));

TEST(Lk23, OrwlRejectsBadBlockGrid) {
  auto p = Lk23Problem::generate(8);
  EXPECT_THROW(lk23_orwl(p, 1, 0, 2, quiet()), std::invalid_argument);
  EXPECT_THROW(lk23_orwl(p, 1, 7, 1, quiet()), std::invalid_argument);
}

TEST(Lk23, ConvergedMatchesFixedSweepsWhenToleranceIsUnreachable) {
  // tol = 0 can never be met (the residual stays positive while cells
  // still move), so the converged driver must cap at max_iters and
  // produce the exact fixed-count result.
  auto seq = Lk23Problem::generate(24);
  auto par = Lk23Problem::generate(24);
  lk23_sequential(seq, 4);
  const std::size_t ran = lk23_orwl_converged(par, 0.0, 4, 2, 2, quiet());
  EXPECT_EQ(ran, 4u);
  EXPECT_EQ(seq.za, par.za);
}

TEST(Lk23, ConvergedStopsEarlyOnLooseTolerance) {
  // A huge tolerance is met after the very first sweep; the state then
  // equals one sequential sweep bit-for-bit.
  auto seq = Lk23Problem::generate(24);
  auto par = Lk23Problem::generate(24);
  lk23_sequential(seq, 1);
  const std::size_t ran = lk23_orwl_converged(par, 1e30, 100, 2, 2, quiet());
  EXPECT_EQ(ran, 1u);
  EXPECT_EQ(seq.za, par.za);
}

TEST(Lk23, ConvergedStopsAtTheReferenceResidualsSweep) {
  // The residual is the raster-order sum of squared updates. On one
  // block it is exactly the reference's, so a tolerance equal to the
  // third sweep's residual stops the run after that sweep and no other;
  // on 2x2 blocks the per-block sums are added, so the tolerance sits
  // between the second and third residuals.
  const std::size_t n = 34;
  Reference ref(n);
  std::vector<double> residual;
  for (int l = 0; l < 4; ++l) residual.push_back(ref.sweep());
  ASSERT_GT(residual[1], residual[2]);
  ASSERT_GT(residual[2], residual[3]);
  const std::vector<double> after3 = reference_za(n, 3);

  auto one = Lk23Problem::generate(n);
  EXPECT_EQ(lk23_orwl_converged(one, residual[2], 50, 1, 1, quiet()), 3u);
  EXPECT_EQ(one.za, after3);

  auto four = Lk23Problem::generate(n);
  const double tol = 0.5 * (residual[1] + residual[2]);
  EXPECT_EQ(lk23_orwl_converged(four, tol, 50, 2, 2, quiet()), 3u);
  EXPECT_EQ(four.za, after3);
}

TEST(Lk23, ConvergedValidatesArguments) {
  auto p = Lk23Problem::generate(8);
  EXPECT_THROW(lk23_orwl_converged(p, 0.0, 0, 2, 2, quiet()),
               std::invalid_argument);
  EXPECT_THROW(lk23_orwl_converged(p, 0.0, 1, 0, 2, quiet()),
               std::invalid_argument);
}

TEST(Lk23, OrwlWithAffinityEnabledStillCorrect) {
  // End-to-end: the affinity module on, real binding on the host.
  auto seq = Lk23Problem::generate(24);
  auto par = Lk23Problem::generate(24);
  lk23_sequential(seq, 3);
  orwl::rt::ProgramOptions o;
  o.affinity = orwl::rt::AffinityMode::On;
  o.acquire_timeout_ms = 30000;
  lk23_orwl(par, 3, 2, 2, o);
  EXPECT_EQ(seq.za, par.za);
}

TEST(Lk23, OpsCommMatrixStructure) {
  // 2x2 blocks -> 16 threads. Check the signature structure of the
  // paper's decomposition: the 4 ops of one block communicate heavily;
  // neighbor blocks only via thin halos.
  const std::size_t n = 66;  // 64x64 interior, 32x32 blocks
  const auto m = lk23_ops_comm_matrix(n, 2, 2);
  ASSERT_EQ(m.order(), 16u);

  // Intra-block: center (4b) <-> border handlers (4b+1, 4b+2) move whole
  // blocks; gatherer (4b+3) -> center moves the halo frame.
  const double block_bytes = 32.0 * 32.0 * 8.0;
  for (std::size_t b = 0; b < 4; ++b) {
    EXPECT_DOUBLE_EQ(m.at(4 * b, 4 * b + 1), block_bytes);
    EXPECT_DOUBLE_EQ(m.at(4 * b, 4 * b + 2), block_bytes);
    EXPECT_GT(m.at(4 * b, 4 * b + 3), 0.0);
  }
  // Inter-block: gatherer of block 0 reads halos from block 1 (east) and
  // block 2 (south) border handlers.
  EXPECT_GT(m.at(3, 4 + 2), 0.0);   // block0 gatherer <- block1 col-handler
  EXPECT_GT(m.at(3, 8 + 1), 0.0);   // block0 gatherer <- block2 row-handler
  // No direct center-center communication.
  EXPECT_DOUBLE_EQ(m.at(0, 4), 0.0);
  // Intra-block volume dominates inter-block volume.
  double intra = 0, inter = 0;
  for (std::size_t i = 0; i < 16; ++i) {
    for (std::size_t j = i + 1; j < 16; ++j) {
      if (i / 4 == j / 4) {
        intra += m.at(i, j);
      } else {
        inter += m.at(i, j);
      }
    }
  }
  EXPECT_GT(intra, 5.0 * inter);
}

}  // namespace
