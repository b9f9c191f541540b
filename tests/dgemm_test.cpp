#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "apps/dgemm.hpp"
#include "support/rng.hpp"

namespace {

using namespace orwl::apps;
using orwl::support::SplitMix64;

std::vector<double> random_matrix(std::size_t rows, std::size_t cols,
                                  std::uint64_t seed) {
  std::vector<double> m(rows * cols);
  SplitMix64 rng(seed);
  for (auto& x : m) x = rng.uniform() - 0.5;
  return m;
}

void expect_close(const std::vector<double>& a,
                  const std::vector<double>& b, double tol = 1e-10) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_NEAR(a[i], b[i], tol) << "element " << i;
  }
}

TEST(Dgemm, TinyKnownProduct) {
  // [1 2; 3 4] * [5 6; 7 8] = [19 22; 43 50]
  const std::vector<double> a{1, 2, 3, 4};
  const std::vector<double> b{5, 6, 7, 8};
  std::vector<double> c(4, 0.0);
  dgemm(2, 2, 2, a.data(), 2, b.data(), 2, c.data(), 2);
  expect_close(c, {19, 22, 43, 50});
}

TEST(Dgemm, AccumulatesIntoC) {
  const std::vector<double> a{1, 0, 0, 1};
  const std::vector<double> b{2, 3, 4, 5};
  std::vector<double> c{10, 10, 10, 10};
  dgemm(2, 2, 2, a.data(), 2, b.data(), 2, c.data(), 2);
  expect_close(c, {12, 13, 14, 15});
}

struct GemmCase {
  std::size_t m, n, k;
};

using Kernel = void (*)(std::size_t, std::size_t, std::size_t,
                        const double*, std::size_t, const double*,
                        std::size_t, double*, std::size_t);

/// dgemm() runs the kernel this CPU supports; dgemm_portable() is the
/// fallback, checked here on every CPU.
struct NamedKernel {
  const char* name;
  Kernel run;
};
constexpr NamedKernel kKernels[] = {{"dgemm", dgemm},
                                    {"dgemm_portable", dgemm_portable}};

class DgemmShapeTest : public ::testing::TestWithParam<GemmCase> {};

TEST_P(DgemmShapeTest, MatchesNaiveReference) {
  const auto [m, n, k] = GetParam();
  const auto a = random_matrix(m, k, 1);
  const auto b = random_matrix(k, n, 2);
  std::vector<double> c_naive(m * n, 0.5);
  dgemm_naive(m, n, k, a.data(), k, b.data(), n, c_naive.data(), n);
  for (const NamedKernel& kernel : kKernels) {
    SCOPED_TRACE(kernel.name);
    std::vector<double> c_blocked(m * n, 0.5);
    kernel.run(m, n, k, a.data(), k, b.data(), n, c_blocked.data(), n);
    expect_close(c_blocked, c_naive);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, DgemmShapeTest,
    ::testing::Values(GemmCase{1, 1, 1}, GemmCase{3, 5, 7},
                      GemmCase{16, 16, 16}, GemmCase{64, 64, 64},
                      GemmCase{65, 63, 130},  // straddles all block sizes
                      GemmCase{128, 256, 128}, GemmCase{100, 1, 50},
                      GemmCase{1, 300, 20},
                      // One AVX2 register tile (6 x 8) and one k-panel
                      // (KC = 128); then a tile short of rows over two.
                      GemmCase{6, 8, 128}, GemmCase{4, 8, 256},
                      // m, n off the tile, k one past two k-panels.
                      GemmCase{5, 9, 257},
                      // n past a column panel (NC = 256), k past four
                      // k-panels, none a multiple of a tile or block.
                      GemmCase{67, 263, 515},
                      // m past a row block (MC = 72) as well.
                      GemmCase{80, 300, 600}));

TEST(Dgemm, MatmulPhaseCallLeavesOtherCellsUntouched) {
  // One phase of matmul_orwl at n = 300 with 4 tasks: a row block of A
  // (lda = n) times a dense n x nb column block of B (ldb = nb) into the
  // block of C at rows t * nb, columns cb * nb (ldc = n). nb = 75 ends
  // off every tile and block, k = 300 spans three k-panels.
  const std::size_t n = 300, nb = 75, t = 1, cb = 2;
  const auto a = random_matrix(n, n, 3);
  const auto b = random_matrix(n, nb, 4);
  const auto c0 = random_matrix(n, n, 5);
  const double* a_rows = a.data() + t * nb * n;
  const std::size_t off = t * nb * n + cb * nb;
  std::vector<double> c_naive = c0;
  dgemm_naive(nb, nb, n, a_rows, n, b.data(), nb, c_naive.data() + off, n);
  for (const NamedKernel& kernel : kKernels) {
    SCOPED_TRACE(kernel.name);
    std::vector<double> c_blocked = c0;
    kernel.run(nb, nb, n, a_rows, n, b.data(), nb, c_blocked.data() + off,
               n);
    expect_close(c_blocked, c_naive);
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t col = 0; col < n; ++col) {
        const bool in_block = r / nb == t && col / nb == cb;
        if (!in_block) {
          ASSERT_EQ(c_blocked[r * n + col], c0[r * n + col])
              << "row " << r << " col " << col;
        }
      }
    }
  }
}

TEST(Dgemm, ZeroExtentIsNoOp) {
  const auto a = random_matrix(8, 8, 6);
  const auto b = random_matrix(8, 8, 7);
  const auto c0 = random_matrix(8, 8, 8);
  for (const NamedKernel& kernel : kKernels) {
    for (const GemmCase g : {GemmCase{0, 8, 8}, GemmCase{8, 0, 8},
                             GemmCase{8, 8, 0}, GemmCase{0, 0, 0}}) {
      std::vector<double> c = c0;
      kernel.run(g.m, g.n, g.k, a.data(), 8, b.data(), 8, c.data(), 8);
      EXPECT_EQ(c, c0) << kernel.name << " " << g.m << "x" << g.n << "x"
                       << g.k;
    }
  }
}

TEST(Dgemm, NamesTheKernelItRuns) {
  const std::string isa = dgemm_isa();
  EXPECT_TRUE(isa == "avx2+fma" || isa == "portable") << isa;
}

TEST(Dgemm, StridedSubmatrix) {
  // Multiply a 2x2 corner embedded in 4-wide storage.
  const std::size_t ld = 4;
  std::vector<double> a(2 * ld, 0.0), b(2 * ld, 0.0), c(2 * ld, 0.0);
  a[0] = 1;
  a[1] = 2;
  a[ld] = 3;
  a[ld + 1] = 4;
  b[0] = 5;
  b[1] = 6;
  b[ld] = 7;
  b[ld + 1] = 8;
  dgemm(2, 2, 2, a.data(), ld, b.data(), ld, c.data(), ld);
  EXPECT_DOUBLE_EQ(c[0], 19);
  EXPECT_DOUBLE_EQ(c[1], 22);
  EXPECT_DOUBLE_EQ(c[ld], 43);
  EXPECT_DOUBLE_EQ(c[ld + 1], 50);
  // Untouched cells stay zero.
  EXPECT_DOUBLE_EQ(c[2], 0);
  EXPECT_DOUBLE_EQ(c[ld + 3], 0);
}

}  // namespace
