#include <gtest/gtest.h>

#include "apps/dgemm.hpp"
#include "apps/matmul.hpp"

namespace {

using namespace orwl::apps;

orwl::rt::ProgramOptions quiet() {
  orwl::rt::ProgramOptions o;
  o.affinity = orwl::rt::AffinityMode::Off;
  o.acquire_timeout_ms = 30000;
  return o;
}

void expect_close(const std::vector<double>& a,
                  const std::vector<double>& b, double tol = 1e-9) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_NEAR(a[i], b[i], tol) << "element " << i;
  }
}

TEST(Matmul, GenerateValidates) {
  EXPECT_THROW(MatmulProblem::generate(0), std::invalid_argument);
  const auto p = MatmulProblem::generate(8);
  EXPECT_EQ(p.a.size(), 64u);
  EXPECT_EQ(p.c.size(), 64u);
}

struct MatmulCase {
  std::size_t n, tasks;
};

class MatmulOrwlTest : public ::testing::TestWithParam<MatmulCase> {};

TEST_P(MatmulOrwlTest, MatchesSequential) {
  const auto [n, tasks] = GetParam();
  auto seq = MatmulProblem::generate(n);
  auto par = MatmulProblem::generate(n);
  matmul_sequential(seq);
  matmul_orwl(par, tasks, quiet());
  expect_close(seq.c, par.c);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MatmulOrwlTest,
    ::testing::Values(MatmulCase{8, 1}, MatmulCase{8, 2}, MatmulCase{8, 4},
                      MatmulCase{16, 4}, MatmulCase{24, 3},
                      MatmulCase{32, 8}, MatmulCase{48, 6},
                      MatmulCase{64, 16}));

// The cases above compare against matmul_sequential, which runs the same
// dgemm kernel, and are all smaller than one of its k-panels (128). This
// one spans three k-panels and a row block (nb = 75, k = 300) and checks
// against the triple-loop product.
TEST(MatmulOrwl, MatchesNaiveAtFullTiles) {
  const std::size_t n = 300, tasks = 4;
  auto par = MatmulProblem::generate(n);
  matmul_orwl(par, tasks, quiet());
  std::vector<double> ref(n * n, 0.0);
  dgemm_naive(n, n, n, par.a.data(), n, par.b.data(), n, ref.data(), n);
  expect_close(ref, par.c);
}

TEST(Matmul, OrwlRejectsBadTaskCount) {
  auto p = MatmulProblem::generate(8);
  EXPECT_THROW(matmul_orwl(p, 0, quiet()), std::invalid_argument);
  EXPECT_THROW(matmul_orwl(p, 3, quiet()), std::invalid_argument);  // 8 % 3
}

TEST(Matmul, ForkJoinMatchesSequential) {
  auto seq = MatmulProblem::generate(32);
  auto par = MatmulProblem::generate(32);
  matmul_sequential(seq);
  orwl::pool::ThreadPool pool(4);
  matmul_forkjoin(par, pool);
  expect_close(seq.c, par.c);
}

TEST(Matmul, OrwlWithAffinityEnabledStillCorrect) {
  auto seq = MatmulProblem::generate(16);
  auto par = MatmulProblem::generate(16);
  matmul_sequential(seq);
  orwl::rt::ProgramOptions o;
  o.affinity = orwl::rt::AffinityMode::On;
  o.acquire_timeout_ms = 30000;
  matmul_orwl(par, 4, o);
  expect_close(seq.c, par.c);
}

TEST(MatmulOrwl, ReportsProgramStats) {
  // The ring hands every B block on through a lock, so the run grants;
  // with affinity on (the host topology) its task threads are bound.
  auto p = MatmulProblem::generate(16);
  orwl::rt::ProgramStats off;
  matmul_orwl(p, 4, quiet(), &off);
  EXPECT_GT(off.control_inline_grants, 0u);
  EXPECT_FALSE(off.affinity_applied);
  EXPECT_EQ(off.compute_threads_bound, 0u);

  orwl::rt::ProgramOptions o;
  o.affinity = orwl::rt::AffinityMode::On;
  o.acquire_timeout_ms = 30000;
  orwl::rt::ProgramStats on;
  matmul_orwl(p, 4, o, &on);
  EXPECT_GT(on.control_inline_grants, 0u);
  EXPECT_TRUE(on.affinity_applied);
  EXPECT_GT(on.compute_threads_bound, 0u);
}

TEST(Matmul, CommMatrixIsRing) {
  const auto m = matmul_comm_matrix(32, 8);
  ASSERT_EQ(m.order(), 8u);
  const double slot_bytes = 32.0 * 4.0 * 8.0;  // n * nb * sizeof(double)
  for (std::size_t t = 0; t < 8; ++t) {
    // Ring edge to the successor.
    EXPECT_DOUBLE_EQ(m.at(t, (t + 1) % 8), slot_bytes) << "edge " << t;
  }
  // No chords.
  EXPECT_DOUBLE_EQ(m.at(0, 2), 0.0);
  EXPECT_DOUBLE_EQ(m.at(1, 5), 0.0);
}

TEST(Matmul, CommMatrixSingleTask) {
  const auto m = matmul_comm_matrix(8, 1);
  EXPECT_EQ(m.order(), 1u);
  EXPECT_DOUBLE_EQ(m.total_volume(), 0.0);
}

}  // namespace
