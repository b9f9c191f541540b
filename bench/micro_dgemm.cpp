// Microbenchmark of the packed DGEMM kernel (the MKL substitute). Each
// row's label names the instantiation that ran ("avx2+fma" or
// "portable", see dgemm_isa()).
#include "bench_util.hpp"

#include <vector>

#include "apps/dgemm.hpp"
#include "support/rng.hpp"

namespace {

std::vector<double> random_values(std::size_t count, std::uint64_t seed) {
  orwl::support::SplitMix64 rng(seed);
  std::vector<double> v(count);
  for (auto& x : v) x = rng.uniform();
  return v;
}

void set_gflops(benchmark::State& state, std::size_t m, std::size_t n,
                std::size_t k) {
  state.counters["GFLOP/s"] = benchmark::Counter(
      2.0 * static_cast<double>(m) * static_cast<double>(n) *
          static_cast<double>(k) * static_cast<double>(state.iterations()) /
          1e9,
      benchmark::Counter::kIsRate);
}

void BM_Dgemm(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const auto a = random_values(n * n, 1);
  const auto b = random_values(n * n, 3);
  std::vector<double> c(n * n, 0.0);
  for (auto _ : state) {
    orwl::apps::dgemm(n, n, n, a.data(), n, b.data(), n, c.data(), n);
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  set_gflops(state, n, n, n);
  state.SetLabel(orwl::apps::dgemm_isa());
}
BENCHMARK(BM_Dgemm)->Arg(128)->Arg(256)->Arg(512)
    ->Unit(benchmark::kMillisecond);

// One phase of matmul_orwl at n = 1024 with 4 tasks: a 256-row block of
// A (lda = 1024) times a packed 1024 x 256 B block (ldb = 256) into a
// 256 x 256 block of C inside the full 1024-wide matrix (ldc = 1024).
template <auto Kernel>
void matmul_phase(benchmark::State& state, const char* label) {
  constexpr std::size_t n = 1024, nb = 256;
  const auto a = random_values(nb * n, 1);
  const auto b = random_values(n * nb, 3);
  std::vector<double> c(nb * n, 0.0);
  for (auto _ : state) {
    Kernel(nb, nb, n, a.data(), n, b.data(), nb, c.data() + nb, n);
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  set_gflops(state, nb, nb, n);
  state.SetLabel(label);
}

void BM_DgemmMatmulPhase(benchmark::State& state) {
  matmul_phase<orwl::apps::dgemm>(state, orwl::apps::dgemm_isa());
}
BENCHMARK(BM_DgemmMatmulPhase)->Unit(benchmark::kMillisecond);

// The same call on the baseline-ISA fallback, whatever this CPU picks.
void BM_DgemmMatmulPhasePortable(benchmark::State& state) {
  matmul_phase<orwl::apps::dgemm_portable>(state, "portable");
}
BENCHMARK(BM_DgemmMatmulPhasePortable)->Unit(benchmark::kMillisecond);

void BM_DgemmNaive(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const auto a = random_values(n * n, 2);
  const auto b = random_values(n * n, 4);
  std::vector<double> c(n * n, 0.0);
  for (auto _ : state) {
    orwl::apps::dgemm_naive(n, n, n, a.data(), n, b.data(), n, c.data(),
                            n);
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  set_gflops(state, n, n, n);
}
BENCHMARK(BM_DgemmNaive)->Arg(128)->Arg(256)
    ->Unit(benchmark::kMillisecond);

}  // namespace

ORWL_BENCH_MAIN();
