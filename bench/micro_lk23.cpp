// Microbenchmark of the LK-23 sweep (Sec. V-A). Each row reports
// `ns/cell`, the cost of one cell update (the console appends an "s" to
// every inverted rate; the JSON value is bare nanoseconds).
//
//  * BM_Lk23Sequential/n: the kernel alone, 8 sweeps of an n x n grid on
//    one core, sweeping the same grid call after call.
//  * BM_Lk23Orwl: one server_open_loop lk23 request, 8 sweeps of n = 258
//    on 1 x 2 ORWL tasks (affinity off), including the copy of the input
//    and the program's set-up and teardown.
#include "bench_util.hpp"

#include "apps/lk23.hpp"

namespace {

using orwl::apps::Lk23Problem;

constexpr std::size_t kSweeps = 8;

void set_ns_per_cell(benchmark::State& state, std::size_t n) {
  const double cells = static_cast<double>((n - 2) * (n - 2) * kSweeps);
  state.counters["ns/cell"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * cells / 1e9,
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}

void BM_Lk23Sequential(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Lk23Problem p = Lk23Problem::generate(n);
  for (auto _ : state) {
    orwl::apps::lk23_sequential(p, kSweeps);
    benchmark::DoNotOptimize(p.za.data());
    benchmark::ClobberMemory();
  }
  set_ns_per_cell(state, n);
}
BENCHMARK(BM_Lk23Sequential)->Arg(258)->Arg(1026)->Unit(
    benchmark::kMillisecond);

void BM_Lk23Orwl(benchmark::State& state) {
  const std::size_t n = 258;
  const Lk23Problem input = Lk23Problem::generate(n);
  orwl::rt::ProgramOptions o;
  o.affinity = orwl::rt::AffinityMode::Off;
  for (auto _ : state) {
    Lk23Problem p = input;
    orwl::apps::lk23_orwl(p, kSweeps, 1, 2, o);
    benchmark::DoNotOptimize(p.za.data());
    benchmark::ClobberMemory();
  }
  set_ns_per_cell(state, n);
  state.SetLabel("1x2 tasks");
}
BENCHMARK(BM_Lk23Orwl)->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace

ORWL_BENCH_MAIN()
