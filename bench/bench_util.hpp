// Shared helpers of the benchmark harness.
//
// Every bench binary regenerates one table or figure of the paper's
// evaluation (Sec. VI) and prints the corresponding rows/series. The
// scenarios mirror the paper's configurations:
//
//   ORWL             - the ORWL application, threads left to the OS
//   ORWL (Affinity)  - same, placed by Algorithm 1 (ORWL_AFFINITY=1)
//   OpenMP           - fork-join baseline, unbound
//   OpenMP (Affinity)- fork-join baseline, best of the OMP_PLACES=cores
//                      close/spread bindings (the paper reports only the
//                      best OpenMP strategy)
//   MKL / MKL(scatter) / MKL(compact) - the shared-B GEMM under no
//                      binding / KMP_AFFINITY=scatter / =compact
#pragma once

#include <cstdlib>
#include <string>
#include <vector>

#include "sim/simulator.hpp"
#include "support/table.hpp"
#include "treematch/strategies.hpp"

// Google-Benchmark helpers, only for the micro_* targets (ORWL_USE_GBENCH
// is set by bench/CMakeLists.txt): including <benchmark/benchmark.h> drags
// in a link dependency through its global stream initializer, which the
// figure/table harnesses must not pay.
#ifdef ORWL_USE_GBENCH
#include <benchmark/benchmark.h>

#include "runtime/arena.hpp"
#include "runtime/program.hpp"
#include "runtime/request_queue.hpp"

namespace orwl::bench {

/// Attach the process-default arena's memory counters to a benchmark's
/// JSON row. Micro benches whose queues draw from rt::Arena::
/// runtime_default() call this once per benchmark; bench_compare.py's
/// --require-zero gate reads the keys (a non-zero arena_node_misses
/// means a node-bound slab landed on the wrong node).
inline void annotate_arena_counters(benchmark::State& state) {
  const rt::Arena::Stats s = rt::Arena::runtime_default().stats();
  state.counters["arena_bytes"] = static_cast<double>(s.bytes_reserved);
  state.counters["arena_refills"] = static_cast<double>(s.refills);
  state.counters["arena_node_misses"] = static_cast<double>(s.node_misses);
}

/// Attach accumulated parking counters: futex sleeps entered and wake
/// calls issued, so the JSON records how often the run parked.
inline void annotate_parking_counters(benchmark::State& state,
                                      std::uint64_t futex_waits,
                                      std::uint64_t futex_wakes) {
  state.counters["futex_waits"] = static_cast<double>(futex_waits);
  state.counters["futex_wakes"] = static_cast<double>(futex_wakes);
}

/// Program-level variant: arena + parking counters from ProgramStats
/// (per-shard arenas summed by the runtime). Used by the fixture-driven
/// benches (micro_replace on smp20e7) that the node-miss gate watches.
inline void annotate_runtime_counters(benchmark::State& state,
                                      const rt::ProgramStats& stats) {
  state.counters["arena_bytes"] = static_cast<double>(stats.arena_bytes);
  state.counters["arena_refills"] = static_cast<double>(stats.arena_refills);
  state.counters["arena_node_misses"] =
      static_cast<double>(stats.arena_node_misses);
  annotate_parking_counters(state, stats.futex_waits, stats.futex_wakes);
}

/// Drop-in replacement for BENCHMARK_MAIN() used by the micro_* benches:
/// when ORWL_BENCH_JSON=<path> is set, machine-readable results are also
/// written to <path> (--benchmark_out=<path> --benchmark_out_format=json)
/// while the console reporter stays untouched. CI's bench-smoke job uses
/// this to collect BENCH_*.json artifacts without per-invocation flag
/// plumbing; explicit --benchmark_out flags on the command line win.
inline int bench_main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  std::string out_arg;
  std::string fmt_arg;
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]).rfind("--benchmark_out=", 0) == 0) {
      has_out = true;
    }
  }
  const char* json_path = std::getenv("ORWL_BENCH_JSON");
  if (json_path != nullptr && *json_path != '\0' && !has_out) {
    out_arg = std::string("--benchmark_out=") + json_path;
    fmt_arg = "--benchmark_out_format=json";
    args.push_back(out_arg.data());
    args.push_back(fmt_arg.data());
  }
  int n = static_cast<int>(args.size());
  benchmark::Initialize(&n, args.data());
  if (benchmark::ReportUnrecognizedArguments(n, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

}  // namespace orwl::bench

#define ORWL_BENCH_MAIN()                                  \
  int main(int argc, char** argv) {                        \
    return orwl::bench::bench_main(argc, argv);            \
  }
#endif  // ORWL_USE_GBENCH

namespace orwl::bench {

/// Placement by Algorithm 1 for a workload (control threads included).
inline sim::BindSpec treematch_bind(const sim::MachineModel& m,
                                    const sim::Workload& w) {
  tm::Options opts;
  opts.num_control_threads = w.control_threads;
  return sim::BindSpec::bound(tm::tree_match(m.topology, w.comm, opts));
}

/// Placement by one of the generic strategies.
inline sim::BindSpec strategy_bind(tm::Strategy s,
                                   const sim::MachineModel& m,
                                   const sim::Workload& w) {
  return sim::BindSpec::bound(
      tm::place_strategy(s, m.topology, w.num_threads, &w.comm));
}

/// The paper's "OpenMP (affinity)": best result across the close and
/// spread places=cores bindings.
inline sim::SimResult best_omp_affinity(const sim::MachineModel& m,
                                        const sim::Workload& w) {
  const sim::SimResult close =
      sim::simulate(m, w, strategy_bind(tm::Strategy::CompactCores, m, w));
  const sim::SimResult spread =
      sim::simulate(m, w, strategy_bind(tm::Strategy::ScatterCores, m, w));
  return close.seconds <= spread.seconds ? close : spread;
}

inline std::string fmt_secs(double s) {
  return support::format_double(s, s < 10 ? 2 : 1);
}

inline std::string fmt_gflops(double g) {
  return support::format_double(g, g < 100 ? 1 : 0);
}

/// Counter row formatting consistent with Tables II-IV.
inline std::vector<std::string> counter_row(const std::string& name,
                                            const sim::SimResult& r) {
  return {name, support::format_double(r.counters.l3_misses / 1e9, 1),
          support::format_double(r.counters.stalled_cycles / 1e9, 0),
          support::format_si(r.counters.context_switches, 1),
          support::format_si(r.counters.cpu_migrations, 1)};
}

}  // namespace orwl::bench
