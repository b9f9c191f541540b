// Microbenchmark of the topology-aware steal executor (rt::StealExecutor)
// under three seed distributions on the SMP20E7 fixture topology.
//
// Eight workers are placed four-per-node on two NUMA nodes of the
// fixture (PUs 0-3 on node 0, PUs 8-11 on node 1). Every work item is a
// fixed ~150us latency (a sleep, deliberately: CI runners and dev
// containers have few cores, and a sleeping item still overlaps across
// workers, so the measurement isolates *distribution quality* — how well
// the executor spreads a lopsided worklist — from host core count).
//
//   balanced    — items dealt round-robin over all 8 workers: stealing
//                 has nothing to fix; measures executor overhead.
//   skewed      — all items split between worker 0 (node 0) and worker 4
//                 (node 1): each node must spread its half locally.
//   single_hot  — all items on worker 0: node 1 can only help by
//                 stealing remotely.
//
// Each distribution runs under ORWL_STEAL=off (the static baseline:
// every worker drains only its own deque — exactly what the static
// task model would do) and under the full locality order (all).
// The `all` variants additionally report:
//
//   speedup_vs_off       wall-time(off) / wall-time(all) for one run,
//                        measured in-process right before the timed loop
//   local_steals         steals served by a same-NUMA-node victim
//   remote_steals        steals that crossed nodes
//
// CI's bench-smoke job gates the skewed row (tools/bench_compare.py
// --min-ratio): locality must hold (local_steals >= remote_steals) and
// stealing must actually beat the static split. Set
// ORWL_BENCH_JSON=<path> for machine-readable output.
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "runtime/steal_executor.hpp"
#include "topo/machines.hpp"

namespace {

using orwl::rt::StealExecutor;
using orwl::rt::StealMode;

constexpr std::size_t kWorkers = 8;
constexpr std::uint64_t kItems = 240;
constexpr std::chrono::microseconds kItemLatency{150};

enum class Dist { Balanced, Skewed, SingleHot };

/// Worker w -> logical PU: four per node on the fixture's first two
/// NUMA nodes (8 single-PU cores per node, so PUs 0-7 are node 0 and
/// PUs 8-15 node 1).
std::vector<StealExecutor::WorkerSpec> worker_specs() {
  std::vector<StealExecutor::WorkerSpec> specs(kWorkers);
  for (std::size_t w = 0; w < kWorkers; ++w) {
    specs[w].pu = static_cast<int>(w < 4 ? w : 8 + (w - 4));
    specs[w].node = w < 4 ? 0 : 1;
  }
  return specs;
}

std::size_t seed_worker(Dist dist, std::uint64_t item) {
  switch (dist) {
    case Dist::Balanced:
      return item % kWorkers;
    case Dist::Skewed:
      return item % 2 == 0 ? 0 : 4;  // one hot deque per node
    case Dist::SingleHot:
      return 0;
  }
  return 0;
}

/// One full session: construct, seed, run all workers to termination.
/// \return The executor's counter snapshot for the run.
StealExecutor::Stats run_once(const orwl::topo::Topology& machine,
                              Dist dist, StealMode mode) {
  StealExecutor::Config cfg;
  cfg.mode = mode;
  StealExecutor ex(machine, worker_specs(), cfg);
  for (std::uint64_t i = 0; i < kItems; ++i) {
    ex.seed(seed_worker(dist, i), i);
  }
  const StealExecutor::ItemFn fn = [](std::uint64_t,
                                      StealExecutor::WorkerContext&) {
    std::this_thread::sleep_for(kItemLatency);
  };
  std::vector<std::thread> threads;
  threads.reserve(kWorkers);
  for (std::size_t w = 0; w < kWorkers; ++w) {
    threads.emplace_back([&ex, &fn, w] { ex.run_worker(w, fn); });
  }
  for (auto& t : threads) t.join();
  return ex.stats();
}

double timed_run_seconds(const orwl::topo::Topology& machine, Dist dist,
                         StealMode mode) {
  const auto start = std::chrono::steady_clock::now();
  run_once(machine, dist, mode);
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

void BM_Steal(benchmark::State& state, Dist dist, StealMode mode) {
  const orwl::topo::Topology machine = orwl::topo::make_smp20e7();

  // The headline counter: how much the steal executor gains over the
  // static split of the same worklist, measured once, in-process, so
  // the two runs share the host's conditions.
  double speedup = 0.0;
  if (mode != StealMode::Off) {
    const double off = timed_run_seconds(machine, dist, StealMode::Off);
    const double with = timed_run_seconds(machine, dist, mode);
    speedup = with > 0.0 ? off / with : 0.0;
  }

  StealExecutor::Stats total;
  for (auto _ : state) {
    const StealExecutor::Stats s = run_once(machine, dist, mode);
    total.executed += s.executed;
    total.local_steals += s.local_steals;
    total.remote_steals += s.remote_steals;
    total.parks += s.parks;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kItems));
  state.counters["executed"] = static_cast<double>(total.executed);
  state.counters["local_steals"] = static_cast<double>(total.local_steals);
  state.counters["remote_steals"] = static_cast<double>(total.remote_steals);
  state.counters["parks"] = static_cast<double>(total.parks);
  if (mode != StealMode::Off) {
    state.counters["speedup_vs_off"] = speedup;
  }
  orwl::bench::annotate_arena_counters(state);
}

}  // namespace

BENCHMARK_CAPTURE(BM_Steal, balanced_off, Dist::Balanced, StealMode::Off)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Steal, balanced_all, Dist::Balanced, StealMode::All)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Steal, skewed_off, Dist::Skewed, StealMode::Off)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Steal, skewed_all, Dist::Skewed, StealMode::All)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Steal, single_hot_off, Dist::SingleHot, StealMode::Off)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Steal, single_hot_all, Dist::SingleHot, StealMode::All)
    ->Unit(benchmark::kMillisecond);

ORWL_BENCH_MAIN()
