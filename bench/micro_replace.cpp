// Microbenchmark of the measurement-driven re-placement engine
// (ORWL_REPLACE): a deliberately mis-declared workload whose declared
// communication matrix is the transpose of its actual traffic, run under
// the three replacement policies.
//
// The workload: N tasks on a ring whose edges alternate between two
// kinds of pairs.
//
//   cold pairs (2k, 2k+1)         — share a LARGE location, exchanged
//                                   once per iteration. Declared heavy,
//                                   actually light.
//   hot pairs  (2k+1, 2k+2 mod N) — share a SMALL location, exchanged
//                                   kHotExchanges times per iteration.
//                                   Declared light, actually heavy.
//
// Any grouping that keeps the cold pairs together must cut hot edges
// and vice versa, so Algorithm 1 on the declared matrix splits hot
// pairs across the machine. The meter sees the truth at run time; auto
// mode must recover (most of) the placement quality an oracle with the
// true matrix would reach.
//
// Reported counters (deterministic, host-speed independent):
//
//   cost_oracle    modeled_cost of tree_match on the TRUE matrix
//   cost_final     modeled_cost of the placement the run ended with
//   recovery       cost_oracle / cost_final   (1.0 = oracle quality)
//   replacements   how many times the engine re-placed
//
// CI's bench-smoke gate (tools/bench_compare.py --min-recovery) requires
// recovery >= 0.9 for the auto policy; the off policy demonstrates the
// gap the engine closes. Set ORWL_BENCH_JSON=<path> for JSON output.
#include <cstddef>
#include <vector>

#include "bench_util.hpp"
#include "orwl/orwl.hpp"

namespace {

using namespace orwl;

constexpr std::size_t kTasks = 16;  // 8 cold pairs, 8 hot pairs
constexpr std::size_t kIters = 48;
constexpr std::size_t kHotExchanges = 32;
constexpr std::size_t kColdBytes = 8192;  // declared-heavy, actually cold
constexpr std::size_t kHotBytes = 2048;   // declared-light, actually hot

/// The TRUE per-iteration communication matrix of the workload above.
tm::CommMatrix true_matrix() {
  tm::CommMatrix m(kTasks);
  for (std::size_t k = 0; k < kTasks / 2; ++k) {
    m.set(2 * k, 2 * k + 1, static_cast<double>(kColdBytes));
    m.set(2 * k + 1, (2 * k + 2) % kTasks,
          static_cast<double>(kHotExchanges * kHotBytes));
  }
  return m;
}

/// Run the mis-declared workload under `mode`; returns the runtime
/// placement the program finished with.
tm::Placement run_workload(const topo::Topology& machine,
                           rt::ReplaceMode mode, rt::ProgramStats* stats) {
  rt::ProgramOptions o;
  o.topology = &machine;
  o.affinity = rt::AffinityMode::On;
  o.bind_threads = false;  // placement-only: CI hosts are tiny
  o.locations_per_task = 2;
  o.acquire_timeout_ms = 60000;
  o.replace = mode;
  o.replace_interval = 2;
  o.replace_threshold = 0.1;

  Program prog(kTasks, o);
  for (TaskId t = 0; t < kTasks; ++t) {
    prog.set_task_body(t, [](Task& task) {
      const TaskId t = task.id();
      // Cold pair (2k, 2k+1): the even task owns slot 0.
      WriteLink<std::byte[]> cold_w;
      ReadLink<std::byte[]> cold_r;
      if (t % 2 == 0) {
        task.my<std::byte[]>(0).scale(kColdBytes);
        cold_w = task.write<std::byte[]>(loc(t, 0), 0);
      } else {
        cold_r = task.read<std::byte[]>(loc(t - 1, 0), 1);
      }
      // Hot pair (2k+1, 2k+2 mod N): the odd task owns slot 1; its even
      // ring successor reads it.
      WriteLink<std::byte[]> hot_w;
      ReadLink<std::byte[]> hot_r;
      if (t % 2 == 1) {
        task.my<std::byte[]>(1).scale(kHotBytes);
        hot_w = task.write<std::byte[]>(loc(t, 1), 0);
      } else {
        hot_r = task.read<std::byte[]>(loc((t + kTasks - 1) % kTasks, 1), 1);
      }
      task.schedule();
      task.run_iterations(kIters, [&](std::size_t) {
        if (t % 2 == 0) {
          WriteGuard<std::byte[]> g(cold_w);
        } else {
          ReadGuard<std::byte[]> g(cold_r);
        }
        for (std::size_t e = 0; e < kHotExchanges; ++e) {
          if (t % 2 == 1) {
            WriteGuard<std::byte[]> g(hot_w);
          } else {
            ReadGuard<std::byte[]> g(hot_r);
          }
        }
      });
    });
  }
  prog.run();
  *stats = prog.stats();
  return prog.runtime().placement();
}

void bench_replace(benchmark::State& state, rt::ReplaceMode mode) {
  const topo::Topology machine = topo::make_smp20e7();
  support::ScopedEnv emu(support::knob::kMemBind.name, "emulate");
  const tm::CommMatrix truth = true_matrix();
  const tm::Placement oracle = tm::tree_match(machine, truth);
  const double cost_oracle = tm::modeled_cost(machine, truth, oracle);

  double cost_final = 0.0;
  rt::ProgramStats stats;
  for (auto _ : state) {
    const tm::Placement final = run_workload(machine, mode, &stats);
    cost_final = tm::modeled_cost(machine, truth, final);
  }
  // Hand-offs per second: every exchange is a release -> acquire pair.
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) * kIters *
      static_cast<std::int64_t>(kTasks / 2) * (kHotExchanges + 1) * 2);

  state.counters["cost_oracle"] = cost_oracle;
  state.counters["cost_final"] = cost_final;
  state.counters["recovery"] = cost_final > 0.0
                                   ? cost_oracle / cost_final
                                   : 1.0;  // 0 cost: nothing to recover
  state.counters["replacements"] = static_cast<double>(stats.replacements);
  state.counters["replace_triggers"] =
      static_cast<double>(stats.replace_triggers);
  // Arena + parking counters of the last run: CI gates
  // arena_node_misses == 0 on this fixture (emulated nodes are not
  // misses; a real mis-bound slab would be).
  bench::annotate_runtime_counters(state, stats);
}

void BM_MisdeclaredWorkload_off(benchmark::State& state) {
  bench_replace(state, rt::ReplaceMode::Off);
}
BENCHMARK(BM_MisdeclaredWorkload_off)->Unit(benchmark::kMillisecond);

void BM_MisdeclaredWorkload_passive(benchmark::State& state) {
  bench_replace(state, rt::ReplaceMode::Passive);
}
BENCHMARK(BM_MisdeclaredWorkload_passive)->Unit(benchmark::kMillisecond);

void BM_MisdeclaredWorkload_auto(benchmark::State& state) {
  bench_replace(state, rt::ReplaceMode::Auto);
}
BENCHMARK(BM_MisdeclaredWorkload_auto)->Unit(benchmark::kMillisecond);

}  // namespace

ORWL_BENCH_MAIN();
