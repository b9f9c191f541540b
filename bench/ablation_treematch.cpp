// Ablation of Algorithm 1's design choices:
//   1. control-thread management (hyperthread siblings / spare cores)
//      on vs. off,
//   2. exact vs. greedy grouping engine,
//   3. Algorithm 1 vs. the generic strategies,
// measured both as modeled hop-cost and as simulated execution time on
// the two testbeds, using the real application matrices.
#include <cstdio>

#include "apps/workloads.hpp"
#include "bench_util.hpp"

namespace {

using namespace orwl;

void ablate(const char* title, const sim::MachineModel& m,
            const sim::Workload& w) {
  std::printf("-- %s on %s (%zu threads, %zu controls) --\n", title,
              m.name.c_str(), w.num_threads, w.control_threads);
  support::TextTable t;
  t.header({"variant", "modeled hop-cost", "simulated time (s)",
            "L3 misses (G)"});

  auto emit = [&](const char* name, const tm::Placement& p) {
    const auto r = simulate(m, w, sim::BindSpec::bound(p));
    t.row({name,
           support::format_si(tm::modeled_cost(m.topology, w.comm, p), 2),
           bench::fmt_secs(r.seconds),
           support::format_double(r.counters.l3_misses / 1e9, 2)});
  };

  tm::Options base;
  base.num_control_threads = w.control_threads;
  emit("Algorithm 1 (full)", tm::tree_match(m.topology, w.comm, base));

  tm::Options no_control = base;
  no_control.manage_control_threads = false;
  emit("- without control management",
       tm::tree_match(m.topology, w.comm, no_control));

  tm::Options greedy = base;
  greedy.engine = tm::GroupingEngine::Greedy;
  emit("- greedy grouping only",
       tm::tree_match(m.topology, w.comm, greedy));

  emit("compact-cores (close)",
       tm::place_strategy(tm::Strategy::CompactCores, m.topology,
                          w.num_threads));
  emit("scatter-cores (spread)",
       tm::place_strategy(tm::Strategy::ScatterCores, m.topology,
                          w.num_threads));
  emit("compact (KMP, siblings first)",
       tm::place_strategy(tm::Strategy::Compact, m.topology,
                          w.num_threads));
  std::printf("%s\n", t.render().c_str());
}

}  // namespace

int main() {
  std::puts("== Ablation: Algorithm 1 design choices ==\n");

  const sim::MachineModel m12 = sim::MachineModel::smp12e5();
  const sim::MachineModel m20 = sim::MachineModel::smp20e7();

  const sim::Workload lk23 = apps::lk23_orwl_workload(16384, 100, 64);
  ablate("LK23 (64 ops)", m12, lk23);

  apps::VideoParams vp = apps::video_hd();
  vp.frames = 128;
  const sim::Workload video = apps::video_orwl_workload(vp);
  ablate("video tracking", sim::restricted(m12, 4), video);
  ablate("video tracking", sim::restricted(m20, 4), video);

  const sim::Workload mm = apps::matmul_orwl_workload(16384, 64);
  ablate("matmul ring (64 tasks)", m20, mm);
  return 0;
}
