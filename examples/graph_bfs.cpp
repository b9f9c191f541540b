// Dynamic work on the steal executor: BFS and PageRank over a grid.
//
// The static ORWL task model pins one thread per task — fine for
// regular exchanges, wasteful for a graph frontier that lives entirely
// inside one task's block while the others idle. Task::for_each hands
// the frontier to ALL tasks at once: the items (and everything their
// bodies push) are executed under the topology-aware work-stealing
// executor, so a hot deque spills to its hyperthread sibling first,
// then same-node PUs, then remote nodes, and the call returns on every
// task only when hierarchical termination detection proves the whole
// frontier is drained.
//
// Both kernels are deterministic by construction (CAS-min fixed point /
// pull-based fixed-order sums), so the steal schedule cannot change the
// answer — compare:
//
//   ORWL_STEAL=off ./graph_bfs     # static split: no stealing
//   ./graph_bfs                    # full locality order (default all)
#include <cstdio>
#include <cstdlib>

#include "apps/graph.hpp"
#include "runtime/steal_executor.hpp"
#include "support/env.hpp"

int main(int argc, char** argv) {
  using namespace orwl;

  const std::size_t n = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 64;
  const std::size_t tasks = argc > 2 ? std::strtoul(argv[2], nullptr, 10) : 4;
  const apps::GridGraph g = apps::GridGraph::make(n);
  std::printf("grid %zux%zu (%zu vertices), %zu tasks, ORWL_STEAL=%s\n", n,
              n, g.num_vertices(), tasks,
              rt::to_string(support::resolve<rt::StealMode>(
                  support::knob::kSteal)));

  // BFS from the top-left corner: the frontier is seeded by task 0
  // alone — the executor spreads it.
  const auto dist = apps::bfs_orwl(g, /*source=*/0, tasks);
  const auto reference = apps::bfs_sequential(g, 0);
  const std::uint32_t far = dist[g.num_vertices() - 1];
  std::printf("bfs: dist(corner) = %u (expected %zu) — %s\n", far,
              2 * (n - 1),
              dist == reference ? "matches sequential" : "MISMATCH");

  // Five PageRank sweeps; every task seeds its own chunk share and the
  // executor balances the sweep. Bit-identical to the sequential loop.
  const auto rank = apps::pagerank_orwl(g, /*iters=*/5, tasks);
  const auto rank_ref = apps::pagerank_sequential(g, 5);
  double mass = 0.0;
  for (const double r : rank) mass += r;
  std::printf("pagerank: total mass = %.6f — %s\n", mass,
              rank == rank_ref ? "bit-identical to sequential"
                               : "MISMATCH");
  return dist == reference && rank == rank_ref ? 0 : 1;
}
