// Graph workloads driving the dynamic-work (steal executor) surface.
//
// The static ORWL task model pins one thread per declared task; a graph
// traversal's frontier does not care about that grid — one task's block
// may hold the whole frontier while the others idle. These kernels
// demonstrate Task::for_each: the frontier (BFS) or the chunk list
// (PageRank) is executed by all tasks together under the
// topology-aware steal executor, so a hot block spills to hyperthread
// siblings first, then same-node PUs, then remote nodes.
//
// Both kernels are deterministic by construction, independent of the
// steal schedule:
//  * BFS relaxes distances with a CAS-min — the fixed point (shortest
//    hop counts) is unique no matter which worker relaxes which edge.
//  * PageRank is pull-based with a fixed per-vertex summation order —
//    every floating-point operation sequence is identical to the
//    sequential reference, so the result is bit-identical under
//    ORWL_STEAL=off and all.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "orwl/orwl.hpp"

namespace orwl::apps {

/// Undirected n x n 4-neighbor grid in CSR form. Deliberately simple:
/// the point is the executor, not the graph; a grid still produces the
/// frontier growth/shrink pattern that starves static decompositions.
struct GridGraph {
  std::size_t n = 0;                  ///< grid side; n*n vertices
  std::vector<std::uint32_t> row_ptr;  ///< size n*n + 1
  std::vector<std::uint32_t> col;     ///< neighbor lists, ascending order

  std::size_t num_vertices() const noexcept { return n * n; }
  std::size_t degree(std::size_t v) const noexcept {
    return row_ptr[v + 1] - row_ptr[v];
  }

  static GridGraph make(std::size_t n);
};

/// Marker for vertices BFS never reached.
inline constexpr std::uint32_t kUnreached = 0xFFFFFFFFu;

/// Queue-based reference BFS; dist[v] = hop count from source.
std::vector<std::uint32_t> bfs_sequential(const GridGraph& g,
                                          std::uint32_t source);

/// ORWL BFS: `num_tasks` tasks jointly drain the frontier through the
/// steal executor (declaratively wired: TaskSpec::for_each). The item
/// payload is a vertex id; relaxing an edge CAS-mins the neighbor's
/// distance and pushes it on improvement. Identical to bfs_sequential
/// for every steal mode.
std::vector<std::uint32_t> bfs_orwl(const GridGraph& g, std::uint32_t source,
                                    std::size_t num_tasks,
                                    rt::ProgramOptions prog_opts = {});

/// Power-iteration PageRank (pull form), `iters` full sweeps.
std::vector<double> pagerank_sequential(const GridGraph& g,
                                        std::size_t iters,
                                        double damping = 0.85);

/// ORWL PageRank: each sweep is one for_each collective over fixed
/// vertex chunks (the exit rendezvous of the collective is the sweep
/// barrier), reading the previous sweep's ranks and writing the next.
/// Bit-identical to pagerank_sequential under every steal mode.
std::vector<double> pagerank_orwl(const GridGraph& g, std::size_t iters,
                                  std::size_t num_tasks,
                                  rt::ProgramOptions prog_opts = {},
                                  double damping = 0.85);

}  // namespace orwl::apps
