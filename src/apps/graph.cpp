#include "apps/graph.hpp"

#include <algorithm>
#include <atomic>
#include <deque>

#include "orwl/builder.hpp"

namespace orwl::apps {

namespace {
/// Vertices per PageRank work item. Small enough that a sweep over a
/// modest grid still produces hundreds of stealable items, large enough
/// that the deque traffic stays a fraction of the arithmetic.
constexpr std::size_t kPageRankChunk = 256;
}  // namespace

GridGraph GridGraph::make(std::size_t n) {
  GridGraph g;
  g.n = n;
  const std::size_t nv = n * n;
  g.row_ptr.reserve(nv + 1);
  g.col.reserve(4 * nv);
  g.row_ptr.push_back(0);
  for (std::size_t y = 0; y < n; ++y) {
    for (std::size_t x = 0; x < n; ++x) {
      const std::size_t v = y * n + x;
      // Ascending neighbor order (north, west, east, south) — the fixed
      // order the pull-based PageRank sums in.
      if (y > 0) g.col.push_back(static_cast<std::uint32_t>(v - n));
      if (x > 0) g.col.push_back(static_cast<std::uint32_t>(v - 1));
      if (x + 1 < n) g.col.push_back(static_cast<std::uint32_t>(v + 1));
      if (y + 1 < n) g.col.push_back(static_cast<std::uint32_t>(v + n));
      g.row_ptr.push_back(static_cast<std::uint32_t>(g.col.size()));
    }
  }
  return g;
}

std::vector<std::uint32_t> bfs_sequential(const GridGraph& g,
                                          std::uint32_t source) {
  std::vector<std::uint32_t> dist(g.num_vertices(), kUnreached);
  dist[source] = 0;
  std::deque<std::uint32_t> frontier{source};
  while (!frontier.empty()) {
    const std::uint32_t u = frontier.front();
    frontier.pop_front();
    const std::uint32_t nd = dist[u] + 1;
    for (std::uint32_t e = g.row_ptr[u]; e < g.row_ptr[u + 1]; ++e) {
      const std::uint32_t v = g.col[e];
      if (nd < dist[v]) {
        dist[v] = nd;
        frontier.push_back(v);
      }
    }
  }
  return dist;
}

std::vector<std::uint32_t> bfs_orwl(const GridGraph& g, std::uint32_t source,
                                    std::size_t num_tasks,
                                    rt::ProgramOptions prog_opts) {
  std::vector<std::atomic<std::uint32_t>> dist(g.num_vertices());
  for (auto& d : dist) d.store(kUnreached, std::memory_order_relaxed);
  dist[source].store(0, std::memory_order_relaxed);

  // CAS-min edge relaxation: a vertex is (re)pushed only on a strict
  // improvement, so the collective terminates and the fixed point — the
  // unique shortest hop counts — is schedule-independent.
  const ForEachBody relax = [&g, &dist](std::uint64_t item,
                                        StealContext& ctx) {
    const auto u = static_cast<std::uint32_t>(item);
    const std::uint32_t nd = dist[u].load(std::memory_order_relaxed) + 1;
    for (std::uint32_t e = g.row_ptr[u]; e < g.row_ptr[u + 1]; ++e) {
      const std::uint32_t v = g.col[e];
      std::uint32_t cur = dist[v].load(std::memory_order_relaxed);
      while (nd < cur) {
        if (dist[v].compare_exchange_weak(cur, nd,
                                          std::memory_order_relaxed)) {
          ctx.push(v);
          break;
        }
      }
    }
  };

  ProgramBuilder b(num_tasks, prog_opts);
  for (TaskId t = 0; t < num_tasks; ++t) {
    b.task(t).for_each(
        [t, source](Task&) {
          std::vector<std::uint64_t> seeds;
          if (t == 0) seeds.push_back(source);
          return seeds;
        },
        relax);
  }
  Program p = b.build();
  p.run();

  std::vector<std::uint32_t> out(dist.size());
  for (std::size_t v = 0; v < dist.size(); ++v) {
    out[v] = dist[v].load(std::memory_order_relaxed);
  }
  return out;
}

std::vector<double> pagerank_sequential(const GridGraph& g,
                                        std::size_t iters, double damping) {
  const std::size_t nv = g.num_vertices();
  const double base = (1.0 - damping) / static_cast<double>(nv);
  std::vector<double> rank(nv, 1.0 / static_cast<double>(nv));
  std::vector<double> next(nv, 0.0);
  for (std::size_t it = 0; it < iters; ++it) {
    const double* src = it % 2 == 0 ? rank.data() : next.data();
    double* dst = it % 2 == 0 ? next.data() : rank.data();
    for (std::size_t v = 0; v < nv; ++v) {
      double sum = 0.0;
      for (std::uint32_t e = g.row_ptr[v]; e < g.row_ptr[v + 1]; ++e) {
        const std::uint32_t u = g.col[e];
        sum += src[u] / static_cast<double>(g.degree(u));
      }
      dst[v] = base + damping * sum;
    }
  }
  return iters % 2 == 0 ? rank : next;
}

std::vector<double> pagerank_orwl(const GridGraph& g, std::size_t iters,
                                  std::size_t num_tasks,
                                  rt::ProgramOptions prog_opts,
                                  double damping) {
  const std::size_t nv = g.num_vertices();
  const std::size_t chunks = (nv + kPageRankChunk - 1) / kPageRankChunk;
  const double base = (1.0 - damping) / static_cast<double>(nv);
  std::vector<double> rank(nv, 1.0 / static_cast<double>(nv));
  std::vector<double> next(nv, 0.0);

  Program p(num_tasks, prog_opts);
  p.set_task_body([&](Task& t) {
    t.schedule();
    // Fixed chunk ownership only seeds the work; the executor moves the
    // chunks wherever PUs are free. Writes are disjoint per chunk and
    // each sweep's reads see the previous sweep through the collective's
    // entry/exit rendezvous — no vertex-level synchronization needed.
    std::vector<std::uint64_t> seeds;
    for (std::size_t c = t.id(); c < chunks; c += t.num_tasks()) {
      seeds.push_back(c);
    }
    for (std::size_t it = 0; it < iters; ++it) {
      const double* src = it % 2 == 0 ? rank.data() : next.data();
      double* dst = it % 2 == 0 ? next.data() : rank.data();
      t.for_each(seeds, [&g, src, dst, base, damping](std::uint64_t item,
                                                      StealContext&) {
        const std::size_t begin =
            static_cast<std::size_t>(item) * kPageRankChunk;
        const std::size_t end =
            std::min(begin + kPageRankChunk, g.num_vertices());
        for (std::size_t v = begin; v < end; ++v) {
          double sum = 0.0;
          for (std::uint32_t e = g.row_ptr[v]; e < g.row_ptr[v + 1]; ++e) {
            const std::uint32_t u = g.col[e];
            sum += src[u] / static_cast<double>(g.degree(u));
          }
          dst[v] = base + damping * sum;
        }
      });
    }
  });
  p.run();
  return iters % 2 == 0 ? rank : next;
}

}  // namespace orwl::apps
