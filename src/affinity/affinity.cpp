#include "affinity/affinity.hpp"

#include <algorithm>

namespace orwl::aff {

tm::CommMatrix comm_matrix_from_graph(const rt::TaskGraph& graph) {
  tm::CommMatrix m(graph.num_tasks);
  for (const auto& loc : graph.locations) {
    if (loc.bytes == 0 || loc.accesses.empty()) continue;
    // Deduplicate accesses per (task, mode).
    std::vector<rt::TaskId> writers;
    std::vector<rt::TaskId> readers;
    for (const auto& acc : loc.accesses) {
      auto& side = acc.mode == rt::AccessMode::Write ? writers : readers;
      if (std::find(side.begin(), side.end(), acc.task) == side.end()) {
        side.push_back(acc.task);
      }
    }
    const double vol = static_cast<double>(loc.bytes);
    for (rt::TaskId w : writers) {
      for (rt::TaskId r : readers) {
        if (w != r) m.add(w, r, vol);
      }
    }
    for (std::size_t a = 0; a < writers.size(); ++a) {
      for (std::size_t b = a + 1; b < writers.size(); ++b) {
        m.add(writers[a], writers[b], vol);
      }
    }
  }
  return m;
}

tm::Placement compute_placement(const tm::CommMatrix& m,
                                const topo::Topology& topology,
                                const ComputeOptions& opts) {
  tm::Options tm_opts;
  tm_opts.engine = opts.engine;
  tm_opts.manage_control_threads = opts.manage_control_threads;
  tm_opts.num_control_threads = opts.num_control_threads;
  tm_opts.control_associate = opts.control_associate;
  return tm::tree_match(topology, m, tm_opts);
}

}  // namespace orwl::aff
