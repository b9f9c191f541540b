// Lock-free measurement of the traffic the lock protocol actually moves.
//
// The declared communication matrix (Sec. IV-A) predicts which tasks
// exchange data; the grant engine *observes* it: every hand-off of a
// location lock from a releasing task to an acquiring one carries the
// location's buffer to the grantee. A CommMeter turns those hand-offs
// into a measured tm::CommMatrix — the feedback signal of the online
// re-placement loop (ROADMAP direction 3).
//
// Layout: one bank of num_tasks^2 plain 8-byte atomic cells per NUMA
// node, each bank cache-line aligned in its *own node's* arena — a
// hand-off is recorded in the bank of the location owner's placed node,
// so the hot cells sit on the node of the tasks that use the location.
// record() is two relaxed fetch_adds on one node's bank; harvest()
// drains every cell with exchange(0) and folds the drained delta into an
// exponentially decaying accumulator matrix, so recording never blocks
// and harvesting never loses a byte.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "runtime/arena.hpp"
#include "runtime/types.hpp"
#include "treematch/comm_matrix.hpp"

namespace orwl::rt {

class CommMeter {
 public:
  /// \param num_nodes NUMA node count (>= 1): one cell bank and one
  ///                  hand-off counter pair per node.
  /// \param num_tasks Tasks of the program; cells cover from x to pairs.
  /// \param arenas    Per-node arenas backing each node's cell bank
  ///                  (missing/null entries use the process arena).
  CommMeter(std::size_t num_nodes, std::size_t num_tasks,
            const std::vector<Arena*>& arenas = {});
  ~CommMeter();
  CommMeter(const CommMeter&) = delete;
  CommMeter& operator=(const CommMeter&) = delete;

  std::size_t num_tasks() const noexcept { return tasks_; }
  std::size_t num_nodes() const noexcept { return nodes_; }

  /// Record one lock hand-off in the bank of node `node` (bank 0 when
  /// out of range): `from` released the location last, `to` just
  /// acquired it, `bytes` is the location's buffer size (clamped to
  /// >= 1 so zero-sized synchronization locations still register), and
  /// `remote` marks a hand-off crossing NUMA nodes under the current
  /// placement. Lock-free; two relaxed adds on node-local cache lines.
  void record(std::size_t node, TaskId from, TaskId to, std::uint64_t bytes,
              bool remote) noexcept;

  /// Drain every cell (exchange to zero) into a delta matrix and fold it
  /// into `m` as `m = decay * m + delta` (m is extended to task order
  /// when needed). Returns the total bytes drained this harvest. Safe to
  /// run concurrently with record(); callers serialize harvest() itself
  /// (the re-placement check is single-flight).
  double harvest(tm::CommMatrix& m, double decay);

  /// Hand-offs recorded since construction (harvest does not reset).
  std::uint64_t handoffs() const noexcept;
  /// The subset of hand-offs that crossed NUMA nodes.
  std::uint64_t remote_handoffs() const noexcept;

 private:
  struct alignas(64) NodeCounters {
    std::atomic<std::uint64_t> handoffs{0};
    std::atomic<std::uint64_t> remote{0};
  };

  std::atomic<std::uint64_t>& cell(std::size_t node, TaskId from,
                                   TaskId to) noexcept {
    return banks_[node][from * tasks_ + to];
  }

  std::size_t tasks_;
  std::size_t nodes_;
  std::size_t stride_;  ///< cells per bank, rounded up to full cache lines
  std::vector<std::atomic<std::uint64_t>*> banks_;  ///< arena blocks
  std::unique_ptr<NodeCounters[]> counters_;
};

}  // namespace orwl::rt
