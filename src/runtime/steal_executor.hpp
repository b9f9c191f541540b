// rt::StealExecutor — topology-aware work stealing with hierarchical
// termination detection.
//
// The runtime's task model is static: one thread per declared task. For
// irregular work (graph frontiers, dynamic inserts) that leaves whole
// sockets idle while one PU drains a hot worklist. The executor gives
// every participating worker a bounded Chase–Lev deque (StealDeque,
// arena-backed so the slots live on the worker's NUMA node) and a
// precomputed locality-ordered victim list (topo::VictimTable):
// hyperthread sibling first, then same-core, same-node, and remote-node
// PUs last — so a steal is served from the closest non-empty deque.
//
// Termination is detected hierarchically, following the topology tree:
// each worker contributes to a per-NUMA-node active counter; only a
// node's 0<->1 transitions touch the root counter, so quiescence folds
// up the tree instead of every worker hammering one global atomic.
// The protocol keeps one invariant: a worker is *active* from before it
// takes an item (own pop or steal) until its own deque and local
// overflow are empty and a full victim sweep found nothing. A worker
// exits only when the root count is zero AND its own deque is empty, so
// no seeded or pushed item can be abandoned.
//
// The executor's workers are the task threads of one program and no
// other thread: a task blocked on an ORWL lock parks on its slot's futex
// word (rt::RequestQueue) and never runs another program's items.
//
// Knob (resolved by the program layer; the executor takes a Config):
//   ORWL_STEAL      = off|all       — no stealing / full victim order,
//                     remote nodes last (default all).
// A worker parks after a fixed 64 fruitless victim sweeps.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "runtime/arena.hpp"
#include "runtime/steal_deque.hpp"
#include "topo/topology.hpp"
#include "topo/victim.hpp"

namespace orwl::rt {

class CommMeter;

/// Steal policy (ORWL_STEAL / ProgramOptions::steal). Enumerators follow
/// support::knob::kSteal's spellings.
enum class StealMode {
  Off,  ///< no stealing: each worker drains only its own deque
  All,  ///< full locality order, remote nodes last (default)
};

const char* to_string(StealMode m) noexcept;

class StealExecutor {
 public:
  class WorkerContext;

  /// A work item's body: the 64-bit payload plus the executing worker's
  /// context (for pushing follow-up items).
  using ItemFn = std::function<void(std::uint64_t, WorkerContext&)>;

  struct Config {
    StealMode mode = StealMode::All;
    std::size_t deque_capacity = 8192;
  };

  /// One participating worker: the logical PU it runs on (drives the
  /// victim order and the termination-tree node) and the arena its
  /// deque slots come from (null = the process-wide default arena).
  struct WorkerSpec {
    int pu = 0;
    Arena* arena = nullptr;
  };

  /// Context handed to every item body and owned by the executing
  /// thread. push() never loses an item: it lands in the worker's deque
  /// when there is room, else in a thread-local overflow drained before
  /// the next pop/steal.
  class WorkerContext {
   public:
    /// Push a follow-up work item (runnable by any worker).
    void push(std::uint64_t item);

    /// Index of the executing worker.
    std::size_t worker() const noexcept { return worker_; }

   private:
    friend class StealExecutor;
    WorkerContext(StealExecutor& ex, std::size_t worker, StealDeque* deque)
        : ex_(&ex), worker_(worker), deque_(deque) {}

    StealExecutor* ex_;
    std::size_t worker_;
    StealDeque* deque_;
    std::vector<std::uint64_t> overflow_;
  };

  /// Counter snapshot (surfaced as ProgramStats::steal_* and bench JSON).
  struct Stats {
    std::uint64_t executed = 0;       ///< items run
    std::uint64_t local_steals = 0;   ///< steals from a same-node victim
    std::uint64_t remote_steals = 0;  ///< steals across NUMA nodes
    std::uint64_t parks = 0;          ///< worker sleeps after a spin budget
  };

  /// \param t       Topology the victim order and termination tree are
  ///                derived from; must outlive the executor.
  /// \param workers One entry per participating worker (>= 1).
  /// \param cfg     Resolved policy knobs.
  StealExecutor(const topo::Topology& t, std::vector<WorkerSpec> workers,
                Config cfg);
  ~StealExecutor();

  StealExecutor(const StealExecutor&) = delete;
  StealExecutor& operator=(const StealExecutor&) = delete;

  std::size_t workers() const noexcept { return state_.size(); }
  StealMode mode() const noexcept { return cfg_.mode; }

  /// Pre-run seeding of worker `w`'s deque (not thread-safe against a
  /// running session; call before the workers start).
  void seed(std::size_t w, std::uint64_t item);

  /// Participate as worker `w` until global termination: drain own
  /// work, steal by the victim order, park after 64 fruitless sweeps,
  /// exit when the termination tree is quiescent. Every worker passed
  /// at construction must eventually call this once per session, or
  /// seeded items on its deque may go unexecuted.
  void run_worker(std::size_t w, const ItemFn& fn);

  /// Bytes one steal charges to the measured comm matrix: the stolen
  /// item's 8-byte payload plus the cache line its working set drags
  /// across on first touch. A deliberate floor — a steal moves at least
  /// this much, and the re-placement trigger compares *shapes*, not
  /// absolute volumes.
  static constexpr std::uint64_t kStealBytes = 64;

  /// Feed successful steals into `meter` (null detaches): each one is a
  /// hand-off of the stolen item from the victim's task to the thief's,
  /// recorded as (victim → thief, kStealBytes, remote = cross-node). With
  /// this, a for_each whose items keep flowing across NUMA nodes skews
  /// the measured matrix exactly like lock hand-offs do, so sustained
  /// cross-node stealing can trip the ORWL_REPLACE divergence trigger.
  /// Only workers with task identity record (index < num_tasks).
  /// Thread-compatible with a running session: the pointer is read with
  /// acquire on each steal.
  void set_meter(CommMeter* meter, std::size_t num_tasks) noexcept;

  /// The first exception an item body threw since the last call, or
  /// null; clears it. A throwing item counts as executed and does not
  /// stop its worker, so the session still terminates.
  std::exception_ptr take_error();

  Stats stats() const noexcept;

 private:
  struct alignas(64) WorkerState {
    StealDeque* deque = nullptr;  ///< arena-backed, freed via header
    int pu = 0;
    int node = 0;  ///< termination-tree node (0 on NUMA-less machines)
    std::vector<std::uint32_t> victims;     ///< worker indices, nearest first
    std::vector<std::uint64_t> seed_spill;  ///< seeds past deque capacity
    std::atomic<std::uint64_t> executed{0};
    std::atomic<std::uint64_t> local_steals{0};
    std::atomic<std::uint64_t> remote_steals{0};
    std::atomic<std::uint64_t> parks{0};
  };

  struct alignas(64) NodeCounter {
    std::atomic<std::int64_t> active{0};
  };

  void activate(int node) noexcept;
  void deactivate(int node) noexcept;
  bool quiescent() const noexcept {
    return root_active_.load(std::memory_order_acquire) == 0;
  }

  /// Wake parked workers after a push (cheap no-op when nobody parks).
  void notify_work() noexcept;

  /// One locality-ordered pass over `order`; on success the item plus
  /// its victim's node and worker index are written through the
  /// out-params.
  bool sweep(const std::vector<std::uint32_t>& order, std::size_t limit,
             std::uint64_t& item, int& victim_node,
             std::uint32_t& victim_worker) noexcept;

  /// Record a successful steal on the attached meter (no-op without
  /// one, or when either side lacks task identity).
  void meter_steal(std::size_t thief, std::uint32_t victim,
                   bool remote) noexcept;

  void execute(const ItemFn& fn, std::uint64_t item, WorkerContext& ctx);

  Config cfg_;
  std::vector<std::unique_ptr<WorkerState>> state_;

  std::vector<NodeCounter> node_active_;  ///< one per NUMA node (>= 1)
  alignas(64) std::atomic<std::int64_t> root_active_{0};

  alignas(64) std::atomic<std::uint32_t> work_seq_{0};
  std::atomic<int> parked_{0};

  std::mutex error_mu_;
  std::exception_ptr error_;  ///< first item failure (see take_error)

  /// Steal-traffic sink (see set_meter); tasks_ bounds which worker
  /// indices carry task identity.
  std::atomic<CommMeter*> meter_{nullptr};
  std::atomic<std::size_t> meter_tasks_{0};
};

}  // namespace orwl::rt
