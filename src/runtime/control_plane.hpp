// Control threads of the ORWL runtime.
//
// "the ORWL runtime additionally deploys control threads and a lock
// mechanism that manage lock synchronization and data transfer. These
// control threads freeze and thaw processing threads of concurrent tasks
// according to the availability of resources." (Sec. IV-A)
//
// The control plane is a *sharded* event queue served by dedicated OS
// threads: every lock release posts a hand-off event to the shard nearest
// the waiters of its queue; a control thread of that shard drains all
// pending events of the shard in one wakeup (batched draining, duplicate
// events of one queue collapsed into a single grant pass) and
// performs the grant + wake-up of the next requesters. One shard is kept
// per NUMA node (or per top-level topology subtree), so hand-offs of
// unrelated locality domains never contend on a common mutex. These are
// the threads Algorithm 1 places on hyperthread siblings or spare cores;
// control thread j serves shard j % num_shards, and the Program aligns
// the tree_match control placement with that fixed assignment. An idle
// worker parks on its shard's futex word (runtime/futex.hpp), after
// first trying to steal events from a loaded sibling shard.
//
// post() never loses an event: when the plane is stopped, stopping, or
// the target shard is saturated, the grant is performed inline by the
// posting thread instead of being queued.
//
// The "data transfer" half of the quote is done by placement, not here:
// the Program binds each location buffer to its owner's NUMA node when a
// placement is computed (Location::bind_home), so a grant pass moves no
// pages.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "runtime/arena.hpp"

namespace orwl::rt {

class RequestQueue;

struct ControlPlaneOptions {
  /// Dedicated control threads (0 => no threads, every post grants
  /// inline).
  std::size_t num_threads = 0;

  /// Event shards; clamped to [1, num_threads] so every shard is served.
  std::size_t num_shards = 1;

  /// Events a shard may hold before post() falls back to an inline grant
  /// (back-pressure instead of unbounded queue growth); 0 = unbounded.
  std::size_t shard_capacity = 4096;

  /// Arena backing shard s's event deque (and its worker's drain
  /// buffers); missing or null entries fall back to the process arena.
  /// The Program passes its per-shard node-bound arenas here.
  std::vector<Arena*> shard_arenas;
};

class ControlPlane {
 public:
  explicit ControlPlane(const ControlPlaneOptions& opts);
  ~ControlPlane();

  /// The shard count the given options produce (the [1, num_threads]
  /// clamp), so callers can size per-shard resources — arenas, shard
  /// maps — before constructing the plane.
  static std::size_t effective_shards(const ControlPlaneOptions& opts);
  ControlPlane(const ControlPlane&) = delete;
  ControlPlane& operator=(const ControlPlane&) = delete;

  void start();
  void stop();

  std::size_t num_threads() const noexcept { return num_threads_; }
  std::size_t num_shards() const noexcept { return num_shards_; }
  bool running() const noexcept {
    return running_.load(std::memory_order_acquire);
  }

  /// Shard served by control thread j (fixed round-robin assignment).
  std::size_t shard_of_thread(std::size_t j) const noexcept {
    return j % num_shards_;
  }

  /// Post a grant hand-off event for the given queue.
  /// \param q     Queue whose head group needs granting; the serving
  ///              control thread calls its grant path.
  /// \param shard Target shard (taken mod num_shards) — normally the
  ///              shard of the queue owner's placed PU.
  ///
  /// Safe in every plane state: when the plane is not running, is
  /// stopping, or the shard is saturated, the grant happens inline on the
  /// calling thread — an event is never silently dropped.
  void post(RequestQueue* q, std::size_t shard = 0);

  /// Bind control thread j to pus[j % pus.size()] (entries of -1 skip).
  /// With shard-aligned placements pus[j] is a PU inside shard
  /// shard_of_thread(j)'s locality domain.
  /// \param pus PU os-indices per control thread; empty binds nothing.
  /// \return Number of threads successfully bound.
  std::size_t bind_threads(const std::vector<int>& pus);

  /// Total events processed by control threads (tests, counter reports).
  std::uint64_t events_processed() const noexcept;

  /// Control-thread wakeups that drained at least one event; with batched
  /// draining this is <= events_processed().
  std::uint64_t drain_batches() const noexcept;

  /// Grants performed inline by post() (plane stopped/stopping/saturated).
  std::uint64_t inline_grants() const noexcept {
    return inline_grants_.load(std::memory_order_relaxed);
  }

  /// Worker futex sleeps / poster futex wakes.
  std::uint64_t futex_waits() const noexcept;
  std::uint64_t futex_wakes() const noexcept;

  /// Events stolen by idle shard workers from loaded sibling shards
  /// (granted by the thief before it parks, instead of waiting for the
  /// loaded shard's worker to catch up).
  std::uint64_t shard_steals() const noexcept;

 private:
  /// Event deque drawing from the shard's node-bound arena.
  using EventDeque = std::deque<RequestQueue*, ArenaAllocator<RequestQueue*>>;

  struct Shard {
    explicit Shard(Arena* a)
        : events(ArenaAllocator<RequestQueue*>(a)), arena(a) {}
    std::mutex mu;
    std::atomic<std::uint32_t> seq{0};      ///< futex wakeup word
    EventDeque events;
    /// events.size() republished after every mutation under mu, so
    /// sibling workers can pick a steal victim without touching mu.
    std::atomic<std::size_t> size_hint{0};
    bool stopping = false;
    std::atomic<std::uint64_t> processed{0};
    std::atomic<std::uint64_t> batches{0};
    std::atomic<std::uint64_t> futex_waits{0};
    std::atomic<std::uint64_t> futex_wakes{0};
    std::atomic<std::uint64_t> steals{0};  ///< events taken FROM siblings
    Arena* arena;
  };

  void worker_loop(std::size_t shard_index);
  void wake_shard(Shard& shard, bool all);
  bool steal_events(std::size_t self, EventDeque& out);

  const std::size_t num_threads_;
  const std::size_t num_shards_;
  const std::size_t shard_capacity_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::thread> threads_;
  std::atomic<bool> running_{false};
  std::atomic<std::uint64_t> inline_grants_{0};
};

}  // namespace orwl::rt
