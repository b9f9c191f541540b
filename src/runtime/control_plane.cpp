#include "runtime/control_plane.hpp"

#include <algorithm>

#include "runtime/futex.hpp"
#include "runtime/request_queue.hpp"
#include "topo/binding.hpp"
#include "topo/cpuset.hpp"

namespace orwl::rt {

namespace {

// A queue that posted several events into one drained batch needs only a
// single grant pass: every release behind those posts already happened,
// so one grant_from_control covers them all without re-taking the
// queue's mutex per duplicate event.
template <typename QueueVec>
void dedupe_queues(QueueVec& queues) {
  std::sort(queues.begin(), queues.end());
  queues.erase(std::unique(queues.begin(), queues.end()), queues.end());
}

}  // namespace

std::size_t ControlPlane::effective_shards(const ControlPlaneOptions& opts) {
  if (opts.num_threads == 0) return 1;
  return std::clamp<std::size_t>(opts.num_shards, 1, opts.num_threads);
}

ControlPlane::ControlPlane(const ControlPlaneOptions& opts)
    : num_threads_(opts.num_threads),
      num_shards_(effective_shards(opts)),
      shard_capacity_(opts.shard_capacity) {
  shards_.reserve(num_shards_);
  for (std::size_t s = 0; s < num_shards_; ++s) {
    Arena* arena = s < opts.shard_arenas.size() && opts.shard_arenas[s]
                       ? opts.shard_arenas[s]
                       : &Arena::runtime_default();
    shards_.push_back(std::make_unique<Shard>(arena));
  }
}

ControlPlane::~ControlPlane() { stop(); }

void ControlPlane::start() {
  if (num_threads_ == 0 || running()) return;
  for (auto& shard : shards_) {
    std::unique_lock lock(shard->mu);
    shard->stopping = false;
  }
  threads_.reserve(num_threads_);
  for (std::size_t j = 0; j < num_threads_; ++j) {
    threads_.emplace_back([this, j] { worker_loop(shard_of_thread(j)); });
  }
  running_.store(true, std::memory_order_release);
}

void ControlPlane::stop() {
  // Flip running_ first: new releases fall back to inline grants, so no
  // event posted after this point is lost.
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  for (auto& shard : shards_) {
    {
      std::unique_lock lock(shard->mu);
      shard->stopping = true;
    }
    wake_shard(*shard, /*all=*/true);
  }
  for (auto& t : threads_) {
    if (t.joinable()) t.join();
  }
  threads_.clear();
  // Workers drain their shard before exiting and posts observe `stopping`
  // under the shard mutex, so leftovers here mean a worker died early;
  // grant them inline regardless (deduplicated, counted per event) so no
  // waiter stays ungranted.
  for (auto& shard : shards_) {
    EventDeque leftovers{ArenaAllocator<RequestQueue*>(shard->arena)};
    {
      std::unique_lock lock(shard->mu);
      leftovers.swap(shard->events);
      shard->size_hint.store(0, std::memory_order_relaxed);
    }
    std::vector<RequestQueue*> unique_queues(leftovers.begin(),
                                             leftovers.end());
    dedupe_queues(unique_queues);
    for (RequestQueue* q : unique_queues) q->grant_from_control();
    inline_grants_.fetch_add(leftovers.size(), std::memory_order_relaxed);
  }
}

void ControlPlane::wake_shard(Shard& shard, bool all) {
  // The event push (or the stopping flag) was published under shard.mu
  // before this bump; a worker that re-checked its predicate before the
  // bump sees the seq change at futex_wait and returns.
  shard.seq.fetch_add(1, std::memory_order_release);
  futex_wake(shard.seq, all);
  shard.futex_wakes.fetch_add(1, std::memory_order_relaxed);
}

void ControlPlane::post(RequestQueue* q, std::size_t shard_index) {
  if (running()) {
    Shard& shard = *shards_[shard_index % num_shards_];
    std::unique_lock lock(shard.mu);
    if (!shard.stopping &&
        (shard_capacity_ == 0 || shard.events.size() < shard_capacity_)) {
      shard.events.push_back(q);
      shard.size_hint.store(shard.events.size(), std::memory_order_relaxed);
      lock.unlock();
      wake_shard(shard, /*all=*/false);
      return;
    }
  }
  // Not running, stopping, or the shard is saturated: grant inline.
  q->grant_from_control();
  inline_grants_.fetch_add(1, std::memory_order_relaxed);
}

bool ControlPlane::steal_events(std::size_t self, EventDeque& out) {
  if (num_shards_ < 2) return false;
  // Pick the fullest sibling by its published size hint — no sibling
  // mutex is touched until one victim is chosen, and the caller holds no
  // shard mutex here, so two shard locks are never held at once.
  std::size_t victim = num_shards_;
  std::size_t best = 0;
  for (std::size_t s = 0; s < num_shards_; ++s) {
    if (s == self) continue;
    const std::size_t n = shards_[s]->size_hint.load(std::memory_order_relaxed);
    if (n > best) {
      best = n;
      victim = s;
    }
  }
  if (victim == num_shards_) return false;
  Shard& v = *shards_[victim];
  // try_lock: if the victim's own worker (or a poster) is active on the
  // shard right now, the events are already being taken care of.
  std::unique_lock lock(v.mu, std::try_to_lock);
  if (!lock.owns_lock()) return false;
  const std::size_t take = (v.events.size() + 1) / 2;
  for (std::size_t i = 0; i < take; ++i) {
    out.push_back(v.events.front());  // oldest first: keep FIFO fairness
    v.events.pop_front();
  }
  v.size_hint.store(v.events.size(), std::memory_order_relaxed);
  return take > 0;
}

void ControlPlane::worker_loop(std::size_t shard_index) {
  Shard& shard = *shards_[shard_index];
  EventDeque batch{ArenaAllocator<RequestQueue*>(shard.arena)};
  std::vector<RequestQueue*> unique_queues;
  // Batched draining: grant every event of the wakeup outside the shard
  // mutex, so posters never wait behind grant work, deduplicated so a
  // busy queue is granted once per batch.
  const auto drain_batch = [&](bool stolen) {
    unique_queues.assign(batch.begin(), batch.end());
    dedupe_queues(unique_queues);
    for (RequestQueue* q : unique_queues) q->grant_from_control();
    shard.processed.fetch_add(batch.size(), std::memory_order_relaxed);
    shard.batches.fetch_add(1, std::memory_order_relaxed);
    if (stolen) shard.steals.fetch_add(batch.size(), std::memory_order_relaxed);
    batch.clear();
  };
  for (;;) {
    {
      std::unique_lock lock(shard.mu);
      // Futex sleep without holding the mutex: snapshot the wakeup word
      // under the lock, drop it, and wait for the word to move. Any post
      // after the snapshot bumps seq, so the wait returns immediately —
      // no lost wakeup, and posters never queue behind a sleeping
      // worker's mutex.
      while (!shard.stopping && shard.events.empty()) {
        const std::uint32_t seq = shard.seq.load(std::memory_order_acquire);
        lock.unlock();
        // Before parking, lend a hand to a loaded sibling shard.
        if (steal_events(shard_index, batch)) {
          drain_batch(/*stolen=*/true);
          lock.lock();
          continue;
        }
        shard.futex_waits.fetch_add(1, std::memory_order_relaxed);
        futex_wait(shard.seq, seq, /*timeout_ms=*/0);
        lock.lock();
      }
      if (shard.events.empty()) return;  // stopping and fully drained
      batch.swap(shard.events);
      shard.size_hint.store(0, std::memory_order_relaxed);
    }
    drain_batch(/*stolen=*/false);
  }
}

std::size_t ControlPlane::bind_threads(const std::vector<int>& pus) {
  if (pus.empty()) return 0;
  std::size_t bound = 0;
  for (std::size_t j = 0; j < threads_.size(); ++j) {
    const int pu = pus[j % pus.size()];
    if (pu < 0) continue;
    if (topo::bind_thread(threads_[j].native_handle(),
                          topo::CpuSet::single(pu))) {
      ++bound;
    }
  }
  return bound;
}

std::uint64_t ControlPlane::events_processed() const noexcept {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->processed.load(std::memory_order_relaxed);
  }
  return total;
}

std::uint64_t ControlPlane::drain_batches() const noexcept {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->batches.load(std::memory_order_relaxed);
  }
  return total;
}

std::uint64_t ControlPlane::futex_waits() const noexcept {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->futex_waits.load(std::memory_order_relaxed);
  }
  return total;
}

std::uint64_t ControlPlane::futex_wakes() const noexcept {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->futex_wakes.load(std::memory_order_relaxed);
  }
  return total;
}

std::uint64_t ControlPlane::shard_steals() const noexcept {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->steals.load(std::memory_order_relaxed);
  }
  return total;
}

}  // namespace orwl::rt
