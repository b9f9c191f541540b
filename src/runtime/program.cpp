#include "runtime/program.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <string>

#include "runtime/comm_meter.hpp"
#include "runtime/futex.hpp"
#include "runtime/handle.hpp"
#include "support/env.hpp"
#include "treematch/strategies.hpp"
#include "topo/binding.hpp"
#include "topo/cpuset.hpp"
#include "topo/detect.hpp"
#include "topo/membind.hpp"
#include "topo/shard.hpp"

namespace orwl::rt {

const char* to_string(ReplaceMode m) noexcept {
  return support::choice_name(support::knob::kReplace, m);
}

Program::Program(std::size_t num_tasks, ProgramOptions opts)
    : num_tasks_(num_tasks), opts_(opts) {
  if (num_tasks == 0) {
    throw std::invalid_argument("Program: at least one task required");
  }
  if (opts_.locations_per_task == 0) {
    throw std::invalid_argument("Program: locations_per_task must be >= 1");
  }

  if (opts_.topology != nullptr) {
    topology_ = opts_.topology;
  } else {
    owned_topology_ = topo::detect_host();
    topology_ = &owned_topology_;
  }

  // Every knob is resolved before any thread starts.
  using support::resolve;
  namespace knob = support::knob;
  affinity_enabled_ =
      resolve(knob::kAffinity, opts_.affinity) == AffinityMode::On;
  data_policy_ = resolve(knob::kDataTransfer, opts_.data_transfer);
  replace_policy_ = resolve(knob::kReplace, opts_.replace);
  replace_threshold_ =
      resolve(knob::kReplaceThreshold, opts_.replace_threshold);
  replace_decay_ = std::clamp(
      resolve(knob::kReplaceDecay, opts_.replace_decay), 0.0, 1.0);
  replace_interval_ = resolve(knob::kReplaceInterval, opts_.replace_interval);
  steal_mode_ = resolve(knob::kSteal, opts_.steal);

  // One shard per NUMA node (topology subtree on NUMA-less machines).
  // A queue's shard picks its arena and its CommMeter bank.
  shard_map_ = topo::make_shard_map(*topology_,
                                    topo::recommended_shard_count(*topology_));
  const std::size_t nshards = shard_map_.num_shards;

  // One node-bound arena per shard. A shard's node is the node of its
  // PUs (the shard map partitions PUs by NUMA node); -1 (any node) when
  // the topology has no NUMA level.
  std::vector<int> shard_nodes(nshards, Arena::kAnyNode);
  for (std::size_t pu = 0; pu < shard_map_.shard_of_pu_os.size(); ++pu) {
    const int s = shard_map_.shard_of_pu_os[pu];
    if (s >= 0 && static_cast<std::size_t>(s) < nshards &&
        shard_nodes[s] == Arena::kAnyNode) {
      shard_nodes[s] =
          topo::numa_node_of_pu(*topology_, static_cast<int>(pu));
    }
  }
  std::vector<Arena*> shard_arenas;
  arenas_.reserve(nshards);
  for (std::size_t s = 0; s < nshards; ++s) {
    arenas_.push_back(std::make_unique<Arena>(shard_nodes[s]));
    shard_arenas.push_back(arenas_.back().get());
  }
  stats_.control_shards = nshards;

  if (replace_policy_ != ReplaceMode::Off) {
    meter_ = std::make_unique<CommMeter>(nshards, num_tasks_, shard_arenas);
  }
  task_node_ = std::make_unique<std::atomic<int>[]>(num_tasks_);
  for (TaskId t = 0; t < num_tasks_; ++t) {
    task_node_[t].store(-1, std::memory_order_relaxed);
  }

  locations_.reserve(num_tasks_ * opts_.locations_per_task);
  for (TaskId t = 0; t < num_tasks_; ++t) {
    for (std::size_t s = 0; s < opts_.locations_per_task; ++s) {
      const LocationId id = t * opts_.locations_per_task + s;
      // The queue draws windows and slots from its (default) shard's
      // arena; re-pointed with the routing once a placement exists.
      locations_.push_back(
          std::make_unique<Location>(id, t, s, arenas_[t % nshards].get()));
      locations_.back()->queue().set_acquire_timeout(
          opts_.acquire_timeout_ms);
      // Identity for lock-protocol diagnostics: the acquire-timeout
      // guard names the exact location (and tenant) that is stuck.
      locations_.back()->queue().set_tag(
          "location " + std::to_string(id) + " (owner task " +
          std::to_string(t) + ", slot " + std::to_string(s) +
          (opts_.tag.empty() ? std::string()
                             : ", tenant '" + opts_.tag + "'") +
          ")");
      // Placement-free default routing: owner round-robin. Replaced by
      // the topology-aware routing once a placement exists.
      locations_.back()->queue().set_shard(t % nshards);
    }
  }

  bodies_.resize(num_tasks_);
  insert_seq_.assign(num_tasks_, 0);
  task_handles_.resize(num_tasks_);

  graph_.num_tasks = num_tasks_;
  graph_.locations_per_task = opts_.locations_per_task;
  graph_.locations.resize(locations_.size());
  for (std::size_t i = 0; i < locations_.size(); ++i) {
    graph_.locations[i].id = locations_[i]->id();
    graph_.locations[i].owner = locations_[i]->owner();
  }
}

Program::~Program() = default;

void Program::set_task_body(TaskFn fn) {
  for (auto& b : bodies_) b = fn;
}

void Program::set_task_body(TaskId id, TaskFn fn) {
  if (id >= num_tasks_) throw std::out_of_range("set_task_body: bad task id");
  bodies_[id] = std::move(fn);
}

Location& Program::location(TaskId task, std::size_t slot) {
  if (task >= num_tasks_ || slot >= opts_.locations_per_task) {
    throw std::out_of_range("Program::location: bad coordinates");
  }
  return *locations_[task * opts_.locations_per_task + slot];
}

const TaskGraph& Program::graph() const {
  std::unique_lock lock(graph_mu_);
  return graph_;
}

void Program::declare_insert(TaskId task, Location& loc, AccessMode mode,
                             std::uint64_t priority, Handle& handle) {
  if (task >= num_tasks_) {
    throw std::out_of_range("declare_insert: bad task id");
  }
  if (handle.linked()) {
    throw std::logic_error("declare_insert: handle already linked");
  }
  std::unique_lock lock(graph_mu_);
  if (scheduled_) {
    throw std::logic_error(
        "declare_insert: program already scheduled (late links must be "
        "inserted from the owning task's body)");
  }
  // The fields Handle::insert would set from a TaskContext; declarative
  // links have no context yet — the builder registers them up front.
  handle.loc_ = &loc;
  handle.prog_ = this;
  handle.task_ = task;
  handle.mode_ = mode;
  pending_.push_back(PendingInsert{loc.id(), mode, priority, task,
                                   insert_seq_[task]++, &handle});
  graph_version_.fetch_add(1, std::memory_order_release);
}

void Program::register_insert(TaskId task, Location& loc, AccessMode mode,
                              std::uint64_t priority, Handle* handle) {
  std::unique_lock lock(graph_mu_);
  graph_version_.fetch_add(1, std::memory_order_release);
  if (!scheduled_) {
    pending_.push_back(
        PendingInsert{loc.id(), mode, priority, task, insert_seq_[task]++,
                      handle});
    return;
  }
  // Live insert after schedule (dynamic mode): enqueue immediately and
  // extend the graph so that a later dependency_get() sees the new edge.
  graph_.locations[loc.id()].accesses.push_back(
      Access{task, mode, priority});
  graph_.locations[loc.id()].bytes = loc.size();
  lock.unlock();
  // Route the queue to its owner's shard now, under the placement
  // that exists at insert time, instead of leaving it on the constructor's
  // owner-round-robin shard until the next affinity_compute().
  route_queue(loc);
  handle->attach_ticket(loc.enqueue_request(mode));
}

void Program::schedule_barrier(TaskId tid) {
  rendezvous("orwl_schedule", nullptr, [this] { freeze_and_place(); });
  bind_self(tid);
}

void Program::rendezvous(const char* what,
                         const std::function<void(std::size_t)>& each,
                         const std::function<void()>& last) {
  using Clock = std::chrono::steady_clock;
  const auto departed = [&] {
    return std::runtime_error(std::string(what) + ": task " +
                              std::to_string(rv_departed_) +
                              " left its body before every task arrived");
  };
  std::unique_lock lock(rv_mu_);
  if (rv_departed_ != kNoTask) throw departed();
  if (each) each(rv_arrived_);
  const std::uint64_t generation = rv_generation_;
  if (++rv_arrived_ == num_tasks_) {
    rv_error_ = nullptr;
    try {
      if (last) last();
    } catch (...) {
      rv_error_ = std::current_exception();
    }
    rv_arrived_ = 0;
    ++rv_generation_;
    rv_seq_.fetch_add(1, std::memory_order_release);
    futex_wake(rv_seq_, /*all=*/true);
  }
  const std::uint64_t timeout_ms = opts_.acquire_timeout_ms;
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  while (rv_generation_ == generation) {
    if (rv_departed_ != kNoTask) throw departed();
    std::int64_t wait_ms = 0;  // no deadline
    if (timeout_ms != 0) {
      wait_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                    deadline - Clock::now())
                    .count();
      if (wait_ms <= 0) {
        throw std::runtime_error(std::string(what) + ": timed out after " +
                                 std::to_string(timeout_ms) +
                                 " ms (a task did not arrive)");
      }
    }
    const std::uint32_t seq = rv_seq_.load(std::memory_order_acquire);
    lock.unlock();
    futex_wait(rv_seq_, seq, wait_ms);
    lock.lock();
  }
  if (rv_error_) std::rethrow_exception(rv_error_);
}

void Program::freeze_and_place() {
  {
    std::unique_lock lock(graph_mu_);
    // Record sizes now: scale() happened during the init phase.
    for (std::size_t i = 0; i < locations_.size(); ++i) {
      graph_.locations[i].bytes = locations_[i]->size();
    }
    // Deterministic initial FIFO order per location:
    // (priority, task, per-task insertion sequence).
    std::stable_sort(pending_.begin(), pending_.end(),
                     [](const PendingInsert& a, const PendingInsert& b) {
                       if (a.loc != b.loc) return a.loc < b.loc;
                       if (a.priority != b.priority) {
                         return a.priority < b.priority;
                       }
                       if (a.task != b.task) return a.task < b.task;
                       return a.seq < b.seq;
                     });
    for (const PendingInsert& p : pending_) {
      graph_.locations[p.loc].accesses.push_back(
          Access{p.task, p.mode, p.priority});
      p.handle->attach_ticket(locations_[p.loc]->enqueue_request(p.mode));
    }
    pending_.clear();
    scheduled_ = true;
  }

  if (affinity_enabled_) {
    // The paper's automatic mode: exactly the advanced API in sequence.
    dependency_get();
    affinity_compute();
    affinity_set();
    stats_.affinity_applied = true;
  }
}

void Program::dependency_get() {
  tm::CommMatrix m;
  std::uint64_t version = 0;
  {
    std::unique_lock lock(graph_mu_);
    version = graph_version_.load(std::memory_order_relaxed);
    if (!scheduled_ && !pending_.empty()) {
      // Pre-run extraction for declaratively wired programs: the graph
      // itself stays frozen-at-schedule, but the matrix can already be
      // computed from the declared accesses and the current location
      // sizes.
      TaskGraph declared = graph_;
      for (std::size_t i = 0; i < locations_.size(); ++i) {
        declared.locations[i].bytes = locations_[i]->size();
      }
      for (const PendingInsert& p : pending_) {
        declared.locations[p.loc].accesses.push_back(
            Access{p.task, p.mode, p.priority});
      }
      m = aff::comm_matrix_from_graph(declared);
    } else {
      m = aff::comm_matrix_from_graph(graph_);
    }
  }
  std::unique_lock lock(place_mu_);
  matrix_ = std::move(m);
  have_matrix_ = true;
  matrix_version_ = version;
}

std::size_t Program::shard_for_owner_locked(TaskId owner) const {
  int shard = have_placement_ && owner < placement_.compute_pu.size()
                  ? shard_map_.shard_of(placement_.compute_pu[owner])
                  : -1;
  if (shard < 0) shard = static_cast<int>(owner % arenas_.size());
  return static_cast<std::size_t>(shard);
}

void Program::route_queues_locked() {
  if (arenas_.size() <= 1) return;
  for (auto& loc : locations_) {
    const std::size_t shard = shard_for_owner_locked(loc->owner());
    loc->queue().set_shard(shard);
    // Future windows/slots of this queue come from the new shard's
    // arena; already-allocated blocks stay with (and free back to) the
    // arena that made them.
    loc->queue().set_arena(arenas_[shard].get());
  }
}

void Program::route_queue(Location& loc) {
  std::lock_guard lock(place_mu_);
  if (arenas_.size() > 1) {
    const std::size_t shard = shard_for_owner_locked(loc.owner());
    loc.queue().set_shard(shard);
    loc.queue().set_arena(arenas_[shard].get());
  }
  // The buffer follows the same rule as the queue: it lives on the
  // owner's placed node (no-op while unplaced).
  if (data_policy_ == DataTransferMode::Off) return;
  if (loc.bind_home(placed_node_of_task(loc.owner()))) {
    ++stats_.data_transfers;
  }
}

void Program::update_task_nodes_locked() {
  for (TaskId t = 0; t < num_tasks_; ++t) {
    int node = -1;
    if (t < placement_.compute_pu.size()) {
      node = topo::numa_node_of_pu(*topology_, placement_.compute_pu[t]);
    }
    task_node_[t].store(node, std::memory_order_release);
  }
}

void Program::bind_location_memory_locked() {
  if (data_policy_ == DataTransferMode::Off) return;
  std::size_t bound = 0;
  std::size_t skipped = 0;
  for (auto& loc : locations_) {
    const int node = task_node_[loc->owner()].load(std::memory_order_relaxed);
    if (node < 0) continue;
    if (loc->data() == nullptr) {
      // Never-scaled (or zero-sized) buffer: bind_home/migrate would
      // silently no-op — skip and count instead of reporting a
      // successful binding that never happened.
      ++skipped;
      continue;
    }
    if (loc->bind_home(node)) ++stats_.data_transfers;
    ++bound;
  }
  stats_.locations_bound = bound;
  stats_.locations_skipped_unsized = skipped;
}

void Program::compute_placement_locked(const tm::CommMatrix& m) {
  aff::ComputeOptions copts;
  copts.engine = opts_.engine;
  try {
    placement_ = aff::compute_placement(m, *topology_, copts);
  } catch (const std::invalid_argument&) {
    // Algorithm 1 requires a symmetric tree; real hosts occasionally are
    // not (disabled cores, heterogeneous packages). Degrade gracefully to
    // a topology-ordered placement rather than aborting the program.
    placement_ = tm::place_strategy(tm::Strategy::CompactCores, *topology_,
                                    num_tasks_);
    stats_.affinity_fallback = true;
  }
  placement_recomputes_.fetch_add(1, std::memory_order_relaxed);
  have_placement_ = true;
  placement_matrix_ = m;
  route_queues_locked();
  // The memory half of the placement: every location buffer moves to its
  // owner's NUMA node (re-run here on every dynamic re-placement too).
  update_task_nodes_locked();
  bind_location_memory_locked();
}

void Program::affinity_compute() {
  std::unique_lock lock(place_mu_);
  if (!have_matrix_) {
    lock.unlock();
    dependency_get();
    lock.lock();
  }
  // Version stamp: when the current placement was computed from a matrix
  // of the current task-location graph, the Algorithm 1 recompute would
  // reproduce it — skip it entirely (the schedule barrier of a program
  // that already placed itself pre-run hits this path).
  const std::uint64_t version = graph_version_.load(std::memory_order_acquire);
  if (have_placement_ && placement_version_ == version &&
      matrix_version_ == version) {
    return;
  }
  compute_placement_locked(matrix_);
  placement_version_ = matrix_version_;
}

void Program::affinity_set() {
  std::unique_lock lock(place_mu_);
  if (!have_placement_) {
    lock.unlock();
    affinity_compute();
    lock.lock();
  }
  bind_threads_locked();
}

void Program::bind_threads_locked() {
  if (!opts_.bind_threads) return;
  // Bind all registered task threads (an oversubscribed task to its
  // group's PUs, not to one PU).
  for (TaskId t = 0; t < num_tasks_; ++t) {
    const topo::CpuSet cpus = placement_.cpus_of(t);
    if (cpus.empty() ||
        task_handles_[t] == std::thread::native_handle_type{}) {
      continue;
    }
    if (topo::bind_thread(task_handles_[t], cpus)) {
      ++stats_.compute_threads_bound;
    } else {
      ++stats_.bind_failures;
    }
  }
}

void Program::bind_self(TaskId tid) {
  if (!opts_.bind_threads) return;
  std::unique_lock lock(place_mu_);
  if (!have_placement_) return;
  const topo::CpuSet cpus = placement_.cpus_of(tid);
  lock.unlock();
  if (cpus.empty()) return;
  // Re-assert the binding from the thread itself (affinity_set already
  // bound us by handle; this also covers threads registered late).
  topo::bind_current_thread(cpus);
}

void Program::record_handoff(TaskId from, TaskId to,
                             const Location& loc) noexcept {
  CommMeter* meter = meter_.get();
  if (meter == nullptr) return;
  const int from_node = placed_node_of_task(from);
  const int to_node = placed_node_of_task(to);
  const bool remote = from_node >= 0 && to_node >= 0 && from_node != to_node;
  meter->record(loc.queue().shard(), from, to,
                static_cast<std::uint64_t>(loc.size()), remote);
}

void Program::replace_tick() noexcept {
  if (meter_ == nullptr) return;
  const std::uint64_t n =
      replace_ticks_.fetch_add(1, std::memory_order_relaxed) + 1;
  const std::uint64_t period =
      static_cast<std::uint64_t>(replace_interval_) * num_tasks_;
  if (period == 0 || n % period != 0) return;
  // Single flight: whichever task crosses the boundary first runs the
  // check; concurrent crossers skip instead of queueing up behind the
  // placement mutex.
  if (replace_busy_.exchange(true, std::memory_order_acquire)) return;
  try {
    check_replacement();
  } catch (...) {
    // A failed check must never take the program down; the next interval
    // simply tries again.
  }
  replace_busy_.store(false, std::memory_order_release);
}

void Program::check_replacement() {
  std::unique_lock lock(place_mu_);
  replace_checks_.fetch_add(1, std::memory_order_relaxed);
  meter_->harvest(measured_, replace_decay_);
  if (measured_.total_volume() <= 0.0) return;
  // Compare against the matrix the *current* placement was computed from
  // (declared at first, measured after a re-placement): once the program
  // has been re-placed onto the measured pattern, an unchanged pattern
  // must not keep re-triggering.
  const tm::CommMatrix& baseline =
      placement_matrix_.order() != 0
          ? placement_matrix_
          : (have_matrix_ ? matrix_ : measured_);
  const double divergence = tm::normalized_distance(measured_, baseline);
  if (divergence <= replace_threshold_) return;
  replace_triggers_.fetch_add(1, std::memory_order_relaxed);
  if (replace_policy_ != ReplaceMode::Auto || !have_placement_) {
    return;  // passive: record the trigger, never move anything
  }
  compute_placement_locked(measured_);
  // Stamp the measured placement as current for this graph so a later
  // affinity_compute() on the unchanged graph does not clobber it with
  // the stale declared matrix.
  placement_version_ = graph_version_.load(std::memory_order_acquire);
  matrix_version_ = placement_version_;
  bind_threads_locked();
  replacements_.fetch_add(1, std::memory_order_relaxed);
}

tm::CommMatrix Program::measured_matrix() const {
  std::unique_lock lock(place_mu_);
  return measured_;
}

const tm::CommMatrix& Program::comm_matrix() const {
  std::unique_lock lock(place_mu_);
  if (!have_matrix_) {
    throw std::logic_error("comm_matrix: call dependency_get() first");
  }
  return matrix_;
}

const tm::Placement& Program::placement() const {
  std::unique_lock lock(place_mu_);
  if (!have_placement_) {
    throw std::logic_error("placement: call affinity_compute() first");
  }
  return placement_;
}

void Program::run() {
  for (TaskId t = 0; t < num_tasks_; ++t) {
    if (!bodies_[t]) {
      throw std::logic_error("Program::run: task " + std::to_string(t) +
                             " has no body");
    }
  }
  rv_arrived_ = 0;
  rv_departed_ = kNoTask;

  std::mutex err_mu;
  std::exception_ptr first_error;

  threads_.clear();
  threads_.reserve(num_tasks_);
  for (TaskId t = 0; t < num_tasks_; ++t) {
    threads_.emplace_back([this, t, &err_mu, &first_error] {
      task_handles_[t] = pthread_self();
      TaskContext ctx(*this, t);
      try {
        bodies_[t](ctx);
      } catch (...) {
        std::unique_lock lock(err_mu);
        if (!first_error) first_error = std::current_exception();
      }
      // Depart only after the error is recorded: a collective this
      // departure fails must not beat the root cause into first_error.
      {
        std::lock_guard lock(rv_mu_);
        if (rv_departed_ == kNoTask) rv_departed_ = t;
        rv_seq_.fetch_add(1, std::memory_order_release);
      }
      futex_wake(rv_seq_, /*all=*/true);
    });
  }
  for (auto& th : threads_) th.join();
  threads_.clear();

  stats_.guard_teardown_failures =
      teardown_failures_.load(std::memory_order_relaxed);
  stats_.placement_recomputes =
      placement_recomputes_.load(std::memory_order_relaxed);
  stats_.replace_checks = replace_checks_.load(std::memory_order_relaxed);
  stats_.replace_triggers =
      replace_triggers_.load(std::memory_order_relaxed);
  stats_.replacements = replacements_.load(std::memory_order_relaxed);
  if (meter_) {
    stats_.measured_handoffs = meter_->handoffs();
    stats_.measured_remote_handoffs = meter_->remote_handoffs();
  }
  std::uint64_t arena_bytes = 0, arena_refills = 0, arena_misses = 0;
  for (const auto& a : arenas_) {
    const Arena::Stats as = a->stats();
    arena_bytes += as.bytes_reserved;
    arena_refills += as.refills;
    arena_misses += as.node_misses;
  }
  stats_.arena_bytes = arena_bytes;
  stats_.arena_refills = arena_refills;
  stats_.arena_node_misses = arena_misses;
  if (steal_stats_source_) steal_stats_source_(stats_);
  std::uint64_t grants = 0, futex_waits = 0, futex_wakes = 0;
  for (const auto& loc : locations_) {
    grants += loc->queue().total_grants();
    futex_waits += loc->queue().futex_waits();
    futex_wakes += loc->queue().futex_wakes();
  }
  stats_.control_inline_grants = grants;
  stats_.futex_waits = futex_waits;
  stats_.futex_wakes = futex_wakes;

  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace orwl::rt
