#include "runtime/steal_executor.hpp"

#include <stdexcept>
#include <thread>
#include <utility>

#include "runtime/comm_meter.hpp"
#include "runtime/futex.hpp"
#include "support/env.hpp"

namespace orwl::rt {

namespace {

/// Fruitless victim sweeps before a worker parks on work_seq_.
constexpr std::size_t kSpinSweeps = 64;

}  // namespace

const char* to_string(StealMode m) noexcept {
  return support::choice_name(support::knob::kSteal, m);
}

void StealExecutor::WorkerContext::push(std::uint64_t item) {
  if (deque_->push(item)) {
    ex_->notify_work();
    return;
  }
  // Full ring: keep the item thread-local; the run loop drains overflow
  // before popping or stealing anything else.
  overflow_.push_back(item);
}

StealExecutor::StealExecutor(const topo::Topology& t,
                             std::vector<WorkerSpec> workers, Config cfg)
    : cfg_(cfg) {
  if (workers.empty()) {
    throw std::invalid_argument("StealExecutor: no workers");
  }

  const int numa_depth =
      t.empty() ? -1 : t.depth_of_type(topo::ObjType::NumaNode);
  const auto node_of_pu = [&](int pu) {
    if (numa_depth < 0) return 0;
    const topo::Object* leaf = t.pu_at(pu);
    const topo::Object* node =
        leaf ? leaf->ancestor_of_type(topo::ObjType::NumaNode) : nullptr;
    return node ? node->logical_index : 0;
  };
  std::size_t num_nodes = 1;
  if (numa_depth >= 0) num_nodes = t.at_depth(numa_depth).size();
  node_active_ = std::vector<NodeCounter>(num_nodes);

  // Per-worker state: deque slots from the worker's shard arena.
  state_.reserve(workers.size());
  std::vector<std::vector<std::uint32_t>> workers_on_pu(
      t.empty() ? 1 : t.num_pus());
  for (std::size_t w = 0; w < workers.size(); ++w) {
    auto ws = std::make_unique<WorkerState>();
    ws->pu = workers[w].pu;
    ws->node = node_of_pu(ws->pu);
    Arena& a = workers[w].arena != nullptr ? *workers[w].arena
                                           : Arena::runtime_default();
    ws->deque = arena_new<StealDeque>(a, a, cfg_.deque_capacity);
    if (ws->pu >= 0 &&
        static_cast<std::size_t>(ws->pu) < workers_on_pu.size()) {
      workers_on_pu[static_cast<std::size_t>(ws->pu)].push_back(
          static_cast<std::uint32_t>(w));
    }
    state_.push_back(std::move(ws));
  }

  // Victim order per worker: co-resident workers (same PU) first, then
  // the PUs of the precomputed topology row, nearest first.
  const topo::VictimTable table =
      t.empty() ? topo::VictimTable{} : topo::make_victim_table(t);
  for (std::size_t w = 0; w < state_.size(); ++w) {
    WorkerState& ws = *state_[w];
    if (ws.pu >= 0 &&
        static_cast<std::size_t>(ws.pu) < workers_on_pu.size()) {
      for (std::uint32_t other :
           workers_on_pu[static_cast<std::size_t>(ws.pu)]) {
        if (other != w) ws.victims.push_back(other);
      }
    } else {
      // PU outside the topology: every other worker, declaration order.
      for (std::size_t v = 0; v < state_.size(); ++v) {
        if (v != w) ws.victims.push_back(static_cast<std::uint32_t>(v));
      }
      continue;
    }
    for (int pu : table.row(static_cast<std::size_t>(ws.pu))) {
      for (std::uint32_t other : workers_on_pu[static_cast<std::size_t>(pu)]) {
        ws.victims.push_back(other);
      }
    }
  }
}

StealExecutor::~StealExecutor() {
  for (auto& ws : state_) arena_delete(ws->deque);
}

void StealExecutor::seed(std::size_t w, std::uint64_t item) {
  WorkerState& ws = *state_.at(w);
  if (!ws.deque->push(item)) ws.seed_spill.push_back(item);
}

void StealExecutor::activate(int node) noexcept {
  auto& counter = node_active_[static_cast<std::size_t>(node)].active;
  if (counter.fetch_add(1, std::memory_order_acq_rel) == 0) {
    root_active_.fetch_add(1, std::memory_order_acq_rel);
  }
}

void StealExecutor::deactivate(int node) noexcept {
  auto& counter = node_active_[static_cast<std::size_t>(node)].active;
  if (counter.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    if (root_active_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      // Global quiescence: broadcast so parked workers run their exit
      // check instead of sleeping out their timeout.
      work_seq_.fetch_add(1, std::memory_order_release);
      futex_wake(work_seq_, /*all=*/true);
    }
  }
}

void StealExecutor::notify_work() noexcept {
  if (parked_.load(std::memory_order_acquire) > 0) {
    work_seq_.fetch_add(1, std::memory_order_release);
    futex_wake(work_seq_, /*all=*/true);
  }
}

bool StealExecutor::sweep(const std::vector<std::uint32_t>& order,
                          std::size_t limit, std::uint64_t& item,
                          int& victim_node,
                          std::uint32_t& victim_worker) noexcept {
  const std::size_t n = limit < order.size() ? limit : order.size();
  for (std::size_t i = 0; i < n; ++i) {
    WorkerState& v = *state_[order[i]];
    if (v.deque->steal(item)) {
      victim_node = v.node;
      victim_worker = order[i];
      return true;
    }
  }
  return false;
}

void StealExecutor::set_meter(CommMeter* meter,
                              std::size_t num_tasks) noexcept {
  meter_tasks_.store(num_tasks, std::memory_order_relaxed);
  meter_.store(meter, std::memory_order_release);
}

void StealExecutor::meter_steal(std::size_t thief, std::uint32_t victim,
                                bool remote) noexcept {
  CommMeter* meter = meter_.load(std::memory_order_acquire);
  if (meter == nullptr) return;
  const std::size_t tasks = meter_tasks_.load(std::memory_order_relaxed);
  if (thief >= tasks || victim >= tasks || thief == victim) return;
  // Any shard bank is valid; spreading by the thief's termination-tree
  // node keeps concurrent thieves on different nodes off one cache line.
  const std::size_t shard =
      static_cast<std::size_t>(state_[thief]->node) % meter->num_shards();
  meter->record(shard, static_cast<TaskId>(victim),
                static_cast<TaskId>(thief), kStealBytes, remote);
}

void StealExecutor::execute(const ItemFn& fn, std::uint64_t item,
                            WorkerContext& ctx) {
  // An item that throws still counts as executed: letting the exception
  // out would leave this worker counted active (no one could see
  // quiescence again).
  try {
    fn(item, ctx);
  } catch (...) {
    std::lock_guard lock(error_mu_);
    if (!error_) error_ = std::current_exception();
  }
}

std::exception_ptr StealExecutor::take_error() {
  std::lock_guard lock(error_mu_);
  return std::exchange(error_, nullptr);
}

void StealExecutor::run_worker(std::size_t w, const ItemFn& fn) {
  WorkerState& ws = *state_.at(w);
  WorkerContext ctx(*this, w, ws.deque);
  ctx.overflow_ = std::move(ws.seed_spill);
  ws.seed_spill.clear();

  const std::size_t steal_limit =
      cfg_.mode == StealMode::All ? ws.victims.size() : 0;
  bool active = false;
  std::size_t fruitless = 0;
  for (;;) {
    // Active from before an item is taken until a full sweep came up
    // empty: a non-empty deque always has an active owner or thief, so
    // root==0 really means "no work anywhere".
    if (!active) {
      activate(ws.node);
      active = true;
    }
    std::uint64_t item = 0;
    int victim_node = ws.node;
    std::uint32_t victim_worker = 0;
    bool got = false;
    bool stolen = false;
    if (!ctx.overflow_.empty()) {
      item = ctx.overflow_.back();
      ctx.overflow_.pop_back();
      got = true;
    } else if (ws.deque->pop(item)) {
      got = true;
    } else if (sweep(ws.victims, steal_limit, item, victim_node,
                     victim_worker)) {
      got = true;
      stolen = true;
    }
    if (got) {
      fruitless = 0;
      if (stolen) {
        (victim_node == ws.node ? ws.local_steals : ws.remote_steals)
            .fetch_add(1, std::memory_order_relaxed);
        meter_steal(w, victim_worker, victim_node != ws.node);
      }
      execute(fn, item, ctx);
      ws.executed.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    deactivate(ws.node);
    active = false;
    // Own deque is empty (the pop above failed and only the owner
    // pushes), so quiescence means nothing anywhere can still need us.
    if (quiescent()) break;
    if (++fruitless >= kSpinSweeps) {
      ws.parks.fetch_add(1, std::memory_order_relaxed);
      parked_.fetch_add(1, std::memory_order_acq_rel);
      const std::uint32_t seq = work_seq_.load(std::memory_order_acquire);
      if (!quiescent()) futex_wait(work_seq_, seq, /*timeout_ms=*/10);
      parked_.fetch_sub(1, std::memory_order_acq_rel);
      fruitless = 0;
    } else {
      std::this_thread::yield();
    }
  }
}

StealExecutor::Stats StealExecutor::stats() const noexcept {
  Stats s;
  for (const auto& ws : state_) {
    s.executed += ws->executed.load(std::memory_order_relaxed);
    s.local_steals += ws->local_steals.load(std::memory_order_relaxed);
    s.remote_steals += ws->remote_steals.load(std::memory_order_relaxed);
    s.parks += ws->parks.load(std::memory_order_relaxed);
  }
  return s;
}

}  // namespace orwl::rt
