#include "server/server.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <stdexcept>
#include <thread>
#include <utility>

#include "support/env.hpp"
#include "topo/binding.hpp"
#include "topo/detect.hpp"

namespace orwl::server {

void accumulate(rt::ProgramStats& into, const rt::ProgramStats& run) {
  into.control_events += run.control_events;
  into.control_inline_grants += run.control_inline_grants;
  into.control_shards += run.control_shards;
  into.data_transfers += run.data_transfers;
  into.locations_bound += run.locations_bound;
  into.compute_threads_bound += run.compute_threads_bound;
  into.bind_failures += run.bind_failures;
  into.guard_teardown_failures += run.guard_teardown_failures;
  into.affinity_applied = into.affinity_applied || run.affinity_applied;
  into.affinity_fallback = into.affinity_fallback || run.affinity_fallback;
  into.placement_recomputes += run.placement_recomputes;
  into.replace_checks += run.replace_checks;
  into.replace_triggers += run.replace_triggers;
  into.replacements += run.replacements;
  into.measured_handoffs += run.measured_handoffs;
  into.measured_remote_handoffs += run.measured_remote_handoffs;
  into.locations_skipped_unsized += run.locations_skipped_unsized;
  into.arena_bytes += run.arena_bytes;
  into.arena_refills += run.arena_refills;
  into.arena_node_misses += run.arena_node_misses;
  into.futex_waits += run.futex_waits;
  into.futex_wakes += run.futex_wakes;
  into.steal_executed += run.steal_executed;
  into.steal_local += run.steal_local;
  into.steal_remote += run.steal_remote;
  into.steal_parks += run.steal_parks;
}

/// One queued request.
struct Job {
  std::function<void()> done;
};

struct Server::Tenant {
  TenantId id = 0;
  TenantSpec spec;
  topo::Carveout carve;
  topo::Topology subtopo;
  TenantEnv env;  ///< env.topology points at subtopo

  std::mutex mu;
  std::condition_variable work_cv;  ///< workers wait for jobs / stop
  std::condition_variable idle_cv;  ///< drain waits for empty + !inflight
  std::deque<Job> queue;
  std::vector<std::thread> threads;  ///< join handles, slot-stable
  std::vector<std::size_t> exited;   ///< slots whose worker shrank out,
                                     ///< joined+reused on the next spawn
  std::size_t live_workers = 0;      ///< workers still in their loop
  std::size_t inflight = 0;
  bool stopping = false;

  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t shed = 0;
  std::uint64_t failed = 0;
  std::size_t peak_workers = 0;
  std::uint64_t grow_events = 0;
  std::uint64_t shrink_events = 0;
  rt::ProgramStats rollup;

  /// Full registry names this tenant exported (under t->mu); unexported
  /// when the tenant is evicted.
  std::vector<std::string> dist_exports;
};

Server::Server(ServerOptions opts) : opts_(std::move(opts)) {
  if (opts_.topology != nullptr) {
    topo_ = opts_.topology;
  } else {
    owned_topo_ = topo::detect_host();
    topo_ = &owned_topo_;
  }
  using support::resolve;
  namespace knob = support::knob;
  max_tenants_ = resolve(knob::kServerMaxTenants, opts_.max_tenants);
  queue_cap_ = resolve(knob::kServerQueueCap, opts_.queue_capacity);
  grow_backlog_ = resolve(knob::kServerGrowBacklog, opts_.grow_backlog);
  shrink_idle_ms_ = resolve(knob::kServerShrinkIdleMs, opts_.shrink_idle_ms);
}

Server::~Server() {
  // Cut remote traffic first: after stop() no proxy ticket can be
  // enqueued into a location owned by a tenant we are about to join.
  {
    std::lock_guard<std::mutex> lk(dist_mu_);
    if (registry_ != nullptr) registry_->stop();
  }
  std::vector<std::shared_ptr<Tenant>> all;
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (auto& [id, t] : tenants_) all.push_back(t);
    tenants_.clear();
    taken_.clear_all();
  }
  for (auto& t : all) {
    drain_tenant(t);
    stop_and_join(t);
  }
}

TenantId Server::admit(TenantSpec spec) {
  if (auto id = try_admit(std::move(spec))) return *id;
  throw std::runtime_error(
      "Server::admit: no contiguous run of whole free subtrees covers the "
      "requested width (or the tenant limit is reached)");
}

std::optional<TenantId> Server::try_admit(TenantSpec spec) {
  if (spec.name.empty()) {
    throw std::invalid_argument("Server::admit: tenant name is empty");
  }
  if (!spec.handler) {
    throw std::invalid_argument("Server::admit: tenant handler is empty");
  }
  if (spec.width_pus == 0) {
    throw std::invalid_argument("Server::admit: width_pus is zero");
  }
  if (spec.min_workers == 0 || spec.min_workers > spec.max_workers) {
    throw std::invalid_argument(
        "Server::admit: need 1 <= min_workers <= max_workers");
  }

  auto t = std::make_shared<Tenant>();
  std::lock_guard<std::mutex> lk(mu_);
  if (tenants_.size() >= max_tenants_) return std::nullopt;
  auto carve = topo::carve_subtrees(*topo_, spec.width_pus, taken_);
  if (!carve) return std::nullopt;

  t->id = next_id_++;
  t->spec = std::move(spec);
  t->carve = std::move(*carve);
  t->subtopo = topo::subtopology(*topo_, t->carve.pus,
                                 topo_->name() + "/" + t->spec.name);
  t->env.topology = &t->subtopo;
  t->env.cpus = t->carve.pus;
  t->env.name = t->spec.name;
  t->env.opts_ = opts_.base;
  t->env.opts_.topology = &t->subtopo;
  t->env.opts_.tag = t->spec.name;

  taken_ = taken_ | t->carve.pus;
  {
    std::lock_guard<std::mutex> tlk(t->mu);
    for (std::size_t i = 0; i < t->spec.min_workers; ++i) {
      spawn_worker_locked(t);
    }
    // The floor is the pool's steady state, not growth.
    t->grow_events = 0;
    t->peak_workers = t->live_workers;
  }
  tenants_.emplace(t->id, t);
  return t->id;
}

void Server::evict(TenantId id) {
  std::shared_ptr<Tenant> t;
  {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = tenants_.find(id);
    if (it == tenants_.end()) return;
    t = it->second;
    tenants_.erase(it);  // blocks new submits right away
  }
  // Stop remote attaches to this tenant's exports before its work
  // drains; outstanding proxies complete normally (Registry::unexport).
  {
    std::vector<std::string> names;
    {
      std::lock_guard<std::mutex> lk(t->mu);
      names.swap(t->dist_exports);
    }
    if (!names.empty()) {
      dist::Registry& reg = dist_registry();
      for (const std::string& n : names) reg.unexport(n);
    }
  }
  // Finish what was accepted and join the workers while the PUs are
  // still marked taken: freeing them first would let a concurrent
  // admit() carve the same PUs under a tenant that is still running.
  drain_tenant(t);
  stop_and_join(t);
  {
    std::lock_guard<std::mutex> lk(mu_);
    taken_ = taken_ - t->carve.pus;
  }
}

bool Server::submit(TenantId id, std::function<void()> done) {
  std::shared_ptr<Tenant> t = find(id);
  if (t == nullptr) return false;
  bool grow = false;
  {
    std::lock_guard<std::mutex> lk(t->mu);
    if (t->stopping) return false;
    if (t->queue.size() >= queue_cap_) {
      ++t->shed;
      return false;
    }
    t->queue.push_back(Job{std::move(done)});
    ++t->submitted;
    grow = t->queue.size() > grow_backlog_ * t->live_workers &&
           t->live_workers < t->spec.max_workers;
    if (grow) {
      spawn_worker_locked(t);
      ++t->grow_events;
      t->peak_workers = std::max(t->peak_workers, t->live_workers);
    }
  }
  t->work_cv.notify_one();
  return true;
}

void Server::drain(TenantId id) {
  if (auto t = find(id)) drain_tenant(t);
}

void Server::drain_all() {
  std::vector<std::shared_ptr<Tenant>> all;
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (auto& [id, t] : tenants_) all.push_back(t);
  }
  for (auto& t : all) drain_tenant(t);
}

TenantStats Server::stats(TenantId id) const {
  auto t = find(id);
  if (t == nullptr) throw std::out_of_range("Server::stats: unknown tenant");
  std::lock_guard<std::mutex> lk(t->mu);
  return snapshot(*t);
}

std::vector<TenantStats> Server::stats() const {
  std::vector<std::shared_ptr<Tenant>> all;
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (auto& [id, t] : tenants_) all.push_back(t);
  }
  std::vector<TenantStats> out;
  out.reserve(all.size());
  for (auto& t : all) {
    std::lock_guard<std::mutex> lk(t->mu);
    out.push_back(snapshot(*t));
  }
  return out;
}

topo::CpuSet Server::tenant_cpus(TenantId id) const {
  auto t = find(id);
  if (t == nullptr) {
    throw std::out_of_range("Server::tenant_cpus: unknown tenant");
  }
  return t->env.cpus;
}

const topo::Topology& Server::tenant_topology(TenantId id) const {
  auto t = find(id);
  if (t == nullptr) {
    throw std::out_of_range("Server::tenant_topology: unknown tenant");
  }
  return t->subtopo;
}

std::size_t Server::num_tenants() const {
  std::lock_guard<std::mutex> lk(mu_);
  return tenants_.size();
}

topo::CpuSet Server::taken() const {
  std::lock_guard<std::mutex> lk(mu_);
  return taken_;
}

bool Server::has_tenant(TenantId id) const { return find(id) != nullptr; }

std::shared_ptr<Server::Tenant> Server::find(TenantId id) const {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = tenants_.find(id);
  return it == tenants_.end() ? nullptr : it->second;
}

void Server::reap_exited_locked(Tenant& t) {
  // Shrunk-out workers have already left their loop (they push their
  // slot right before returning), so these joins only wait out the few
  // instructions between unlocking t.mu and thread exit.
  for (std::size_t slot : t.exited) {
    if (slot < t.threads.size() && t.threads[slot].joinable()) {
      t.threads[slot].join();
    }
  }
  t.exited.clear();
}

void Server::spawn_worker_locked(const std::shared_ptr<Tenant>& t) {
  reap_exited_locked(*t);
  ++t->live_workers;
  std::size_t slot = 0;
  while (slot < t->threads.size() && t->threads[slot].joinable()) ++slot;
  if (slot == t->threads.size()) t->threads.emplace_back();
  t->threads[slot] = std::thread([this, t, slot] { worker_loop(t, slot); });
}

void Server::worker_loop(const std::shared_ptr<Tenant>& t,
                         std::size_t slot) {
  if (opts_.bind_threads) {
    topo::bind_current_thread(t->env.cpus);  // advisory (fixtures fail)
  }
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lk(t->mu);
      while (t->queue.empty() && !t->stopping) {
        if (t->live_workers > t->spec.min_workers) {
          // Above the floor: idle out after shrink_idle_ms.
          const auto status = t->work_cv.wait_for(
              lk, std::chrono::milliseconds(shrink_idle_ms_));
          if (status == std::cv_status::timeout && t->queue.empty() &&
              !t->stopping && t->live_workers > t->spec.min_workers) {
            --t->live_workers;
            ++t->shrink_events;
            t->exited.push_back(slot);  // reaped on the next spawn
            t->idle_cv.notify_all();
            return;
          }
        } else {
          t->work_cv.wait(lk);
        }
      }
      if (t->queue.empty()) {  // stopping with nothing left
        --t->live_workers;
        t->idle_cv.notify_all();
        return;
      }
      job = std::move(t->queue.front());
      t->queue.pop_front();
      ++t->inflight;
    }
    rt::ProgramStats run{};
    bool ok = true;
    try {
      run = t->spec.handler(t->env);
    } catch (...) {
      ok = false;  // counted below; a tenant bug must not kill the pool
    }
    // The completion callback runs while the job still counts as
    // inflight: drain() must not return while a done callback can still
    // touch caller state (replay()'s latency vectors live on its stack).
    if (job.done) {
      try {
        job.done();
      } catch (...) {
        // A throwing completion must not kill the pool either.
      }
    }
    {
      std::lock_guard<std::mutex> lk(t->mu);
      --t->inflight;
      if (ok) {
        ++t->completed;
        accumulate(t->rollup, run);
      } else {
        ++t->failed;
      }
      if (t->queue.empty() && t->inflight == 0) t->idle_cv.notify_all();
    }
  }
}

void Server::drain_tenant(const std::shared_ptr<Tenant>& t) {
  std::unique_lock<std::mutex> lk(t->mu);
  t->idle_cv.wait(lk,
                  [&] { return t->queue.empty() && t->inflight == 0; });
}

void Server::stop_and_join(const std::shared_ptr<Tenant>& t) {
  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> lk(t->mu);
    t->stopping = true;
    threads.swap(t->threads);  // no spawns after stopping
    t->exited.clear();         // the swap owns every handle now
  }
  t->work_cv.notify_all();
  for (auto& th : threads) {
    if (th.joinable()) th.join();
  }
}

TenantStats Server::snapshot(const Tenant& t) {
  TenantStats s;
  s.id = t.id;
  s.name = t.spec.name;
  s.cpus = t.env.cpus;
  s.width_pus = t.carve.width;
  s.submitted = t.submitted;
  s.completed = t.completed;
  s.shed = t.shed;
  s.failed = t.failed;
  s.workers = t.live_workers;
  s.peak_workers = t.peak_workers;
  s.thread_slots = t.threads.size();
  s.grow_events = t.grow_events;
  s.shrink_events = t.shrink_events;
  s.runtime = t.rollup;
  return s;
}

dist::Registry& Server::dist_registry() {
  std::lock_guard<std::mutex> lk(dist_mu_);
  if (registry_ == nullptr) registry_ = std::make_unique<dist::Registry>();
  return *registry_;
}

std::string Server::serve_dist(
    std::unique_ptr<dist::ServerTransport> transport) {
  dist::Registry& reg = dist_registry();
  reg.serve(std::move(transport));
  return reg.address();
}

std::string Server::export_location(TenantId id, const std::string& name,
                                    rt::Location* loc) {
  std::shared_ptr<Tenant> t = find(id);
  if (t == nullptr) {
    throw std::out_of_range("Server::export_location: unknown tenant " +
                            std::to_string(id));
  }
  const std::string full = t->spec.name + "/" + name;
  dist::Registry& reg = dist_registry();
  reg.export_location(full, loc);
  {
    std::lock_guard<std::mutex> lk(t->mu);
    t->dist_exports.push_back(full);
  }
  // Re-check admission: an evict() that raced us may have swept the
  // tenant's export list before our push landed. Seeing the tenant here
  // means our push preceded the sweep (the sweep runs after the erase
  // this find would have observed), so eviction will unexport us;
  // otherwise we roll back ourselves (unexport is idempotent).
  if (find(id) == nullptr) {
    reg.unexport(full);
    throw std::out_of_range("Server::export_location: tenant " +
                            std::to_string(id) + " is being evicted");
  }
  return full;
}

}  // namespace orwl::server
