// Multi-tenant ORWL server: many concurrent ORWL programs on one machine.
//
// The paper places ONE program on the whole machine (Algorithm 1 assumes
// it owns every PU). This layer extends the model to a long-running
// harness that admits many programs (tenants) onto one host, carving the
// topology between them with the same contiguous-subtree rule the
// runtime's ShardMap uses: each tenant receives a run of whole free
// subtrees (topo::carve_subtrees) materialized as a private sub-topology
// (topo::subtopology), so Algorithm 1 runs unchanged inside the carve and
// no two tenants ever share a PU, a shard, or an arena node.
//
// Admission is all-or-nothing: when no contiguous run of whole free
// subtrees covers the requested width, admit() rejects instead of
// splintering the tenant across locality domains. Each tenant owns an
// elastic pool of worker threads replaying requests against its handler;
// the pool grows when the backlog outruns the workers and shrinks back
// to its floor when traffic goes quiet.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "dist/registry.hpp"
#include "dist/transport.hpp"
#include "runtime/program.hpp"
#include "topo/cpuset.hpp"
#include "topo/shard.hpp"
#include "topo/topology.hpp"

namespace orwl::server {

/// What a tenant's handler sees: its private slice of the machine. The
/// pointers stay valid until the tenant is evicted (or the Server dies).
struct TenantEnv {
  /// The carved sub-topology (os indices preserved, so placements bind
  /// to the host's real PUs when binding is on).
  const topo::Topology* topology = nullptr;
  /// OS indices of the PUs this tenant owns.
  topo::CpuSet cpus;
  /// The tenant's admission name (also its diagnostics tag).
  std::string name;

  /// Program options pre-composed for this tenant: the server's base
  /// options with `topology`, `tag` and the acquire-timeout diagnostics
  /// pointing at this tenant. Handlers pass this (possibly tweaked) to
  /// ProgramBuilder / the apps entry points.
  rt::ProgramOptions program_options() const { return opts_; }

  rt::ProgramOptions opts_;  ///< filled by Server::admit
};

/// One request's worth of work: run the tenant's program once inside its
/// carve-out and report the runtime counters (the server rolls them up
/// per tenant). Handlers run on tenant worker threads and may run
/// concurrently with themselves when the pool has grown.
using Handler = std::function<rt::ProgramStats(const TenantEnv&)>;

/// Admission request.
struct TenantSpec {
  std::string name;
  /// PUs requested; the carve may be wider (whole subtrees only).
  std::size_t width_pus = 1;
  /// Elastic worker-pool bounds: the pool starts (and idles back down)
  /// at min_workers and grows up to max_workers with the backlog.
  std::size_t min_workers = 1;
  std::size_t max_workers = 2;
  Handler handler;
};

struct ServerOptions {
  /// Machine to carve. Null => detect the host (ORWL_TOPOLOGY honored).
  const topo::Topology* topology = nullptr;

  /// Bind tenant worker threads to their tenant's cpuset. Advisory:
  /// fixture topologies name PUs the host does not have, so failures are
  /// tolerated (same contract as topo::bind_current_thread).
  bool bind_threads = false;

  // Unset fields follow their ORWL_SERVER_* variable (support::resolve);
  // set fields always beat it.

  /// Admission ceiling. ORWL_SERVER_MAX_TENANTS, default 8.
  std::optional<std::size_t> max_tenants;
  /// Per-tenant request-queue capacity; submits beyond it are shed.
  /// ORWL_SERVER_QUEUE_CAP, default 256.
  std::optional<std::size_t> queue_capacity;
  /// Grow the pool when queued > grow_backlog * workers.
  /// ORWL_SERVER_GROW_BACKLOG, default 2.
  std::optional<std::size_t> grow_backlog;
  /// A worker above the floor exits after this long without work.
  /// ORWL_SERVER_SHRINK_IDLE_MS, default 50.
  std::optional<std::uint64_t> shrink_idle_ms;

  /// Base program options every tenant starts from; the server overrides
  /// topology (the carve) and tag (the tenant name) per tenant. Leave
  /// bind_threads=false here when carving a fixture topology.
  rt::ProgramOptions base;
};

using TenantId = std::size_t;

/// Point-in-time tenant snapshot (counters monotone over its lifetime).
struct TenantStats {
  TenantId id = 0;
  std::string name;
  topo::CpuSet cpus;
  std::size_t width_pus = 0;       ///< PUs actually carved (>= requested)
  std::uint64_t submitted = 0;     ///< accepted into the queue
  std::uint64_t completed = 0;     ///< handler runs finished OK
  std::uint64_t shed = 0;          ///< rejected: queue at capacity
  std::uint64_t failed = 0;        ///< handler runs that threw
  std::size_t workers = 0;         ///< live pool size now
  std::size_t peak_workers = 0;
  /// Thread handles the pool retains (live + not-yet-reaped). Shrunk-out
  /// workers are joined and their slots reused on the next spawn, so
  /// this stays bounded by peak_workers under grow/shrink churn.
  std::size_t thread_slots = 0;
  std::uint64_t grow_events = 0;
  std::uint64_t shrink_events = 0;
  /// Sum of the ProgramStats of every completed run (SLO rollup).
  rt::ProgramStats runtime;
};

/// Field-wise sum of two ProgramStats (booleans OR); the per-tenant
/// rollup rule, exposed for tests and benches.
void accumulate(rt::ProgramStats& into, const rt::ProgramStats& run);

class Server {
 public:
  explicit Server(ServerOptions opts = {});
  /// Evicts every remaining tenant (completing queued work) and joins
  /// all worker threads.
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Admit a tenant: carve spec.width_pus PUs out of the free part of
  /// the machine and start its worker pool.
  /// \return The tenant id (never 0).
  /// \throws std::invalid_argument on a malformed spec (empty name or
  ///         handler, zero width, min_workers > max_workers).
  /// \throws std::runtime_error when the server is full or no contiguous
  ///         run of whole free subtrees covers the width.
  TenantId admit(TenantSpec spec);

  /// admit() that reports rejection as nullopt instead of throwing
  /// (malformed specs still throw).
  std::optional<TenantId> try_admit(TenantSpec spec);

  /// Remove a tenant: stop admission of new requests, complete what is
  /// already queued, join its workers, return its PUs to the free pool.
  /// Unknown/already-evicted ids are a no-op (concurrent evictors race
  /// benignly).
  void evict(TenantId id);

  /// Enqueue one request for the tenant. Open-loop friendly: returns
  /// immediately; `done` (may be null) runs on the worker after the
  /// handler finishes (success or failure).
  /// \return false when the request was shed (queue at capacity) or the
  ///         tenant is gone — the caller's loss counter, not an error.
  bool submit(TenantId id, std::function<void()> done = nullptr);

  /// Block until the tenant's queue is empty and no handler is running.
  /// No-op for unknown ids.
  void drain(TenantId id);
  /// drain() every current tenant.
  void drain_all();

  /// Whether the tenant is currently admitted. Turns false as soon as
  /// an evict() begins (its queued work may still be completing).
  bool has_tenant(TenantId id) const;

  /// Snapshot one tenant (throws std::out_of_range on unknown id) /
  /// all tenants (admission order).
  TenantStats stats(TenantId id) const;
  std::vector<TenantStats> stats() const;

  /// The tenant's carved PUs (throws std::out_of_range on unknown id).
  topo::CpuSet tenant_cpus(TenantId id) const;
  /// The tenant's private sub-topology (valid until eviction).
  const topo::Topology& tenant_topology(TenantId id) const;

  std::size_t num_tenants() const;
  /// Union of all carved PUs right now.
  topo::CpuSet taken() const;
  /// The machine being carved.
  const topo::Topology& topology() const { return *topo_; }

  // ---- remote attach (distributed ORWL) -----------------------------------

  /// Start serving tenant-exported locations over `transport` (shm or
  /// tcp; at most one per server). Remote processes connect with
  /// dist::Client against the returned address.
  /// \return The transport's connectable address.
  std::string serve_dist(std::unique_ptr<dist::ServerTransport> transport);

  /// Export `loc` for remote attach under the tenant-namespaced name
  /// "<tenant-name>/<name>" — tenants cannot collide or squat on each
  /// other's names, and evicting the tenant unexports everything it
  /// published (in-flight proxies drain first; see Registry::unexport).
  /// `loc` must stay valid until the tenant is evicted. Typically called
  /// from the tenant's own handler with a program-owned location.
  /// \return The full exported name ("<tenant-name>/<name>").
  /// \throws std::out_of_range on an unknown/evicted tenant;
  ///         std::invalid_argument on a duplicate name.
  std::string export_location(TenantId id, const std::string& name,
                              rt::Location* loc);

  /// The registry behind serve_dist/export_location (created on first
  /// use, so exports may precede serve_dist).
  dist::Registry& dist_registry();

  // Resolved option values (after env fallback) — test introspection.
  std::size_t max_tenants() const noexcept { return max_tenants_; }
  std::size_t queue_capacity() const noexcept { return queue_cap_; }
  std::size_t grow_backlog() const noexcept { return grow_backlog_; }
  std::uint64_t shrink_idle_ms() const noexcept { return shrink_idle_ms_; }

 private:
  struct Tenant;

  std::shared_ptr<Tenant> find(TenantId id) const;
  void worker_loop(const std::shared_ptr<Tenant>& t, std::size_t slot);
  void spawn_worker_locked(const std::shared_ptr<Tenant>& t);
  static void reap_exited_locked(Tenant& t);
  static void stop_and_join(const std::shared_ptr<Tenant>& t);
  static void drain_tenant(const std::shared_ptr<Tenant>& t);
  static TenantStats snapshot(const Tenant& t);

  ServerOptions opts_;
  topo::Topology owned_topo_;          ///< used when opts_.topology == null
  const topo::Topology* topo_ = nullptr;
  std::size_t max_tenants_ = 0;
  std::size_t queue_cap_ = 0;
  std::size_t grow_backlog_ = 0;
  std::uint64_t shrink_idle_ms_ = 0;

  mutable std::mutex mu_;              ///< guards tenants_/taken_/next_id_
  std::map<TenantId, std::shared_ptr<Tenant>> tenants_;
  topo::CpuSet taken_;
  TenantId next_id_ = 1;

  mutable std::mutex dist_mu_;         ///< guards lazy registry_ creation
  std::unique_ptr<dist::Registry> registry_;
};

}  // namespace orwl::server
