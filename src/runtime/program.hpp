// The ORWL program: tasks, locations, the schedule barrier and the
// integration point of the affinity module.
//
// Lifecycle (mirrors Listing 1 of the paper):
//   1. Construct a Program with N tasks (orwl_init).
//   2. Each task body scales its locations (orwl_scale) and links handles
//      (orwl_read_insert / orwl_write_insert).
//   3. Each task calls TaskContext::schedule() (orwl_schedule): a barrier
//      at which the runtime sorts and enqueues all initial requests,
//      freezes the task-location graph — and, when ORWL_AFFINITY=1, runs
//      the affinity module and binds every task thread.
//   4. Tasks enter their compute phase using Sections on the handles.
//   5. A task whose body returns or throws has departed: every all-task
//      collective (rendezvous()) still open or opened later then fails.
//
// The advanced API of Sec. IV-B is exposed as the three parameter-less
// methods dependency_get() / affinity_compute() / affinity_set(), which
// "only change the internal state of the ORWL runtime".
//
// A Program runs no thread besides its tasks. The paper's runtime adds
// control threads that "freeze and thaw processing threads" (Sec. IV-A);
// here every release grants the next head group on the releasing thread
// (RequestQueue::release): one wake per hand-off instead of two, which
// measured no slower on any benchmark workload. Control threads survive
// only in Algorithm 1 (tm::Options::num_control_threads) and the
// simulator.
#pragma once

#include <atomic>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "affinity/affinity.hpp"
#include "runtime/arena.hpp"
#include "runtime/graph.hpp"
#include "runtime/location.hpp"
#include "runtime/steal_executor.hpp"
#include "topo/topology.hpp"
#include "treematch/treematch.hpp"

namespace orwl::rt {

class TaskContext;
class Handle;
class CommMeter;

using TaskFn = std::function<void(TaskContext&)>;

/// Automatic placement at orwl_schedule(); Off/On are ORWL_AFFINITY's 0/1.
enum class AffinityMode {
  Off,  ///< never place
  On,   ///< always place
};

/// Online re-placement policy (ORWL_REPLACE / ProgramOptions::replace):
/// whether the runtime measures the communication matrix the grant engine
/// actually observes and re-runs Algorithm 1 when it diverges from the
/// declared one. Enumerators follow support::knob::kReplace's spellings.
enum class ReplaceMode {
  Off,      ///< no measurement, no re-placement (zero overhead)
  Passive,  ///< measure and count divergence triggers, never move anything
  Auto,     ///< measure and re-place when divergence crosses the threshold
};

const char* to_string(ReplaceMode m) noexcept;

/// Every knob below that has an ORWL_* variable is a std::optional: unset
/// follows the variable (support::resolve; see the table in
/// support/env.hpp), set always beats it.
struct ProgramOptions {
  std::size_t locations_per_task = 1;

  /// Run the affinity module at orwl_schedule(). Unset follows
  /// ORWL_AFFINITY (default off), the paper's one-variable switch.
  std::optional<AffinityMode> affinity;

  /// Topology to place on. Null => detect the host machine. The pointed-to
  /// topology must outlive the Program.
  const topo::Topology* topology = nullptr;

  tm::GroupingEngine engine = tm::GroupingEngine::Auto;

  /// When false the placement is computed but no OS binding is issued
  /// (used when placing for a synthetic machine larger than the host).
  bool bind_threads = true;

  /// Deadlock guard, 0 disables: bounds every lock acquire and every
  /// wait at an all-task collective (Program::rendezvous).
  std::uint64_t acquire_timeout_ms = 120000;

  /// Online re-placement policy (measured-matrix feedback loop;
  /// ORWL_REPLACE, default off).
  std::optional<ReplaceMode> replace;

  /// Divergence threshold for the re-placement trigger, >= 0; the
  /// divergence is at most 1, so above 1 never triggers.
  /// ORWL_REPLACE_THRESHOLD, default 0.25.
  std::optional<double> replace_threshold;

  /// Measured-matrix decay per harvest, clamped into [0, 1]; 0 forgets
  /// everything between checks. ORWL_REPLACE_DECAY, default 0.5.
  std::optional<double> replace_decay;

  /// Per-task iterations between divergence checks (0 never checks).
  /// ORWL_REPLACE_INTERVAL, default 16.
  std::optional<std::size_t> replace_interval;

  /// Work-stealing policy of the dynamic-work executor behind
  /// orwl::Task::for_each (ORWL_STEAL: off|all, default all).
  std::optional<StealMode> steal;

  /// Tenant tag carried into lock-protocol diagnostics: every location
  /// queue's acquire-timeout error names its location, owner task, slot
  /// and — when set — this tag, so a stuck program on a multi-tenant
  /// server is attributable without a debugger. Empty = untenanted.
  std::string tag;
};

struct ProgramStats {
  /// Hand-offs granted by a control thread: always 0, since every grant
  /// happens on the releasing or enqueuing thread.
  std::uint64_t control_events = 0;
  /// Grants performed by the queues (RequestQueue::total_grants summed),
  /// all of them on the releasing or enqueuing thread.
  std::uint64_t control_inline_grants = 0;
  /// Node arenas (num_control_shards()): one per NUMA node of the
  /// topology, one on a machine without a NUMA level.
  std::size_t control_shards = 0;
  /// Migrations of live location buffers whose home moved: a
  /// re-placement or a live insert rebinding a buffer off the node it was
  /// already bound to. A buffer's first binding is not counted.
  std::uint64_t data_transfers = 0;
  /// Location buffers bound to their owner's NUMA node at placement time.
  std::size_t locations_bound = 0;
  std::size_t compute_threads_bound = 0;
  std::size_t bind_failures = 0;
  /// Guard teardowns of this program's handles that had to swallow a
  /// throwing release (see rt::guard_teardown_failures; snapshot taken
  /// at the end of run()).
  std::uint64_t guard_teardown_failures = 0;
  bool affinity_applied = false;
  /// Algorithm 1 could not run (e.g. asymmetric host topology) and the
  /// module fell back to the compact-cores placement.
  bool affinity_fallback = false;

  // ---- online re-placement (ORWL_REPLACE) --------------------------------
  /// Times Algorithm 1 actually ran (placements computed). The version
  /// stamp makes repeated affinity_compute() calls on an unchanged graph
  /// hit 1, not N.
  std::uint64_t placement_recomputes = 0;
  /// Divergence checks performed at run_iterations boundaries.
  std::uint64_t replace_checks = 0;
  /// Checks whose divergence exceeded the threshold (passive mode stops
  /// here; auto mode continues into a re-placement).
  std::uint64_t replace_triggers = 0;
  /// Re-placements performed (auto mode only).
  std::uint64_t replacements = 0;
  /// Lock hand-offs observed by the measurement meter.
  std::uint64_t measured_handoffs = 0;
  /// The subset of measured hand-offs crossing NUMA nodes.
  std::uint64_t measured_remote_handoffs = 0;
  /// Placed locations whose buffer was never scaled (or zero-sized) at
  /// placement time: left unbound and counted here instead of inflating
  /// locations_bound.
  std::size_t locations_skipped_unsized = 0;

  // ---- runtime arenas + futex parking -------------------------------------
  /// Backing bytes the node arenas reserved from the OS.
  std::uint64_t arena_bytes = 0;
  /// Slab/large-mapping refills across all node arenas.
  std::uint64_t arena_refills = 0;
  /// Refills whose node-bound pages the host could have placed on the
  /// requested node but did not (fixture-only nodes are not misses).
  std::uint64_t arena_node_misses = 0;
  /// Futex sleeps entered by blocked acquirers.
  std::uint64_t futex_waits = 0;
  /// Futex wake calls issued by granters.
  std::uint64_t futex_wakes = 0;

  // ---- work-stealing executor (ORWL_STEAL) -------------------------------
  /// Items executed by the for_each steal executor.
  std::uint64_t steal_executed = 0;
  /// Steals served by a victim on the thief's own NUMA node.
  std::uint64_t steal_local = 0;
  /// Steals that crossed NUMA nodes (victim order puts these last).
  std::uint64_t steal_remote = 0;
  /// Executor worker sleeps after an exhausted spin budget.
  std::uint64_t steal_parks = 0;
};

class Program {
 public:
  explicit Program(std::size_t num_tasks, ProgramOptions opts = {});
  ~Program();
  Program(const Program&) = delete;
  Program& operator=(const Program&) = delete;

  /// Same body for every task (SPMD, like the C library's main task).
  void set_task_body(TaskFn fn);
  /// Override the body of one task.
  void set_task_body(TaskId id, TaskFn fn);

  /// Spawn one thread per task, run all bodies to completion, join.
  /// Rethrows the first task exception, if any (a root cause comes
  /// before the collective failures its departure causes).
  void run();

  // ---- introspection -----------------------------------------------------
  std::size_t num_tasks() const noexcept { return num_tasks_; }
  std::size_t locations_per_task() const noexcept {
    return opts_.locations_per_task;
  }
  /// Always 0: the program runs no control thread (kept for the
  /// end-to-end benchmark's runtime.control_threads layer).
  std::size_t num_control_threads() const noexcept { return 0; }
  /// The number of node arenas: one per NUMA node of the topology, one
  /// on a machine without a NUMA level.
  std::size_t num_control_shards() const noexcept { return arenas_.size(); }

  /// The arena of NUMA node `node` (its dense index, as returned by
  /// placed_node_of_task): runtime-internal memory of the tasks placed
  /// there — queue windows and slots, its CommMeter bank, steal deques.
  /// Bound to the node, or Arena::kAnyNode when the topology has no NUMA
  /// level. Throws std::out_of_range on a bad index.
  Arena& node_arena(std::size_t node) { return *arenas_.at(node); }
  Location& location(TaskId task, std::size_t slot = 0);
  const topo::Topology& topology() const noexcept { return *topology_; }
  bool affinity_enabled() const noexcept { return affinity_enabled_; }

  /// NUMA node (in this program's topology) of the task's placed PU:
  /// the one locality index of the runtime. It picks the arena of the
  /// task's location queues, the CommMeter bank of their hand-offs, and
  /// (through that arena's node) the node their buffers are bound to.
  /// \param t Task id.
  /// \return The node's dense (logical) index, or -1 while the task is
  ///         unplaced or the topology has no NUMA level.
  int placed_node_of_task(TaskId t) const noexcept {
    return t < num_tasks_ ? task_node_[t].load(std::memory_order_acquire)
                          : -1;
  }
  bool scheduled() const noexcept { return scheduled_; }

  // ---- online re-placement (the measured-matrix feedback loop) ------------

  // ---- work stealing (the for_each executor) ------------------------------

  /// Resolved steal policy (options/env, fixed at construction); the
  /// orwl facade builds its executor from it.
  StealMode steal_mode() const noexcept { return steal_mode_; }

  /// Install the hook run() uses to fold executor counters into
  /// stats() after the tasks join (set once by the facade when a
  /// program first uses for_each; not thread-safe against itself).
  void set_steal_stats_source(std::function<void(ProgramStats&)> fn) {
    steal_stats_source_ = std::move(fn);
  }

  /// The resolved re-placement policy (options/env, fixed at
  /// construction).
  ReplaceMode replace_mode() const noexcept { return replace_policy_; }
  double replace_threshold() const noexcept { return replace_threshold_; }
  double replace_decay() const noexcept { return replace_decay_; }
  std::size_t replace_interval() const noexcept { return replace_interval_; }

  /// The hand-off meter; null under ReplaceMode::Off.
  CommMeter* comm_meter() noexcept { return meter_.get(); }

  /// Iteration-boundary hook of the feedback loop: every task calls this
  /// once per run_iterations iteration. Cheap (one relaxed increment)
  /// until the check interval elapses; then exactly one caller harvests
  /// the meter, evaluates the divergence and — under ReplaceMode::Auto —
  /// re-places the program. Never throws; a failed check is dropped.
  void replace_tick() noexcept;

  /// Snapshot of the decaying measured communication matrix (empty until
  /// the first harvest).
  tm::CommMatrix measured_matrix() const;

  /// Live re-placement count (also snapshotted into stats() at the end
  /// of run()).
  std::uint64_t replacements() const noexcept {
    return replacements_.load(std::memory_order_relaxed);
  }

  /// Live count of Algorithm 1 runs (also snapshotted into stats()).
  /// Lets version-stamp tests observe skipped recomputes before run().
  std::uint64_t placement_recomputes() const noexcept {
    return placement_recomputes_.load(std::memory_order_relaxed);
  }

  /// Version of the task-location graph: bumped by every declared or
  /// registered insert. The matrix and the placement are stamped with the
  /// version they were computed from, so an affinity_compute() against an
  /// unchanged graph skips the Algorithm 1 recompute entirely.
  std::uint64_t graph_version() const noexcept {
    return graph_version_.load(std::memory_order_acquire);
  }

  /// Frozen at schedule(); live inserts afterwards keep appending to it.
  const TaskGraph& graph() const;

  // ---- all-task collectives -----------------------------------------------

  /// The one all-task rendezvous behind every collective (the schedule
  /// barrier, orwl::Program::reduce_iteration, for_each's entry and
  /// exit). Under its lock, `each(k)` (k = earlier arrivals) runs for
  /// every arriving task and `last` for the one closing the generation;
  /// either may be empty. A throwing `each` is no arrival and reaches
  /// only its caller; a throwing `last` reaches every participant.
  /// \throws std::runtime_error naming `what` when a task departed (its
  ///         body returned or threw) before the generation closed, or
  ///         when the wait outlasts ProgramOptions::acquire_timeout_ms.
  void rendezvous(const char* what,
                  const std::function<void(std::size_t)>& each,
                  const std::function<void()>& last);

  // ---- declarative pre-registration (the v2 facade hook) ------------------

  /// Link `handle` to `loc` for `task` *before* run(): the access enters
  /// the task-location graph immediately, so dependency_get() /
  /// affinity_compute() work without executing any task body. The
  /// handle receives its ticket at the schedule barrier like a
  /// body-inserted one; it must outlive the program's run().
  /// Used by orwl::ProgramBuilder; task bodies keep using Handle inserts.
  /// \throws std::logic_error when the handle is linked or the program
  ///         already scheduled; std::out_of_range for a bad task id.
  void declare_insert(TaskId task, Location& loc, AccessMode mode,
                      std::uint64_t priority, Handle& handle);

  /// Live count of swallowed guard-teardown releases on this program's
  /// handles (also snapshotted into stats() at the end of run()).
  std::uint64_t guard_teardown_failures() const noexcept {
    return teardown_failures_.load(std::memory_order_relaxed);
  }

  // ---- the advanced affinity API (Sec. IV-B) ------------------------------
  // "None of the functions of that API take parameters or return values,
  // they only change the internal state of the ORWL runtime."

  /// orwl_dependency_get: (re)compute the communication matrix from the
  /// current task-location graph. Before schedule() the matrix is built
  /// from the declared (pending) accesses, so a declaratively wired
  /// program has its matrix before any task body runs.
  void dependency_get();

  /// orwl_affinity_compute: (re)run Algorithm 1 on the current matrix.
  void affinity_compute();

  /// orwl_affinity_set: bind all live task threads according to the
  /// computed placement.
  void affinity_set();

  const tm::CommMatrix& comm_matrix() const;
  const tm::Placement& placement() const;
  /// Whether affinity_compute() has produced a placement (placement()
  /// throws until then).
  bool have_placement() const noexcept { return have_placement_; }
  const ProgramStats& stats() const noexcept { return stats_; }

 private:
  friend class TaskContext;
  friend class Handle;

  struct PendingInsert {
    LocationId loc;
    AccessMode mode;
    std::uint64_t priority;
    TaskId task;
    std::uint64_t seq;  ///< per-task insertion order (stable tie-break)
    Handle* handle;
  };

  /// Called by Handle inserts before schedule; enqueues live afterwards.
  void register_insert(TaskId task, Location& loc, AccessMode mode,
                       std::uint64_t priority, Handle* handle);

  /// Called by Handle::release_for_teardown when a guard had to swallow.
  void note_teardown_failure() noexcept {
    teardown_failures_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Called by Handle::acquire when the meter is on: attribute one lock
  /// hand-off `from` -> `to` on `loc` to the measured matrix.
  void record_handoff(TaskId from, TaskId to, const Location& loc) noexcept;

  /// The orwl_schedule barrier: a rendezvous whose last arriver runs
  /// freeze_and_place.
  void schedule_barrier(TaskId tid);

  /// Leader-only work at the barrier: sort + enqueue pending requests,
  /// freeze the graph, run the affinity module when enabled.
  void freeze_and_place();

  /// Bind the calling (task) thread according to the placement.
  void bind_self(TaskId tid);

  /// Index of the arena and meter bank serving `owner`'s locations: its
  /// placed node, or owner round-robin while it is unplaced.
  std::size_t home_index(TaskId owner) const noexcept;

  /// Route one location under the current placement: its queue draws
  /// from the arena of home_index(owner), and once the owner is placed
  /// its buffer is bound to that arena's node (bind_home). A buffer that
  /// was never scaled is left unbound: nothing is allocated to place, and
  /// a sticky binding would claim residency that does not exist. Run at
  /// placement for every location and at every live insert, so a
  /// location first touched after schedule() reaches its owner's node at
  /// once. Caller holds place_mu_.
  /// \return Whether the buffer was bound to the owner's node.
  bool route_locked(Location& loc);

  /// Algorithm 1 on an explicit matrix, plus everything that must follow
  /// a new placement: the per-task node index, then route_locked on
  /// every location. Caller holds place_mu_. The core shared by the declared
  /// path (affinity_compute) and the measured path (check_replacement).
  void compute_placement_locked(const tm::CommMatrix& m);

  /// Re-bind live task threads to the current placement (the body of
  /// affinity_set; re-run after an online re-placement).
  /// Caller holds place_mu_.
  void bind_threads_locked();

  /// The single-flight body of replace_tick: harvest the meter, compare
  /// the measured matrix against the one the current placement was
  /// computed from, and re-place under ReplaceMode::Auto.
  void check_replacement();

  const std::size_t num_tasks_;
  ProgramOptions opts_;
  topo::Topology owned_topology_;        // when detected
  const topo::Topology* topology_;       // never null after ctor
  bool affinity_enabled_;

  /// Dense NUMA-node index of each task's placed PU (-1 unplaced);
  /// written under place_mu_, read lock-free by record_handoff.
  std::unique_ptr<std::atomic<int>[]> task_node_;

  /// One arena per NUMA node (index = the node's dense index), backing
  /// the queues and meter bank of the tasks placed there. Declared before
  /// locations_ and meter_: the arenas must be destroyed last, after
  /// everything that frees into them.
  std::vector<std::unique_ptr<Arena>> arenas_;

  std::vector<std::unique_ptr<Location>> locations_;
  std::vector<TaskFn> bodies_;

  // Insert registration (guarded by graph_mu_).
  mutable std::mutex graph_mu_;
  std::vector<PendingInsert> pending_;
  std::vector<std::uint64_t> insert_seq_;  // per task
  TaskGraph graph_;
  bool scheduled_ = false;

  // Rendezvous state, guarded by rv_mu_; waiters park on rv_seq_, bumped
  // whenever a generation closes or a task departs.
  static constexpr TaskId kNoTask = ~TaskId{0};
  std::mutex rv_mu_;
  std::atomic<std::uint32_t> rv_seq_{0};
  std::size_t rv_arrived_ = 0;
  std::uint64_t rv_generation_ = 0;
  std::exception_ptr rv_error_;   ///< what the last `last` threw
  TaskId rv_departed_ = kNoTask;  ///< first task that left its body

  // Placement state (guarded by place_mu_ for the dynamic API).
  mutable std::mutex place_mu_;
  tm::CommMatrix matrix_;
  bool have_matrix_ = false;
  tm::Placement placement_;
  bool have_placement_ = false;

  // Version stamps: the graph version the matrix / placement were
  // computed from (~0 = never). graph_version_ is bumped under graph_mu_;
  // the stamps are guarded by place_mu_.
  static constexpr std::uint64_t kNeverComputed = ~std::uint64_t{0};
  std::atomic<std::uint64_t> graph_version_{0};
  std::uint64_t matrix_version_ = kNeverComputed;
  std::uint64_t placement_version_ = kNeverComputed;

  // Online re-placement state. The measured matrix and the matrix the
  // current placement was computed from (declared at first, measured
  // after a re-placement — the trigger compares against what the
  // placement actually optimizes) are guarded by place_mu_.
  ReplaceMode replace_policy_ = ReplaceMode::Off;
  double replace_threshold_ = 0.25;
  double replace_decay_ = 0.5;
  std::size_t replace_interval_ = 16;
  StealMode steal_mode_ = StealMode::All;
  std::function<void(ProgramStats&)> steal_stats_source_;
  std::unique_ptr<CommMeter> meter_;
  tm::CommMatrix measured_;
  tm::CommMatrix placement_matrix_;
  std::atomic<std::uint64_t> replace_ticks_{0};
  std::atomic<bool> replace_busy_{false};
  std::atomic<std::uint64_t> replace_checks_{0};
  std::atomic<std::uint64_t> replace_triggers_{0};
  std::atomic<std::uint64_t> replacements_{0};
  std::atomic<std::uint64_t> placement_recomputes_{0};

  // Thread registry for affinity_set.
  std::vector<std::thread::native_handle_type> task_handles_;
  std::vector<std::thread> threads_;

  std::atomic<std::uint64_t> teardown_failures_{0};
  ProgramStats stats_;
};

/// Per-task view of the program — the argument of every task body.
class TaskContext {
 public:
  TaskId id() const noexcept { return id_; }             ///< orwl_mytid
  std::size_t num_tasks() const noexcept { return prog_->num_tasks(); }
  Program& program() noexcept { return *prog_; }

  /// Location `slot` of task `task` (ORWL_LOCATION(task, slot)).
  Location& location(TaskId task, std::size_t slot = 0) {
    return prog_->location(task, slot);
  }
  Location& my_location(std::size_t slot = 0) {
    return prog_->location(id_, slot);
  }

  /// orwl_scale for one of the task's own locations.
  void scale(std::size_t bytes, std::size_t slot = 0) {
    my_location(slot).scale(bytes);
  }

  /// orwl_schedule: synchronize and coordinate the requests of all tasks.
  void schedule() { prog_->schedule_barrier(id_); }

 private:
  friend class Program;
  TaskContext(Program& p, TaskId id) : prog_(&p), id_(id) {}
  Program* prog_;
  TaskId id_;
};

}  // namespace orwl::rt
