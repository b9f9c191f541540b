// The v2 program facade and its per-task view.
//
// orwl::Program wraps rt::Program and owns the typed link tables the
// guards operate on. It runs in one of two modes:
//
//  - imperative (constructed directly): task bodies receive a Task& and
//    do the classic init phase themselves — scale, typed read()/write()
//    inserts, schedule() — exactly Listing 1 with types. This path also
//    serves dynamic-insert workloads: read()/write() after schedule()
//    become live inserts like v1 Handle inserts.
//  - declarative (produced by ProgramBuilder): the task-location graph
//    was declared before run(), the runtime already knows every access
//    (dependency_get()/affinity_compute() work pre-run, and
//    ProgramBuilder::comm_matrix() needs no program at all), and bodies
//    start after the schedule barrier with their links ready for lookup
//    (read_link()/write_link()).
//
// Either way a run starts one thread per task and no other: a guard's
// release grants the location to the next request on the releasing
// thread (rt::RequestQueue::release), and Task::for_each runs its items
// on the task threads.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <typeinfo>
#include <vector>

#include "orwl/fifo.hpp"
#include "orwl/guards.hpp"
#include "orwl/typed.hpp"
#include "runtime/fifo.hpp"
#include "runtime/handle.hpp"
#include "runtime/program.hpp"
#include "runtime/steal_executor.hpp"

namespace orwl {

namespace dist {
class Registry;
}

class Task;
class Program;
class ProgramBuilder;

/// Body of one task in the v2 surface.
using TaskBody = std::function<void(Task&)>;

/// Combiner of the all-task iteration reduction (reduce_iteration and
/// the converged run_iterations driver). Sum is the historical default;
/// Min/Max serve predicates like "stop when the largest block residual
/// drops below eps" without sign tricks.
enum class ReduceOp { Sum, Min, Max };

/// Handed to every Task::for_each item body. push() publishes a newly
/// discovered work item into the executing worker's deque, where any
/// participating task can steal it — the dynamic-work alternative to
/// recursing on the discovering task's stack.
class StealContext {
 public:
  void push(std::uint64_t item) { wc_->push(item); }

 private:
  friend class Program;
  explicit StealContext(rt::StealExecutor::WorkerContext& wc) : wc_(&wc) {}
  rt::StealExecutor::WorkerContext* wc_;
};

/// Body of one dynamic work item (Task::for_each).
using ForEachBody = std::function<void(std::uint64_t, StealContext&)>;

/// Program construction options (the v1 options re-exported: affinity
/// mode, data transfer, topology, ...).
using Options = rt::ProgramOptions;

class Program {
 public:
  /// Imperative-mode program: `num_tasks` tasks whose bodies run the
  /// init phase themselves. locations_per_task comes from `opts` as in
  /// v1. Declarative programs are created through ProgramBuilder.
  explicit Program(std::size_t num_tasks, Options opts = {});

  Program(Program&&) noexcept;
  Program& operator=(Program&&) noexcept;
  ~Program();

  /// Same body for every task (SPMD), or per task.
  void set_task_body(TaskBody fn);
  void set_task_body(TaskId id, TaskBody fn);

  /// Spawn one thread per task, run all bodies to completion, join.
  /// Rethrows the first task exception, if any.
  void run();

  // ---- introspection ------------------------------------------------------
  std::size_t num_tasks() const noexcept { return rt_->num_tasks(); }
  bool declarative() const noexcept { return declarative_; }
  const topo::Topology& topology() const noexcept { return rt_->topology(); }
  const rt::ProgramStats& stats() const noexcept { return rt_->stats(); }

  /// Decayed measured communication matrix (ORWL_REPLACE metering);
  /// zero-order until the meter has harvested at least once.
  tm::CommMatrix measured_matrix() const { return rt_->measured_matrix(); }

  /// Online re-placements performed so far (live; stats().replacements
  /// is the post-run snapshot).
  std::uint64_t replacements() const noexcept { return rt_->replacements(); }

  /// Iterations declared for `id` via TaskSpec::iterates (0 undeclared).
  std::size_t iterations_of(TaskId id) const;

  rt::Location& location(LocRef r) { return rt_->location(r.task, r.slot); }

  /// Host-side typed view of a location (init/inspection; see Local).
  template <typename T>
  Local<T> local(LocRef r) {
    return Local<T>(location(r));
  }

  // ---- the advanced affinity API (Sec. IV-B), v2 names --------------------
  // For a declarative program these work before run(): the graph was
  // registered at build() time, so the matrix and the placement can be
  // inspected without executing a single task body.
  void dependency_get() { rt_->dependency_get(); }
  void affinity_compute() { rt_->affinity_compute(); }
  void affinity_set() { rt_->affinity_set(); }
  const tm::CommMatrix& comm_matrix() const { return rt_->comm_matrix(); }
  const tm::Placement& placement() const { return rt_->placement(); }

  /// The wrapped v1 runtime — the escape hatch for surfaces the facade
  /// does not (yet) type, and for tests that inspect runtime state.
  rt::Program& runtime() noexcept { return *rt_; }
  const rt::Program& runtime() const noexcept { return *rt_; }

  // ---- distributed ORWL (src/dist) ----------------------------------------

  /// Export the location at `r` under `name` in `reg`: remote processes
  /// can then attach it via reg.url(name) and their guards join this
  /// location's FIFO. The program must outlive reg.stop().
  /// \throws std::invalid_argument on a duplicate name (Registry rule).
  void export_location(LocRef r, const std::string& name,
                       dist::Registry& reg);

  /// Register every export declared on the builder
  /// (ProgramBuilder::export_location) with `reg`. Call once per
  /// registry, before or after reg.serve().
  void serve_exports(dist::Registry& reg);

  /// Attach to a remote location by URL — "orwl://host:port/name" (tcp)
  /// or "orwl+shm://base/name" (shm). The client session is owned by the
  /// program (one per endpoint, shared across names) and closed with it;
  /// repeated calls with the same URL return the same location. The
  /// returned location satisfies the full guard surface: pass it to
  /// Task::read/write or a standalone rt::Handle.
  /// \throws std::invalid_argument on a malformed URL or a missing /name;
  ///         std::runtime_error when the home rejects or is unreachable.
  rt::Location& remote(const std::string& url);

  // ---- FIFO channels (Sec. V-C), declared on the builder ------------------

  /// The producer endpoint of channel `name`. Task bodies go through
  /// Task::fifo_out (which adds the element-type check).
  /// \throws std::logic_error for an unknown channel, a task that is not
  ///         its producer, or a declared-type mismatch.
  rt::FifoProducer& fifo_producer(TaskId task, std::string_view name,
                                  const std::type_info* type);

  /// The consumer endpoint of channel `name` belonging to `task`.
  rt::FifoConsumer& fifo_consumer(TaskId task, std::string_view name,
                                  const std::type_info* type);

  /// All-task reduction used by the converged-predicate iteration
  /// driver: blocks until every task of the program has contributed one
  /// value for the current generation, then returns the combined value
  /// to all of them. Every task must call it the same number of times
  /// with the same combiner (Task::run_iterations(pred, body, op)
  /// guarantees that); a combiner mismatch within one generation throws
  /// std::logic_error. Once a task's body has returned or thrown, this
  /// throws std::runtime_error naming it instead of waiting for it.
  double reduce_iteration(double value, ReduceOp op);
  double reduce_iteration(double value) {
    return reduce_iteration(value, ReduceOp::Sum);
  }

 private:
  friend class Task;
  friend class ProgramBuilder;

  /// One pre-declared link: where it points, how, with which element
  /// type (null = declared untyped, matches any element type), and the
  /// runtime handle that will carry the ticket.
  struct DeclaredLink {
    LocRef target;
    AccessMode mode = AccessMode::Read;
    const std::type_info* type = nullptr;
    std::unique_ptr<rt::Handle2> handle;
  };

  /// Declarative-mode lookup used by Task::read_link/write_link.
  rt::Handle& declared_handle(TaskId task, LocRef target, AccessMode mode,
                              const std::type_info* type);

  /// One consumer endpoint of a channel: the task, its rt consumer, and
  /// the pre-declared read handles the consumer drives (ring order).
  struct FifoConsumerEnd {
    TaskId task = 0;
    rt::FifoConsumer fifo;
    std::vector<std::unique_ptr<rt::Handle2>> handles;
  };

  /// One declared channel: `depth` consecutive producer-owned slots
  /// starting at first_slot back the ring; handles live here for the
  /// program's lifetime, the rt endpoints adopt() them.
  struct FifoChannel {
    std::string name;
    TaskId producer = 0;
    std::size_t first_slot = 0;
    std::size_t depth = 0;
    std::size_t bytes = 0;
    const std::type_info* type = nullptr;  // null = untyped channel
    rt::FifoProducer out;
    std::vector<std::unique_ptr<rt::Handle2>> producer_handles;
    std::vector<std::unique_ptr<FifoConsumerEnd>> consumers;
  };

  FifoChannel& channel_of(TaskId task, std::string_view name,
                          const std::type_info* type, const char* what);

  /// Whether `t` produces or consumes any declared channel (such a task
  /// needs a body even with an empty link table: its channel handles
  /// hold queue tickets).
  bool fifo_participant(TaskId t) const noexcept;

  /// State of reduce_iteration, written under the rendezvous lock.
  struct Reducer {
    double acc = 0.0;             ///< running combination, seeded by the
                                  ///< first arriver of each generation
    ReduceOp op = ReduceOp::Sum;  ///< combiner of the open generation
    double published = 0.0;
  };

  /// Build the for_each executor: one worker per task, on the task's
  /// placed PU (round-robin PUs while unplaced), with that PU's node and
  /// the node's arena.
  void make_steal_executor();

  /// The collective behind Task::for_each: entry rendezvous (everyone
  /// seeds its own deque before any worker starts), the steal loop, and
  /// an exit rendezvous (nobody seeds the next collective while a
  /// worker of this one could still sweep; the first exception an item
  /// threw is rethrown there on every task).
  void for_each_impl(TaskId task, std::span<const std::uint64_t> seeds,
                     const ForEachBody& body);

  /// Client sessions behind remote() (one per endpoint), heap-held so
  /// the header needs no dist includes and Program stays movable.
  struct RemoteState;

  std::unique_ptr<rt::Program> rt_;
  std::unique_ptr<RemoteState> remote_;
  std::vector<std::pair<LocRef, std::string>> declared_exports_;
  bool declarative_ = false;
  std::vector<std::vector<DeclaredLink>> links_;  // per task, build order
  std::vector<std::size_t> iterations_;           // per task, 0 undeclared
  std::vector<TaskBody> init_;                    // declarative init phase
  std::vector<TaskBody> bodies_;
  std::vector<std::unique_ptr<FifoChannel>> fifos_;  // declaration order
  Reducer red_;
  /// The for_each executor: built by the first task that reaches a
  /// for_each and reused by every later collective.
  std::unique_ptr<rt::StealExecutor> steal_;
};

/// Per-task view of a v2 program — the argument of every task body.
/// Links created imperatively are owned by the Task (they live for the
/// body's duration, like v1 stack handles); declared links live in the
/// program and are looked up by (location, mode, element type).
class Task {
 public:
  TaskId id() const noexcept { return ctx_->id(); }  ///< orwl_mytid
  std::size_t num_tasks() const noexcept { return ctx_->num_tasks(); }
  Program& program() noexcept { return *prog_; }

  /// Coordinates of this task's own location `slot`.
  LocRef mine(std::size_t slot = 0) const noexcept {
    return LocRef{ctx_->id(), slot};
  }

  /// Typed view of any location; my<T>(slot) for the task's own.
  template <typename T>
  Local<T> local(LocRef r) {
    return prog_->local<T>(r);
  }
  template <typename T>
  Local<T> my(std::size_t slot = 0) {
    return local<T>(mine(slot));
  }

  // ---- imperative init phase (and live inserts after schedule) -----------

  /// orwl_write_insert, typed: link this task to `r` with exclusive
  /// access. Before schedule() this is an init-phase insert; afterwards
  /// a live (dynamic-mode) insert. The returned token stays valid for
  /// the rest of the body.
  template <typename T>
  WriteLink<T> write(LocRef r, std::uint64_t priority) {
    rt::Handle2& h = make_handle();
    h.write_insert(*ctx_, prog_->location(r), priority);
    return WriteLink<T>(h);
  }

  /// orwl_read_insert, typed (readers at the FIFO head share the grant).
  template <typename T>
  ReadLink<T> read(LocRef r, std::uint64_t priority) {
    rt::Handle2& h = make_handle();
    h.read_insert(*ctx_, prog_->location(r), priority);
    return ReadLink<T>(h);
  }

  // ---- links to locations outside this program (distributed ORWL) ---------

  /// Link to a location that is not in this program's task/slot grid —
  /// typically a RemoteLocation from Program::remote(), whose home FIFO
  /// lives in another process. The request enqueues at the tail
  /// immediately (no schedule barrier: the home orders it globally), and
  /// the iterative re-insert cycle runs over the wire like any other
  /// guard cycle.
  template <typename T>
  WriteLink<T> write(rt::Location& l) {
    rt::Handle2& h = make_handle();
    h.insert_standalone(l, AccessMode::Write);
    return WriteLink<T>(h);
  }

  template <typename T>
  ReadLink<T> read(rt::Location& l) {
    rt::Handle2& h = make_handle();
    h.insert_standalone(l, AccessMode::Read);
    return ReadLink<T>(h);
  }

  // ---- declarative link lookup -------------------------------------------

  /// The link declared with TaskSpec::writes on `r` for this task.
  /// The full declared type must match — `T[]` and `T` are different
  /// shapes on purpose, so a scalar lookup cannot silently alias an
  /// array location's first element.
  /// \throws std::logic_error when the program is imperative, no such
  ///         declaration exists, or the declared type differs.
  template <typename T>
  WriteLink<T> write_link(LocRef r) {
    return WriteLink<T>(
        prog_->declared_handle(id(), r, AccessMode::Write, &typeid(T)));
  }

  /// The link declared with TaskSpec::reads on `r` for this task.
  template <typename T>
  ReadLink<T> read_link(LocRef r) {
    return ReadLink<T>(
        prog_->declared_handle(id(), r, AccessMode::Read, &typeid(T)));
  }

  // ---- declared FIFO channels ---------------------------------------------

  /// The producer endpoint of the channel this task declared with
  /// TaskSpec::fifo_out. The declared type must match (T = void for the
  /// untyped byte view).
  template <typename T = void>
  FifoOut<T> fifo_out(std::string_view name) {
    const std::type_info* type = nullptr;
    if constexpr (!std::is_void_v<T>) type = &typeid(T);
    return FifoOut<T>(prog_->fifo_producer(id(), name, type));
  }

  /// The consumer endpoint declared with TaskSpec::fifo_in.
  template <typename T = void>
  FifoIn<T> fifo_in(std::string_view name) {
    const std::type_info* type = nullptr;
    if constexpr (!std::is_void_v<T>) type = &typeid(T);
    return FifoIn<T>(prog_->fifo_consumer(id(), name, type));
  }

  // ---- phases -------------------------------------------------------------

  /// orwl_schedule (imperative mode only: declarative bodies start after
  /// the barrier, so calling this from one is an error).
  void schedule();

  /// Iteration count declared via TaskSpec::iterates (0 undeclared).
  std::size_t iterations() const { return prog_->iterations_of(id()); }

  /// The iteration driver: run `body(iter)` k times — the Handle2
  /// re-insert cycle keeps all links synchronized between iterations, so
  /// this replaces the hand-rolled per-iteration loops. Each iteration
  /// boundary ticks the measurement-driven re-placement engine (a
  /// relaxed counter when ORWL_REPLACE is off).
  template <typename F>
    requires std::is_invocable_v<F&, std::size_t>
  void run_iterations(std::size_t k, F&& body) {
    for (std::size_t i = 0; i < k; ++i) {
      body(i);
      ctx_->program().replace_tick();
    }
  }

  /// Iteration driver over the declared iterates(n) count.
  template <typename F>
    requires std::is_invocable_v<F&, std::size_t>
  void run_iterations(F&& body) {
    run_iterations(iterations(), std::forward<F>(body));
  }

  /// Converged-predicate iteration driver: `body(iter)` returns this
  /// task's local contribution (e.g. its block's residual), the values
  /// are reduced with `op` across ALL tasks of the program at the
  /// iteration boundary (sum by default), and every task keeps
  /// iterating until `pred(global)` says stop. Because each task
  /// evaluates the same predicate on the same combined value,
  /// termination is uniform — no task can leave the loop while another
  /// re-inserts its locks. Every task of the program must drive its
  /// loop through this overload with the same `op` (the reduction
  /// blocks for all of them, and throws once one has left its body).
  /// Returns the number of iterations executed.
  template <typename Pred, typename F>
    requires(std::is_invocable_r_v<bool, Pred&, double> &&
             std::is_invocable_r_v<double, F&, std::size_t>)
  std::size_t run_iterations(Pred&& pred, F&& body,
                             ReduceOp op = ReduceOp::Sum) {
    for (std::size_t i = 0;; ++i) {
      const double local = body(i);
      const double global = prog_->reduce_iteration(local, op);
      ctx_->program().replace_tick();
      if (pred(global)) return i + 1;
    }
  }

  // ---- dynamic work (the steal executor, Sec. IV-A's thaw in reverse) -----

  /// Collective dynamic-work driver: every task of the program calls
  /// for_each with its share of the initial items; the items — plus
  /// everything the bodies push() — are executed by all tasks together
  /// under the topology-aware steal executor (ORWL_STEAL /
  /// Options::steal policy), and the call returns on every task once
  /// ALL items are done (hierarchical termination detection, no
  /// ping-pong barrier). Items run on this program's task threads only:
  /// a thread blocked on an ORWL lock, of this program or another, just
  /// parks. Bodies of one collective must be functionally identical
  /// across tasks and must not acquire ORWL locks (a blocked acquire
  /// inside an item would stall the worker's deque).
  /// A throwing item counts as executed; the first item exception is
  /// rethrown on every task once all items are done. A task leaving its
  /// body first makes for_each throw std::runtime_error naming it.
  void for_each(std::span<const std::uint64_t> seeds,
                const ForEachBody& body) {
    prog_->for_each_impl(id(), seeds, body);
  }

  /// The wrapped v1 context — escape hatch for rt:: interop (FIFO
  /// channels, raw handles).
  rt::TaskContext& context() noexcept { return *ctx_; }

 private:
  friend class Program;
  Task(Program& p, rt::TaskContext& ctx) : prog_(&p), ctx_(&ctx) {}

  rt::Handle2& make_handle() {
    owned_.push_back(std::make_unique<rt::Handle2>());
    return *owned_.back();
  }

  Program* prog_;
  rt::TaskContext* ctx_;
  std::vector<std::unique_ptr<rt::Handle2>> owned_;
};

}  // namespace orwl
