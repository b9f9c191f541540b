// The declarative task-graph builder of the v2 facade.
//
// "The ORWL programming model exposes all the required pieces of
// information: the tasks, the amount of data they share or exchange (i.e
// the location) and their connectivity" (Sec. IV-A) — the builder lets a
// program state those pieces up front instead of discovering them by
// running the init phase. Each TaskSpec declares what its task owns
// (typed locations), which locations it reads/writes (with FIFO
// priorities), how many iterations it runs, and optionally its init and
// compute bodies. comm_matrix() reads the communication matrix straight
// off those declarations, without creating anything. build()
// materializes a declarative orwl::Program whose task-location graph is
// registered with the runtime immediately: dependency_get() /
// affinity_compute() work before run().
//
//   ProgramBuilder b(kTasks);
//   for (TaskId t = 0; t < kTasks; ++t) {
//     auto& spec = b.task(t);
//     spec.owns<double>().writes<double>(loc(t), t);
//     if (t > 0) spec.reads<double>(loc(t - 1), t);
//   }
//   b.body([](Task& task) { ... guards on task.write_link<double>(...) });
//   tm::CommMatrix m = b.comm_matrix();  // nothing built, nothing run
//   Program p = b.build();
//   p.dependency_get();          // matrix available: nothing has run
//   p.run();
#pragma once

#include <cstdint>
#include <string>
#include <typeinfo>
#include <vector>

#include "orwl/program.hpp"

namespace orwl {

/// Seeds of a declared for_each, computed on the task's own thread
/// after the schedule barrier (e.g. this task's share of a frontier).
using SeedsFn = std::function<std::vector<std::uint64_t>(Task&)>;

/// Declaration record of one task; obtained from ProgramBuilder::task().
/// All declarators return *this for chaining.
class TaskSpec {
 public:
  /// Declare that this task owns location `slot` holding a single T
  /// (orwl_scale happens at build() with sizeof(T)).
  template <typename T>
    requires(!std::is_array_v<T>)
  TaskSpec& owns(std::size_t slot = 0) {
    return own_bytes(slot, sizeof(T));
  }

  /// Declare an owned array location: `count` elements of T.
  ///   spec.owns<double[]>(1024);
  template <typename T>
    requires(std::is_unbounded_array_v<T>)
  TaskSpec& owns(std::size_t count, std::size_t slot = 0) {
    return own_bytes(slot, count * sizeof(std::remove_extent_t<T>));
  }

  /// Declare a write (exclusive) link to `target`. The element type is
  /// checked when the body looks the link up; omit it (T = void) for
  /// untyped blob locations. Default priority 0: writers first is the
  /// common same-iteration pattern.
  template <typename T = void>
  TaskSpec& writes(LocRef target, std::uint64_t priority = 0) {
    return access(target, AccessMode::Write, priority, element_type<T>());
  }

  /// Declare a read (shared) link to `target`. Default priority 1 (after
  /// the owner's write).
  template <typename T = void>
  TaskSpec& reads(LocRef target, std::uint64_t priority = 1) {
    return access(target, AccessMode::Read, priority, element_type<T>());
  }

  /// Declare this task the producer of FIFO channel `name` (Sec. V-C):
  /// a ring of `depth` buffers of one T each, carved out of this task's
  /// slot space at build() time. The body fetches the endpoint with
  /// Task::fifo_out<T>(name). The producer may run depth-1 items ahead
  /// of the consumers.
  template <typename T>
    requires(!std::is_array_v<T> && !std::is_void_v<T>)
  TaskSpec& fifo_out(std::string name, std::size_t depth = 2) {
    return fifo_out_bytes(std::move(name), sizeof(T), depth,
                          element_type<T>());
  }

  /// Array-item channel: each pushed item is `count` elements of T.
  ///   spec.fifo_out<Pixel[]>("frames", width * height);
  template <typename T>
    requires(std::is_unbounded_array_v<T>)
  TaskSpec& fifo_out(std::string name, std::size_t count,
                     std::size_t depth = 2) {
    return fifo_out_bytes(std::move(name),
                          count * sizeof(std::remove_extent_t<T>), depth,
                          element_type<T>());
  }

  /// Untyped channel: each item is `bytes` raw bytes (Task::fifo_out<>
  /// yields the byte view).
  TaskSpec& fifo_out_bytes(std::string name, std::size_t bytes,
                           std::size_t depth = 2,
                           const std::type_info* type = nullptr) {
    fifo_outs_.push_back(FifoOutDecl{std::move(name), bytes, depth, type});
    return *this;
  }

  /// Declare this task a consumer of channel `name` (declared by its
  /// producer's fifo_out). Every consumer pops every item: with several
  /// consumers the channel broadcasts (the readers at each ring slot's
  /// FIFO head share the grant). The element type is checked against the
  /// producer's declaration at build().
  template <typename T = void>
  TaskSpec& fifo_in(std::string name) {
    fifo_ins_.push_back(FifoInDecl{std::move(name), element_type<T>()});
    return *this;
  }

  /// Declare the task's iteration count (Task::iterations /
  /// run_iterations). Metadata for the body; links re-insert themselves
  /// each iteration regardless.
  TaskSpec& iterates(std::size_t n) {
    iterations_ = n;
    return *this;
  }

  /// Init-phase hook: runs on the task's thread *before* the schedule
  /// barrier (e.g. to prime owned buffers with initial values).
  TaskSpec& init(TaskBody fn) {
    init_ = std::move(fn);
    return *this;
  }

  /// Compute body: runs after the schedule barrier. Overrides a
  /// ProgramBuilder::body SPMD body for this task.
  TaskSpec& body(TaskBody fn) {
    body_ = std::move(fn);
    return *this;
  }

  /// Declarative dynamic work: build() synthesizes a body that computes
  /// this task's seeds and drives the Task::for_each collective with
  /// `item` under the steal executor. Overrides body()/SPMD for this
  /// task; every task of the program must then declare a for_each (the
  /// collective blocks for all of them), and all `item` bodies must be
  /// functionally identical.
  TaskSpec& for_each(SeedsFn seeds, ForEachBody item) {
    for_each_seeds_ = std::move(seeds);
    for_each_item_ = std::move(item);
    return *this;
  }

 private:
  friend class ProgramBuilder;

  struct OwnDecl {
    std::size_t slot;
    std::size_t bytes;
  };
  struct AccessDecl {
    LocRef target;
    AccessMode mode;
    std::uint64_t priority;
    const std::type_info* type;  // null = untyped declaration
  };
  struct FifoOutDecl {
    std::string name;
    std::size_t bytes;
    std::size_t depth;
    const std::type_info* type;  // item type; null = untyped channel
  };
  struct FifoInDecl {
    std::string name;
    const std::type_info* type;  // null = untyped lookup (no check)
  };

  /// The full declared type (arrays included: `double[]` != `double`,
  /// so the body's link lookup also checks the shape); void = untyped.
  template <typename T>
  static const std::type_info* element_type() noexcept {
    if constexpr (std::is_void_v<T>) {
      return nullptr;
    } else {
      return &typeid(T);
    }
  }

  TaskSpec& own_bytes(std::size_t slot, std::size_t bytes) {
    owns_.push_back(OwnDecl{slot, bytes});
    return *this;
  }

  TaskSpec& access(LocRef target, AccessMode mode, std::uint64_t priority,
                   const std::type_info* type) {
    accesses_.push_back(AccessDecl{target, mode, priority, type});
    return *this;
  }

  std::vector<OwnDecl> owns_;
  std::vector<AccessDecl> accesses_;
  std::vector<FifoOutDecl> fifo_outs_;
  std::vector<FifoInDecl> fifo_ins_;
  std::size_t iterations_ = 0;
  TaskBody init_;
  TaskBody body_;
  SeedsFn for_each_seeds_;
  ForEachBody for_each_item_;
};

class ProgramBuilder {
 public:
  /// Builder for `num_tasks` tasks. opts.locations_per_task is derived
  /// from the declarations (every named slot plus the channel rings);
  /// the other options pass through unchanged.
  explicit ProgramBuilder(std::size_t num_tasks, Options opts = {});

  /// The declaration record of task `t`.
  /// \throws std::out_of_range for a bad task id.
  TaskSpec& task(TaskId t);

  /// SPMD body used for every task without a TaskSpec::body override.
  ProgramBuilder& body(TaskBody fn);

  /// Declare that the location at `r` is exported for remote attach
  /// under `name`. The built program registers all declared exports with
  /// a dist::Registry via Program::serve_exports(reg); remote processes
  /// then attach through "orwl://host:port/name" and their guards join
  /// the location's FIFO next to the local tasks'.
  /// \throws std::invalid_argument on an empty name or a duplicate.
  ProgramBuilder& export_location(LocRef r, std::string name);

  std::size_t num_tasks() const noexcept { return specs_.size(); }

  /// Materialize the declarative program: create the runtime, scale the
  /// owned locations, and pre-register every declared access so the
  /// graph exists before anything runs. The builder can build() once.
  /// \throws std::logic_error on re-build or a malformed declaration
  ///         (duplicate link, bad channel wiring); std::out_of_range for
  ///         access targets outside the declared task space;
  ///         std::invalid_argument for a channel of depth < 2 or
  ///         zero-byte items.
  Program build();

  /// The communication matrix of the declared program, read off the
  /// declarations alone: no runtime, location buffer or thread is
  /// created, so paper-scale sizes cost nothing. Equal, cell for cell,
  /// to build() + dependency_get() + comm_matrix(). Callable before or
  /// after build().
  /// \throws the same exceptions as build() for a malformed declaration.
  tm::CommMatrix comm_matrix() const;

 private:
  /// The declarations resolved into the runtime's slot space. Computing
  /// it performs every declaration check, so build() and comm_matrix()
  /// accept and reject exactly the same programs.
  struct Plan {
    struct Channel {
      TaskId producer;
      const TaskSpec::FifoOutDecl* decl;
      std::size_t first_slot;        ///< ring slots [first, first + depth)
      std::vector<TaskId> consumers;  ///< fifo_in tasks, task order
    };
    std::size_t locations_per_task = 1;
    std::vector<Channel> channels;  ///< declaration order
  };
  Plan make_plan() const;

  Options opts_;
  std::vector<TaskSpec> specs_;
  std::vector<std::pair<LocRef, std::string>> exports_;
  TaskBody spmd_body_;
  bool built_ = false;
};

}  // namespace orwl
