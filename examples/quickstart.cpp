// Quickstart: the paper's Listing 1 — a pipeline of tasks — on the v2
// declarative API.
//
// Each task owns one double-typed location; task k > 0 additionally
// reads its predecessor's location and averages the two values. The
// whole task-location graph is *declared* before anything runs, so the
// communication matrix is read straight off the declarations — nothing
// allocated, no thread spawned. Run with
//
//   ORWL_AFFINITY=1 ./quickstart
//
// to let the affinity module place the chain automatically.
#include <cstdio>

#include "orwl/orwl.hpp"

int main() {
  using namespace orwl;
  constexpr std::size_t kTasks = 8;

  // Declare the graph: who owns what, who reads/writes whom. This is
  // the init phase of Listing 1, stated instead of executed.
  ProgramBuilder builder(kTasks);
  for (TaskId t = 0; t < kTasks; ++t) {
    TaskSpec& spec = builder.task(t);
    spec.owns<double>();                          // orwl_scale, typed
    spec.writes<double>(loc(t), t);               // my own location
    if (t > 0) spec.reads<double>(loc(t - 1), t);  // my predecessor's
  }

  // The compute phase: bodies start after the schedule barrier with
  // their declared links ready. Guards are phase-safe — a WriteGuard on
  // a read link would not compile.
  builder.body([](Task& task) {
    const TaskId me = task.id();

    // Exclusive access to my own location: typed, no casts.
    WriteGuard<double> w(task.write_link<double>(loc(me)));
    w.ref() = static_cast<double>(me + 1);  // init_val(orwl_mytid)

    // All ids > 0 read from their predecessor.
    if (me > 0) {
      ReadGuard<double> r(task.read_link<double>(loc(me - 1)));
      w.ref() = (r.ref() + w.ref()) * 0.5;  // some dummy computation
    }
    std::printf("task %zu: value = %.6f\n", me, w.ref());
  });

  // The matrix the affinity module will place by, read off the
  // declarations: nothing has been built or executed yet.
  std::puts("communication matrix read off the declarations"
            " (nothing built, nothing run):");
  std::printf("%s", aff::render_comm_matrix(builder.comm_matrix()).c_str());

  Program program = builder.build();
  program.run();

  if (program.stats().affinity_applied) {
    std::puts("\naffinity module was ON; placement used:");
    std::printf("%s",
                program.placement().describe(program.topology()).c_str());
  } else {
    std::puts("\naffinity module was OFF (set ORWL_AFFINITY=1 to enable).");
  }
  return 0;
}
