// Cross-module integration tests: the patterns the applications rely on,
// exercised end to end through the public API.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>

#include "affinity/affinity.hpp"
#include "apps/lk23.hpp"
#include "apps/matmul.hpp"
#include "apps/workloads.hpp"
#include "orwl/orwl.hpp"
#include "sim/simulator.hpp"
#include "topo/machines.hpp"
#include "topo/serialize.hpp"
#include "treematch/strategies.hpp"

namespace {

using namespace orwl;

rt::ProgramOptions quiet() {
  rt::ProgramOptions o;
  o.affinity = rt::AffinityMode::Off;
  o.acquire_timeout_ms = 30000;
  return o;
}

// ----------------------------------------------------- lag semantics ----

TEST(Integration, Handle2LagPatternDeliversPreviousIteration) {
  // The LK23 "lagged halo" idiom: ordering the reader before the writer
  // in the initial FIFO makes read cycle c observe write cycle c-1, with
  // the location's initial content at cycle 0.
  constexpr int kIters = 6;
  std::vector<long> observed;

  rt::Program prog(2, quiet());
  prog.set_task_body(0, [&](rt::TaskContext& ctx) {  // writer
    ctx.scale(sizeof(long));
    ctx.my_location().as<long>()[0] = -1;  // initial content
    rt::Handle2 w;
    w.write_insert(ctx, ctx.my_location(), 1);  // writer second
    ctx.schedule();
    for (long it = 0; it < kIters; ++it) {
      rt::Section sec(w);
      *sec.as<long>() = it;
    }
  });
  prog.set_task_body(1, [&](rt::TaskContext& ctx) {  // lagged reader
    rt::Handle2 r;
    r.read_insert(ctx, ctx.location(0), 0);  // reader first
    ctx.schedule();
    for (int it = 0; it < kIters; ++it) {
      rt::Section sec(r);
      observed.push_back(*sec.as_const<long>());
    }
  });
  prog.run();

  ASSERT_EQ(observed.size(), static_cast<std::size_t>(kIters));
  EXPECT_EQ(observed[0], -1) << "first read must see the initial value";
  for (int it = 1; it < kIters; ++it) {
    EXPECT_EQ(observed[static_cast<std::size_t>(it)], it - 1)
        << "read cycle " << it << " must see write cycle " << it - 1;
  }
}

TEST(Integration, SameIterationPatternDeliversCurrentIteration) {
  constexpr int kIters = 6;
  std::vector<long> observed;

  rt::Program prog(2, quiet());
  prog.set_task_body(0, [&](rt::TaskContext& ctx) {
    ctx.scale(sizeof(long));
    rt::Handle2 w;
    w.write_insert(ctx, ctx.my_location(), 0);  // writer first
    ctx.schedule();
    for (long it = 0; it < kIters; ++it) {
      rt::Section sec(w);
      *sec.as<long>() = it * 10;
    }
  });
  prog.set_task_body(1, [&](rt::TaskContext& ctx) {
    rt::Handle2 r;
    r.read_insert(ctx, ctx.location(0), 1);
    ctx.schedule();
    for (int it = 0; it < kIters; ++it) {
      rt::Section sec(r);
      observed.push_back(*sec.as_const<long>());
    }
  });
  prog.run();

  for (int it = 0; it < kIters; ++it) {
    EXPECT_EQ(observed[static_cast<std::size_t>(it)], it * 10);
  }
}

// -------------------------------------------------- dynamic rewiring ----

TEST(Integration, LiveInsertChangesMatrixAndPlacement) {
  // Sec. IV-B: "to handle dynamic situations where ... the affinity
  // between tasks change at run time". A task wires a new heavy edge
  // after schedule; dependency_get must pick it up.
  const topo::Topology machine = topo::make_numa(2, 4, 1);
  rt::ProgramOptions o = quiet();
  o.topology = &machine;
  o.bind_threads = false;
  rt::Program prog(4, o);

  std::atomic<bool> rewired{false};
  prog.set_task_body([&](rt::TaskContext& ctx) {
    ctx.scale(1024);
    rt::Handle own;
    own.write_insert(ctx, ctx.my_location(), 0);
    ctx.schedule();
    { rt::Section s(own); }

    if (ctx.id() == 0) {
      // Before rewiring: no cross-task volume at all.
      ctx.program().dependency_get();
      EXPECT_DOUBLE_EQ(ctx.program().comm_matrix().total_volume(), 0.0);

      // New dependency appears at runtime: task 0 starts reading task
      // 3's location.
      rt::Handle late;
      late.read_insert(ctx, ctx.location(3), 7);
      ctx.program().dependency_get();
      EXPECT_DOUBLE_EQ(ctx.program().comm_matrix().at(0, 3), 1024.0);
      ctx.program().affinity_compute();
      { rt::Section s(late); }
      rewired.store(true);
    }
  });
  prog.run();
  EXPECT_TRUE(rewired.load());
  // The recomputed placement pairs tasks 0 and 3 on one NUMA node.
  const auto& pl = prog.placement();
  const auto* a = machine.pu_by_os_index(pl.compute_pu[0]);
  const auto* b = machine.pu_by_os_index(pl.compute_pu[3]);
  EXPECT_NE(machine.common_ancestor(*a, *b)->type, topo::ObjType::Machine);
}

// ------------------------------------- serialized topology placement ----

TEST(Integration, PlacementOnParsedTopologyMatchesOriginal) {
  // Save/load a machine description, then verify Algorithm 1 produces
  // the identical placement on the parsed copy.
  const topo::Topology original = topo::make_smp12e5();
  const topo::Topology parsed =
      topo::parse_topology(topo::serialize(original));

  tm::CommMatrix ring(24);
  for (std::size_t i = 0; i < 24; ++i) ring.add(i, (i + 1) % 24, 1e6);
  tm::Options opts;
  opts.num_control_threads = 6;

  const tm::Placement p1 = tm::tree_match(original, ring, opts);
  const tm::Placement p2 = tm::tree_match(parsed, ring, opts);
  EXPECT_EQ(p1.compute_pu, p2.compute_pu);
  EXPECT_EQ(p1.control_pu, p2.control_pu);
  EXPECT_EQ(p1.control_policy, p2.control_policy);
}

// ----------------------------------------- multi-location programs ------

TEST(Integration, MultipleLocationsPerTaskIndependentQueues) {
  // Two independent channels between the same pair of tasks must not
  // serialize each other.
  constexpr int kIters = 20;
  rt::ProgramOptions o = quiet();
  o.locations_per_task = 2;
  rt::Program prog(2, o);
  std::array<long, 2> sums{};

  prog.set_task_body(0, [&](rt::TaskContext& ctx) {
    ctx.scale(sizeof(long), 0);
    ctx.scale(sizeof(long), 1);
    rt::Handle2 w0, w1;
    w0.write_insert(ctx, ctx.my_location(0), 0);
    w1.write_insert(ctx, ctx.my_location(1), 0);
    ctx.schedule();
    for (long it = 0; it < kIters; ++it) {
      {
        rt::Section s(w0);
        *s.as<long>() = it;
      }
      {
        rt::Section s(w1);
        *s.as<long>() = 100 + it;
      }
    }
  });
  prog.set_task_body(1, [&](rt::TaskContext& ctx) {
    rt::Handle2 r0, r1;
    r0.read_insert(ctx, ctx.location(0, 0), 1);
    r1.read_insert(ctx, ctx.location(0, 1), 1);
    ctx.schedule();
    for (int it = 0; it < kIters; ++it) {
      {
        rt::Section s(r0);
        sums[0] += *s.as_const<long>();
      }
      {
        rt::Section s(r1);
        sums[1] += *s.as_const<long>();
      }
    }
  });
  prog.run();
  EXPECT_EQ(sums[0], kIters * (kIters - 1) / 2);
  EXPECT_EQ(sums[1], 100 * kIters + kIters * (kIters - 1) / 2);
}

// --------------------------------- simulator monotonicity properties ----

struct MonotonicCase {
  const char* machine;
  std::size_t threads;
};

class SimMonotonicTest : public ::testing::TestWithParam<MonotonicCase> {};

TEST_P(SimMonotonicTest, AffinityNeverLosesToOsScheduling) {
  const auto& c = GetParam();
  const sim::MachineModel m = std::string(c.machine) == "smp12e5"
                                  ? sim::MachineModel::smp12e5()
                                  : sim::MachineModel::smp20e7();
  const sim::Workload w =
      apps::lk23_orwl_workload(8192, 10, c.threads);
  tm::Options opts;
  opts.num_control_threads = w.control_threads;
  const auto bound = sim::simulate(
      m, w, sim::BindSpec::bound(tm::tree_match(m.topology, w.comm, opts)));
  const auto os = sim::simulate(m, w, sim::BindSpec::os_scheduled());
  EXPECT_LE(bound.seconds, os.seconds * 1.05)
      << "placed execution must not lose to the OS scheduler";
  EXPECT_DOUBLE_EQ(bound.counters.cpu_migrations, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SimMonotonicTest,
    ::testing::Values(MonotonicCase{"smp12e5", 16},
                      MonotonicCase{"smp12e5", 32},
                      MonotonicCase{"smp12e5", 64},
                      MonotonicCase{"smp12e5", 96},
                      MonotonicCase{"smp20e7", 16},
                      MonotonicCase{"smp20e7", 64},
                      MonotonicCase{"smp20e7", 128}),
    [](const auto& info) {
      return std::string(info.param.machine) + "_" +
             std::to_string(info.param.threads);
    });

// ------------------------------------------------ matrix determinism ----

TEST(Integration, ExtractedMatricesAreDeterministic) {
  const auto m1 = apps::lk23_ops_comm_matrix(258, 2, 2);
  const auto m2 = apps::lk23_ops_comm_matrix(258, 2, 2);
  EXPECT_EQ(m1, m2);
  const auto v1 = apps::matmul_comm_matrix(64, 8);
  const auto v2 = apps::matmul_comm_matrix(64, 8);
  EXPECT_EQ(v1, v2);
}

}  // namespace
