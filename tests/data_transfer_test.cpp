// The data half of Sec. IV-A: NUMA-local location memory. Covers owner
// binding at placement / re-placement / live insert, the count of
// buffers moved when their home moves, and binding under lock
// contention.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>

#include "orwl/orwl.hpp"
#include "support/env.hpp"
#include "topo/machines.hpp"
#include "topo/membind.hpp"

namespace {

using namespace orwl;

rt::ProgramOptions fixture_opts(const topo::Topology& machine) {
  rt::ProgramOptions o;
  o.topology = &machine;
  o.affinity = rt::AffinityMode::On;
  o.bind_threads = false;  // fixture machines are larger than the host
  o.acquire_timeout_ms = 30000;
  return o;
}

// ------------------------------------------------------ owner binding ----

TEST(DataTransfer, OwnerBindingFollowsThePlacement) {
  support::ScopedEnv emu(support::knob::kMemBind.name, "emulate");
  const topo::Topology machine = topo::make_numa(2, 2, 1);
  rt::ProgramOptions o = fixture_opts(machine);
  rt::Program prog(4, o);
  prog.set_task_body([](rt::TaskContext& ctx) {
    ctx.scale(4096);
    rt::Handle2 w;
    w.write_insert(ctx, ctx.my_location(), 0);
    ctx.schedule();
    rt::Section sec(w);
    sec.as<int>()[0] = static_cast<int>(ctx.id());
  });
  prog.run();

  ASSERT_TRUE(prog.stats().affinity_applied);
  EXPECT_EQ(prog.stats().locations_bound, 4u);
  for (rt::TaskId t = 0; t < 4; ++t) {
    const int node = prog.placed_node_of_task(t);
    ASSERT_GE(node, 0) << "task " << t << " must be placed on a node";
    ASSERT_LT(node, 2);
    EXPECT_EQ(prog.location(t).home_node(), node);
    EXPECT_EQ(prog.location(t).memory_node(), node);
    EXPECT_EQ(prog.location(t).buffer().resident_node(), node)
        << "emulated residency must follow the placed node";
  }
}

TEST(DataTransfer, RecomputeRebindsLocations) {
  // The dynamic API path: a program that ran without the affinity module
  // gets a placement afterwards — affinity_compute() must (re)bind every
  // location buffer, exactly like a re-placement at run time would, and
  // count each buffer it moves off a node it was already bound to.
  support::ScopedEnv emu(support::knob::kMemBind.name, "emulate");
  const topo::Topology machine = topo::make_numa(2, 2, 1);
  rt::ProgramOptions o = fixture_opts(machine);
  o.affinity = rt::AffinityMode::Off;
  rt::Program prog(4, o);
  prog.set_task_body([](rt::TaskContext& ctx) {
    ctx.scale(4096);
    rt::Handle2 w;
    w.write_insert(ctx, ctx.my_location(), 0);
    ctx.schedule();
    rt::Section sec(w);
    sec.as<int>()[0] = 2;
  });
  prog.run();
  for (rt::TaskId t = 0; t < 4; ++t) {
    ASSERT_EQ(prog.location(t).memory_node(), topo::MemBind::kAnyNode)
        << "no placement yet => no binding";
    // Park the buffer on node 0, as an earlier placement would leave it.
    ASSERT_TRUE(prog.location(t).buffer().bind_to(0));
  }

  prog.dependency_get();
  prog.affinity_compute();

  std::uint64_t moved = 0;
  for (rt::TaskId t = 0; t < 4; ++t) {
    const int node = prog.placed_node_of_task(t);
    ASSERT_GE(node, 0);
    EXPECT_EQ(prog.location(t).memory_node(), node);
    if (node != 0) ++moved;
  }
  ASSERT_GT(moved, 0u) << "four tasks on two nodes must use both";
  EXPECT_EQ(prog.stats().data_transfers, moved)
      << "each buffer moved off node 0 is one transfer; the ones already"
         " home are not";
}

TEST(DataTransfer, LiveInsertRoutesAndBindsTheLocation) {
  support::ScopedEnv emu(support::knob::kMemBind.name, "emulate");
  const topo::Topology machine = topo::make_numa(2, 2, 1);
  rt::ProgramOptions o = fixture_opts(machine);
  rt::Program prog(4, o);
  std::atomic<int> seen{-1};
  prog.set_task_body([&](rt::TaskContext& ctx) {
    ctx.scale(sizeof(int));
    rt::Handle w;  // plain handle: no reinsert, so the late read can win
    w.write_insert(ctx, ctx.my_location(), 0);
    ctx.schedule();
    {
      rt::Section sec(w);
      sec.as<int>()[0] = static_cast<int>(ctx.id()) + 100;
    }
    if (ctx.id() == 0) {
      // Live insert after schedule (dynamic mode) on task 3's location.
      rt::Handle late;
      late.read_insert(ctx, ctx.location(3), 7);
      late.acquire();
      seen.store(late.read_map_as<int>()[0]);
      late.release();
    }
  });
  prog.run();
  EXPECT_EQ(seen.load(), 103);
  const int owner_node = prog.placed_node_of_task(3);
  ASSERT_GE(owner_node, 0);
  EXPECT_EQ(prog.location(3).memory_node(), owner_node)
      << "the live-inserted location must live on its owner's node";
}

TEST(DataTransfer, OwnerEndToEndUnderContention) {
  // Four tasks on a 2-node fixture, all writing the same location through
  // iterative handles: the placement binds the buffers while tasks are
  // alive, then grants, parks and releases run on the bound buffer.
  // Mostly a TSan/ASan target; the semantic assertions are that every
  // iteration ran and the buffer lives on its owner's node.
  support::ScopedEnv emu(support::knob::kMemBind.name, "emulate");
  const topo::Topology machine = topo::make_numa(2, 2, 1);
  rt::ProgramOptions o = fixture_opts(machine);
  constexpr int kIters = 50;
  rt::Program prog(4, o);
  prog.set_task_body([&](rt::TaskContext& ctx) {
    if (ctx.id() == 0) ctx.scale(sizeof(long));
    rt::Handle2 w;
    w.write_insert(ctx, ctx.location(0), ctx.id());
    ctx.schedule();
    for (int it = 0; it < kIters; ++it) {
      rt::Section sec(w);
      sec.as<long>()[0] += 1;
    }
  });
  prog.run();
  EXPECT_EQ(prog.location(0).as<long>()[0], 4L * kIters);
  const int node = prog.location(0).memory_node();
  EXPECT_TRUE(node == 0 || node == 1) << node;
  EXPECT_EQ(node, prog.placed_node_of_task(0));
  EXPECT_EQ(prog.stats().data_transfers, 0u)
      << "one placement binds each buffer once and moves none";
}

}  // namespace
