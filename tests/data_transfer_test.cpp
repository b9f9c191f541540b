// The data half of Sec. IV-A: NUMA-local location memory and grant-time
// data transfer. Covers policy resolution (ORWL_DATA_TRANSFER), owner
// binding at placement / re-placement / live insert, the adaptive
// follow-the-writer migration performed by control threads, and the
// huge-page backing of large scales.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

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

TEST(DataTransferMode, ToString) {
  EXPECT_STREQ(to_string(rt::DataTransferMode::Off), "off");
  EXPECT_STREQ(to_string(rt::DataTransferMode::Owner), "owner");
  EXPECT_STREQ(to_string(rt::DataTransferMode::Adaptive), "adaptive");
}

TEST(DataTransferMode, ResolvedFromOptionsAndEnv) {
  const topo::Topology machine = topo::make_numa(2, 2, 1);
  rt::ProgramOptions o;
  o.topology = &machine;
  o.affinity = rt::AffinityMode::Off;

  {
    support::ScopedEnv env(support::knob::kDataTransfer.name, nullptr);
    EXPECT_EQ(rt::Program(2, o).data_transfer(),
              rt::DataTransferMode::Owner)
        << "unset env must yield the default policy";
  }
  {
    support::ScopedEnv env(support::knob::kDataTransfer.name, "off");
    EXPECT_EQ(rt::Program(2, o).data_transfer(), rt::DataTransferMode::Off);
  }
  {
    support::ScopedEnv env(support::knob::kDataTransfer.name, "ADAPTIVE");
    EXPECT_EQ(rt::Program(2, o).data_transfer(),
              rt::DataTransferMode::Adaptive);
  }
  {
    // A typo'd policy must fail loudly, naming the variable.
    support::ScopedEnv env(support::knob::kDataTransfer.name, "bogus");
    EXPECT_THROW(rt::Program(2, o), std::invalid_argument);
  }
  {
    // Explicit options beat the environment.
    support::ScopedEnv env(support::knob::kDataTransfer.name, "adaptive");
    rt::ProgramOptions explicit_off = o;
    explicit_off.data_transfer = rt::DataTransferMode::Off;
    EXPECT_EQ(rt::Program(2, explicit_off).data_transfer(),
              rt::DataTransferMode::Off);
  }
}

// ------------------------------------------------------ owner binding ----

TEST(DataTransfer, OwnerBindingFollowsThePlacement) {
  support::ScopedEnv emu(support::knob::kMemBind.name, "emulate");
  const topo::Topology machine = topo::make_numa(2, 2, 1);
  rt::ProgramOptions o = fixture_opts(machine);
  o.data_transfer = rt::DataTransferMode::Owner;
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

TEST(DataTransfer, OffPolicyNeverTouchesBuffers) {
  support::ScopedEnv emu(support::knob::kMemBind.name, "emulate");
  const topo::Topology machine = topo::make_numa(2, 2, 1);
  rt::ProgramOptions o = fixture_opts(machine);
  o.data_transfer = rt::DataTransferMode::Off;
  rt::Program prog(4, o);
  prog.set_task_body([](rt::TaskContext& ctx) {
    ctx.scale(4096);
    rt::Handle2 w;
    w.write_insert(ctx, ctx.my_location(), 0);
    ctx.schedule();
    rt::Section sec(w);
    sec.as<int>()[0] = 1;
  });
  prog.run();
  for (rt::TaskId t = 0; t < 4; ++t) {
    EXPECT_EQ(prog.location(t).memory_node(), topo::MemBind::kAnyNode);
  }
  EXPECT_EQ(prog.stats().data_transfers, 0u);
  EXPECT_EQ(prog.stats().locations_bound, 0u);
}

TEST(DataTransfer, RecomputeRebindsLocations) {
  // The dynamic API path: a program that ran without the affinity module
  // gets a placement afterwards — affinity_compute() must (re)bind every
  // location buffer, exactly like a re-placement at run time would.
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
  }

  prog.dependency_get();
  prog.affinity_compute();

  for (rt::TaskId t = 0; t < 4; ++t) {
    const int node = prog.placed_node_of_task(t);
    ASSERT_GE(node, 0);
    EXPECT_EQ(prog.location(t).memory_node(), node);
  }
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

// ------------------------------------------- grant-time data transfer ----

/// Harness around a bare Location + ControlPlane: drives one hand-off
/// through the control thread so the grant hook runs exactly once.
struct GrantHarness {
  explicit GrantHarness(rt::DataTransferMode policy)
      : cp([] {
          rt::ControlPlaneOptions o;
          o.num_threads = 1;
          return o;
        }()) {
    loc.set_data_transfer(policy);
    loc.queue().set_grant_hook(loc.grant_hook());
    loc.queue().set_control_plane(&cp);
    loc.queue().set_acquire_timeout(30000);
    cp.start();
  }
  ~GrantHarness() { cp.stop(); }

  /// Acquire+release a first writer so the hand-off to a second, already
  /// queued writer goes through the control plane; wait for its grant.
  void drive_hand_off() {
    const rt::Ticket a = loc.queue().enqueue(rt::AccessMode::Write);
    const rt::Ticket b = loc.queue().enqueue(rt::AccessMode::Write);
    loc.queue().acquire(a);
    loc.queue().release(a);  // posts the hand-off event for b
    loc.queue().acquire(b);  // returns only after the control grant
    loc.queue().release(b);
  }

  rt::Location loc{0, 0, 0};
  rt::ControlPlane cp;
};

TEST(DataTransfer, AdaptiveFollowsConsistentWriters) {
  support::ScopedEnv emu(support::knob::kMemBind.name, "emulate");
  GrantHarness h(rt::DataTransferMode::Adaptive);
  h.loc.scale(1 << 14);
  h.loc.bind_home(0);
  ASSERT_EQ(h.loc.memory_node(), 0);

  // Two consecutive granted writers on node 1: the next hand-off must
  // migrate the buffer to node 1 before waking the grantee.
  h.loc.note_writer_node(1);
  h.loc.note_writer_node(1);
  h.drive_hand_off();
  EXPECT_EQ(h.loc.memory_node(), 1);
  EXPECT_GE(h.loc.data_transfers(), 1u);
}

TEST(DataTransfer, AdaptiveDoesNotBounceHomeOnAStrayWriter) {
  // Regression: once the buffer has followed the writers to node 1, a
  // single stray writer from node 2 makes the history inconsistent — the
  // pages must stay on node 1, not be yanked back to the home node just
  // to migrate out again two grants later.
  support::ScopedEnv emu(support::knob::kMemBind.name, "emulate");
  GrantHarness h(rt::DataTransferMode::Adaptive);
  h.loc.scale(1 << 14);
  h.loc.bind_home(0);
  h.loc.note_writer_node(1);
  h.loc.note_writer_node(1);
  h.drive_hand_off();
  ASSERT_EQ(h.loc.memory_node(), 1);
  const std::uint64_t settled = h.loc.data_transfers();
  h.loc.note_writer_node(2);  // stray writer: history now {2, 1}
  h.drive_hand_off();
  EXPECT_EQ(h.loc.memory_node(), 1) << "unsettled history must not move"
                                       " the pages";
  EXPECT_EQ(h.loc.data_transfers(), settled);
}

TEST(DataTransfer, AdaptiveRebindToUnchangedHomeKeepsWriterBinding) {
  // A re-placement that does not move the owner re-runs bind_home with
  // the same node; a buffer the writers already pulled to another node
  // must stay there (no home/writer ping-pong).
  support::ScopedEnv emu(support::knob::kMemBind.name, "emulate");
  GrantHarness h(rt::DataTransferMode::Adaptive);
  h.loc.scale(1 << 14);
  h.loc.bind_home(0);
  h.loc.note_writer_node(1);
  h.loc.note_writer_node(1);
  h.drive_hand_off();
  ASSERT_EQ(h.loc.memory_node(), 1);
  h.loc.bind_home(0);  // same home: must not undo the writer binding
  EXPECT_EQ(h.loc.memory_node(), 1);
  h.loc.bind_home(1);  // owner genuinely moved: migrate + reset history
  EXPECT_EQ(h.loc.memory_node(), 1);
  h.loc.bind_home(0);  // moved again; stale writer history must be gone
  EXPECT_EQ(h.loc.memory_node(), 0);
  h.drive_hand_off();
  EXPECT_EQ(h.loc.memory_node(), 0)
      << "cleared history must not re-trigger the old writer target";
}

TEST(DataTransfer, AdaptiveIgnoresASingleRemoteWriter) {
  support::ScopedEnv emu(support::knob::kMemBind.name, "emulate");
  GrantHarness h(rt::DataTransferMode::Adaptive);
  h.loc.scale(1 << 14);
  h.loc.bind_home(0);
  h.loc.note_writer_node(1);  // one-off remote writer: noise
  h.drive_hand_off();
  EXPECT_EQ(h.loc.memory_node(), 0) << "a single remote writer must not move"
                                       " the buffer off its home node";
}

TEST(DataTransfer, AdaptivePingPongWritersNeverMigrate) {
  // The decaying streak counter is the ping-pong defense: writers
  // alternating between two nodes never accumulate K consecutive grants
  // on one node, so the buffer stays parked on its home node instead of
  // bouncing with every phase.
  support::ScopedEnv emu(support::knob::kMemBind.name, "emulate");
  GrantHarness h(rt::DataTransferMode::Adaptive);
  h.loc.scale(1 << 14);
  h.loc.bind_home(0);
  for (int round = 0; round < 8; ++round) {
    h.loc.note_writer_node(1 + round % 2);  // 1, 2, 1, 2, ...
    h.drive_hand_off();
    ASSERT_EQ(h.loc.memory_node(), 0) << "round " << round;
  }
  EXPECT_EQ(h.loc.data_transfers(), 0u);
}

TEST(DataTransfer, AdaptiveHysteresisThresholdIsConfigurable) {
  support::ScopedEnv emu(support::knob::kMemBind.name, "emulate");
  {
    // K = 1: chase every placed writer immediately.
    GrantHarness h(rt::DataTransferMode::Adaptive);
    h.loc.set_transfer_hysteresis(1);
    h.loc.scale(1 << 14);
    h.loc.bind_home(0);
    h.loc.note_writer_node(1);
    h.drive_hand_off();
    EXPECT_EQ(h.loc.memory_node(), 1);
  }
  {
    // K = 3: two consecutive remote writers are still not enough.
    GrantHarness h(rt::DataTransferMode::Adaptive);
    h.loc.set_transfer_hysteresis(3);
    h.loc.scale(1 << 14);
    h.loc.bind_home(0);
    h.loc.note_writer_node(1);
    h.loc.note_writer_node(1);
    h.drive_hand_off();
    EXPECT_EQ(h.loc.memory_node(), 0);
    h.loc.note_writer_node(1);  // third consecutive: migrate
    h.drive_hand_off();
    EXPECT_EQ(h.loc.memory_node(), 1);
  }
}

TEST(DataTransfer, AdaptiveSettledPhaseSwitchesAfterDecay) {
  // A long settled phase on node 1, then the writer set moves to node 2
  // for good: the saturated streak must decay away and the buffer follow
  // the new phase after a bounded number of grants (no sticky-forever).
  support::ScopedEnv emu(support::knob::kMemBind.name, "emulate");
  GrantHarness h(rt::DataTransferMode::Adaptive);
  h.loc.scale(1 << 14);
  h.loc.bind_home(0);
  for (int i = 0; i < 10; ++i) h.loc.note_writer_node(1);
  h.drive_hand_off();
  ASSERT_EQ(h.loc.memory_node(), 1);
  int moved_after = -1;
  for (int i = 0; i < 10; ++i) {
    h.loc.note_writer_node(2);
    h.drive_hand_off();
    if (h.loc.memory_node() == 2) {
      moved_after = i + 1;
      break;
    }
  }
  EXPECT_GT(moved_after, 2) << "a phase switch needs more evidence than "
                               "the hysteresis threshold alone";
  EXPECT_LE(moved_after, 6) << "the streak must decay within log2(cap)+K "
                               "grants";
}

TEST(DataTransfer, HysteresisResolvedFromOptionsAndEnv) {
  const topo::Topology machine = topo::make_numa(2, 2, 1);
  rt::ProgramOptions o;
  o.topology = &machine;
  o.affinity = rt::AffinityMode::Off;
  {
    support::ScopedEnv env(support::knob::kDataTransferHysteresis.name,
                           nullptr);
    rt::Program prog(2, o);
    EXPECT_EQ(prog.location(0).transfer_hysteresis(), 2u)
        << "unset env must yield the default threshold";
  }
  {
    support::ScopedEnv env(support::knob::kDataTransferHysteresis.name, "5");
    rt::Program prog(2, o);
    EXPECT_EQ(prog.location(0).transfer_hysteresis(), 5u);
  }
  {
    // Explicit options beat the environment.
    support::ScopedEnv env(support::knob::kDataTransferHysteresis.name, "5");
    rt::ProgramOptions explicit_k = o;
    explicit_k.data_transfer_hysteresis = 3;
    rt::Program prog(2, explicit_k);
    EXPECT_EQ(prog.location(0).transfer_hysteresis(), 3u);
  }
}

TEST(DataTransfer, OwnerPolicyRestoresDriftedBuffers) {
  support::ScopedEnv emu(support::knob::kMemBind.name, "emulate");
  GrantHarness h(rt::DataTransferMode::Owner);
  h.loc.scale(1 << 14);
  h.loc.bind_home(1);
  h.loc.buffer().bind_to(0);  // drift the buffer off its home
  ASSERT_EQ(h.loc.memory_node(), 0);
  h.drive_hand_off();
  EXPECT_EQ(h.loc.memory_node(), 1) << "grant-time fix-up must restore the"
                                       " owner binding";
  EXPECT_GE(h.loc.data_transfers(), 1u);
}

TEST(DataTransfer, OffPolicyHookIsInert) {
  support::ScopedEnv emu(support::knob::kMemBind.name, "emulate");
  GrantHarness h(rt::DataTransferMode::Off);
  h.loc.scale(1 << 14);
  h.loc.bind_home(1);  // records the home but must not bind under Off
  h.loc.note_writer_node(0);
  h.loc.note_writer_node(0);
  h.drive_hand_off();
  EXPECT_EQ(h.loc.memory_node(), topo::MemBind::kAnyNode);
  EXPECT_EQ(h.loc.data_transfers(), 0u);
}

TEST(DataTransfer, AdaptiveEndToEndUnderContention) {
  // Four tasks on a 2-node fixture, all writing the same location through
  // iterative handles: migrations happen concurrently with grants, parks
  // and releases. Mostly a TSan/ASan target; the semantic assertions are
  // that every iteration ran and the final buffer binding is a real node.
  support::ScopedEnv emu(support::knob::kMemBind.name, "emulate");
  const topo::Topology machine = topo::make_numa(2, 2, 1);
  rt::ProgramOptions o = fixture_opts(machine);
  o.data_transfer = rt::DataTransferMode::Adaptive;
  o.control_threads = 2;
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
}

}  // namespace
