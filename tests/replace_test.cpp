// Measurement-driven online re-placement (ORWL_REPLACE): the grant-time
// hand-off meter, the decaying measured matrix, the divergence trigger
// at run_iterations boundaries, passive vs auto policies, the version
// stamp that deduplicates Algorithm 1 runs, and the unsized-buffer skip
// in placement-time memory binding.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <thread>
#include <vector>

#include "orwl/orwl.hpp"
#include "runtime/comm_meter.hpp"
#include "runtime/steal_executor.hpp"
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

// ------------------------------------------------- policy resolution ----

TEST(ReplaceMode, ToString) {
  EXPECT_STREQ(to_string(rt::ReplaceMode::Off), "off");
  EXPECT_STREQ(to_string(rt::ReplaceMode::Passive), "passive");
  EXPECT_STREQ(to_string(rt::ReplaceMode::Auto), "auto");
}

TEST(ReplaceMode, ResolvedFromOptionsAndEnv) {
  const topo::Topology machine = topo::make_numa(2, 2, 1);
  rt::ProgramOptions o;
  o.topology = &machine;
  o.affinity = rt::AffinityMode::Off;

  {
    support::ScopedEnv env(support::knob::kReplace.name, nullptr);
    EXPECT_EQ(rt::Program(2, o).replace_mode(), rt::ReplaceMode::Off)
        << "unset env must yield the zero-overhead default";
  }
  {
    support::ScopedEnv env(support::knob::kReplace.name, "passive");
    EXPECT_EQ(rt::Program(2, o).replace_mode(), rt::ReplaceMode::Passive);
  }
  {
    support::ScopedEnv env(support::knob::kReplace.name, "AUTO");
    EXPECT_EQ(rt::Program(2, o).replace_mode(), rt::ReplaceMode::Auto);
  }
  {
    // A typo'd mode must fail loudly, naming the variable.
    support::ScopedEnv env(support::knob::kReplace.name, "bogus");
    EXPECT_THROW(rt::Program(2, o), std::invalid_argument);
  }
  {
    // Explicit options beat the environment.
    support::ScopedEnv env(support::knob::kReplace.name, "auto");
    rt::ProgramOptions explicit_off = o;
    explicit_off.replace = rt::ReplaceMode::Off;
    EXPECT_EQ(rt::Program(2, explicit_off).replace_mode(),
              rt::ReplaceMode::Off);
  }
}

TEST(ReplaceMode, KnobsResolvedFromOptionsAndEnv) {
  const topo::Topology machine = topo::make_numa(2, 2, 1);
  rt::ProgramOptions o;
  o.topology = &machine;
  o.affinity = rt::AffinityMode::Off;

  {
    support::ScopedEnv t(support::knob::kReplaceThreshold.name, nullptr);
    support::ScopedEnv d(support::knob::kReplaceDecay.name, nullptr);
    support::ScopedEnv i(support::knob::kReplaceInterval.name, nullptr);
    rt::Program p(2, o);
    EXPECT_DOUBLE_EQ(p.replace_threshold(), 0.25);
    EXPECT_DOUBLE_EQ(p.replace_decay(), 0.5);
    EXPECT_EQ(p.replace_interval(), 16u);
  }
  {
    support::ScopedEnv t(support::knob::kReplaceThreshold.name, "0.4");
    support::ScopedEnv d(support::knob::kReplaceDecay.name, "0.9");
    support::ScopedEnv i(support::knob::kReplaceInterval.name, "3");
    rt::Program p(2, o);
    EXPECT_DOUBLE_EQ(p.replace_threshold(), 0.4);
    EXPECT_DOUBLE_EQ(p.replace_decay(), 0.9);
    EXPECT_EQ(p.replace_interval(), 3u);
  }
  {
    // 0 is a valid threshold (any divergence triggers), not "use the
    // default".
    support::ScopedEnv t(support::knob::kReplaceThreshold.name, "0");
    EXPECT_DOUBLE_EQ(rt::Program(2, o).replace_threshold(), 0.0);
  }
  {
    // Options beat env; decay clamps into [0, 1].
    support::ScopedEnv t(support::knob::kReplaceThreshold.name, "0.4");
    rt::ProgramOptions o2 = o;
    o2.replace_threshold = 0.1;
    o2.replace_decay = 7.0;
    o2.replace_interval = 5;
    rt::Program p(2, o2);
    EXPECT_DOUBLE_EQ(p.replace_threshold(), 0.1);
    EXPECT_DOUBLE_EQ(p.replace_decay(), 1.0);
    EXPECT_EQ(p.replace_interval(), 5u);
  }
}

TEST(ReplaceMode, MeterExistsExactlyWhenMeasuring) {
  const topo::Topology machine = topo::make_numa(2, 2, 1);
  rt::ProgramOptions o;
  o.topology = &machine;
  o.affinity = rt::AffinityMode::Off;
  o.replace = rt::ReplaceMode::Off;
  EXPECT_EQ(rt::Program(2, o).comm_meter(), nullptr);
  o.replace = rt::ReplaceMode::Passive;
  EXPECT_NE(rt::Program(2, o).comm_meter(), nullptr);
  o.replace = rt::ReplaceMode::Auto;
  EXPECT_NE(rt::Program(2, o).comm_meter(), nullptr);
}

// ----------------------------------------------------- CommMeter unit ----

TEST(CommMeter, AccumulatesPairsAcrossShardsAndSkipsJunk) {
  rt::CommMeter meter(2, 4);
  meter.record(0, 0, 1, 100, /*remote=*/false);
  meter.record(1, 1, 0, 50, /*remote=*/true);   // other direction, other shard
  meter.record(0, 2, 2, 10, false);             // self hand-off: dropped
  meter.record(0, 9, 1, 10, false);             // out of range: dropped
  meter.record(7, 2, 3, 30, true);              // bad shard clamps to 0

  EXPECT_EQ(meter.handoffs(), 3u);
  EXPECT_EQ(meter.remote_handoffs(), 2u);

  tm::CommMatrix m(4);
  const double drained = meter.harvest(m, /*decay=*/0.5);
  EXPECT_DOUBLE_EQ(drained, 180.0);
  EXPECT_DOUBLE_EQ(m.at(0, 1), 150.0) << "both directions fold symmetric";
  EXPECT_DOUBLE_EQ(m.at(2, 3), 30.0);
  EXPECT_DOUBLE_EQ(m.at(0, 2), 0.0);

  // The harvest drained the cells: a second one only decays.
  EXPECT_DOUBLE_EQ(meter.harvest(m, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(m.at(0, 1), 75.0);
  EXPECT_DOUBLE_EQ(m.at(2, 3), 15.0);

  // New records accumulate onto the decayed average.
  meter.record(1, 0, 1, 25, false);
  EXPECT_DOUBLE_EQ(meter.harvest(m, 0.5), 25.0);
  EXPECT_DOUBLE_EQ(m.at(0, 1), 0.5 * 75.0 + 25.0);
}

TEST(CommMeter, ZeroByteHandoffsStillCount) {
  // Pure-synchronization locations have size 0; the meter clamps to one
  // byte so the hand-off is not invisible to the divergence metric.
  rt::CommMeter meter(1, 2);
  meter.record(0, 0, 1, 0, false);
  tm::CommMatrix m(2);
  EXPECT_DOUBLE_EQ(meter.harvest(m, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(m.at(0, 1), 1.0);
}

// Cross-node steals are hand-offs too: the executor charges each
// successful steal to the meter as (victim task -> thief task), so a
// for_each whose items keep draining across NUMA nodes skews the
// measured matrix and can trip the ORWL_REPLACE divergence trigger.
TEST(CommMeter, CrossNodeStealsFeedTheMeasuredMatrix) {
  const topo::Topology machine = topo::make_numa(2, 2, 1);  // PUs 0,1 | 2,3
  rt::CommMeter meter(2, 2);
  rt::StealExecutor::Config cfg;
  cfg.mode = rt::StealMode::All;
  std::vector<rt::StealExecutor::WorkerSpec> specs(2);
  specs[0].pu = 0;  // node 0
  specs[1].pu = 2;  // node 1
  rt::StealExecutor ex(machine, std::move(specs), cfg);
  ex.set_meter(&meter, 2);

  constexpr std::uint64_t kItems = 64;
  for (std::uint64_t i = 0; i < kItems; ++i) ex.seed(0, i);
  const rt::StealExecutor::ItemFn fn =
      [](std::uint64_t, rt::StealExecutor::WorkerContext&) {};
  // Worker 1 runs alone first: with the owner not yet popping, the only
  // way it can execute anything is stealing from worker 0's deque across
  // the node boundary — every item becomes one remote hand-off.
  std::thread thief([&] { ex.run_worker(1, fn); });
  thief.join();
  ex.run_worker(0, fn);

  const rt::StealExecutor::Stats s = ex.stats();
  EXPECT_EQ(s.executed, kItems);
  EXPECT_EQ(s.remote_steals, kItems);
  EXPECT_EQ(s.local_steals, 0u);
  EXPECT_EQ(meter.handoffs(), kItems);
  EXPECT_EQ(meter.remote_handoffs(), kItems);

  tm::CommMatrix m(2);
  const double drained = meter.harvest(m, 1.0);
  const double expected =
      static_cast<double>(kItems * rt::StealExecutor::kStealBytes);
  EXPECT_DOUBLE_EQ(drained, expected);
  EXPECT_DOUBLE_EQ(m.at(0, 1), expected);
}

// A null meter (replace policy Off) keeps the steal hot path untouched.
TEST(CommMeter, DetachedMeterRecordsNothing) {
  const topo::Topology machine = topo::make_numa(2, 2, 1);
  rt::CommMeter meter(1, 2);
  rt::StealExecutor::Config cfg;
  cfg.mode = rt::StealMode::All;
  std::vector<rt::StealExecutor::WorkerSpec> specs(2);
  specs[0].pu = 0;
  specs[1].pu = 2;
  rt::StealExecutor ex(machine, std::move(specs), cfg);
  ex.set_meter(&meter, 2);
  ex.set_meter(nullptr, 0);  // detach again

  for (std::uint64_t i = 0; i < 16; ++i) ex.seed(0, i);
  const rt::StealExecutor::ItemFn fn =
      [](std::uint64_t, rt::StealExecutor::WorkerContext&) {};
  std::thread thief([&] { ex.run_worker(1, fn); });
  thief.join();
  ex.run_worker(0, fn);
  EXPECT_EQ(meter.handoffs(), 0u);
}

// --------------------------------------------- normalized_distance ------

TEST(NormalizedDistance, BasicProperties) {
  tm::CommMatrix a(3), b(3);
  a.set(0, 1, 10.0);
  b.set(0, 1, 10.0);
  EXPECT_DOUBLE_EQ(tm::normalized_distance(a, b), 0.0);

  // Scale invariance: the metric compares shapes, not magnitudes.
  tm::CommMatrix b10(3);
  b10.set(0, 1, 100.0);
  EXPECT_DOUBLE_EQ(tm::normalized_distance(a, b10), 0.0);

  // Disjoint supports are maximally distant.
  tm::CommMatrix c(3);
  c.set(1, 2, 5.0);
  EXPECT_DOUBLE_EQ(tm::normalized_distance(a, c), 1.0);

  // Empty vs empty agree; empty vs anything else maximally disagree.
  tm::CommMatrix z1(3), z2(3);
  EXPECT_DOUBLE_EQ(tm::normalized_distance(z1, z2), 0.0);
  EXPECT_DOUBLE_EQ(tm::normalized_distance(z1, a), 1.0);

  // Different orders zero-pad.
  tm::CommMatrix big(5);
  big.set(0, 1, 10.0);
  EXPECT_DOUBLE_EQ(tm::normalized_distance(a, big), 0.0);

  // A half-moved mass is half-distant.
  tm::CommMatrix half(3);
  half.set(0, 1, 5.0);
  half.set(1, 2, 5.0);
  EXPECT_DOUBLE_EQ(tm::normalized_distance(a, half), 0.5);
}

// ------------------------------------------------ end-to-end feedback ----

/// Four imperative tasks, two shared locations: pair (0,1) exchanges its
/// location `hot_exchanges` times per iteration, pair (2,3) once. The
/// declared graph weighs both pairs equally, so the measured traffic
/// diverges from the declaration once hot_exchanges > 1.
void run_skewed_pairs(rt::ProgramOptions opts, std::size_t iters,
                      std::size_t hot_exchanges, rt::ProgramStats* out) {
  Program prog(4, opts);
  for (TaskId t = 0; t < 4; ++t) {
    const bool hot = t < 2;
    const TaskId owner = hot ? 0 : 2;
    const std::size_t exchanges = hot ? hot_exchanges : 1;
    prog.set_task_body(t, [t, owner, exchanges, iters](Task& task) {
      task.my<double[]>(0).scale(64);
      WriteLink<double[]> w;
      ReadLink<double[]> r;
      if (t == owner) {
        w = task.write<double[]>(loc(owner, 0), 0);
      } else {
        r = task.read<double[]>(loc(owner, 0), 1);
      }
      task.schedule();
      task.run_iterations(iters, [&](std::size_t) {
        for (std::size_t e = 0; e < exchanges; ++e) {
          if (t == owner) {
            WriteGuard<double[]> sec(w);
            sec[0] += 1.0;
          } else {
            ReadGuard<double[]> sec(r);
            (void)sec[0];
          }
        }
      });
    });
  }
  prog.run();
  *out = prog.stats();
}

TEST(Replace, PassiveMeasuresAndTriggersButNeverMoves) {
  const topo::Topology machine = topo::make_numa(2, 4, 1);
  support::ScopedEnv emu(support::knob::kMemBind.name, "emulate");
  rt::ProgramOptions o = fixture_opts(machine);
  o.replace = rt::ReplaceMode::Passive;
  o.replace_interval = 1;
  o.replace_threshold = 0.05;
  o.replace_decay = 0.5;

  rt::ProgramStats s;
  run_skewed_pairs(o, /*iters=*/32, /*hot_exchanges=*/8, &s);

  EXPECT_GT(s.measured_handoffs, 0u) << "the meter must observe hand-offs";
  EXPECT_GT(s.replace_checks, 0u) << "interval 1 must reach a check";
  EXPECT_GT(s.replace_triggers, 0u)
      << "8:1 skew against a 1:1 declaration must cross a 0.05 threshold";
  EXPECT_EQ(s.replacements, 0u) << "passive mode never moves anything";
}

TEST(Replace, MeasuredMatrixReflectsTheSkew) {
  const topo::Topology machine = topo::make_numa(2, 4, 1);
  support::ScopedEnv emu(support::knob::kMemBind.name, "emulate");
  rt::ProgramOptions o = fixture_opts(machine);
  o.replace = rt::ReplaceMode::Passive;
  o.replace_interval = 1;
  // No decay: under load the hot pair can race through all its
  // iterations early, and every later harvest (driven by the lagging
  // cool pair's boundaries) would halve the hot traffic — with decay 1
  // the matrix accumulates and the 8:1 skew is scheduling-independent.
  o.replace_decay = 1.0;

  Program prog(4, o);
  for (TaskId t = 0; t < 4; ++t) {
    const bool hot = t < 2;
    const TaskId owner = hot ? 0 : 2;
    const std::size_t exchanges = hot ? 8 : 1;
    prog.set_task_body(t, [t, owner, exchanges](Task& task) {
      task.my<double[]>(0).scale(64);
      WriteLink<double[]> w;
      ReadLink<double[]> r;
      if (t == owner) {
        w = task.write<double[]>(loc(owner, 0), 0);
      } else {
        r = task.read<double[]>(loc(owner, 0), 1);
      }
      task.schedule();
      task.run_iterations(16, [&](std::size_t) {
        for (std::size_t e = 0; e < exchanges; ++e) {
          if (t == owner) {
            WriteGuard<double[]> sec(w);
            sec[0] += 1.0;
          } else {
            ReadGuard<double[]> sec(r);
            (void)sec[0];
          }
        }
      });
    });
  }
  prog.run();

  const tm::CommMatrix m = prog.measured_matrix();
  ASSERT_GE(m.order(), 4u);
  EXPECT_GT(m.at(0, 1), 0.0);
  EXPECT_GT(m.at(2, 3), 0.0);
  EXPECT_GT(m.at(0, 1), 2.0 * m.at(2, 3))
      << "the hot pair must dominate the measured matrix";
  EXPECT_DOUBLE_EQ(m.at(0, 2), 0.0) << "pairs that never met stay empty";
}

TEST(Replace, AutoReplacesAndStateFollows) {
  const topo::Topology machine = topo::make_numa(2, 4, 1);
  support::ScopedEnv emu(support::knob::kMemBind.name, "emulate");
  rt::ProgramOptions o = fixture_opts(machine);
  o.replace = rt::ReplaceMode::Auto;
  o.replace_interval = 1;
  o.replace_threshold = 0.05;

  Program prog(4, o);
  for (TaskId t = 0; t < 4; ++t) {
    const bool hot = t < 2;
    const TaskId owner = hot ? 0 : 2;
    const std::size_t exchanges = hot ? 8 : 1;
    prog.set_task_body(t, [t, owner, exchanges](Task& task) {
      task.my<double[]>(0).scale(64);
      WriteLink<double[]> w;
      ReadLink<double[]> r;
      if (t == owner) {
        w = task.write<double[]>(loc(owner, 0), 0);
      } else {
        r = task.read<double[]>(loc(owner, 0), 1);
      }
      task.schedule();
      task.run_iterations(32, [&](std::size_t) {
        for (std::size_t e = 0; e < exchanges; ++e) {
          if (t == owner) {
            WriteGuard<double[]> sec(w);
            sec[0] += 1.0;
          } else {
            ReadGuard<double[]> sec(r);
            (void)sec[0];
          }
        }
      });
    });
  }
  prog.run();

  const rt::ProgramStats& s = prog.stats();
  EXPECT_GT(s.replace_triggers, 0u);
  EXPECT_GT(s.replacements, 0u) << "auto mode must re-place on divergence";
  EXPECT_GT(s.placement_recomputes, 1u)
      << "a re-placement is an extra Algorithm 1 run";

  // The re-placed state is coherent: every placed task has a node, every
  // sized location lives on its owner's node (emulated residency), and
  // every queue routes to a real shard.
  rt::Program& p = prog.runtime();
  for (TaskId t = 0; t < 4; ++t) {
    const int node = p.placed_node_of_task(t);
    ASSERT_GE(node, 0) << "task " << t << " unplaced after re-placement";
    rt::Location& l = p.location(t, 0);
    EXPECT_EQ(l.home_node(), p.placed_node_of_task(l.owner()));
    EXPECT_EQ(l.memory_node(), l.home_node())
        << "emulated buffer must follow the home node";
    EXPECT_LT(l.queue().shard(), p.num_control_shards());
  }
}

TEST(Replace, ImpossibleThresholdNeverTriggers) {
  const topo::Topology machine = topo::make_numa(2, 4, 1);
  support::ScopedEnv emu(support::knob::kMemBind.name, "emulate");
  rt::ProgramOptions o = fixture_opts(machine);
  o.replace = rt::ReplaceMode::Auto;
  o.replace_interval = 1;
  o.replace_threshold = 1.1;  // normalized distance is <= 1 by construction

  rt::ProgramStats s;
  run_skewed_pairs(o, /*iters=*/16, /*hot_exchanges=*/8, &s);

  EXPECT_GT(s.replace_checks, 0u);
  EXPECT_EQ(s.replace_triggers, 0u);
  EXPECT_EQ(s.replacements, 0u);
}

TEST(Replace, OffMeansNoMeterAndNoChecks) {
  const topo::Topology machine = topo::make_numa(2, 4, 1);
  support::ScopedEnv emu(support::knob::kMemBind.name, "emulate");
  support::ScopedEnv env(support::knob::kReplace.name, nullptr);
  rt::ProgramOptions o = fixture_opts(machine);

  rt::ProgramStats s;
  run_skewed_pairs(o, /*iters=*/8, /*hot_exchanges=*/4, &s);

  EXPECT_EQ(s.measured_handoffs, 0u);
  EXPECT_EQ(s.replace_checks, 0u);
  EXPECT_EQ(s.replacements, 0u);
}

// ------------------------------------------------------ version stamp ----

TEST(VersionStamp, UnchangedGraphSkipsAlgorithmOne) {
  const topo::Topology machine = topo::make_numa(2, 2, 1);
  support::ScopedEnv emu(support::knob::kMemBind.name, "emulate");

  ProgramBuilder builder(2, fixture_opts(machine));
  builder.task(0).owns<double>().writes<double>(loc(0, 0), 0).iterates(4);
  builder.task(1).reads<double>(loc(0, 0), 1).iterates(4);
  builder.task(0).body([](Task& task) {
    WriteLink<double> w = task.write_link<double>(loc(0, 0));
    task.run_iterations([&](std::size_t) { WriteGuard<double> s(w); });
  });
  builder.task(1).body([](Task& task) {
    ReadLink<double> r = task.read_link<double>(loc(0, 0));
    task.run_iterations([&](std::size_t) { ReadGuard<double> s(r); });
  });
  Program prog = builder.build();

  prog.dependency_get();
  prog.affinity_compute();
  EXPECT_EQ(prog.runtime().placement_recomputes(), 1u);

  // Same graph, same matrix: repeated computes are stamped away.
  prog.affinity_compute();
  prog.dependency_get();
  prog.affinity_compute();
  EXPECT_EQ(prog.runtime().placement_recomputes(), 1u)
      << "an unchanged graph must not re-run Algorithm 1";

  // The schedule barrier re-places only if the graph changed since the
  // pre-run compute — here it did not.
  prog.run();
  EXPECT_EQ(prog.stats().placement_recomputes, 1u);
}

TEST(VersionStamp, GraphVersionBumpsOnDeclaredInserts) {
  const topo::Topology machine = topo::make_numa(2, 2, 1);
  rt::ProgramOptions o;
  o.topology = &machine;
  o.affinity = rt::AffinityMode::Off;
  o.locations_per_task = 1;
  rt::Program p(2, o);
  const std::uint64_t v0 = p.graph_version();
  rt::Handle2 h;
  p.declare_insert(1, p.location(0, 0), rt::AccessMode::Read, 1, h);
  EXPECT_GT(p.graph_version(), v0);
}

// ------------------------------------------------- unsized-buffer skip ----

TEST(BindLocationMemory, UnscaledBuffersAreSkippedAndCounted) {
  const topo::Topology machine = topo::make_numa(2, 2, 1);
  support::ScopedEnv emu(support::knob::kMemBind.name, "emulate");
  rt::ProgramOptions o = fixture_opts(machine);
  o.locations_per_task = 2;
  rt::Program p(2, o);

  p.location(0, 0).scale(256);  // slot 1 is never scaled: no buffer
  rt::Handle2 h1, h2, h3;
  p.declare_insert(0, p.location(0, 0), rt::AccessMode::Write, 0, h1);
  p.declare_insert(1, p.location(0, 0), rt::AccessMode::Read, 1, h2);
  p.declare_insert(1, p.location(0, 1), rt::AccessMode::Read, 1, h3);

  p.dependency_get();
  p.affinity_compute();

  EXPECT_GE(p.stats().locations_bound, 1u);
  EXPECT_GE(p.stats().locations_skipped_unsized, 1u)
      << "the unscaled location must be skipped, not counted as bound";
  EXPECT_EQ(p.location(0, 1).memory_node(), -1)
      << "nothing was allocated, nothing may claim residency";
}

}  // namespace
