#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "apps/graph.hpp"
#include "orwl/orwl.hpp"
#include "run_watchdog.hpp"
#include "runtime/steal_deque.hpp"
#include "runtime/steal_executor.hpp"
#include "support/env.hpp"
#include "topo/machines.hpp"
#include "topo/membind.hpp"
#include "topo/victim.hpp"

namespace {

using orwl::rt::Arena;
using orwl::rt::StealDeque;
using orwl::rt::StealExecutor;
using orwl::rt::StealMode;
using orwl::support::ScopedEnv;
using orwl::test::expect_root_cause_fast;
using orwl::test::run_or_abort;
using orwl::test::RunOutcome;
using orwl::topo::make_victim_table;
using orwl::topo::Topology;
using orwl::topo::VictimTable;

// ---- the deque ----------------------------------------------------------

TEST(StealDeque, OwnerLifoThiefFifo) {
  StealDeque d(Arena::runtime_default(), 8);
  for (std::uint64_t i = 1; i <= 3; ++i) EXPECT_TRUE(d.push(i));
  std::uint64_t item = 0;
  EXPECT_TRUE(d.pop(item));
  EXPECT_EQ(item, 3u);  // owner end: most recent
  EXPECT_TRUE(d.steal(item));
  EXPECT_EQ(item, 1u);  // thief end: oldest
  EXPECT_TRUE(d.pop(item));
  EXPECT_EQ(item, 2u);
  EXPECT_FALSE(d.pop(item));
  EXPECT_FALSE(d.steal(item));
}

TEST(StealDeque, BoundedPushRefusesWhenFull) {
  StealDeque d(Arena::runtime_default(), 4);
  EXPECT_EQ(d.capacity(), 4u);
  for (std::uint64_t i = 0; i < 4; ++i) EXPECT_TRUE(d.push(i));
  EXPECT_FALSE(d.push(99));
  std::uint64_t item = 0;
  ASSERT_TRUE(d.steal(item));
  EXPECT_EQ(item, 0u);
  EXPECT_TRUE(d.push(99));  // one slot freed
}

// Linearizability stress (the test TSan watches): one owner pushing and
// popping against several thieves; every pushed item must be taken
// exactly once, by exactly one side.
TEST(StealDeque, ConcurrentOwnerAndThievesTakeEachItemOnce) {
  constexpr std::uint64_t kItems = 20000;
  constexpr int kThieves = 3;
  StealDeque d(Arena::runtime_default(), 256);
  std::vector<std::atomic<int>> taken(kItems);
  for (auto& t : taken) t.store(0, std::memory_order_relaxed);
  std::atomic<bool> done{false};

  std::vector<std::thread> thieves;
  thieves.reserve(kThieves);
  for (int t = 0; t < kThieves; ++t) {
    thieves.emplace_back([&] {
      std::uint64_t item = 0;
      while (!done.load(std::memory_order_acquire)) {
        if (d.steal(item)) {
          taken[item].fetch_add(1, std::memory_order_relaxed);
        }
      }
      while (d.steal(item)) {
        taken[item].fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  std::uint64_t next = 0;
  std::uint64_t item = 0;
  while (next < kItems) {
    if (d.push(next)) {
      ++next;
    } else if (d.pop(item)) {
      taken[item].fetch_add(1, std::memory_order_relaxed);
    }
    // Every few pushes, pop like a real worker would.
    if (next % 5 == 0 && d.pop(item)) {
      taken[item].fetch_add(1, std::memory_order_relaxed);
    }
  }
  done.store(true, std::memory_order_release);
  for (auto& t : thieves) t.join();
  std::uint64_t leftover = 0;
  while (d.pop(leftover)) {
    taken[leftover].fetch_add(1, std::memory_order_relaxed);
  }

  for (std::uint64_t i = 0; i < kItems; ++i) {
    EXPECT_EQ(taken[i].load(std::memory_order_relaxed), 1) << "item " << i;
  }
}

// ---- the victim order ---------------------------------------------------

TEST(VictimTable, Smp20e7NodeLocalPrefixThenRemote) {
  const Topology t = orwl::topo::make_smp20e7();  // 20 nodes x 8 cores
  const VictimTable table = make_victim_table(t);
  ASSERT_EQ(table.num_pus, 160u);
  // PU 3 lives on node 0 (PUs 0..7): its 7 same-node victims come
  // first, clockwise from itself (wrap included), remote nodes after.
  const auto row = table.row(3);
  ASSERT_EQ(row.size(), 159u);
  const std::vector<int> expected_local{4, 5, 6, 7, 0, 1, 2};
  for (std::size_t i = 0; i < expected_local.size(); ++i) {
    EXPECT_EQ(row[i], expected_local[i]) << "local victim " << i;
  }
  for (std::size_t i = 7; i < row.size(); ++i) {
    EXPECT_GE(row[i], 8) << "remote victim " << i << " is node-local";
  }
}

TEST(VictimTable, Smp12e5HyperthreadSiblingFirst) {
  const Topology t = orwl::topo::make_smp12e5();  // HT: 2 PUs per core
  const VictimTable table = make_victim_table(t);
  ASSERT_EQ(table.num_pus, 192u);
  // The first victim of every PU is its hyperthread sibling.
  EXPECT_EQ(table.row(0)[0], 1);
  EXPECT_EQ(table.row(1)[0], 0);
  EXPECT_EQ(table.row(190)[0], 191);
}

TEST(VictimTable, FlatMachineIsAllLocal) {
  const Topology t = orwl::topo::make_flat(4);
  const VictimTable table = make_victim_table(t);
  ASSERT_EQ(table.num_pus, 4u);
  for (std::size_t p = 0; p < 4; ++p) {
    EXPECT_EQ(table.row(p).size(), 3u);
  }
}

TEST(VictimTable, Fig2RowsArePermutations) {
  const Topology t = orwl::topo::make_fig2_machine();
  const VictimTable table = make_victim_table(t);
  for (std::size_t p = 0; p < table.num_pus; ++p) {
    const auto row = table.row(p);
    ASSERT_EQ(row.size(), table.num_pus - 1);
    std::vector<bool> seen(table.num_pus, false);
    for (const int v : row) {
      ASSERT_GE(v, 0);
      ASSERT_LT(static_cast<std::size_t>(v), table.num_pus);
      EXPECT_NE(static_cast<std::size_t>(v), p);
      EXPECT_FALSE(seen[static_cast<std::size_t>(v)]);
      seen[static_cast<std::size_t>(v)] = true;
    }
  }
}

// ---- the knobs ----------------------------------------------------------

// The Program resolves ORWL_STEAL once, options beating the environment;
// the spellings map onto StealMode in order. Parsing itself is covered
// for every knob by support_test's KnobTable.
TEST(StealKnobs, ProgramResolvesMode) {
  const Topology machine = orwl::topo::make_numa(2, 2, 1);
  orwl::rt::ProgramOptions o;
  o.topology = &machine;
  o.affinity = orwl::rt::AffinityMode::Off;
  ScopedEnv mode(orwl::support::knob::kSteal.name, nullptr);
  EXPECT_EQ(orwl::rt::Program(2, o).steal_mode(), StealMode::All);
  const std::pair<const char*, StealMode> spellings[] = {
      {"off", StealMode::Off}, {"all", StealMode::All}};
  for (const auto& [spelling, m] : spellings) {
    mode.set(spelling);
    EXPECT_EQ(orwl::rt::Program(2, o).steal_mode(), m) << spelling;
    EXPECT_STREQ(orwl::rt::to_string(m), spelling);
  }
  mode.set("node");  // a removed mode's spelling fails loudly
  EXPECT_THROW(orwl::rt::Program(2, o), std::invalid_argument);
  mode.set("all");
  o.steal = StealMode::Off;
  EXPECT_EQ(orwl::rt::Program(2, o).steal_mode(), StealMode::Off);
}

// ---- the executor -------------------------------------------------------

StealExecutor::Config test_config(StealMode mode) {
  StealExecutor::Config cfg;
  cfg.mode = mode;
  cfg.deque_capacity = 128;  // small on purpose: exercises the overflow
  return cfg;
}

/// Worker w on logical PU w mod num_pus, with that PU's NUMA node.
std::vector<StealExecutor::WorkerSpec> specs_round_robin(const Topology& t,
                                                         std::size_t workers) {
  std::vector<StealExecutor::WorkerSpec> s(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    const orwl::topo::Object* pu = t.pu_at(static_cast<int>(w % t.num_pus()));
    const orwl::topo::Object* node = orwl::topo::numa_node_of(t, pu->os_index);
    s[w].pu = pu->logical_index;
    s[w].node = node != nullptr ? node->logical_index : 0;
  }
  return s;
}

// A worker's node indexes the termination counters and meter banks, so
// the executor refuses an empty worker list and a negative node.
TEST(StealExecutor, RejectsNoWorkersAndNegativeNodes) {
  const Topology t = orwl::topo::make_numa(2, 2, 1);
  EXPECT_THROW(StealExecutor(t, {}, test_config(StealMode::All)),
               std::invalid_argument);
  std::vector<StealExecutor::WorkerSpec> specs = specs_round_robin(t, 2);
  specs[1].node = -1;
  EXPECT_THROW(StealExecutor(t, specs, test_config(StealMode::All)),
               std::invalid_argument);
}

// Every seeded item runs exactly once, even when every seed sits on one
// worker and the rest must steal their share.
TEST(StealExecutor, AllSeedsRunExactlyOnceFromOneHotDeque) {
  const Topology t = orwl::topo::make_numa(2, 2, 1);  // 4 PUs, 2 nodes
  constexpr std::size_t kWorkers = 4;
  constexpr std::uint64_t kItems = 5000;
  StealExecutor ex(t, specs_round_robin(t, kWorkers),
                   test_config(StealMode::All));
  std::vector<std::atomic<int>> ran(kItems);
  for (auto& r : ran) r.store(0, std::memory_order_relaxed);
  for (std::uint64_t i = 0; i < kItems; ++i) ex.seed(0, i);

  const StealExecutor::ItemFn fn =
      [&ran](std::uint64_t item, StealExecutor::WorkerContext&) {
        ran[item].fetch_add(1, std::memory_order_relaxed);
      };
  std::vector<std::thread> threads;
  for (std::size_t w = 0; w < kWorkers; ++w) {
    threads.emplace_back([&, w] { ex.run_worker(w, fn); });
  }
  for (auto& th : threads) th.join();

  for (std::uint64_t i = 0; i < kItems; ++i) {
    ASSERT_EQ(ran[i].load(std::memory_order_relaxed), 1) << "item " << i;
  }
  const StealExecutor::Stats s = ex.stats();
  EXPECT_EQ(s.executed, kItems);
}

// Termination with bursty re-injection: items spawn children (a binary
// tree per seed), so the frontier repeatedly empties and refills. The
// hierarchical counters must not declare quiescence in a lull.
TEST(StealExecutor, TerminationSurvivesBurstyReinjection) {
  const Topology t = orwl::topo::make_numa(2, 2, 1);
  constexpr std::size_t kWorkers = 4;
  constexpr std::uint64_t kDepth = 9;
  constexpr std::uint64_t kRoots = 4;
  // A root of depth d expands to 2^d - 1 nodes.
  constexpr std::uint64_t kExpected = kRoots * ((1u << kDepth) - 1);
  StealExecutor ex(t, specs_round_robin(t, kWorkers),
                   test_config(StealMode::All));
  for (std::uint64_t r = 0; r < kRoots; ++r) ex.seed(0, kDepth);

  std::atomic<std::uint64_t> count{0};
  const StealExecutor::ItemFn fn =
      [&count](std::uint64_t depth, StealExecutor::WorkerContext& ctx) {
        count.fetch_add(1, std::memory_order_relaxed);
        if (depth > 1) {
          ctx.push(depth - 1);
          ctx.push(depth - 1);
        }
      };
  std::vector<std::thread> threads;
  for (std::size_t w = 0; w < kWorkers; ++w) {
    threads.emplace_back([&, w] { ex.run_worker(w, fn); });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(count.load(std::memory_order_relaxed), kExpected);
  EXPECT_EQ(ex.stats().executed, kExpected);
}

// ORWL_STEAL=off: every worker drains exactly its own seeds; the steal
// counters stay at zero and nothing is lost.
TEST(StealExecutor, OffModeRunsEverythingWithoutStealing) {
  const Topology t = orwl::topo::make_numa(2, 2, 1);
  constexpr std::size_t kWorkers = 4;
  constexpr std::uint64_t kItems = 2000;
  StealExecutor ex(t, specs_round_robin(t, kWorkers),
                   test_config(StealMode::Off));
  for (std::uint64_t i = 0; i < kItems; ++i) ex.seed(i % kWorkers, i);

  std::vector<std::atomic<int>> ran(kItems);
  for (auto& r : ran) r.store(0, std::memory_order_relaxed);
  const StealExecutor::ItemFn fn =
      [&ran](std::uint64_t item, StealExecutor::WorkerContext&) {
        ran[item].fetch_add(1, std::memory_order_relaxed);
      };
  std::vector<std::thread> threads;
  for (std::size_t w = 0; w < kWorkers; ++w) {
    threads.emplace_back([&, w] { ex.run_worker(w, fn); });
  }
  for (auto& th : threads) th.join();

  for (std::uint64_t i = 0; i < kItems; ++i) {
    ASSERT_EQ(ran[i].load(std::memory_order_relaxed), 1) << "item " << i;
  }
  const StealExecutor::Stats s = ex.stats();
  EXPECT_EQ(s.executed, kItems);
  EXPECT_EQ(s.local_steals, 0u);
  EXPECT_EQ(s.remote_steals, 0u);
}

// The same executor serves several sessions back to back (the facade
// reuses one executor for every for_each of a program).
TEST(StealExecutor, SessionsAreReusable) {
  const Topology t = orwl::topo::make_flat(2);
  StealExecutor ex(t, specs_round_robin(t, 2), test_config(StealMode::All));
  for (int round = 0; round < 3; ++round) {
    std::atomic<std::uint64_t> count{0};
    const StealExecutor::ItemFn fn =
        [&count](std::uint64_t, StealExecutor::WorkerContext&) {
          count.fetch_add(1, std::memory_order_relaxed);
        };
    for (std::uint64_t i = 0; i < 100; ++i) ex.seed(i % 2, i);
    std::thread other([&] { ex.run_worker(1, fn); });
    ex.run_worker(0, fn);
    other.join();
    EXPECT_EQ(count.load(std::memory_order_relaxed), 100u) << round;
  }
}

// ---- the facade (Task::for_each) ----------------------------------------

TEST(ForEach, EmptyCollectiveTerminates) {
  orwl::Program p(3);
  std::atomic<int> done{0};
  p.set_task_body([&done](orwl::Task& t) {
    t.schedule();
    t.for_each({}, [](std::uint64_t, orwl::StealContext&) { FAIL(); });
    done.fetch_add(1, std::memory_order_relaxed);
  });
  p.run();
  EXPECT_EQ(done.load(std::memory_order_relaxed), 3);
}

TEST(ForEach, StatsLandInProgramStats) {
  orwl::Program p(2);
  p.set_task_body([](orwl::Task& t) {
    t.schedule();
    std::vector<std::uint64_t> seeds;
    for (std::uint64_t i = t.id(); i < 100; i += t.num_tasks()) {
      seeds.push_back(i);
    }
    t.for_each(seeds, [](std::uint64_t, orwl::StealContext&) {});
  });
  p.run();
  EXPECT_EQ(p.stats().steal_executed, 100u);
}

// Items of a for_each run on their own program's task threads only.
// Program X keeps its two tasks taking turns on one write lock next to
// program Y's collective, so one of X's threads is blocked on the lock
// most of the time; a blocked acquirer only parks and must not pick up
// Y's items.
TEST(ForEach, ItemsRunOnlyOnTheirProgramsThreads) {
  constexpr std::uint64_t kItems = 300;
  orwl::Options o;
  o.affinity = orwl::rt::AffinityMode::Off;
  o.steal = StealMode::All;

  // The Max reduction stops both X tasks at the same iteration, so
  // neither leaves while the other still waits for its grant.
  std::atomic<bool> y_done{false};
  std::atomic<std::uint64_t> turns{0};
  orwl::ProgramBuilder xb(2, o);
  xb.task(0).owns<int>().writes<int>(orwl::loc(0), 0);
  xb.task(1).writes<int>(orwl::loc(0), 1);
  xb.body([&](orwl::Task& task) {
    const orwl::WriteLink<int> link = task.write_link<int>(orwl::loc(0));
    task.run_iterations(
        [](double stop) { return stop > 0.0; },
        [&](std::size_t) {
          {
            orwl::WriteGuard<int> w(link);
            ++w.ref();
            std::this_thread::sleep_for(std::chrono::microseconds(200));
          }
          turns.fetch_add(1, std::memory_order_relaxed);
          return y_done.load(std::memory_order_acquire) ? 1.0 : 0.0;
        },
        orwl::ReduceOp::Max);
  });
  orwl::Program x = xb.build();
  std::exception_ptr x_error;
  std::thread x_runner([&] {
    try {
      x.run();
    } catch (...) {
      x_error = std::current_exception();
    }
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (turns.load(std::memory_order_relaxed) < 4 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }

  std::atomic<std::uint64_t> ran{0};
  std::atomic<std::uint64_t> foreign{0};
  orwl::Program y(1, o);
  y.set_task_body([&](orwl::Task& t) {
    t.schedule();
    const std::thread::id own = std::this_thread::get_id();
    std::vector<std::uint64_t> seeds(kItems);
    std::iota(seeds.begin(), seeds.end(), 0);
    t.for_each(seeds, [&](std::uint64_t, orwl::StealContext&) {
      if (std::this_thread::get_id() != own) {
        foreign.fetch_add(1, std::memory_order_relaxed);
      }
      ran.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    });
  });
  const std::uint64_t turns_before = turns.load(std::memory_order_relaxed);
  const RunOutcome out = run_or_abort(y, "for_each next to a lock");
  const std::uint64_t turns_during =
      turns.load(std::memory_order_relaxed) - turns_before;
  y_done.store(true, std::memory_order_release);
  x_runner.join();

  EXPECT_FALSE(out.error);
  EXPECT_FALSE(x_error);
  EXPECT_GT(turns_during, 10u) << "X was not taking turns during the run";
  EXPECT_EQ(ran.load(), kItems);
  EXPECT_EQ(foreign.load(), 0u) << "items ran on another program's threads";
  EXPECT_EQ(y.stats().steal_executed, kItems);
}

// ---- failures inside and around the collective --------------------------

orwl::Options departure_options() {
  orwl::Options o;
  o.affinity = orwl::rt::AffinityMode::Off;
  o.acquire_timeout_ms = 60000;
  return o;
}

TEST(ForEach, TaskLeavingBeforeTheCollectiveFailsFast) {
  orwl::Program p(2, departure_options());
  p.set_task_body([](orwl::Task& t) {
    t.schedule();
    if (t.id() == 0) throw std::domain_error("task 0 left");
    const std::uint64_t seeds[] = {1, 2, 3};
    t.for_each(seeds, [](std::uint64_t, orwl::StealContext&) {});
  });
  expect_root_cause_fast(run_or_abort(p, "for_each departure"),
                         "task 0 left");
}

TEST(ForEach, ThrowingItemFailsEveryTaskAndLeavesTheExecutorUsable) {
  // Item 37 throws. The session still runs every item, every task gets
  // the item's exception at the exit rendezvous, and a second for_each
  // on the same executor runs normally.
  orwl::Program p(2, departure_options());
  std::atomic<int> caught{0};
  std::atomic<int> second_round{0};
  p.set_task_body([&](orwl::Task& t) {
    t.schedule();
    std::vector<std::uint64_t> seeds;
    for (std::uint64_t i = t.id(); i < 100; i += t.num_tasks()) {
      seeds.push_back(i);
    }
    try {
      t.for_each(seeds, [](std::uint64_t item, orwl::StealContext&) {
        if (item == 37) throw std::domain_error("item 37 failed");
      });
    } catch (const std::domain_error&) {
      caught.fetch_add(1, std::memory_order_relaxed);
    }
    t.for_each(seeds, [&](std::uint64_t, orwl::StealContext&) {
      second_round.fetch_add(1, std::memory_order_relaxed);
    });
  });
  const RunOutcome out = run_or_abort(p, "for_each item failure");
  EXPECT_FALSE(out.error) << "the item's exception was caught in the body";
  EXPECT_EQ(caught.load(), 2);
  EXPECT_EQ(second_round.load(), 100);
  EXPECT_EQ(p.stats().steal_executed, 200u);
}

TEST(ForEach, ThrowingItemReachesRunFast) {
  orwl::Program p(2, departure_options());
  p.set_task_body([](orwl::Task& t) {
    t.schedule();
    const std::uint64_t seeds[] = {t.id() * 10, t.id() * 10 + 1};
    t.for_each(seeds, [](std::uint64_t item, orwl::StealContext&) {
      if (item == 0) throw std::domain_error("item 0 failed");
    });
  });
  expect_root_cause_fast(run_or_abort(p, "for_each item failure"),
                         "item 0 failed");
}

// ---- the graph workloads ------------------------------------------------

class GraphModes : public ::testing::TestWithParam<const char*> {};

TEST_P(GraphModes, BfsMatchesSequential) {
  ScopedEnv mode(orwl::support::knob::kSteal.name, GetParam());
  const auto g = orwl::apps::GridGraph::make(40);
  const auto expect = orwl::apps::bfs_sequential(g, 0);
  const auto got = orwl::apps::bfs_orwl(g, 0, 4);
  EXPECT_EQ(got, expect);
}

TEST_P(GraphModes, PagerankBitIdentical) {
  ScopedEnv mode(orwl::support::knob::kSteal.name, GetParam());
  const auto g = orwl::apps::GridGraph::make(32);
  const auto expect = orwl::apps::pagerank_sequential(g, 5);
  const auto got = orwl::apps::pagerank_orwl(g, 5, 4);
  ASSERT_EQ(got.size(), expect.size());
  for (std::size_t v = 0; v < expect.size(); ++v) {
    ASSERT_EQ(got[v], expect[v]) << "vertex " << v;  // bit-identical
  }
}

INSTANTIATE_TEST_SUITE_P(Modes, GraphModes,
                         ::testing::Values("off", "all"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

// ---- the generalized reduction ------------------------------------------

TEST(ReduceOp, MinMaxAndSumCombine) {
  orwl::Program p(3);
  std::atomic<int> bad{0};
  p.set_task_body([&bad](orwl::Task& t) {
    t.schedule();
    const double mine = static_cast<double>(t.id());
    if (t.program().reduce_iteration(mine, orwl::ReduceOp::Max) != 2.0) {
      bad.fetch_add(1);
    }
    if (t.program().reduce_iteration(mine, orwl::ReduceOp::Min) != 0.0) {
      bad.fetch_add(1);
    }
    if (t.program().reduce_iteration(mine) != 3.0) {  // sum stays default
      bad.fetch_add(1);
    }
  });
  p.run();
  EXPECT_EQ(bad.load(), 0);
}

TEST(ReduceOp, ConvergedDriverWithMax) {
  orwl::Program p(2);
  std::atomic<int> iters_seen{0};
  p.set_task_body([&iters_seen](orwl::Task& t) {
    t.schedule();
    double residual = 4.0 + static_cast<double>(t.id());
    const std::size_t iters = t.run_iterations(
        [](double global) { return global < 1.0; },
        [&residual](std::size_t) { return residual /= 2.0; },
        orwl::ReduceOp::Max);
    iters_seen.fetch_add(static_cast<int>(iters));
  });
  p.run();
  // Task 1 starts at 5.0: halved to 2.5, 1.25, 0.625 -> 3 iterations,
  // uniform across both tasks because the max is shared.
  EXPECT_EQ(iters_seen.load(), 6);
}

}  // namespace
