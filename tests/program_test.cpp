#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "orwl/orwl.hpp"
#include "runtime/comm_meter.hpp"
#include "support/env.hpp"
#include "topo/binding.hpp"
#include "topo/detect.hpp"
#include "topo/machines.hpp"

namespace {

using namespace orwl::rt;

ProgramOptions quiet_options() {
  ProgramOptions o;
  o.affinity = AffinityMode::Off;
  o.acquire_timeout_ms = 20000;
  return o;
}

// ------------------------------------------------------- construction ----

TEST(Program, RejectsZeroTasks) {
  EXPECT_THROW(Program(0, quiet_options()), std::invalid_argument);
}

TEST(Program, RejectsZeroLocations) {
  ProgramOptions o = quiet_options();
  o.locations_per_task = 0;
  EXPECT_THROW(Program(2, o), std::invalid_argument);
}

TEST(Program, RunsNoControlThreads) {
  Program p(16, quiet_options());
  EXPECT_EQ(p.num_control_threads(), 0u);
  Program q(2, quiet_options());
  EXPECT_EQ(q.num_control_threads(), 0u);
}

/// Threads of this process right now (entries of /proc/self/task).
std::size_t live_threads() {
  std::size_t n = 0;
  for (const auto& e :
       std::filesystem::directory_iterator("/proc/self/task")) {
    (void)e;
    ++n;
  }
  return n;
}

TEST(Program, RunsNoThreadBesidesItsTasks) {
  if (!std::filesystem::exists("/proc/self/task")) {
    GTEST_SKIP() << "no /proc/self/task on this host";
  }
  constexpr std::size_t kTasks = 16;
  Program prog(kTasks, quiet_options());
  std::size_t during = 0;
  prog.set_task_body([&](TaskContext& ctx) {
    ctx.scale(sizeof(long));
    Handle2 own;
    Handle2 next;
    own.write_insert(ctx, ctx.my_location(), 0);
    next.read_insert(ctx, ctx.location((ctx.id() + 1) % kTasks), 1);
    ctx.schedule();
    { Section s(own); }
    { Section s(next); }
    // Every task is alive until all of them arrive here, so task 0
    // counts them all.
    if (ctx.id() == 0) during = live_threads();
    ctx.program().rendezvous("count", nullptr, nullptr);
  });
  // TSan starts a helper thread along with the process's first thread;
  // start and join one first so that helper is already in `before`.
  std::thread([] {}).join();
  const std::size_t before = live_threads();
  prog.run();
  EXPECT_EQ(during - before, kTasks);
}

TEST(Program, LocationCoordinates) {
  ProgramOptions o = quiet_options();
  o.locations_per_task = 3;
  Program p(4, o);
  EXPECT_EQ(p.location(2, 1).owner(), 2u);
  EXPECT_EQ(p.location(2, 1).slot(), 1u);
  EXPECT_EQ(p.location(2, 1).id(), 7u);
  EXPECT_THROW(p.location(4, 0), std::out_of_range);
  EXPECT_THROW(p.location(0, 3), std::out_of_range);
}

TEST(Program, RunWithoutBodyThrows) {
  Program p(2, quiet_options());
  EXPECT_THROW(p.run(), std::logic_error);
}

// ---------------------------------------------------------- Listing 1 ----

TEST(Program, Listing1PipelineOfTasks) {
  // The paper's Listing 1: a chain of dependencies from task 0 to task
  // N-1, each averaging its own value with its predecessor's.
  constexpr std::size_t kTasks = 8;
  std::array<double, kTasks> result{};

  Program prog(kTasks, quiet_options());
  prog.set_task_body([&](TaskContext& ctx) {
    const TaskId me = ctx.id();
    ctx.scale(sizeof(double));

    Handle here;
    Handle there;
    here.write_insert(ctx, ctx.my_location(), me);
    if (me > 0) there.read_insert(ctx, ctx.location(me - 1), me);

    ctx.schedule();

    Section sec(here);
    double* wval = sec.as<double>();
    *wval = static_cast<double>(me + 1);  // init_val
    if (me > 0) {
      Section sec2(there);
      const double* rval = sec2.as_const<double>();
      *wval = (*rval + *wval) * 0.5;
    }
    result[me] = *wval;
  });
  prog.run();

  // Expected: v0 = 1; vk = (v(k-1) + k+1)/2.
  double expect = 1.0;
  EXPECT_DOUBLE_EQ(result[0], expect);
  for (std::size_t k = 1; k < kTasks; ++k) {
    expect = (expect + static_cast<double>(k + 1)) * 0.5;
    EXPECT_DOUBLE_EQ(result[k], expect) << "task " << k;
  }
}

// ------------------------------------------------------ FIFO ordering ----

TEST(Program, InsertPriorityOrdersInitialFifo) {
  // Two writers on task 0's location with different priorities; the
  // lower priority goes first regardless of which thread inserts first.
  std::vector<int> order;
  std::mutex order_mu;

  Program prog(2, quiet_options());
  prog.set_task_body([&](TaskContext& ctx) {
    ctx.scale(64, 0);
    Handle h;
    // Task 1 gets priority 0 (head), task 0 priority 1.
    h.write_insert(ctx, ctx.location(0), ctx.id() == 1 ? 0 : 1);
    ctx.schedule();
    Section sec(h);
    std::unique_lock lock(order_mu);
    order.push_back(static_cast<int>(ctx.id()));
  });
  prog.run();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 1);
  EXPECT_EQ(order[1], 0);
}

TEST(Program, ReaderSharingGrantsConcurrently) {
  // One writer publishes, then N readers must hold the location at the
  // same time (reader sharing).
  constexpr std::size_t kReaders = 6;
  std::atomic<int> concurrent{0};
  std::atomic<int> peak{0};

  Program prog(kReaders + 1, quiet_options());
  prog.set_task_body([&](TaskContext& ctx) {
    ctx.scale(sizeof(int));
    Handle h;
    if (ctx.id() == 0) {
      h.write_insert(ctx, ctx.location(0), 0);
    } else {
      h.read_insert(ctx, ctx.location(0), 1);
    }
    ctx.schedule();
    Section sec(h);
    if (ctx.id() == 0) {
      *sec.as<int>() = 42;
    } else {
      const int seen = concurrent.fetch_add(1) + 1;
      int old = peak.load();
      while (seen > old && !peak.compare_exchange_weak(old, seen)) {
      }
      // Hold the section long enough for the others to pile in.
      std::this_thread::sleep_for(std::chrono::milliseconds(30));
      EXPECT_EQ(*sec.as_const<int>(), 42);
      concurrent.fetch_sub(1);
    }
  });
  prog.run();
  EXPECT_GE(peak.load(), 2) << "readers never overlapped";
}

// ----------------------------------------------------- iterative ring ----

TEST(Program, Handle2RingCirculation) {
  // Classic ORWL ring: each task owns a slot; every iteration it reads
  // its predecessor's slot and accumulates. After N iterations each slot
  // has visited every task.
  constexpr std::size_t kTasks = 5;
  constexpr int kIters = 5;  // full circulation
  std::array<long, kTasks> final_value{};

  Program prog(kTasks, quiet_options());
  prog.set_task_body([&](TaskContext& ctx) {
    const TaskId me = ctx.id();
    const TaskId prev = (me + kTasks - 1) % kTasks;
    ctx.scale(sizeof(long));
    ctx.my_location().as<long>()[0] = static_cast<long>(me);

    Handle2 own;
    Handle2 before;
    own.write_insert(ctx, ctx.my_location(), 0);
    before.read_insert(ctx, ctx.location(prev), 1);
    ctx.schedule();

    long carry = 0;
    for (int it = 0; it < kIters; ++it) {
      {
        Section sec(own);
        long* v = sec.as<long>();
        if (it == 0) {
          carry = *v;  // my initial value
        } else {
          *v = carry;  // deposit what I read from my predecessor
        }
      }
      {
        Section sec(before);
        carry = *sec.as_const<long>();
      }
    }
    final_value[me] = carry;
  });
  prog.run();

  // After kIters full steps the value that started at task t has moved
  // kIters positions: carry at task m is the initial value of task
  // (m - kIters) mod kTasks == m (kIters == kTasks). The exact algebra:
  // iteration i reads the predecessor's value deposited at iteration i,
  // which is the value (m - i) started with... net effect: each task sees
  // its own initial value again.
  for (std::size_t m = 0; m < kTasks; ++m) {
    EXPECT_EQ(final_value[m], static_cast<long>(m)) << "task " << m;
  }
}

// ------------------------------------------------------------- graph -----

TEST(Program, GraphFrozenAtSchedule) {
  Program prog(3, quiet_options());
  prog.set_task_body([&](TaskContext& ctx) {
    ctx.scale(128);
    Handle own;
    Handle next;
    own.write_insert(ctx, ctx.my_location(), 0);
    next.read_insert(ctx, ctx.location((ctx.id() + 1) % 3), 1);
    ctx.schedule();
    { Section s(own); }
    { Section s(next); }
  });
  prog.run();

  const TaskGraph& g = prog.graph();
  EXPECT_EQ(g.num_tasks, 3u);
  EXPECT_EQ(g.locations.size(), 3u);
  EXPECT_EQ(g.num_access_edges(), 6u);  // 3 writes + 3 reads
  for (const auto& loc : g.locations) {
    EXPECT_EQ(loc.bytes, 128u);
    ASSERT_EQ(loc.accesses.size(), 2u);
    // Sorted by priority: write (0) before read (1).
    EXPECT_EQ(loc.accesses[0].mode, AccessMode::Write);
    EXPECT_EQ(loc.accesses[1].mode, AccessMode::Read);
  }
}

TEST(Program, ScheduleOnlyBodiesRecordTheGraph) {
  // An init phase with no compute phase: the graph is complete at the
  // schedule barrier, even though no granted request is ever acquired.
  Program prog(4, quiet_options());
  prog.set_task_body([](TaskContext& ctx) {
    ctx.scale(64);
    Handle h;
    h.write_insert(ctx, ctx.my_location(), 0);
    ctx.schedule();
  });
  prog.run();
  EXPECT_EQ(prog.graph().num_access_edges(), 4u);
}

// --------------------------------------------------------- exceptions ----

TEST(Program, TaskExceptionPropagates) {
  ProgramOptions o = quiet_options();
  o.acquire_timeout_ms = 2000;  // other tasks time out at the barrier
  Program prog(2, o);
  prog.set_task_body([&](TaskContext& ctx) {
    if (ctx.id() == 0) throw std::runtime_error("task failure");
    ctx.schedule();  // will time out since task 0 never arrives
  });
  EXPECT_THROW(prog.run(), std::runtime_error);
}

// --------------------------------------------------------- rendezvous ----

TEST(Rendezvous, ThrowingLastReachesEveryParticipant) {
  Program prog(3, quiet_options());
  std::atomic<int> caught{0};
  prog.set_task_body([&](TaskContext& ctx) {
    try {
      ctx.program().rendezvous("probe", nullptr, [] {
        throw std::domain_error("last failed");
      });
    } catch (const std::domain_error&) {
      caught.fetch_add(1);
    }
  });
  prog.run();
  EXPECT_EQ(caught.load(), 3);
}

TEST(Rendezvous, DepartureNamesTheCollectiveAndTheTask) {
  // Task 0 returns without arriving: the open generation and every later
  // one fail on the other tasks, naming the collective and task 0.
  ProgramOptions o = quiet_options();
  o.acquire_timeout_ms = 60000;
  Program prog(3, o);
  std::atomic<int> named{0};
  prog.set_task_body([&](TaskContext& ctx) {
    if (ctx.id() == 0) return;
    for (int round = 0; round < 2; ++round) {
      try {
        ctx.program().rendezvous("probe", nullptr, nullptr);
        ADD_FAILURE() << "rendezvous completed without task 0";
      } catch (const std::runtime_error& e) {
        const std::string msg = e.what();
        if (msg.find("probe") != std::string::npos &&
            msg.find("task 0") != std::string::npos) {
          named.fetch_add(1);
        }
      }
    }
  });
  prog.run();
  EXPECT_EQ(named.load(), 4);
}

TEST(Rendezvous, WaitIsBoundedByTheAcquireTimeout) {
  // Task 0 is late but has not left: the waiting task gives up after
  // acquire_timeout_ms.
  ProgramOptions o = quiet_options();
  o.acquire_timeout_ms = 100;
  Program prog(2, o);
  std::string message;
  prog.set_task_body([&](TaskContext& ctx) {
    if (ctx.id() == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(600));
      return;
    }
    try {
      ctx.program().rendezvous("probe", nullptr, nullptr);
    } catch (const std::runtime_error& e) {
      message = e.what();
    }
  });
  prog.run();
  EXPECT_NE(message.find("probe: timed out after 100 ms"), std::string::npos)
      << message;
}

TEST(Program, DoubleAcquireThrows) {
  Program prog(1, quiet_options());
  prog.set_task_body([&](TaskContext& ctx) {
    ctx.scale(8);
    Handle h;
    h.write_insert(ctx, ctx.my_location(), 0);
    ctx.schedule();
    h.acquire();
    EXPECT_THROW(h.acquire(), std::logic_error);
    h.release();
    // Plain handles cannot be re-acquired.
    EXPECT_THROW(h.acquire(), std::logic_error);
  });
  prog.run();
}

TEST(Program, UnlinkedHandleThrows) {
  Handle h;
  EXPECT_THROW(h.acquire(), std::logic_error);
  EXPECT_THROW(h.release(), std::logic_error);
}

TEST(Program, WriteMapOnReadHandleThrows) {
  Program prog(2, quiet_options());
  prog.set_task_body([&](TaskContext& ctx) {
    ctx.scale(8);
    Handle own;
    own.write_insert(ctx, ctx.my_location(), 0);
    Handle other;
    other.read_insert(ctx, ctx.location((ctx.id() + 1) % 2), 1);
    ctx.schedule();
    { Section s(own); }
    other.acquire();
    EXPECT_THROW(other.write_map(), std::logic_error);
    EXPECT_NO_THROW(other.read_map());
    other.release();
  });
  prog.run();
}

// ----------------------------------------------------------- affinity ----

TEST(ProgramAffinity, AutomaticModeComputesPlacementAndBinds) {
  ProgramOptions o;
  o.affinity = AffinityMode::On;
  o.acquire_timeout_ms = 20000;
  Program prog(4, o);

  std::array<int, 4> cpu_after_schedule{};
  prog.set_task_body([&](TaskContext& ctx) {
    ctx.scale(1024);
    Handle2 own;
    Handle2 next;
    own.write_insert(ctx, ctx.my_location(), 0);
    next.read_insert(ctx, ctx.location((ctx.id() + 1) % 4), 1);
    ctx.schedule();
    cpu_after_schedule[ctx.id()] = orwl::topo::current_cpu();
    for (int it = 0; it < 3; ++it) {
      { Section s(own); }
      { Section s(next); }
    }
  });
  prog.run();

  EXPECT_TRUE(prog.stats().affinity_applied);
  const auto& pl = prog.placement();
  ASSERT_EQ(pl.compute_pu.size(), 4u);
  EXPECT_TRUE(pl.valid_for(prog.topology()));
  // Each task thread must actually have been running on its assigned PU
  // right after schedule (host topology, so binding is real).
  for (std::size_t t = 0; t < 4; ++t) {
    if (pl.compute_pu[t] >= 0) {
      EXPECT_EQ(cpu_after_schedule[t], pl.compute_pu[t]) << "task " << t;
    }
  }
  EXPECT_GT(prog.stats().compute_threads_bound, 0u);
}

TEST(ProgramAffinity, OversubscribedTasksAreBoundToTheirGroup) {
  // Twice as many tasks as host cores: the placement is oversubscribed,
  // and each task thread's OS mask must be exactly its placement set
  // (a group of PUs, not the single representative PU).
  ProgramOptions o;
  o.affinity = AffinityMode::On;
  o.acquire_timeout_ms = 20000;
  const std::size_t cores =
      orwl::topo::detect_host().num_cores();
  if (cores < 2) GTEST_SKIP() << "needs at least 2 cores";
  const std::size_t n = 2 * cores;
  Program prog(n, o);

  std::vector<orwl::topo::CpuSet> bound(n);
  prog.set_task_body([&](TaskContext& ctx) {
    ctx.scale(64);
    Handle2 own;
    Handle2 next;
    own.write_insert(ctx, ctx.my_location(), 0);
    next.read_insert(ctx, ctx.location((ctx.id() + 1) % n), 1);
    ctx.schedule();
    bound[ctx.id()] = orwl::topo::current_thread_binding();
    { Section s(own); }
    { Section s(next); }
  });
  prog.run();

  ASSERT_TRUE(prog.stats().affinity_applied);
  const auto& pl = prog.placement();
  ASSERT_TRUE(pl.valid_for(prog.topology()));
  ASSERT_TRUE(pl.oversubscribed);
  for (std::size_t t = 0; t < n; ++t) {
    EXPECT_EQ(bound[t], pl.cpus_of(t))
        << "task " << t << " bound to " << bound[t].to_list_string()
        << ", placed on " << pl.cpus_of(t).to_list_string();
  }
}

TEST(ProgramAffinity, OffModeComputesNothing) {
  Program prog(2, quiet_options());
  prog.set_task_body([&](TaskContext& ctx) {
    ctx.scale(8);
    Handle h;
    h.write_insert(ctx, ctx.my_location(), 0);
    ctx.schedule();
    { Section s(h); }
  });
  prog.run();
  EXPECT_FALSE(prog.stats().affinity_applied);
  EXPECT_THROW(prog.placement(), std::logic_error);
}

TEST(ProgramAffinity, EnvVarSwitchesAutomaticMode) {
  orwl::support::ScopedEnv guard("ORWL_AFFINITY", "1");
  ProgramOptions o;  // affinity unset: follow ORWL_AFFINITY
  o.acquire_timeout_ms = 20000;
  Program prog(2, o);
  EXPECT_TRUE(prog.affinity_enabled());
  guard.set(nullptr);
  Program prog2(2, o);
  EXPECT_FALSE(prog2.affinity_enabled());
}

TEST(ProgramAffinity, AdvancedApiRecomputesDynamically) {
  // The Sec. IV-B advanced mode: call the three functions explicitly
  // after the connection between tasks changed.
  ProgramOptions o = quiet_options();
  Program prog(4, o);
  prog.set_task_body([&](TaskContext& ctx) {
    ctx.scale(4096);
    Handle2 own;
    Handle2 next;
    own.write_insert(ctx, ctx.my_location(), 0);
    next.read_insert(ctx, ctx.location((ctx.id() + 1) % 4), 1);
    ctx.schedule();
    if (ctx.id() == 0) {
      ctx.program().dependency_get();
      ctx.program().affinity_compute();
      ctx.program().affinity_set();
    }
    { Section s(own); }
    { Section s(next); }
  });
  prog.run();
  EXPECT_EQ(prog.comm_matrix().order(), 4u);
  EXPECT_TRUE(prog.placement().valid_for(prog.topology()));
}

TEST(ProgramAffinity, SyntheticTopologyWithoutBinding) {
  // Placement computed for a machine larger than the host: binding is
  // disabled but the placement must cover all tasks on the synthetic
  // topology.
  const auto synthetic = orwl::topo::make_smp20e7();
  ProgramOptions o;
  o.affinity = AffinityMode::On;
  o.topology = &synthetic;
  o.bind_threads = false;
  o.acquire_timeout_ms = 20000;
  Program prog(16, o);
  prog.set_task_body([&](TaskContext& ctx) {
    ctx.scale(256);
    Handle h;
    h.write_insert(ctx, ctx.my_location(), 0);
    ctx.schedule();
    { Section s(h); }
  });
  prog.run();
  EXPECT_TRUE(prog.placement().valid_for(synthetic));
  EXPECT_EQ(prog.stats().compute_threads_bound, 0u);
}

// --------------------------------------------------------------- fifo ----

TEST(Fifo, ProducerConsumerTransfersInOrder) {
  constexpr int kItems = 40;
  std::vector<int> received;

  orwl::ProgramBuilder b(2, quiet_options());
  b.task(0).fifo_out<int>("squares", /*depth=*/2).body([&](orwl::Task& t) {
    orwl::FifoOut<int> out = t.fifo_out<int>("squares");
    for (int i = 0; i < kItems; ++i) out.push(i * i);
    EXPECT_EQ(out.pushed(), static_cast<std::uint64_t>(kItems));
  });
  b.task(1).fifo_in<int>("squares").body([&](orwl::Task& t) {
    orwl::FifoIn<int> in = t.fifo_in<int>("squares");
    for (int i = 0; i < kItems; ++i) received.push_back(in.pop());
  });
  b.build().run();

  ASSERT_EQ(received.size(), static_cast<std::size_t>(kItems));
  for (int i = 0; i < kItems; ++i) EXPECT_EQ(received[i], i * i);
}

TEST(Fifo, RejectsBadUsage) {
  FifoProducer p;
  EXPECT_THROW(p.begin_push(), std::logic_error);
  FifoConsumer c;
  EXPECT_THROW(c.begin_pop(), std::logic_error);
}

// -------------------------------------------------------------- split ----

TEST(Split, RangesTileTheTotal) {
  constexpr std::size_t kTotal = 103;
  constexpr std::size_t kParts = 8;
  std::size_t covered = 0;
  std::size_t expected_next = 0;
  for (std::size_t i = 0; i < kParts; ++i) {
    const auto r = split_range(kTotal, kParts, i);
    EXPECT_EQ(r.begin, expected_next);
    covered += r.size();
    expected_next = r.end;
  }
  EXPECT_EQ(covered, kTotal);
  EXPECT_THROW(split_range(10, 0, 0), std::invalid_argument);
  EXPECT_THROW(split_range(10, 4, 4), std::invalid_argument);
}

TEST(Split, ReaderSharingScatterGather) {
  // The orwl_split idiom: 4 workers read slices of a parent location
  // concurrently, write partial sums to their own locations; the merge
  // task collects. Values must add up exactly.
  constexpr std::size_t kWorkers = 4;
  constexpr std::size_t kElems = 1000;
  long total = 0;

  Program prog(kWorkers + 2, quiet_options());  // 0=source, 1..4=work, 5=merge
  prog.set_task_body(0, [&](TaskContext& ctx) {
    ctx.scale(kElems * sizeof(int));
    Handle h;
    h.write_insert(ctx, ctx.my_location(), 0);
    ctx.schedule();
    Section sec(h);
    int* v = sec.as<int>();
    std::iota(v, v + kElems, 1);
  });
  for (std::size_t w = 0; w < kWorkers; ++w) {
    prog.set_task_body(1 + w, [&, w](TaskContext& ctx) {
      ctx.scale(sizeof(long));
      Handle src;
      Handle out;
      src.read_insert(ctx, ctx.location(0), 1);  // after the source's write
      out.write_insert(ctx, ctx.my_location(), 0);
      ctx.schedule();
      const auto range = split_range(kElems, kWorkers, w);
      long sum = 0;
      {
        Section sec(src);
        const int* v = sec.as_const<int>();
        for (std::size_t i = range.begin; i < range.end; ++i) sum += v[i];
      }
      Section sec(out);
      *sec.as<long>() = sum;
    });
  }
  prog.set_task_body(kWorkers + 1, [&](TaskContext& ctx) {
    std::array<std::unique_ptr<Handle>, kWorkers> parts;
    for (std::size_t w = 0; w < kWorkers; ++w) {
      parts[w] = std::make_unique<Handle>();
      parts[w]->read_insert(ctx, ctx.location(1 + w), 1);
    }
    ctx.schedule();
    long sum = 0;
    for (std::size_t w = 0; w < kWorkers; ++w) {
      Section sec(*parts[w]);
      sum += *sec.as_const<long>();
    }
    total = sum;
  });
  prog.run();
  EXPECT_EQ(total, static_cast<long>(kElems * (kElems + 1) / 2));
}

// ------------------------------------------------------------- stats -----

TEST(Program, HandOffsAreCountedAsInlineGrants) {
  ProgramOptions o = quiet_options();
  Program prog(4, o);
  prog.set_task_body([&](TaskContext& ctx) {
    ctx.scale(64);
    Handle2 own;
    Handle2 next;
    own.write_insert(ctx, ctx.my_location(), 0);
    next.read_insert(ctx, ctx.location((ctx.id() + 1) % 4), 1);
    ctx.schedule();
    for (int i = 0; i < 20; ++i) {
      { Section s(own); }
      { Section s(next); }
    }
  });
  prog.run();
  // Every grant happened on a task thread; the count is the queues' own.
  std::uint64_t grants = 0;
  for (TaskId t = 0; t < 4; ++t) {
    grants += prog.location(t).queue().total_grants();
  }
  EXPECT_EQ(prog.stats().control_events, 0u);
  EXPECT_EQ(prog.stats().control_inline_grants, grants);
  // 4 tasks x 20 iterations x (one write + one read section).
  EXPECT_GE(grants, 4u * 20u * 2u);
}

// ------------------------------------------------------------ locality ----
//
// A task's placed NUMA node is the runtime's one locality index: each of
// its locations' queues draws from that node's arena, and each sized
// buffer is bound to the arena's node.

/// Expect the locality invariant for location (t, slot): the queue's
/// arena is the arena of the owner's node (owner round-robin while
/// unplaced), and a placed owner's sized buffer sits on that arena's node.
/// \return The index of the queue's arena.
std::size_t expect_follows_owner(Program& prog, TaskId t,
                                 std::size_t slot = 0) {
  const Location& loc = prog.location(t, slot);
  const int node = prog.placed_node_of_task(t);
  const std::size_t want =
      node >= 0 ? static_cast<std::size_t>(node)
                : t % prog.num_control_shards();
  const Arena& arena = prog.node_arena(want);
  EXPECT_EQ(loc.queue().arena(), &arena) << "task " << t << " slot " << slot;
  if (node >= 0 && loc.data() != nullptr) {
    EXPECT_EQ(loc.buffer().node(), arena.node())
        << "task " << t << " slot " << slot;
  }
  return want;
}

/// A ring of `tasks` tasks, each writing its own location and reading
/// the next one's, `iters` times.
void ring_body(Program& prog, std::size_t tasks, int iters) {
  prog.set_task_body([tasks, iters](TaskContext& ctx) {
    ctx.scale(128);
    Handle2 own;
    Handle2 next;
    own.write_insert(ctx, ctx.my_location(), 0);
    next.read_insert(ctx, ctx.location((ctx.id() + 1) % tasks), 1);
    ctx.schedule();
    for (int i = 0; i < iters; ++i) {
      { Section s(own); }
      { Section s(next); }
    }
  });
}

TEST(Locality, OneArenaPerNumaNode) {
  const auto synthetic = orwl::topo::make_smp20e7();
  ProgramOptions o = quiet_options();
  o.topology = &synthetic;
  o.bind_threads = false;
  // One arena per NUMA node, however few tasks there are.
  Program p(4, o);
  EXPECT_EQ(p.num_control_shards(), 20u);
  EXPECT_EQ(p.stats().control_shards, 20u);
  EXPECT_EQ(p.node_arena(0).node(), 0);
  EXPECT_EQ(p.node_arena(19).node(), 19);
  EXPECT_THROW(p.node_arena(20), std::out_of_range);

  const auto two_nodes = orwl::topo::make_numa(2, 2, 1);
  o.topology = &two_nodes;
  Program q(16, o);
  EXPECT_EQ(q.num_control_shards(), 2u);

  const auto flat = orwl::topo::make_flat(8);
  o.topology = &flat;
  Program r(16, o);
  EXPECT_EQ(r.num_control_shards(), 1u);
}

TEST(Locality, QueueAndBufferFollowTheOwnersNode) {
  // Four nodes of two cores each and eight tasks: the placement fills
  // every node, so the queues spread over all four arenas, and the
  // hand-offs are metered in four banks.
  orwl::support::ScopedEnv emu(orwl::support::knob::kMemBind.name,
                               "emulate");
  const auto machine = orwl::topo::make_numa(4, 2, 1);
  ProgramOptions o;
  o.affinity = AffinityMode::On;
  o.topology = &machine;
  o.bind_threads = false;
  o.acquire_timeout_ms = 20000;
  o.replace = ReplaceMode::Passive;
  constexpr std::size_t kTasks = 8;
  Program prog(kTasks, o);
  ASSERT_EQ(prog.num_control_shards(), 4u);
  ring_body(prog, kTasks, 5);
  prog.run();
  ASSERT_NE(prog.comm_meter(), nullptr);
  EXPECT_EQ(prog.comm_meter()->num_nodes(), 4u);
  EXPECT_GT(prog.stats().measured_handoffs, 0u);
  EXPECT_EQ(prog.stats().locations_bound, kTasks);
  std::set<std::size_t> used;
  for (TaskId t = 0; t < kTasks; ++t) {
    ASSERT_GE(prog.placed_node_of_task(t), 0) << "task " << t;
    used.insert(expect_follows_owner(prog, t));
  }
  EXPECT_EQ(used.size(), 4u);
}

TEST(Locality, TopologyWithoutNumaLevelHasOneUnboundArena) {
  // The Fig. 2 machine has four sockets but no NUMA level: one arena,
  // bound to no node, serves every queue, and no buffer is bound.
  const auto machine = orwl::topo::make_fig2_machine();
  ProgramOptions o;
  o.affinity = AffinityMode::On;
  o.topology = &machine;
  o.bind_threads = false;
  o.acquire_timeout_ms = 20000;
  constexpr std::size_t kTasks = 8;
  Program prog(kTasks, o);
  ASSERT_EQ(prog.num_control_shards(), 1u);
  EXPECT_EQ(prog.node_arena(0).node(), Arena::kAnyNode);
  ring_body(prog, kTasks, 3);
  prog.run();
  EXPECT_EQ(prog.stats().locations_bound, 0u);
  for (TaskId t = 0; t < kTasks; ++t) {
    EXPECT_EQ(prog.placed_node_of_task(t), -1) << "task " << t;
    EXPECT_EQ(expect_follows_owner(prog, t), 0u);
    EXPECT_EQ(prog.location(t).buffer().node(), Arena::kAnyNode);
  }
}

TEST(Locality, ArenasAreBoundToTheNodesOsIds) {
  // A host whose node ids are sparse (3 and 7): arenas and tasks use the
  // dense index, memory binding uses the OS id.
  orwl::support::ScopedEnv emu(orwl::support::knob::kMemBind.name,
                               "emulate");
  auto root = std::make_unique<orwl::topo::Object>();
  root->type = orwl::topo::ObjType::Machine;
  int next_pu = 0;
  for (int id : {3, 7}) {
    orwl::topo::Object& node =
        root->add_child(orwl::topo::ObjType::NumaNode);
    node.os_index = id;
    for (int k = 0; k < 2; ++k) {
      node.add_child(orwl::topo::ObjType::PU).os_index = next_pu++;
    }
  }
  const auto machine =
      orwl::topo::Topology::adopt(std::move(root), "sparse");
  ProgramOptions o;
  o.affinity = AffinityMode::On;
  o.topology = &machine;
  o.bind_threads = false;
  o.acquire_timeout_ms = 20000;
  Program prog(4, o);
  ASSERT_EQ(prog.num_control_shards(), 2u);
  EXPECT_EQ(prog.node_arena(0).node(), 3);
  EXPECT_EQ(prog.node_arena(1).node(), 7);
  ring_body(prog, 4, 3);
  prog.run();
  std::set<std::size_t> used;
  for (TaskId t = 0; t < 4; ++t) used.insert(expect_follows_owner(prog, t));
  EXPECT_EQ(used.size(), 2u);
}

TEST(Locality, PlacedRingCompletesAndCountsGrants) {
  // End-to-end: ring of tasks on the smp20e7 fixture; placement routes
  // every queue to the arena of its owner's node and the run completes.
  const auto synthetic = orwl::topo::make_smp20e7();
  ProgramOptions o;
  o.affinity = AffinityMode::On;
  o.topology = &synthetic;
  o.bind_threads = false;
  o.acquire_timeout_ms = 20000;
  Program prog(8, o);
  ring_body(prog, 8, 10);
  prog.run();
  EXPECT_EQ(prog.num_control_shards(), 20u);
  EXPECT_GT(prog.stats().control_inline_grants, 0u);
  for (TaskId t = 0; t < 8; ++t) expect_follows_owner(prog, t);
}

TEST(Locality, LiveInsertRoutesToTheOwnersNodeImmediately) {
  // Dynamic mode: a location first touched *after* schedule() must be
  // routed to its owner's node at insert time, not left on the
  // constructor's owner-round-robin arena until the next
  // affinity_compute().
  const auto synthetic = orwl::topo::make_smp20e7();
  ProgramOptions o;
  o.affinity = AffinityMode::On;
  o.topology = &synthetic;
  o.bind_threads = false;
  o.acquire_timeout_ms = 20000;
  o.locations_per_task = 2;  // slot 1 is only ever live-inserted
  constexpr std::size_t kTasks = 8;
  Program prog(kTasks, o);
  prog.set_task_body([&](TaskContext& ctx) {
    ctx.scale(128, 0);
    Handle2 own;
    Handle2 next;
    own.write_insert(ctx, ctx.my_location(0), 0);
    next.read_insert(ctx, ctx.location((ctx.id() + 1) % kTasks, 0), 1);
    ctx.schedule();
    // The placement at schedule() already routed slot 1; leave its queue
    // on a wrong node's arena so that only the insert can route it back.
    Program& p = ctx.program();
    const int node = p.placed_node_of_task(ctx.id());
    ASSERT_GE(node, 0);
    ctx.my_location(1).queue().set_arena(&p.node_arena(
        (static_cast<std::size_t>(node) + 1) % p.num_control_shards()));
    // Live insert on the never-before-used slot-1 location.
    Handle late;
    late.write_insert(ctx, ctx.my_location(1), 0);
    { Section s(late); }
    for (int i = 0; i < 3; ++i) {
      { Section s(own); }
      { Section s(next); }
    }
  });
  prog.run();

  const std::size_t nodes = prog.num_control_shards();
  bool any_differs_from_default = false;
  for (TaskId t = 0; t < kTasks; ++t) {
    ASSERT_GE(prog.placed_node_of_task(t), 0) << "task " << t;
    if (expect_follows_owner(prog, t, 1) != t % nodes) {
      any_differs_from_default = true;
    }
  }
  // The check above is only meaningful if the placement actually moves
  // some queue off its round-robin default arena.
  EXPECT_TRUE(any_differs_from_default)
      << "placement matched round-robin for every task; test is vacuous";
}

TEST(Locality, LiveInsertOverwritesStaleRouting) {
  // Regression for the insert-time routing itself: even when a queue's
  // arena was left stale (here simulated directly), the first live
  // insert must re-route it under the placement state of that moment.
  const auto synthetic = orwl::topo::make_smp20e7();
  ProgramOptions o = quiet_options();
  o.topology = &synthetic;
  o.bind_threads = false;
  o.locations_per_task = 2;
  Program prog(4, o);
  prog.set_task_body([&](TaskContext& ctx) {
    ctx.scale(64, 0);
    Handle h;
    h.write_insert(ctx, ctx.my_location(0), 0);
    ctx.schedule();
    Program& p = ctx.program();
    RequestQueue& late_queue = ctx.my_location(1).queue();
    late_queue.set_arena(&p.node_arena(ctx.id() + 5));  // stale / wrong
    Handle late;
    late.write_insert(ctx, ctx.my_location(1), 0);
    // No placement exists (affinity off), so the insert routes back to
    // the owner round-robin arena.
    EXPECT_EQ(late_queue.arena(),
              &p.node_arena(ctx.id() % p.num_control_shards()));
    { Section s(late); }
    { Section s(h); }
  });
  prog.run();
}

}  // namespace
