// The multi-tenant server harness: admission and carve-out disjointness
// on the named topology fixtures, elastic worker pools, open-loop driver
// plumbing, clean teardown, and a randomized tenant-churn stress run.
//
// Handlers here are mostly synthetic (cheap, deterministic) so the suite
// stays fast under TSan; two end-to-end cases run the real lk23 / video
// programs inside a carve-out.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "server/driver.hpp"
#include "server/handlers.hpp"
#include "server/server.hpp"
#include "support/env.hpp"
#include "support/rng.hpp"
#include "topo/machines.hpp"

namespace {

using namespace orwl;
using namespace orwl::server;

ServerOptions on_fixture(const topo::Topology* t) {
  ServerOptions o;
  o.topology = t;
  // Fixture PUs are synthetic: never issue real OS bindings.
  o.bind_threads = false;
  o.base.bind_threads = false;
  o.base.affinity = rt::AffinityMode::Off;
  o.base.acquire_timeout_ms = 30000;
  return o;
}

/// Handler that bumps a counter; optionally sleeps to simulate work.
Handler counting_handler(std::atomic<std::uint64_t>* runs,
                         std::chrono::microseconds busy =
                             std::chrono::microseconds(0)) {
  return [runs, busy](const TenantEnv&) {
    if (busy.count() > 0) std::this_thread::sleep_for(busy);
    runs->fetch_add(1, std::memory_order_relaxed);
    return rt::ProgramStats{};
  };
}

/// Handler that blocks until release()d — for backlog/elasticity tests.
class GatedHandler {
 public:
  Handler handler() {
    return [this](const TenantEnv&) {
      std::unique_lock<std::mutex> lk(mu_);
      cv_.wait(lk, [this] { return open_; });
      return rt::ProgramStats{};
    };
  }
  void release() {
    std::lock_guard<std::mutex> lk(mu_);
    open_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = false;
};

std::size_t live_os_threads() {
  std::size_t n = 0;
  std::error_code ec;
  for (auto it = std::filesystem::directory_iterator("/proc/self/task", ec);
       !ec && it != std::filesystem::directory_iterator(); ++it) {
    ++n;
  }
  return n;
}

// ------------------------------------------------------- admission ----

TEST(ServerAdmission, TenantCpusetsAreDisjointOnEveryNamedFixture) {
  std::atomic<std::uint64_t> runs{0};
  for (const char* spec : {"smp20e7", "smp12e5", "fig2"}) {
    const topo::Topology t = *topo::make_named(spec);
    Server server(on_fixture(&t));
    std::vector<TenantId> ids;
    // Three tenants of mixed widths always fit on 32+ PUs.
    for (std::size_t width : {8u, 8u, 4u}) {
      TenantSpec s;
      s.name = std::string(spec) + "-w" + std::to_string(ids.size());
      s.width_pus = width;
      s.handler = counting_handler(&runs);
      ids.push_back(server.admit(std::move(s)));
    }
    ASSERT_EQ(server.num_tenants(), 3u) << spec;
    topo::CpuSet seen;
    for (TenantId id : ids) {
      const topo::CpuSet cpus = server.tenant_cpus(id);
      EXPECT_FALSE(cpus.empty()) << spec;
      EXPECT_TRUE((cpus & seen).empty())
          << spec << ": tenant " << id << " overlaps a prior carve-out";
      seen = seen | cpus;
    }
    EXPECT_TRUE(server.taken() == seen) << spec;
  }
}

TEST(ServerAdmission, RejectsWhenNoDisjointCarveFits) {
  std::atomic<std::uint64_t> runs{0};
  for (const char* spec : {"smp20e7", "smp12e5", "fig2"}) {
    const topo::Topology t = *topo::make_named(spec);
    Server server(on_fixture(&t));
    TenantSpec whole;
    whole.name = "whole-machine";
    whole.width_pus = t.num_pus();
    whole.handler = counting_handler(&runs);
    ASSERT_TRUE(server.try_admit(whole).has_value()) << spec;

    TenantSpec one;
    one.name = "late";
    one.width_pus = 1;
    one.handler = counting_handler(&runs);
    EXPECT_FALSE(server.try_admit(one).has_value()) << spec;
    EXPECT_THROW(server.admit(one), std::runtime_error) << spec;
    EXPECT_EQ(server.num_tenants(), 1u) << spec;
  }
}

TEST(ServerAdmission, HonorsMaxTenantsLimit) {
  std::atomic<std::uint64_t> runs{0};
  const topo::Topology t = topo::make_smp20e7();
  ServerOptions o = on_fixture(&t);
  o.max_tenants = 2;
  Server server(o);
  EXPECT_EQ(server.max_tenants(), 2u);
  for (int i = 0; i < 2; ++i) {
    TenantSpec s;
    s.name = "t" + std::to_string(i);
    s.width_pus = 8;
    s.handler = counting_handler(&runs);
    ASSERT_TRUE(server.try_admit(std::move(s)).has_value());
  }
  TenantSpec third;
  third.name = "t2";
  third.width_pus = 8;
  third.handler = counting_handler(&runs);
  EXPECT_FALSE(server.try_admit(std::move(third)).has_value());
}

TEST(ServerAdmission, EnvKnobsFillUnsetOptions) {
  const topo::Topology t = topo::make_fig2_machine();
  support::ScopedEnv max(support::knob::kServerMaxTenants.name, "3");
  support::ScopedEnv cap(support::knob::kServerQueueCap.name, "17");
  support::ScopedEnv grow(support::knob::kServerGrowBacklog.name, "5");
  support::ScopedEnv idle(support::knob::kServerShrinkIdleMs.name, "123");
  Server server(on_fixture(&t));
  EXPECT_EQ(server.max_tenants(), 3u);
  EXPECT_EQ(server.queue_capacity(), 17u);
  EXPECT_EQ(server.grow_backlog(), 5u);
  EXPECT_EQ(server.shrink_idle_ms(), 123u);

  // Explicit options beat the environment.
  ServerOptions o = on_fixture(&t);
  o.max_tenants = 9;
  Server explicit_server(o);
  EXPECT_EQ(explicit_server.max_tenants(), 9u);
}

TEST(ServerAdmission, MalformedSpecsThrow) {
  std::atomic<std::uint64_t> runs{0};
  const topo::Topology t = topo::make_fig2_machine();
  Server server(on_fixture(&t));
  TenantSpec ok;
  ok.name = "ok";
  ok.width_pus = 4;
  ok.handler = counting_handler(&runs);

  TenantSpec nameless = ok;
  nameless.name.clear();
  EXPECT_THROW(server.admit(std::move(nameless)), std::invalid_argument);

  TenantSpec handlerless = ok;
  handlerless.handler = nullptr;
  EXPECT_THROW(server.admit(std::move(handlerless)),
               std::invalid_argument);

  TenantSpec zero = ok;
  zero.width_pus = 0;
  EXPECT_THROW(server.admit(std::move(zero)), std::invalid_argument);

  TenantSpec inverted = ok;
  inverted.min_workers = 3;
  inverted.max_workers = 1;
  EXPECT_THROW(server.admit(std::move(inverted)), std::invalid_argument);
  EXPECT_EQ(server.num_tenants(), 0u);
}

TEST(ServerAdmission, EvictedPusAreReusable) {
  std::atomic<std::uint64_t> runs{0};
  const topo::Topology t = topo::make_fig2_machine();
  Server server(on_fixture(&t));
  TenantSpec whole;
  whole.name = "whole";
  whole.width_pus = 32;
  whole.handler = counting_handler(&runs);
  const TenantId first = server.admit(whole);
  EXPECT_FALSE(server.try_admit(whole).has_value());

  server.evict(first);
  EXPECT_EQ(server.num_tenants(), 0u);
  EXPECT_TRUE(server.taken().empty());
  const TenantId second = server.admit(whole);
  EXPECT_NE(second, first);  // ids are never recycled
  EXPECT_EQ(server.tenant_cpus(second).count(), 32u);

  server.evict(second);
  server.evict(second);  // double-evict is a no-op
  EXPECT_THROW(server.stats(second), std::out_of_range);
}

TEST(ServerAdmission, TenantEnvIsPreComposed) {
  std::atomic<std::uint64_t> runs{0};
  const topo::Topology t = topo::make_smp12e5();
  Server server(on_fixture(&t));
  TenantSpec s;
  s.name = "env-check";
  s.width_pus = 16;
  rt::ProgramOptions seen;
  const topo::Topology* seen_topo = nullptr;
  s.handler = [&](const TenantEnv& env) {
    seen = env.program_options();
    seen_topo = env.topology;
    runs.fetch_add(1);
    return rt::ProgramStats{};
  };
  const TenantId id = server.admit(std::move(s));
  ASSERT_TRUE(server.submit(id));
  server.drain(id);
  ASSERT_EQ(runs.load(), 1u);
  EXPECT_EQ(seen.tag, "env-check");
  EXPECT_EQ(seen.topology, &server.tenant_topology(id));
  EXPECT_EQ(seen_topo, &server.tenant_topology(id));
  EXPECT_EQ(server.tenant_topology(id).num_pus(), 16u);
  EXPECT_FALSE(seen.bind_threads);
}

// ----------------------------------------------- request execution ----

TEST(ServerExecution, SubmitRunsHandlersAndCounts) {
  std::atomic<std::uint64_t> runs{0};
  const topo::Topology t = topo::make_fig2_machine();
  Server server(on_fixture(&t));
  TenantSpec s;
  s.name = "worker";
  s.width_pus = 8;
  s.max_workers = 2;
  s.handler = counting_handler(&runs);
  const TenantId id = server.admit(std::move(s));

  std::atomic<std::uint64_t> dones{0};
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(server.submit(id, [&dones] { dones.fetch_add(1); }));
  }
  server.drain(id);
  EXPECT_EQ(runs.load(), 20u);
  EXPECT_EQ(dones.load(), 20u);
  const TenantStats st = server.stats(id);
  EXPECT_EQ(st.submitted, 20u);
  EXPECT_EQ(st.completed, 20u);
  EXPECT_EQ(st.shed, 0u);
  EXPECT_EQ(st.failed, 0u);
}

TEST(ServerExecution, QueueAtCapacitySheds) {
  const topo::Topology t = topo::make_fig2_machine();
  ServerOptions o = on_fixture(&t);
  o.queue_capacity = 2;
  Server server(o);
  GatedHandler gate;
  TenantSpec s;
  s.name = "shedder";
  s.width_pus = 4;
  s.min_workers = 1;
  s.max_workers = 1;
  s.handler = gate.handler();
  const TenantId id = server.admit(std::move(s));

  // At most 1 in the gated handler + 2 queued can be accepted (3, or 4
  // when the worker has not yet popped the first job); the rest shed.
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  for (int i = 0; i < 10; ++i) {
    if (server.submit(id)) {
      ++accepted;
    } else {
      ++rejected;
    }
  }
  EXPECT_GE(accepted, 2u);
  EXPECT_LE(accepted, 4u);
  EXPECT_EQ(accepted + rejected, 10u);
  gate.release();
  server.drain(id);
  const TenantStats st = server.stats(id);
  EXPECT_EQ(st.submitted, accepted);
  EXPECT_EQ(st.completed, accepted);
  EXPECT_EQ(st.shed, rejected);
}

TEST(ServerExecution, HandlerExceptionsCountAsFailedNotFatal) {
  std::atomic<std::uint64_t> runs{0};
  const topo::Topology t = topo::make_fig2_machine();
  Server server(on_fixture(&t));
  TenantSpec s;
  s.name = "flaky";
  s.width_pus = 4;
  std::atomic<int> calls{0};
  s.handler = [&](const TenantEnv&) -> rt::ProgramStats {
    if (calls.fetch_add(1) % 2 == 0) {
      throw std::runtime_error("injected tenant bug");
    }
    runs.fetch_add(1);
    return rt::ProgramStats{};
  };
  const TenantId id = server.admit(std::move(s));
  for (int i = 0; i < 6; ++i) ASSERT_TRUE(server.submit(id));
  server.drain(id);
  const TenantStats st = server.stats(id);
  EXPECT_EQ(st.completed + st.failed, 6u);
  EXPECT_EQ(st.failed, 3u);
  // The pool survived: one more request still completes.
  ASSERT_TRUE(server.submit(id));
  server.drain(id);
  EXPECT_EQ(server.stats(id).completed + server.stats(id).failed, 7u);
}

TEST(ServerExecution, RollupAccumulatesProgramStats) {
  const topo::Topology t = topo::make_fig2_machine();
  Server server(on_fixture(&t));
  TenantSpec s;
  s.name = "rollup";
  s.width_pus = 4;
  s.handler = [](const TenantEnv&) {
    rt::ProgramStats one;
    one.control_events = 3;
    one.futex_waits = 2;
    one.affinity_applied = true;
    return one;
  };
  const TenantId id = server.admit(std::move(s));
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(server.submit(id));
  server.drain(id);
  const TenantStats st = server.stats(id);
  EXPECT_EQ(st.runtime.control_events, 12u);
  EXPECT_EQ(st.runtime.futex_waits, 8u);
  EXPECT_TRUE(st.runtime.affinity_applied);
}

TEST(ServerExecution, DrainWaitsForDoneCallbacks) {
  // Regression: done callbacks used to run after the job left the
  // inflight count, so drain() could return while a callback still
  // touched caller state (use-after-scope for replay()'s stack-local
  // latency vectors). The callback now runs while the job is inflight.
  const topo::Topology t = topo::make_smp20e7();
  Server server(on_fixture(&t));
  std::atomic<std::uint64_t> runs{0};
  TenantSpec s;
  s.name = "drain-done";
  s.width_pus = 8;
  s.max_workers = 4;
  s.handler = counting_handler(&runs);
  const TenantId id = server.admit(std::move(s));

  for (int round = 0; round < 25; ++round) {
    std::mutex mu;
    std::vector<int> sink;  // stack-local, dies at end of iteration
    const int n = 8;
    for (int i = 0; i < n; ++i) {
      ASSERT_TRUE(server.submit(id, [&mu, &sink, i] {
        // Widen the race window the old ordering lost.
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        std::lock_guard<std::mutex> lk(mu);
        sink.push_back(i);
      }));
    }
    server.drain(id);
    std::lock_guard<std::mutex> lk(mu);
    ASSERT_EQ(sink.size(), static_cast<std::size_t>(n))
        << "drain returned with done callbacks still pending";
  }
  // Stats observed after drain must include every request.
  EXPECT_EQ(server.stats(id).completed, 200u);
}

// ------------------------------------------------ elastic workers ----

TEST(ServerElastic, PoolGrowsWithBacklogAndShrinksWhenIdle) {
  const topo::Topology t = topo::make_smp20e7();
  ServerOptions o = on_fixture(&t);
  o.grow_backlog = 1;      // grow as soon as the queue outruns the pool
  o.shrink_idle_ms = 20;   // shrink quickly once drained
  Server server(o);
  GatedHandler gate;
  TenantSpec s;
  s.name = "elastic";
  s.width_pus = 8;
  s.min_workers = 1;
  s.max_workers = 4;
  s.handler = gate.handler();
  const TenantId id = server.admit(std::move(s));
  EXPECT_EQ(server.stats(id).workers, 1u);

  for (int i = 0; i < 12; ++i) ASSERT_TRUE(server.submit(id));
  {
    const TenantStats st = server.stats(id);
    EXPECT_EQ(st.workers, 4u) << "backlog of 12 must max the pool";
    EXPECT_EQ(st.peak_workers, 4u);
    EXPECT_GE(st.grow_events, 3u);
  }

  gate.release();
  server.drain(id);
  EXPECT_EQ(server.stats(id).completed, 12u);

  // Idle: the pool must fall back to the floor within a few idle
  // periods (poll with a generous deadline to stay unflaky).
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server.stats(id).workers > 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const TenantStats st = server.stats(id);
  EXPECT_EQ(st.workers, 1u);
  EXPECT_GE(st.shrink_events, 3u);
}

TEST(ServerElastic, ChurnReapsShrunkWorkersAndReusesSlots) {
  // Regression: shrunk-out workers left their std::thread handles in
  // the pool forever; sustained grow/shrink churn accumulated unbounded
  // exited-but-unjoined handles. Slots are now reaped and reused on the
  // next spawn, so the handle count stays bounded by the pool maximum.
  const topo::Topology t = topo::make_smp20e7();
  ServerOptions o = on_fixture(&t);
  o.grow_backlog = 1;
  o.shrink_idle_ms = 5;
  Server server(o);
  std::atomic<std::uint64_t> runs{0};
  TenantSpec s;
  s.name = "churny";
  s.width_pus = 8;
  s.min_workers = 1;
  s.max_workers = 4;
  s.handler = counting_handler(&runs, std::chrono::microseconds(500));
  const TenantId id = server.admit(std::move(s));

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 12; ++i) ASSERT_TRUE(server.submit(id));
    server.drain(id);
    while (server.stats(id).workers > 1 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    ASSERT_EQ(server.stats(id).workers, 1u) << "round " << round;
  }
  const TenantStats st = server.stats(id);
  EXPECT_GE(st.shrink_events, 6u) << "churn did not exercise shrink";
  EXPECT_LE(st.thread_slots, st.peak_workers)
      << "exited worker handles are accumulating instead of being reaped";
}

// ------------------------------------------------- clean teardown ----

TEST(ServerTeardown, DestructionLeaksNoThreads) {
  if (live_os_threads() == 0) GTEST_SKIP() << "no /proc/self/task";
  std::atomic<std::uint64_t> runs{0};
  const std::size_t before = live_os_threads();
  {
    const topo::Topology t = topo::make_smp20e7();
    Server server(on_fixture(&t));
    std::vector<TenantId> ids;
    for (int i = 0; i < 3; ++i) {
      TenantSpec s;
      s.name = "t" + std::to_string(i);
      s.width_pus = 8;
      s.max_workers = 3;
      s.handler = counting_handler(&runs, std::chrono::microseconds(200));
      ids.push_back(server.admit(std::move(s)));
    }
    for (TenantId id : ids) {
      for (int i = 0; i < 8; ++i) server.submit(id);
    }
    // Destructor must drain queued work and join every worker.
  }
  EXPECT_EQ(runs.load(), 24u) << "teardown dropped accepted requests";
  // Joined threads disappear from /proc/self/task immediately.
  EXPECT_EQ(live_os_threads(), before);
}

TEST(ServerTeardown, EvictJoinsWorkersAndKeepsOthersRunning) {
  if (live_os_threads() == 0) GTEST_SKIP() << "no /proc/self/task";
  std::atomic<std::uint64_t> a_runs{0};
  std::atomic<std::uint64_t> b_runs{0};
  const topo::Topology t = topo::make_fig2_machine();
  Server server(on_fixture(&t));
  TenantSpec a;
  a.name = "a";
  a.width_pus = 8;
  a.handler = counting_handler(&a_runs);
  TenantSpec b;
  b.name = "b";
  b.width_pus = 8;
  b.handler = counting_handler(&b_runs);
  const TenantId ida = server.admit(std::move(a));
  const TenantId idb = server.admit(std::move(b));
  for (int i = 0; i < 5; ++i) server.submit(ida);
  const std::size_t with_both = live_os_threads();

  server.evict(ida);
  EXPECT_EQ(a_runs.load(), 5u);
  EXPECT_FALSE(server.submit(ida)) << "evicted tenants shed";
  EXPECT_LT(live_os_threads(), with_both);

  ASSERT_TRUE(server.submit(idb));
  server.drain(idb);
  EXPECT_EQ(b_runs.load(), 1u);
}

TEST(ServerTeardown, EvictFreesPusOnlyAfterWorkersFinish) {
  // Regression: evict() used to return the PUs to the free set before
  // draining, so a concurrent admit() could carve the same PUs while the
  // evicted tenant's workers were still running — transiently breaking
  // the no-shared-PU invariant. The PUs must stay taken until the
  // workers are drained and joined.
  const topo::Topology t = topo::make_fig2_machine();
  Server server(on_fixture(&t));
  GatedHandler gate;
  TenantSpec whole;
  whole.name = "whole";
  whole.width_pus = t.num_pus();
  whole.handler = gate.handler();
  const TenantId id = server.admit(std::move(whole));
  ASSERT_TRUE(server.submit(id));  // keeps a worker busy until release()

  std::thread evictor([&] { server.evict(id); });
  // evict() unlists the tenant immediately, then blocks draining the
  // gated job. Wait for the unlisting so the race window is open.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server.has_tenant(id) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_FALSE(server.has_tenant(id));

  // Mid-eviction the carve-out must still be owned: a whole-machine
  // admission has to fail until the evicted tenant's workers are done.
  std::atomic<std::uint64_t> runs{0};
  TenantSpec intruder;
  intruder.name = "intruder";
  intruder.width_pus = t.num_pus();
  intruder.handler = counting_handler(&runs);
  EXPECT_FALSE(server.try_admit(intruder).has_value())
      << "evict freed the PUs while its workers were still running";
  EXPECT_FALSE(server.taken().empty());

  gate.release();
  evictor.join();
  EXPECT_TRUE(server.taken().empty());
  EXPECT_TRUE(server.try_admit(std::move(intruder)).has_value());
}

// ------------------------------------------------ open-loop driver ----

TEST(DriverTrace, DeterministicAndSorted) {
  const auto a = make_open_loop_trace({200.0, 400.0}, 250.0, 42);
  const auto b = make_open_loop_trace({200.0, 400.0}, 250.0, 42);
  ASSERT_EQ(a.size(), b.size());
  ASSERT_FALSE(a.empty());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].at_ms, b[i].at_ms);
    EXPECT_EQ(a[i].lane, b[i].lane);
    if (i > 0) {
      EXPECT_GE(a[i].at_ms, a[i - 1].at_ms);
    }
    EXPECT_LT(a[i].at_ms, 250.0);
  }
  // ~50 and ~100 expected arrivals; allow wide stochastic slack.
  std::size_t lane0 = 0;
  std::size_t lane1 = 0;
  for (const TraceEvent& e : a) (e.lane == 0 ? lane0 : lane1)++;
  EXPECT_GT(lane0, 20u);
  EXPECT_GT(lane1, lane0);
  // A different seed yields a different trace.
  const auto c = make_open_loop_trace({200.0, 400.0}, 250.0, 43);
  EXPECT_TRUE(c.size() != a.size() || c.front().at_ms != a.front().at_ms);
}

TEST(DriverTrace, ValidatesInput) {
  EXPECT_THROW(make_open_loop_trace({}, 100.0, 1), std::invalid_argument);
  EXPECT_THROW(make_open_loop_trace({10.0, 0.0}, 100.0, 1),
               std::invalid_argument);
  EXPECT_THROW(make_open_loop_trace({10.0}, 0.0, 1),
               std::invalid_argument);
}

TEST(DriverTrace, PercentileNearestRank) {
  std::vector<double> sample = {5, 1, 4, 2, 3};
  EXPECT_DOUBLE_EQ(percentile_ms(sample, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile_ms(sample, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(percentile_ms(sample, 0.99), 5.0);
  EXPECT_DOUBLE_EQ(percentile_ms(sample, 1.0), 5.0);
  std::vector<double> empty;
  EXPECT_DOUBLE_EQ(percentile_ms(empty, 0.5), 0.0);
}

TEST(DriverReplay, OpenLoopTraceCompletesAndMeasures) {
  std::atomic<std::uint64_t> runs{0};
  const topo::Topology t = topo::make_fig2_machine();
  Server server(on_fixture(&t));
  std::vector<TenantId> lanes;
  for (int i = 0; i < 2; ++i) {
    TenantSpec s;
    s.name = "lane" + std::to_string(i);
    s.width_pus = 8;
    s.max_workers = 2;
    s.handler = counting_handler(&runs, std::chrono::microseconds(100));
    lanes.push_back(server.admit(std::move(s)));
  }
  const auto trace = make_open_loop_trace({300.0, 300.0}, 120.0, 7);
  const ReplayResult res = replay(server, lanes, trace);
  ASSERT_EQ(res.lanes.size(), 2u);
  std::size_t offered = 0;
  for (std::size_t lane = 0; lane < 2; ++lane) {
    const LaneResult& r = res.lanes[lane];
    offered += r.offered;
    EXPECT_EQ(r.completed + r.shed, r.offered) << "lane " << lane;
    EXPECT_GT(r.completed, 0u) << "lane " << lane;
    EXPECT_LE(r.p50_ms, r.p99_ms) << "lane " << lane;
    EXPECT_LE(r.p99_ms, r.p999_ms) << "lane " << lane;
    EXPECT_LE(r.p999_ms, r.max_ms) << "lane " << lane;
    EXPECT_GT(r.offered_rps, 0.0);
  }
  EXPECT_EQ(offered, trace.size());
  EXPECT_EQ(runs.load(), res.lanes[0].completed + res.lanes[1].completed);
  EXPECT_GT(res.wall_ms, 0.0);

  EXPECT_THROW(replay(server, {lanes[0]}, trace), std::invalid_argument);
}

TEST(DriverReplay, SaturationThroughputIsPositive) {
  std::atomic<std::uint64_t> runs{0};
  const topo::Topology t = topo::make_fig2_machine();
  Server server(on_fixture(&t));
  TenantSpec s;
  s.name = "sat";
  s.width_pus = 8;
  s.max_workers = 2;
  s.handler = counting_handler(&runs, std::chrono::microseconds(50));
  const TenantId id = server.admit(std::move(s));
  const double rps = measure_saturation_rps(server, id, 64);
  EXPECT_GT(rps, 0.0);
  EXPECT_EQ(runs.load(), 64u);
}

TEST(DriverReplay, SaturationFailsFastWhenTenantIsGone) {
  // Regression: submit()==false used to be treated as "queue full" and
  // retried forever, so an unknown or evicted tenant spun the
  // measurement loop indefinitely. It must throw instead.
  std::atomic<std::uint64_t> runs{0};
  const topo::Topology t = topo::make_fig2_machine();
  Server server(on_fixture(&t));
  EXPECT_THROW(measure_saturation_rps(server, 777, 4), std::runtime_error);

  TenantSpec s;
  s.name = "ghost";
  s.width_pus = 8;
  s.handler = counting_handler(&runs);
  const TenantId id = server.admit(std::move(s));
  EXPECT_TRUE(server.has_tenant(id));
  server.evict(id);
  EXPECT_FALSE(server.has_tenant(id));
  EXPECT_THROW(measure_saturation_rps(server, id, 4), std::runtime_error);
}

// ------------------------------------------------- real programs ----

TEST(ServerPrograms, Lk23TenantRunsInsideItsCarveout) {
  const topo::Topology t = topo::make_fig2_machine();
  Server server(on_fixture(&t));
  TenantSpec s;
  s.name = "lk23";
  s.width_pus = 8;
  s.handler = make_lk23_handler(/*n=*/18, /*iters=*/2, 2, 2);
  const TenantId id = server.admit(std::move(s));
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(server.submit(id));
  server.drain(id);
  const TenantStats st = server.stats(id);
  EXPECT_EQ(st.completed, 3u);
  EXPECT_EQ(st.failed, 0u);
  // Real programs hand off locks: the rollup shows runtime activity.
  EXPECT_GT(st.runtime.control_events + st.runtime.control_inline_grants,
            0u);
}

TEST(ServerPrograms, ConcurrentLk23RequestsEachMatchTheSequentialSweep) {
  // As make_lk23_handler does: one generated input, copied per request,
  // so both requests share its coefficients; each must still leave
  // exactly the state a fresh sequential run does.
  constexpr std::size_t kN = 34, kIters = 3;
  auto ref = apps::Lk23Problem::generate(kN);
  apps::lk23_sequential(ref, kIters);
  const auto input =
      std::make_shared<const apps::Lk23Problem>(apps::Lk23Problem::generate(kN));

  std::mutex mu;
  std::condition_variable cv;
  int started = 0;
  std::vector<std::vector<double>> results;

  const topo::Topology t = topo::make_fig2_machine();
  Server server(on_fixture(&t));
  TenantSpec s;
  s.name = "lk23";
  s.width_pus = 8;
  s.min_workers = 2;
  s.max_workers = 2;
  // Hold each request until both have started, so they run together.
  s.handler = [&](const TenantEnv& env) {
    {
      std::unique_lock<std::mutex> lk(mu);
      ++started;
      cv.notify_all();
      cv.wait_for(lk, std::chrono::seconds(30), [&] { return started >= 2; });
    }
    apps::Lk23Problem p = *input;
    rt::ProgramStats stats;
    apps::lk23_orwl(p, kIters, 2, 2, env.program_options(), &stats);
    std::lock_guard<std::mutex> lk(mu);
    results.push_back(std::move(p.za));
    return stats;
  };
  const TenantId id = server.admit(std::move(s));
  ASSERT_TRUE(server.submit(id));
  ASSERT_TRUE(server.submit(id));
  server.drain(id);

  const TenantStats st = server.stats(id);
  EXPECT_EQ(st.completed, 2u);
  EXPECT_EQ(st.failed, 0u);
  EXPECT_EQ(st.peak_workers, 2u);
  std::lock_guard<std::mutex> lk(mu);
  EXPECT_EQ(started, 2);
  ASSERT_EQ(results.size(), 2u);
  for (const auto& za : results) EXPECT_EQ(za, ref.za);
}

TEST(ServerPrograms, VideoTenantRunsInsideItsCarveout) {
  const topo::Topology t = topo::make_smp20e7();
  Server server(on_fixture(&t));
  apps::VideoParams p;
  p.width = 64;
  p.height = 48;
  p.frames = 2;
  p.gmm_splits = 2;
  p.dilates = 1;
  p.ccl_splits = 1;
  TenantSpec s;
  s.name = "video";
  s.width_pus = 16;
  s.handler = make_video_handler(p);
  const TenantId id = server.admit(std::move(s));
  ASSERT_TRUE(server.submit(id));
  server.drain(id);
  const TenantStats st = server.stats(id);
  EXPECT_EQ(st.completed, 1u);
  EXPECT_EQ(st.failed, 0u);
}

// --------------------------------------------------- churn stress ----

TEST(ServerChurn, RandomAdmitEvictUnderOpenTraffic) {
  // Deterministic-seed stress: a churn loop admits and evicts tenants
  // while two traffic threads keep submitting to whatever is alive.
  // Invariants checked throughout: carve-outs stay pairwise disjoint,
  // taken() is exactly their union, and accounting never loses a
  // request. Runs under TSan/ASan in CI.
  std::atomic<std::uint64_t> runs{0};
  const topo::Topology t = topo::make_smp20e7();
  ServerOptions o = on_fixture(&t);
  o.queue_capacity = 32;
  o.max_tenants = 12;
  Server server(o);

  std::mutex ids_mu;
  std::vector<TenantId> ids;
  std::atomic<bool> stop{false};

  auto random_live = [&](support::SplitMix64& rng) -> TenantId {
    std::lock_guard<std::mutex> lk(ids_mu);
    if (ids.empty()) return 0;
    return ids[rng.below(ids.size())];
  };

  std::vector<std::thread> traffic;
  for (std::uint64_t seed : {101u, 202u}) {
    traffic.emplace_back([&, seed] {
      support::SplitMix64 rng(seed);
      while (!stop.load(std::memory_order_relaxed)) {
        const TenantId id = random_live(rng);
        if (id != 0) server.submit(id);  // shed/evicted races are fine
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    });
  }

  support::SplitMix64 churn_rng(4242);
  std::size_t admitted = 0;
  std::size_t evicted = 0;
  for (int round = 0; round < 120; ++round) {
    const bool admit = churn_rng.below(100) < 60;
    if (admit) {
      TenantSpec s;
      s.name = "churn" + std::to_string(round);
      s.width_pus = 8 * (1 + churn_rng.below(3));  // 8, 16 or 24 PUs
      s.max_workers = 2;
      s.handler =
          counting_handler(&runs, std::chrono::microseconds(100));
      if (auto id = server.try_admit(std::move(s))) {
        std::lock_guard<std::mutex> lk(ids_mu);
        ids.push_back(*id);
        ++admitted;
      }
    } else {
      TenantId victim = 0;
      {
        std::lock_guard<std::mutex> lk(ids_mu);
        if (!ids.empty()) {
          const std::size_t k = churn_rng.below(ids.size());
          victim = ids[k];
          ids.erase(ids.begin() + static_cast<std::ptrdiff_t>(k));
        }
      }
      if (victim != 0) {
        server.evict(victim);
        ++evicted;
      }
    }
    // Invariants under churn: pairwise-disjoint carves, exact union.
    const auto all = server.stats();
    topo::CpuSet seen;
    for (const TenantStats& st : all) {
      ASSERT_TRUE((st.cpus & seen).empty())
          << "round " << round << ": tenant " << st.name
          << " overlaps another carve-out";
      seen = seen | st.cpus;
    }
  }
  stop.store(true);
  for (auto& th : traffic) th.join();

  EXPECT_GT(admitted, 20u);
  EXPECT_GT(evicted, 10u);

  // Final accounting on the survivors: nothing lost.
  server.drain_all();
  for (const TenantStats& st : server.stats()) {
    EXPECT_EQ(st.completed + st.failed, st.submitted) << st.name;
  }
  std::vector<TenantId> rest;
  {
    std::lock_guard<std::mutex> lk(ids_mu);
    rest = ids;
  }
  for (TenantId id : rest) server.evict(id);
  EXPECT_EQ(server.num_tenants(), 0u);
  EXPECT_TRUE(server.taken().empty());
}

}  // namespace
