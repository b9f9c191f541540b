// The sharded control plane: shard clamping, routing, batched draining,
// futex parking of idle shard workers, and the inline-grant fallback that
// makes post() safe against stop() races and shard saturation.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "orwl/orwl.hpp"
#include "topo/machines.hpp"
#include "topo/shard.hpp"
#include "treematch/treematch.hpp"

namespace {

using namespace orwl::rt;

ControlPlaneOptions sharded(std::size_t threads, std::size_t shards) {
  ControlPlaneOptions o;
  o.num_threads = threads;
  o.num_shards = shards;
  return o;
}

/// Polls `pred` until it holds, with a deadline so a parking bug fails
/// the test instead of hanging it.
template <typename F>
[[nodiscard]] bool eventually(F&& pred) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!pred()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

// ------------------------------------------------------------ sharding ----

TEST(ControlPlaneShards, ShardCountClampedToThreads) {
  ControlPlane cp(sharded(4, 8));
  EXPECT_EQ(cp.num_shards(), 4u);
  ControlPlane cp2(sharded(8, 4));
  EXPECT_EQ(cp2.num_shards(), 4u);
  ControlPlane cp3(sharded(0, 7));
  EXPECT_EQ(cp3.num_shards(), 1u);
  ControlPlaneOptions three;
  three.num_threads = 3;
  ControlPlane single(three);
  EXPECT_EQ(single.num_shards(), 1u) << "one shard unless asked for more";
}

TEST(ControlPlaneShards, ThreadsServeShardsRoundRobin) {
  ControlPlane cp(sharded(6, 3));
  EXPECT_EQ(cp.shard_of_thread(0), 0u);
  EXPECT_EQ(cp.shard_of_thread(1), 1u);
  EXPECT_EQ(cp.shard_of_thread(2), 2u);
  EXPECT_EQ(cp.shard_of_thread(3), 0u);
  EXPECT_EQ(cp.shard_of_thread(5), 2u);
}

TEST(ControlPlaneShards, HandOffWorksOnEveryShard) {
  ControlPlane cp(sharded(4, 4));
  cp.start();
  std::vector<RequestQueue> queues(4);
  for (std::size_t i = 0; i < queues.size(); ++i) {
    queues[i].set_control_plane(&cp);
    queues[i].set_control_shard(i);
    EXPECT_EQ(queues[i].control_shard(), i);
  }
  for (auto& q : queues) {
    const Ticket w1 = q.enqueue(AccessMode::Write);
    const Ticket w2 = q.enqueue(AccessMode::Write);
    q.release(w1);
    q.acquire(w2);  // granted by the shard's control thread
    q.release(w2);
  }
  cp.stop();
  EXPECT_GE(cp.events_processed() + cp.inline_grants(), 4u);
}

TEST(ControlPlaneShards, OutOfRangeShardHintWrapsAround) {
  ControlPlane cp(sharded(2, 2));
  cp.start();
  RequestQueue q;
  q.set_control_plane(&cp);
  q.set_control_shard(17);  // mod num_shards inside post()
  const Ticket w1 = q.enqueue(AccessMode::Write);
  const Ticket w2 = q.enqueue(AccessMode::Write);
  q.release(w1);
  q.acquire(w2);
  q.release(w2);
  cp.stop();
}

TEST(ControlPlaneShards, RoutingFollowsTheTopologyShardMap) {
  // smp20e7 fixture: 20 NUMA nodes, PU os index n*8.. per node. A queue
  // whose waiter sits on node n routes to shard n.
  const auto topo = orwl::topo::make_smp20e7();
  const auto map = orwl::topo::make_shard_map(topo, 20);
  ControlPlane cp(sharded(20, 20));
  cp.start();
  std::vector<RequestQueue> queues(20);
  for (int node = 0; node < 20; ++node) {
    auto& q = queues[static_cast<std::size_t>(node)];
    q.set_control_plane(&cp);
    const int pu = node * 8;  // first PU of the node
    ASSERT_EQ(map.shard_of(pu), node);
    q.set_control_shard(static_cast<std::size_t>(map.shard_of(pu)));
    const Ticket w1 = q.enqueue(AccessMode::Write);
    const Ticket w2 = q.enqueue(AccessMode::Write);
    q.release(w1);
    q.acquire(w2);
    q.release(w2);
  }
  cp.stop();
  EXPECT_GE(cp.events_processed() + cp.inline_grants(), 20u);
}

TEST(ControlPlaneShards, ControlShardOfMapsAssociatesToShards) {
  // tree_match on smp12e5 (hyperthreaded): control thread j is placed on
  // the sibling PU of its associate; control_shard_of must map it to the
  // same shard its associate's queues route to.
  const auto topo = orwl::topo::make_smp12e5();
  const auto map = orwl::topo::make_shard_map(topo, 12);
  orwl::tm::CommMatrix m(8);
  for (std::size_t i = 0; i < 8; ++i) {
    m.add(i, (i + 1) % 8, 100.0);
  }
  orwl::tm::Options opts;
  opts.num_control_threads = 4;
  const auto placement = orwl::tm::tree_match(topo, m, opts);
  ASSERT_EQ(placement.control_associate.size(), 4u);
  const auto shards = orwl::tm::control_shard_of(placement, map);
  ASSERT_EQ(shards.size(), 4u);
  for (std::size_t j = 0; j < 4; ++j) {
    const int assoc = placement.control_associate[j];
    ASSERT_GE(assoc, 0);
    ASSERT_LT(assoc, 8);
    EXPECT_EQ(shards[j],
              map.shard_of(
                  placement.compute_pu[static_cast<std::size_t>(assoc)]));
    // The control PU itself (the hyperthread sibling) lives in the same
    // locality domain, hence the same shard.
    if (placement.control_pu[j] >= 0 && shards[j] >= 0) {
      EXPECT_EQ(map.shard_of(placement.control_pu[j]), shards[j]);
    }
  }
}

// ------------------------------------------------- inline-grant fallback ----

TEST(ControlPlaneFallback, PostBeforeStartGrantsInline) {
  ControlPlane cp(sharded(2, 2));  // never started
  RequestQueue q;
  q.set_control_plane(&cp);
  const Ticket w1 = q.enqueue(AccessMode::Write);
  const Ticket w2 = q.enqueue(AccessMode::Write);
  q.release(w1);
  EXPECT_TRUE(q.granted(w2));
  EXPECT_GE(cp.inline_grants(), 1u);
  q.release(w2);
}

TEST(ControlPlaneFallback, PostAfterStopGrantsInline) {
  ControlPlane cp(sharded(2, 2));
  cp.start();
  cp.stop();
  RequestQueue q;
  q.set_control_plane(&cp);
  const Ticket w1 = q.enqueue(AccessMode::Write);
  const Ticket w2 = q.enqueue(AccessMode::Write);
  q.release(w1);
  EXPECT_TRUE(q.granted(w2));
  EXPECT_GE(cp.inline_grants(), 1u);
  q.release(w2);
}

TEST(ControlPlaneFallback, SaturatedShardGrantsInline) {
  // capacity 1: whenever the single control thread is busy, a concurrent
  // post finds the shard full and must grant inline instead of queueing
  // without bound. No hand-off may be lost either way.
  ControlPlaneOptions o = sharded(1, 1);
  o.shard_capacity = 1;
  ControlPlane cp(o);
  cp.start();
  constexpr int kProducers = 4;
  constexpr int kIters = 200;
  std::vector<RequestQueue> queues(kProducers);
  for (auto& q : queues) q.set_control_plane(&cp);
  std::vector<std::thread> threads;
  for (int i = 0; i < kProducers; ++i) {
    threads.emplace_back([&, i] {
      RequestQueue& q = queues[static_cast<std::size_t>(i)];
      Ticket t = q.enqueue(AccessMode::Write);
      for (int k = 0; k < kIters; ++k) {
        q.acquire(t);
        t = q.reinsert_and_release(t, AccessMode::Write);
      }
    });
  }
  for (auto& th : threads) th.join();
  cp.stop();
  EXPECT_GE(cp.events_processed() + cp.inline_grants(),
            static_cast<std::uint64_t>(kProducers) * kIters);
}

TEST(ControlPlaneFallback, ReleaseRacingStopNeverStrandsWaiter) {
  // The regression of the "RequestQueue guards this" contract: a release
  // posted while stop() runs must never lose its hand-off event. Before
  // the fix the waiter timed out; now post() grants inline instead.
  for (int round = 0; round < 50; ++round) {
    ControlPlane cp(sharded(2, 2));
    cp.start();
    RequestQueue q;
    q.set_control_plane(&cp);
    q.set_acquire_timeout(10000);
    const Ticket w1 = q.enqueue(AccessMode::Write);
    const Ticket w2 = q.enqueue(AccessMode::Write);
    std::thread releaser([&] { q.release(w1); });
    cp.stop();  // races the release's post()
    EXPECT_NO_THROW(q.acquire(w2)) << "round " << round;
    releaser.join();
    q.release(w2);  // post after stop: inline grant path
  }
}

// ------------------------------------------------------- worker parking ----

TEST(ControlPlaneParking, IdleWorkerParksAndPostWakesIt) {
  ControlPlane cp(sharded(1, 1));
  cp.start();
  // With no events, the worker parks on its shard word.
  ASSERT_TRUE(eventually([&] { return cp.futex_waits() >= 1; }));
  RequestQueue q;
  q.set_control_plane(&cp);
  q.set_acquire_timeout(10000);
  const Ticket w1 = q.enqueue(AccessMode::Write);
  const Ticket w2 = q.enqueue(AccessMode::Write);
  q.release(w1);  // posts to the parked worker's shard
  q.acquire(w2);
  EXPECT_TRUE(q.granted(w2));
  EXPECT_GE(cp.futex_wakes(), 1u);
  // The worker counts the event just after granting it.
  EXPECT_TRUE(eventually([&] { return cp.events_processed() == 1; }));
  EXPECT_EQ(cp.inline_grants(), 0u);  // the worker granted, not the poster
  q.release(w2);
  cp.stop();
}

TEST(ControlPlaneParking, StopReturnsPromptlyWhileWorkerIsParked) {
  ControlPlane cp(sharded(1, 1));
  cp.start();
  RequestQueue q;
  q.set_control_plane(&cp);
  q.set_acquire_timeout(10000);
  constexpr int kHandOffs = 3;
  Ticket t = q.enqueue(AccessMode::Write);
  for (int i = 0; i < kHandOffs; ++i) {
    const Ticket next = q.enqueue(AccessMode::Write);
    q.release(t);
    q.acquire(next);
    t = next;
  }
  // Every event drained; with nothing left to post, the worker goes back
  // to sleep on its shard word (an untimed wait: only stop() wakes it).
  ASSERT_TRUE(eventually([&] {
    return cp.events_processed() == static_cast<std::uint64_t>(kHandOffs);
  }));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_GE(cp.futex_waits(), 1u);
  const auto start = std::chrono::steady_clock::now();
  cp.stop();
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(2));
  EXPECT_FALSE(cp.running());
  EXPECT_EQ(cp.events_processed() + cp.inline_grants(),
            static_cast<std::uint64_t>(kHandOffs));
  EXPECT_TRUE(q.granted(t));
  q.release(t);
}

// ---------------------------------------------------- batched draining ----

TEST(ControlPlaneBatching, DrainsAllEventsAndCountsBatches) {
  ControlPlane cp(sharded(1, 1));
  cp.start();
  constexpr int kQueues = 8;
  constexpr int kIters = 50;
  std::vector<RequestQueue> queues(kQueues);
  for (auto& q : queues) q.set_control_plane(&cp);
  std::vector<std::thread> threads;
  for (int i = 0; i < kQueues; ++i) {
    threads.emplace_back([&, i] {
      RequestQueue& q = queues[static_cast<std::size_t>(i)];
      Ticket t = q.enqueue(AccessMode::Write);
      for (int k = 0; k < kIters; ++k) {
        q.acquire(t);
        t = q.reinsert_and_release(t, AccessMode::Write);
      }
    });
  }
  for (auto& th : threads) th.join();
  cp.stop();
  // Every hand-off was either control-processed or granted inline, and a
  // wakeup may retire several events (batch count never exceeds events).
  EXPECT_GE(cp.events_processed() + cp.inline_grants(),
            static_cast<std::uint64_t>(kQueues) * kIters);
  EXPECT_LE(cp.drain_batches(), cp.events_processed());
}

TEST(ControlPlaneShards, StressManyQueuesAcrossShards) {
  ControlPlane cp(sharded(4, 4));
  cp.start();
  constexpr int kQueues = 16;
  constexpr int kIters = 100;
  std::vector<RequestQueue> queues(kQueues);
  for (int i = 0; i < kQueues; ++i) {
    queues[static_cast<std::size_t>(i)].set_control_plane(&cp);
    queues[static_cast<std::size_t>(i)].set_control_shard(
        static_cast<std::size_t>(i) % cp.num_shards());
  }
  std::vector<std::thread> threads;
  std::atomic<int> done{0};
  for (int i = 0; i < kQueues; ++i) {
    threads.emplace_back([&, i] {
      RequestQueue& q = queues[static_cast<std::size_t>(i)];
      Ticket t = q.enqueue(AccessMode::Write);
      for (int k = 0; k < kIters; ++k) {
        q.acquire(t);
        t = q.reinsert_and_release(t, AccessMode::Write);
      }
      done.fetch_add(1);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(done.load(), kQueues);
  cp.stop();
  EXPECT_GT(cp.events_processed(), 0u);
}

}  // namespace
