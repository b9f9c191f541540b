// Contention microbenchmark of the sharded control plane: P producer
// threads each cycle a private lock through the hand-off path
// (acquire -> reinsert_and_release -> control-thread grant) at the
// highest rate they can. With a single shard every hand-off serializes
// through one shard mutex and futex word; with one shard per NUMA node
// of the SMP20E7 fixture the queues are routed to independent shards and
// the hand-off throughput scales with the producers.
//
// Counters: items = completed lock cycles; "inline" = grants the plane
// performed inline (saturation/stop fallback, should stay near zero).
#include "bench_util.hpp"

#include <cstddef>
#include <thread>
#include <vector>

#include "orwl/orwl.hpp"
#include "topo/shard.hpp"

namespace {

using namespace orwl::rt;

constexpr int kCyclesPerProducer = 2000;

// Arg 0: number of shards (1 = the pre-sharding baseline).
// Arg 1: number of producer threads.
// Control threads are identical across variants (kControlThreads for
// both), so the comparison isolates the event-queue sharding — the
// baseline is a single queue served by 20 threads, not a thread-starved
// strawman.
constexpr std::size_t kControlThreads = 20;

void BM_ShardedHandOff(benchmark::State& state) {
  const auto shards = static_cast<std::size_t>(state.range(0));
  const auto producers = static_cast<std::size_t>(state.range(1));
  const auto topo = orwl::topo::make_smp20e7();
  const auto map = orwl::topo::make_shard_map(topo, shards);

  std::uint64_t inline_grants = 0;
  for (auto _ : state) {
    state.PauseTiming();
    ControlPlaneOptions opts;
    opts.num_shards = shards;
    opts.num_threads = kControlThreads;
    ControlPlane cp(opts);
    cp.start();
    std::vector<RequestQueue> queues(producers);
    std::vector<Ticket> tickets(producers);
    for (std::size_t i = 0; i < producers; ++i) {
      queues[i].set_control_plane(&cp);
      // Route queue i as the runtime would: to the shard of the NUMA
      // node its producer lives on (producers spread node-major).
      const int pu = static_cast<int>((i * 8) % topo.num_pus());
      const int shard = map.shard_of(pu);
      queues[i].set_control_shard(
          shard >= 0 ? static_cast<std::size_t>(shard) : i % shards);
      tickets[i] = queues[i].enqueue(AccessMode::Write);
    }
    state.ResumeTiming();

    std::vector<std::thread> threads;
    threads.reserve(producers);
    for (std::size_t i = 0; i < producers; ++i) {
      threads.emplace_back([&queues, &tickets, i] {
        Ticket t = tickets[i];
        for (int k = 0; k < kCyclesPerProducer; ++k) {
          queues[i].acquire(t);
          t = queues[i].reinsert_and_release(t, AccessMode::Write);
        }
      });
    }
    for (auto& th : threads) th.join();

    state.PauseTiming();
    cp.stop();
    inline_grants += cp.inline_grants();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(producers) *
                          kCyclesPerProducer);
  state.counters["inline"] =
      benchmark::Counter(static_cast<double>(inline_grants));
}

// 1 shard vs one shard per SMP20E7 NUMA node, at rising producer counts.
BENCHMARK(BM_ShardedHandOff)
    ->ArgNames({"shards", "producers"})
    ->Args({1, 1})
    ->Args({1, 4})
    ->Args({1, 8})
    ->Args({1, 16})
    ->Args({20, 1})
    ->Args({20, 4})
    ->Args({20, 8})
    ->Args({20, 16})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace

ORWL_BENCH_MAIN();
