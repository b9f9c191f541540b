// Microbenchmarks of the ORWL runtime primitives: FIFO lock cycling,
// contended hand-off rings and reader sharing.
//
// The contended benches use manual timing: contender threads are spawned
// outside the measured window and wait on a start gate, so the clock only
// covers the lock hand-off traffic, not thread creation. Set
// ORWL_BENCH_JSON=<path> to also write the results as JSON (see
// bench_util.hpp); CI archives BENCH_micro_orwl_lock.json from this.
#include <atomic>
#include <cstdint>
#include <chrono>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "orwl/orwl.hpp"

namespace {

using namespace orwl::rt;

constexpr int kHandOffsPerThread = 200;

/// Run one contended round: every thread cycles acquire ->
/// reinsert_and_release on `q` with its given ticket/mode. Returns the
/// wall time of the hand-off traffic only (threads are already spawned
/// and parked on the start gate when the clock starts).
double contended_round_seconds(RequestQueue& q,
                               const std::vector<Ticket>& tickets,
                               const std::vector<AccessMode>& modes) {
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  threads.reserve(tickets.size());
  for (std::size_t i = 0; i < tickets.size(); ++i) {
    threads.emplace_back([&q, &go, t = tickets[i], m = modes[i]]() mutable {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (int k = 0; k < kHandOffsPerThread; ++k) {
        q.acquire(t);
        t = q.reinsert_and_release(t, m);
      }
    });
  }
  const auto t0 = std::chrono::steady_clock::now();
  go.store(true, std::memory_order_release);
  for (auto& th : threads) th.join();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

void BM_WriteCycleUncontended(benchmark::State& state) {
  RequestQueue q;
  Ticket t = q.enqueue(AccessMode::Write);
  for (auto _ : state) {
    q.acquire(t);
    t = q.reinsert_and_release(t, AccessMode::Write);
  }
  orwl::bench::annotate_arena_counters(state);
  orwl::bench::annotate_parking_counters(state, q.futex_waits(),
                                         q.futex_wakes());
}
BENCHMARK(BM_WriteCycleUncontended);

void BM_ContendedRing(benchmark::State& state) {
  // N writer threads iterate on one queue: the full exclusive lock
  // hand-off path.
  const int contenders = static_cast<int>(state.range(0));
  std::uint64_t waits = 0;
  std::uint64_t wakes = 0;
  for (auto _ : state) {
    RequestQueue q;
    std::vector<Ticket> tickets;
    std::vector<AccessMode> modes;
    for (int i = 0; i < contenders; ++i) {
      tickets.push_back(q.enqueue(AccessMode::Write));
      modes.push_back(AccessMode::Write);
    }
    state.SetIterationTime(contended_round_seconds(q, tickets, modes));
    waits += q.futex_waits();
    wakes += q.futex_wakes();
  }
  state.SetItemsProcessed(state.iterations() * contenders *
                          kHandOffsPerThread);
  orwl::bench::annotate_arena_counters(state);
  orwl::bench::annotate_parking_counters(state, waits, wakes);
}
BENCHMARK(BM_ContendedRing)->Arg(2)->Arg(4)->Arg(8)
    ->UseManualTime()->Unit(benchmark::kMillisecond);

void BM_ContendedReaderGroup(benchmark::State& state) {
  // N readers + 1 writer iterate on one queue: shared (group) grants
  // alternate with exclusive ones, exercising the reader-group hand-off.
  const int readers = static_cast<int>(state.range(0));
  std::uint64_t waits = 0;
  std::uint64_t wakes = 0;
  for (auto _ : state) {
    RequestQueue q;
    std::vector<Ticket> tickets;
    std::vector<AccessMode> modes;
    tickets.push_back(q.enqueue(AccessMode::Write));
    modes.push_back(AccessMode::Write);
    for (int i = 0; i < readers; ++i) {
      tickets.push_back(q.enqueue(AccessMode::Read));
      modes.push_back(AccessMode::Read);
    }
    state.SetIterationTime(contended_round_seconds(q, tickets, modes));
    waits += q.futex_waits();
    wakes += q.futex_wakes();
  }
  state.SetItemsProcessed(state.iterations() * (readers + 1) *
                          kHandOffsPerThread);
  orwl::bench::annotate_arena_counters(state);
  orwl::bench::annotate_parking_counters(state, waits, wakes);
}
BENCHMARK(BM_ContendedReaderGroup)->Arg(2)->Arg(4)->Arg(8)
    ->UseManualTime()->Unit(benchmark::kMillisecond);

void BM_ReaderSharingGrant(benchmark::State& state) {
  // One writer followed by N readers: measures the group-grant path.
  const int readers = static_cast<int>(state.range(0));
  for (auto _ : state) {
    RequestQueue q;
    const Ticket w = q.enqueue(AccessMode::Write);
    std::vector<Ticket> rs;
    for (int i = 0; i < readers; ++i) {
      rs.push_back(q.enqueue(AccessMode::Read));
    }
    q.release(w);
    for (Ticket r : rs) {
      q.acquire(r);
      q.release(r);
    }
  }
  orwl::bench::annotate_arena_counters(state);
}
BENCHMARK(BM_ReaderSharingGrant)->Arg(4)->Arg(16)->Arg(64);

}  // namespace

ORWL_BENCH_MAIN();
