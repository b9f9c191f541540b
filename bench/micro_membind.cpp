// Micro-benchmark of topo::MemBind / topo::NumaBuffer: what NUMA-local
// location memory buys over remote or first-touch pages.
//
// Three stream variants over the same buffer size:
//
//   first_touch - unbound pages, faulted in by the streaming thread
//                 (what Location buffers were before the membind work)
//   local       - pages bound to the streaming thread's own node
//   remote      - pages bound to another node (the "task placed on node 1,
//                 buffer stuck on node 0" failure mode)
//
// plus the cost of an explicit migrate_to() round trip, i.e. what moving
// one location buffer costs when a re-placement moves its owner.
//
// On a multi-node machine `local` beats `remote` by the interconnect
// factor (Table I: NUMAlink5/6). On 1-node or sandboxed hosts the remote
// binding is necessarily emulated (tag-only) and the variants converge —
// the bench labels such runs "emulated" so the numbers are not
// misread as a NUMA result.
#include <benchmark/benchmark.h>

#include <cstdint>

#include "bench_util.hpp"
#include "topo/binding.hpp"
#include "topo/cpuset.hpp"
#include "topo/membind.hpp"

namespace {

using orwl::topo::MemBind;

/// Pin the bench thread so "its node" stays fixed across iterations, and
/// report that node (0 when the host cannot tell).
int pin_and_local_node() {
  static const int node = [] {
    orwl::topo::bind_current_thread(orwl::topo::CpuSet::single(0));
    const int n = MemBind::node_of_cpu(0);
    return n >= 0 ? n : 0;
  }();
  return node;
}

/// Next host node id after `local` in the (possibly sparse) node id
/// cycle; equals `local` on 1-node hosts.
int remote_node_of(int local) {
  const std::vector<int> ids = MemBind::host_node_ids();
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (ids[i] == local) return ids[(i + 1) % ids.size()];
  }
  return ids.front();
}

/// One read-modify-write pass over the buffer, 8 bytes at a time.
std::uint64_t stream_pass(std::byte* data, std::size_t bytes) {
  auto* words = reinterpret_cast<std::uint64_t*>(data);
  const std::size_t n = bytes / sizeof(std::uint64_t);
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < n; ++i) {
    words[i] += 1;
    sum += words[i];
  }
  return sum;
}

void run_stream(benchmark::State& state, int node, const char* kind) {
  const auto bytes = static_cast<std::size_t>(state.range(0));
  MemBind buf = MemBind::allocate(bytes, node);
  for (auto _ : state) {
    benchmark::DoNotOptimize(stream_pass(buf.data(), bytes));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes));
  state.SetLabel(std::string(kind) +
                 (buf.emulated() && node >= 0 ? " (emulated)" : ""));
}

void BM_StreamFirstTouch(benchmark::State& state) {
  pin_and_local_node();
  run_stream(state, MemBind::kAnyNode, "first_touch");
}
BENCHMARK(BM_StreamFirstTouch)->Arg(1 << 20)->Arg(1 << 24);

void BM_StreamLocalBound(benchmark::State& state) {
  run_stream(state, pin_and_local_node(), "local");
}
BENCHMARK(BM_StreamLocalBound)->Arg(1 << 20)->Arg(1 << 24);

void BM_StreamRemoteBound(benchmark::State& state) {
  const int local = pin_and_local_node();
  const int remote = remote_node_of(local);
  run_stream(state, remote, remote != local ? "remote" : "remote=local");
}
BENCHMARK(BM_StreamRemoteBound)->Arg(1 << 20)->Arg(1 << 24);

void BM_MigrateRoundTrip(benchmark::State& state) {
  const auto bytes = static_cast<std::size_t>(state.range(0));
  const int local = pin_and_local_node();
  const int remote = remote_node_of(local);
  MemBind buf = MemBind::allocate(bytes, local);
  benchmark::DoNotOptimize(stream_pass(buf.data(), bytes));  // fault in
  for (auto _ : state) {
    buf.migrate_to(remote);
    buf.migrate_to(local);
  }
  // Two migrations per iteration.
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 2 *
                          static_cast<std::int64_t>(bytes));
  std::string label = buf.emulated() ? "emulated" : "move_pages";
  if (remote == local) label += " remote=local";
  state.SetLabel(label);
}
BENCHMARK(BM_MigrateRoundTrip)->Arg(1 << 20)->Arg(1 << 24);

}  // namespace

ORWL_BENCH_MAIN()
