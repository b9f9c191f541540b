// Hand-off latency of one distributed ORWL write cycle: how much does
// the wire add on top of the in-process request queue?
//
// Every benchmark measures the same loop — a one-shot write Handle
// enqueued standalone, acquired, the first word bumped, released — so
// the three flavours differ only in what sits between the handle and
// the RequestQueue:
//
//   BM_HandoffIntra/N  - rt::Location in-process (the queue itself)
//   BM_HandoffShm/N    - dist::RemoteLocation over the shm transport
//                        (SPSC rings + futex doorbells, same host)
//   BM_HandoffTcp/N    - dist::RemoteLocation over tcp loopback
//                        (length-prefixed frames through epoll)
//
// N is the location payload in bytes: the remote cycle ships the whole
// payload twice (GRANT carries the bytes out, RELEASE writes them back),
// so the large arg exposes the copy/serialisation cost while the small
// one is pure protocol round-trip.
//
// CI's bench-smoke job reruns this and gates with tools/bench_compare.py
// against the committed BENCH_micro_dist.json, normalising every
// benchmark's items_per_second by BM_HandoffIntra/8/real_time (the
// library appends "/real_time" to wall-clock families) from the same file
// so dev-box vs CI-runner speed cancels out and only the wire-overhead
// *shape* is compared.
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>

#include "bench_util.hpp"
#include "dist/registry.hpp"
#include "dist/remote.hpp"
#include "dist/shm_transport.hpp"
#include "dist/tcp_transport.hpp"
#include "dist/transport.hpp"
#include "runtime/handle.hpp"
#include "runtime/location.hpp"

namespace {

using namespace orwl;

/// One full ORWL write cycle against any location (local or remote
/// mirror): the unit of work every benchmark times.
void write_cycle(rt::Location& loc) {
  rt::Handle h;
  h.insert_standalone(loc, rt::AccessMode::Write);
  rt::Section sec(h);
  ++*sec.as<std::uint64_t>();
}

void BM_HandoffIntra(benchmark::State& state) {
  rt::Location loc{0, 0, 0};
  loc.scale(static_cast<std::size_t>(state.range(0)));
  std::memset(loc.data(), 0, loc.size());
  for (auto _ : state) {
    write_cycle(loc);
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["payload_bytes"] = static_cast<double>(loc.size());
}

/// Home + client in one process, but every cycle still crosses the full
/// transport: REQ_WRITE and RELEASE (with the write-back) on the wire,
/// the home's transport thread proxying into the real queue and shipping
/// the GRANT that carries the payload back from the grant itself.
struct DistFixture {
  rt::Location loc{0, 0, 0};
  dist::Registry reg;
  std::unique_ptr<dist::Client> client;
  rt::Location* remote = nullptr;

  DistFixture(dist::DistMode mode, std::size_t payload) {
    loc.scale(payload);
    std::memset(loc.data(), 0, loc.size());
    reg.export_location("cell", &loc);
    std::string url;
    if (mode == dist::DistMode::Shm) {
      static std::atomic<int> counter{0};
      auto transport = std::make_unique<dist::ShmServerTransport>(
          "orwl-bench-" + std::to_string(getpid()) + "-" +
              std::to_string(counter.fetch_add(1)),
          /*ring_slots=*/1024);
      url = "orwl+shm://" + transport->address() + "/cell";
      reg.serve(std::move(transport));
    } else {
      auto transport =
          std::make_unique<dist::TcpServerTransport>(/*port=*/0);
      url = "orwl://" + transport->address() + "/cell";
      reg.serve(std::move(transport));
    }
    client = dist::Client::connect(url);
    remote = &client->attach("cell");
  }

  ~DistFixture() {
    client->close();
    reg.stop();
  }
};

void run_dist(benchmark::State& state, dist::DistMode mode) {
  DistFixture fx(mode, static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    write_cycle(*fx.remote);
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["payload_bytes"] = static_cast<double>(fx.loc.size());
  const dist::Registry::Stats s = fx.reg.stats();
  state.counters["grants_sent"] = static_cast<double>(s.grants_sent);
  state.counters["orphans_reclaimed"] =
      static_cast<double>(s.orphans_reclaimed);
}

void BM_HandoffShm(benchmark::State& state) {
  run_dist(state, dist::DistMode::Shm);
}

void BM_HandoffTcp(benchmark::State& state) {
  run_dist(state, dist::DistMode::Tcp);
}

// Wall-clock rates: a remote cycle spends most of its time waiting for
// the other side, which CPU time does not count.
BENCHMARK(BM_HandoffIntra)->Arg(8)->Arg(65536)->UseRealTime();
BENCHMARK(BM_HandoffShm)->Arg(8)->Arg(65536)->UseRealTime();
BENCHMARK(BM_HandoffTcp)->Arg(8)->Arg(65536)->UseRealTime();

}  // namespace

ORWL_BENCH_MAIN()
