// Two-process ping-pong over a distributed ORWL location.
//
// A 16-byte cell (a turn counter plus a running FNV-1a digest folded
// in-place by every increment) is exported by the home process; a forked
// child attaches to it as a dist::RemoteLocation. Both sides run the
// SAME play() function — it takes an rt::Location&, so the identical
// guard code drives a local location in the intra-process baseline and a
// remote mirror over the wire. Strict parity turn-taking makes the
// global write order deterministic, so the final cell must be
// bit-identical across all three runs:
//
//   intra-process baseline  ==  shm transport  ==  tcp loopback
//
//   ./dist_ping_pong            # runs baseline + shm + tcp
//   ORWL_DIST=shm ./dist_ping_pong
//   ORWL_DIST=tcp ./dist_ping_pong
//
// Exits non-zero on any mismatch (the CI dist-smoke leg runs this under
// ASan over both transports).
#include <sys/wait.h>
#include <unistd.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "dist/registry.hpp"
#include "dist/remote.hpp"
#include "dist/shm_transport.hpp"
#include "dist/tcp_transport.hpp"
#include "dist/transport.hpp"
#include "runtime/handle.hpp"
#include "runtime/location.hpp"
#include "support/env.hpp"

namespace {

using namespace orwl;

constexpr int kRoundsPerSide = 64;

struct Cell {
  std::uint64_t count;
  std::uint64_t fnv;
};

std::uint64_t fnv_fold(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 1099511628211ull;
  }
  return h;
}

/// One player: increment the cell on this side's parity turns. Works
/// unchanged against a local location or a RemoteLocation — that is the
/// point of the example.
void play(rt::Location& cell, unsigned me) {
  for (int done = 0; done < kRoundsPerSide;) {
    rt::Handle h;
    h.insert_standalone(cell, rt::AccessMode::Write);
    rt::Section sec(h);
    Cell* c = sec.as<Cell>();
    if (c->count % 2 == me) {
      ++c->count;
      c->fnv = fnv_fold(fnv_fold(c->fnv, me), c->count);
      ++done;
    }
    // Not our turn: the release at scope exit hands the grant onward.
  }
}

Cell fresh_cell_location(rt::Location& loc) {
  loc.scale(sizeof(Cell));
  Cell init{0, 14695981039346656037ull};
  std::memcpy(loc.data(), &init, sizeof init);
  return init;
}

/// Baseline: both players in one process on a plain location.
Cell run_intra() {
  rt::Location loc{0, 0, 0};
  fresh_cell_location(loc);
  std::thread even([&] { play(loc, 0); });
  std::thread odd([&] { play(loc, 1); });
  even.join();
  odd.join();
  Cell out;
  std::memcpy(&out, loc.data(), sizeof out);
  return out;
}

/// Two processes: home exports the cell, the forked child attaches.
Cell run_dist(dist::DistMode mode) {
  // Build the transport before forking so both sides know the address
  // (the ephemeral tcp port is only assigned at bind time).
  std::unique_ptr<dist::ServerTransport> transport;
  if (mode == dist::DistMode::Shm) {
    transport = std::make_unique<dist::ShmServerTransport>(
        "orwl-pp-" + std::to_string(getpid()),
        support::resolve<std::size_t>(support::knob::kDistShmSlots));
  } else {
    transport = std::make_unique<dist::TcpServerTransport>(
        support::resolve<std::uint16_t>(support::knob::kDistPort));
  }
  const std::string url =
      (mode == dist::DistMode::Shm ? "orwl+shm://" : "orwl://") +
      transport->address() + "/cell";

  const pid_t pid = fork();
  if (pid == 0) {
    // Child: the odd player, purely through the wire.
    int rc = 0;
    try {
      auto client = dist::Client::connect(url);
      play(client->attach("cell"), 1);
      client->close();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "[dist_ping_pong] child: %s\n", e.what());
      rc = 1;
    }
    _exit(rc);
  }

  rt::Location loc{0, 0, 0};
  fresh_cell_location(loc);
  dist::Registry reg;
  reg.export_location("cell", &loc);
  reg.serve(std::move(transport));
  play(loc, 0);  // home: the even player, on the location directly

  int status = 0;
  waitpid(pid, &status, 0);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    std::fprintf(stderr, "[dist_ping_pong] child failed\n");
    std::exit(1);
  }
  reg.stop();
  Cell out;
  std::memcpy(&out, loc.data(), sizeof out);
  return out;
}

int check(const char* what, const Cell& got, const Cell& want) {
  const bool ok = std::memcmp(&got, &want, sizeof got) == 0;
  std::printf("[dist_ping_pong] %-5s count=%" PRIu64 " fnv=0x%016" PRIx64
              " %s\n",
              what, got.count, got.fnv, ok ? "OK" : "MISMATCH");
  return ok ? 0 : 1;
}

}  // namespace

int main() {
  const auto mode = support::resolve<dist::DistMode>(support::knob::kDist);
  const Cell want = run_intra();
  std::printf("[dist_ping_pong] intra count=%" PRIu64 " fnv=0x%016" PRIx64
              "\n",
              want.count, want.fnv);
  int rc = 0;
  if (mode == dist::DistMode::Off || mode == dist::DistMode::Shm) {
    rc |= check("shm", run_dist(dist::DistMode::Shm), want);
  }
  if (mode == dist::DistMode::Off || mode == dist::DistMode::Tcp) {
    rc |= check("tcp", run_dist(dist::DistMode::Tcp), want);
  }
  return rc;
}
