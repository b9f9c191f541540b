// Cross-process bytes pipeline over one distributed ORWL location.
//
// The fifo_bytes_pipeline example moves opaque frames between two tasks
// of one program; here the producer lives in a forked child process and
// streams variable-length packets through a single exported frame slot,
// while the home process consumes and folds every payload byte into an
// FNV-1a digest kept inside the same slot. The slot's produced/consumed
// sequence numbers turn the exclusive-write lock into a depth-1 pipeline
// — and because producer and consumer only touch rt::Location&, the
// identical code runs intra-process as the baseline.
//
// The final slot state (digest included) is deterministic, so the runs
// must be bit-identical:
//
//   intra-process baseline  ==  shm transport  ==  tcp loopback
//
//   ./dist_bytes_pipeline            # runs baseline + shm + tcp
//   ORWL_DIST=shm ./dist_bytes_pipeline
//   ORWL_DIST=tcp ./dist_bytes_pipeline
//
// Exits non-zero on any mismatch (CI runs this under ASan).
#include <sys/wait.h>
#include <unistd.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>

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

constexpr std::uint64_t kFrames = 48;
constexpr std::uint32_t kMaxPayload = 224;

/// The exported location: a one-frame pipeline slot plus the consumer's
/// running digest. produced == consumed means the slot is free.
struct FrameSlot {
  std::uint64_t produced;
  std::uint64_t consumed;
  std::uint32_t len;
  std::byte payload[kMaxPayload];
  std::uint64_t fnv;
};

std::uint64_t fnv_fold(std::uint64_t h, const std::byte* p, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    h ^= static_cast<std::uint8_t>(p[i]);
    h *= 1099511628211ull;
  }
  return h;
}

/// Producer side: deposit frame #produced+1 whenever the slot is free.
void produce(rt::Location& loc) {
  for (std::uint64_t next = 1; next <= kFrames;) {
    rt::Handle h;
    h.insert_standalone(loc, rt::AccessMode::Write);
    rt::Section sec(h);
    FrameSlot* s = sec.as<FrameSlot>();
    if (s->produced == s->consumed) {  // slot free
      s->len = static_cast<std::uint32_t>((next * 37) % kMaxPayload);
      for (std::uint32_t j = 0; j < s->len; ++j) {
        s->payload[j] = static_cast<std::byte>((next + j) & 0xff);
      }
      s->produced = next++;
    }
  }
}

/// Consumer side: fold each new frame into the in-slot digest.
void consume(rt::Location& loc) {
  for (std::uint64_t seen = 0; seen < kFrames;) {
    rt::Handle h;
    h.insert_standalone(loc, rt::AccessMode::Write);
    rt::Section sec(h);
    FrameSlot* s = sec.as<FrameSlot>();
    if (s->produced == s->consumed + 1) {  // one new frame
      s->fnv = fnv_fold(s->fnv, s->payload, s->len);
      s->consumed = s->produced;
      seen = s->consumed;
    }
  }
}

FrameSlot snapshot(const rt::Location& loc) {
  FrameSlot s;
  std::memcpy(&s, loc.data(), sizeof s);
  return s;
}

void init_slot(rt::Location& loc) {
  loc.scale(sizeof(FrameSlot));
  FrameSlot init{};
  init.fnv = 14695981039346656037ull;
  std::memcpy(loc.data(), &init, sizeof init);
}

FrameSlot run_intra() {
  rt::Location loc{0, 0, 0};
  init_slot(loc);
  std::thread producer([&] { produce(loc); });
  consume(loc);
  producer.join();
  return snapshot(loc);
}

FrameSlot run_dist(dist::DistMode mode) {
  std::unique_ptr<dist::ServerTransport> transport;
  if (mode == dist::DistMode::Shm) {
    transport = std::make_unique<dist::ShmServerTransport>(
        "orwl-bp-" + std::to_string(getpid()),
        support::resolve<std::size_t>(support::knob::kDistShmSlots));
  } else {
    transport = std::make_unique<dist::TcpServerTransport>(
        support::resolve<std::uint16_t>(support::knob::kDistPort));
  }
  const std::string url =
      (mode == dist::DistMode::Shm ? "orwl+shm://" : "orwl://") +
      transport->address() + "/frames";

  const pid_t pid = fork();
  if (pid == 0) {
    // Child: the producer, streaming frames through the wire.
    int rc = 0;
    try {
      auto client = dist::Client::connect(url);
      produce(client->attach("frames"));
      client->close();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "[dist_bytes_pipeline] child: %s\n", e.what());
      rc = 1;
    }
    _exit(rc);
  }

  rt::Location loc{0, 0, 0};
  init_slot(loc);
  dist::Registry reg;
  reg.export_location("frames", &loc);
  reg.serve(std::move(transport));
  consume(loc);  // home: the consumer, on the location directly

  int status = 0;
  waitpid(pid, &status, 0);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    std::fprintf(stderr, "[dist_bytes_pipeline] child failed\n");
    std::exit(1);
  }
  reg.stop();
  return snapshot(loc);
}

int check(const char* what, const FrameSlot& got, const FrameSlot& want) {
  const bool ok = std::memcmp(&got, &want, sizeof got) == 0;
  std::printf("[dist_bytes_pipeline] %-5s frames=%" PRIu64
              " fnv=0x%016" PRIx64 " %s\n",
              what, got.consumed, got.fnv, ok ? "OK" : "MISMATCH");
  return ok ? 0 : 1;
}

}  // namespace

int main() {
  const auto mode = support::resolve<dist::DistMode>(support::knob::kDist);
  const FrameSlot want = run_intra();
  std::printf("[dist_bytes_pipeline] intra frames=%" PRIu64
              " fnv=0x%016" PRIx64 "\n",
              want.consumed, want.fnv);
  int rc = 0;
  if (mode == dist::DistMode::Off || mode == dist::DistMode::Shm) {
    rc |= check("shm", run_dist(dist::DistMode::Shm), want);
  }
  if (mode == dist::DistMode::Off || mode == dist::DistMode::Tcp) {
    rc |= check("tcp", run_dist(dist::DistMode::Tcp), want);
  }
  return rc;
}
