// Shared-memory transport: cross-process ORWL locations on one host.
//
// The home process creates a small "listen" segment (/<base>). Each client
// allocates a connection id from it, creates its own connection segment
// (/<base>.c<id>) holding a pair of fixed-slot SPSC byte rings — one per
// direction — and announces it by bumping the listen segment's doorbell.
// The home side's listener thread maps the new segment and serves it.
//
// Rings use process-shared futex doorbells (runtime/futex.hpp with
// FutexScope::Shared): the producer bumps a doorbell, the consumer bumps
// a space bell when it frees room. A side about to park announces itself
// in the ring header first, and the other side makes the futex_wake
// syscall only when someone is announced, so a ring whose consumer is
// awake costs no syscall per frame. The home side's connection readers
// poll their ring for a short fixed time before parking: a client's
// next frame (the RELEASE after a GRANT, the next REQ) usually lands
// within that time, and neither side then pays for a wakeup. Frames
// larger than the ring stream through it in chunks, so the fixed
// capacity (ORWL_DIST_SHM_SLOTS x 64 B) bounds memory, not message
// size. The part of a home-side send that does not fit in the free ring
// space is queued for the connection's writer thread (started the first
// time bytes have to wait), so the sender never waits for the client.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "dist/transport.hpp"

namespace orwl::dist {

/// Bytes per ring slot; ORWL_DIST_SHM_SLOTS counts these.
inline constexpr std::size_t kShmSlotBytes = 64;

/// One direction of a connection: a fixed-capacity SPSC byte ring mapped
/// into both processes. Exactly one producer and one consumer thread.
/// Exposed for dist_test (wrap-around and doorbell coverage).
class ShmRing {
 public:
  /// Bytes a ring with `capacity` payload bytes occupies in the segment.
  static std::size_t bytes_for(std::size_t capacity) noexcept;

  /// Placement-construct a ring over `mem` (the creating side calls this
  /// exactly once; `capacity` is rounded up to a power of two).
  static ShmRing* init(void* mem, std::size_t capacity) noexcept;

  /// View an already-initialized ring at `mem` (the attaching side).
  static ShmRing* at(void* mem) noexcept { return static_cast<ShmRing*>(mem); }

  /// Append n bytes, blocking while the ring is full. Chunks internally,
  /// so n may exceed the capacity. Returns false (possibly after a
  /// partial write) when `abort` returns true while waiting for space.
  bool push(const std::byte* p, std::size_t n,
            const std::function<bool()>& abort);

  /// Append as many of the n bytes as the ring has room for now and
  /// return that count (possibly 0). Never blocks.
  std::size_t push_some(const std::byte* p, std::size_t n) noexcept;

  /// Pop up to `max` bytes into `out`. When the ring is empty, polls it
  /// for up to `spin`, then blocks up to timeout_ms. Returns 0 on timeout
  /// or when the ring is closed and drained (check closed() to tell the
  /// two apart).
  std::size_t pop(std::byte* out, std::size_t max, std::uint32_t timeout_ms,
                  std::chrono::nanoseconds spin = {});

  /// Orderly close: a drained consumer sees closed() and treats it as
  /// end-of-stream; a consumer parked on the ring is woken. The producer
  /// closes at the end of its stream; the home side also closes the
  /// rings it consumes when it stops.
  void close() noexcept;
  bool closed() const noexcept {
    return closed_.load(std::memory_order_acquire) != 0;
  }

  std::size_t capacity() const noexcept { return capacity_; }
  std::size_t readable() const noexcept {
    return tail_.load(std::memory_order_acquire) -
           head_.load(std::memory_order_acquire);
  }

 private:
  ShmRing() = default;

  /// Copy n bytes (n <= free space) in at `tail`, publish them and ring
  /// the doorbell.
  void write(const std::byte* p, std::size_t n, std::uint64_t tail) noexcept;

  // Consumer-written line.
  alignas(64) std::atomic<std::uint64_t> head_{0};
  std::atomic<std::uint32_t> space_bell_{0};
  std::atomic<std::uint32_t> consumers_parked_{0};  ///< on doorbell_
  // Producer-written line.
  alignas(64) std::atomic<std::uint64_t> tail_{0};
  std::atomic<std::uint32_t> doorbell_{0};
  std::atomic<std::uint32_t> closed_{0};
  std::atomic<std::uint32_t> producers_parked_{0};  ///< on space_bell_
  alignas(64) std::uint64_t capacity_ = 0;
  // Payload bytes follow the header in the same mapping.
  std::byte* buf() noexcept { return reinterpret_cast<std::byte*>(this + 1); }
};

/// Home side of the shm transport. `base` names the listen segment; pass
/// a process-unique string (the examples use "orwl-<pid>").
class ShmServerTransport final : public ServerTransport {
 public:
  /// \param base       Segment base name (no leading '/').
  /// \param ring_slots Capacity of each ring direction in 64-byte slots.
  explicit ShmServerTransport(std::string base, std::size_t ring_slots = 1024);
  ~ShmServerTransport() override;

  void start(Handlers handlers) override;
  void stop() override;
  bool send(PeerId peer, const wire::Frame& f) override;
  std::string address() const override { return base_; }

 private:
  struct Conn {
    void* map = nullptr;
    std::size_t map_bytes = 0;
    ShmRing* c2s = nullptr;  ///< client -> server (we consume)
    ShmRing* s2c = nullptr;  ///< server -> client (we produce)
    std::thread reader;
    std::mutex send_mu;  ///< guards the three members below
    /// Bytes that did not fit in s2c when sent, in send order; the
    /// writer thread streams them out as the client reads.
    std::vector<std::byte> backlog;
    bool flushing = false;  ///< the writer is pushing bytes it took
    std::condition_variable writer_cv;
    std::thread writer;  ///< started on the first frame that waits
    std::string seg_name;
    std::atomic<bool> gone{false};
    /// Senders inside send() past the conns_ lookup (they hold this
    /// Conn raw); stop() drains it to zero before deleting.
    std::atomic<int> active_sends{0};
  };

  void listen_loop();
  void conn_loop(PeerId id, Conn* c);
  void write_loop(Conn* c);
  bool try_accept(std::uint32_t id);

  std::string base_;
  std::size_t ring_slots_;
  Handlers handlers_;
  void* listen_map_ = nullptr;
  std::size_t listen_bytes_ = 0;
  std::thread listener_;
  std::atomic<bool> running_{false};
  std::mutex mu_;  ///< guards conns_
  std::map<PeerId, std::unique_ptr<Conn>> conns_;
};

/// Client side: creates its connection segment under the server's base
/// name and hands frames to/from the rings.
class ShmClientTransport final : public ClientTransport {
 public:
  /// Connect to the server listening on `base`. Throws std::runtime_error
  /// when the listen segment does not exist.
  explicit ShmClientTransport(const std::string& base);
  ~ShmClientTransport() override;

  void start(std::function<void(wire::Frame&&)> on_frame,
             std::function<void()> on_disconnect) override;
  void stop() override;
  bool send(const wire::Frame& f) override;

 private:
  void recv_loop();

  std::string seg_name_;
  void* map_ = nullptr;
  std::size_t map_bytes_ = 0;
  ShmRing* c2s_ = nullptr;  ///< we produce
  ShmRing* s2c_ = nullptr;  ///< we consume
  std::function<void(wire::Frame&&)> on_frame_;
  std::function<void()> on_disconnect_;
  std::thread reader_;
  std::mutex send_mu_;
  std::atomic<bool> running_{false};
};

}  // namespace orwl::dist
