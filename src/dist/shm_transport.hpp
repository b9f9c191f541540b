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
// awake costs no syscall per frame. Both ring readers poll their ring
// for kReaderSpin, the poll budget the tcp readers share
// (transport.hpp), before parking: the home's connection reader, for a
// client's next frame (the RELEASE after a GRANT, the next REQ), and
// the client thread that waits in an acquire and holds the read role,
// for its GRANT. Those usually land within the budget, and neither side
// then pays for a wakeup. Frames
// larger than the ring stream through it in chunks, so the fixed
// capacity (ORWL_DIST_SHM_SLOTS x 64 B) bounds memory, not message
// size. The part of a home-side send that does not fit in the free ring
// space waits in the connection's outbox (transport.hpp), and the
// connection's writer thread (started the first time bytes have to
// wait) streams it out as the client frees space, so the sender never
// waits for the client. A reader whose stream ends hands its peer to
// the listener, which drops it: both rings close (the client sees
// end-of-stream), the threads are joined and the segment is unmapped
// and unlinked.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
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
  /// partial write) when the ring is closed or `abort` returns true
  /// while waiting for space.
  bool push(const std::byte* p, std::size_t n,
            const std::function<bool()>& abort);

  /// Append as many of the n bytes as the ring has room for now and
  /// return that count (possibly 0). Never blocks.
  std::size_t push_some(const std::byte* p, std::size_t n) noexcept;

  /// Producer side: return once the ring has free space, is closed, or
  /// timeout_ms has passed.
  void wait_space(std::uint32_t timeout_ms);

  /// Pop up to `max` bytes into `out`. When the ring is empty, polls it
  /// for up to `spin`, then blocks up to timeout_ms. Returns 0 on timeout
  /// or when the ring is closed and drained (check closed() to tell the
  /// two apart).
  std::size_t pop(std::byte* out, std::size_t max, std::uint32_t timeout_ms,
                  std::chrono::nanoseconds spin = {});

  /// Orderly close: a drained consumer sees closed() and treats it as
  /// end-of-stream; a consumer parked on the ring is woken, and so is a
  /// producer waiting for space (its push fails). The producer closes at
  /// the end of its stream; the home side closes both rings of a
  /// connection it drops.
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

  std::string address() const override { return base_; }

 private:
  struct ShmConn;

  void start_io() override;
  void stop_io() override;
  void listen_loop();
  void read_loop(ShmConn* c);
  void write_loop(ShmConn* c);
  bool try_accept(std::uint32_t id);
  /// Bump the listen doorbell so the listener runs a pass now.
  void wake_listener() noexcept;

  std::string base_;
  std::size_t ring_slots_;
  void* listen_map_ = nullptr;
  std::size_t listen_bytes_ = 0;
  /// Segment ids the listener has taken, live or dropped: a dropped
  /// client's segment may outlive its connection, and is never taken
  /// twice. Listener thread only.
  std::vector<bool> accepted_;
  std::mutex ended_mu_;  ///< guards ended_
  /// Peers whose reader saw the stream end; the listener drops them (a
  /// reader cannot join itself).
  std::vector<PeerId> ended_;
  std::thread listener_;
};

/// Client side: creates its connection segment under the server's base
/// name and hands frames to/from the rings.
class ShmClientTransport final : public ClientTransport {
 public:
  /// Connect to the server listening on `base`. Throws std::runtime_error
  /// when the listen segment does not exist.
  explicit ShmClientTransport(const std::string& base);
  ~ShmClientTransport() override;

 private:
  std::ptrdiff_t read_some(std::byte* p, std::size_t n,
                           std::uint32_t timeout_ms) override;
  bool write_all(const std::byte* p, std::size_t n) override;
  void shutdown() override;

  std::string seg_name_;
  void* map_ = nullptr;
  std::size_t map_bytes_ = 0;
  ShmRing* c2s_ = nullptr;  ///< we produce
  ShmRing* s2c_ = nullptr;  ///< we consume
};

}  // namespace orwl::dist
