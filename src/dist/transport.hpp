// Pluggable transports for distributed ORWL.
//
// A transport moves wire::Frames between a home process (which owns the
// real locations and their FIFO queues) and client processes (which drive
// them through RemoteLocation). Two implementations ship:
//
//   ShmTransport — a named shared-memory segment per connection holding a
//   pair of fixed-slot SPSC rings with futex doorbells; for cross-process
//   locations on one host (no syscalls on the data path once mapped).
//
//   TcpTransport — length-prefixed frames over a socket; an epoll-driven
//   proxy thread serves every client connection on the home side.
//
// Everything but byte I/O is implemented here once: on the home side
// the peer table, send() with its in-order outbox, frame decoding
// (wire::FrameStream), the wait for senders in flight and drop(), the one
// way a peer leaves; on the client side the read role and the stop/send
// ordering. A new transport (RDMA, say) implements only:
//
//   home   — a ServerTransport::Conn per connection: a non-blocking
//            write_some(), on_backlog() (bytes wait: call flush() when
//            the connection takes more) and shutdown() (close both
//            directions); plus start_io()/stop_io() for its accept and
//            read loops, which add() connections, deliver() the bytes
//            they read and drop() a peer whose stream ended or went bad.
//   client — read_some() with a timeout, a blocking write_all() and
//            shutdown().
//
// The client starts no thread. A thread that waits for a frame reads the
// connection itself (leader/followers): the one that takes the read role
// reads a chunk and runs the frame handlers, then hands the role on and
// bumps a futex sequence word; the other waiters park on that word. With
// one thread waiting per client (a closed loop) a GRANT wakes nothing:
// its waiter read it. With N waiters every chunk wakes all of the parked
// ones, up to N - 1 wakes; ARCHITECTURE.md section 10 has the figures
// for that case, where waking only the thread whose state changed was
// measured slower.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "dist/wire.hpp"

namespace orwl::dist {

/// Identifies one connected client on the home side. Stable for the life
/// of the connection; never reused while the transport is running.
using PeerId = std::uint64_t;

/// How long a reader, on either side and over either transport, polls
/// its connection before it parks. Longer than one remote write cycle
/// on one host (a few microseconds over shm, some tens over tcp
/// loopback), so the other side of a closed loop finds the reader awake
/// and skips a wakeup: the home's reader catches the next REQ or
/// RELEASE, and the client thread waiting in an acquire catches its
/// GRANT. Every poll iteration yields, so two sides that share one PU
/// still hand the CPU to each other at once.
inline constexpr std::chrono::microseconds kReaderSpin{50};

/// Home-side transport: accepts client connections and shuttles frames.
/// Callbacks fire on the transport's internal threads — handlers must be
/// thread-safe; frames from one peer are delivered in arrival order.
class ServerTransport {
 public:
  struct Handlers {
    std::function<void(PeerId, wire::Frame&&)> on_frame;
    std::function<void(PeerId)> on_disconnect;
  };

  ServerTransport() = default;
  /// Derived destructors call stop() first: it runs their hooks.
  virtual ~ServerTransport() = default;
  ServerTransport(const ServerTransport&) = delete;
  ServerTransport& operator=(const ServerTransport&) = delete;

  /// Begin accepting connections and delivering frames.
  void start(Handlers handlers);

  /// Stop threads and drop every connection. Idempotent; after stop() no
  /// further callbacks fire.
  void stop();

  /// Send one frame to a peer. Thread-safe, and never waits for the
  /// peer to read: what the connection cannot take right now is queued,
  /// in order, and written as the peer drains. (The sender may be the
  /// thread that reads this peer's frames.) False when the peer is gone.
  bool send(PeerId peer, const wire::Frame& f);

  /// Connectable address of this transport ("host:port" for tcp, the
  /// segment base name for shm).
  virtual std::string address() const = 0;

 protected:
  /// One connection. A transport derives its own with its byte I/O
  /// state, freed by its destructor; the core owns everything else.
  class Conn {
   public:
    Conn() = default;
    virtual ~Conn() = default;
    Conn(const Conn&) = delete;
    Conn& operator=(const Conn&) = delete;

    PeerId id = 0;  ///< assigned by add()

   private:
    friend class ServerTransport;

    /// Write what the connection takes now without blocking: the bytes
    /// written (possibly 0), or -1 when the connection is broken.
    virtual std::ptrdiff_t write_some(const std::byte* p, std::size_t n) = 0;
    /// The outbox filled (`waiting`) or drained; called under the send
    /// lock. While bytes wait, the transport calls flush() whenever the
    /// connection can take more.
    virtual void on_backlog(bool waiting) = 0;
    /// Close both directions and wake the connection's threads. drop()
    /// calls it once, after the last send has been refused.
    virtual void shutdown() = 0;

    std::mutex send_mu;  ///< orders writers; guards the three below
    std::vector<std::byte> outbox;  ///< unwritten bytes from outbox_head
    std::size_t outbox_head = 0;
    bool gone = false;  ///< drop() began: refuse every send
    /// Senders past the table lookup (they hold this Conn raw); drop()
    /// waits for zero before the Conn is destroyed.
    std::atomic<int> active_sends{0};
    wire::FrameStream in;  ///< fed by the connection's one reader
  };

  /// Start / stop the accept and read loops. After stop_io() nothing is
  /// accepted; a connection's reader may run until drop() closes it.
  virtual void start_io() = 0;
  virtual void stop_io() = 0;

  bool running() const noexcept {
    return running_.load(std::memory_order_acquire);
  }

  /// Enter an accepted connection in the peer table; returns its id.
  void add(std::unique_ptr<Conn> c);

  /// Hand bytes read from c to its decoder; every whole frame goes to
  /// on_frame. False when the stream is malformed: drop the peer.
  bool deliver(Conn& c, const std::byte* p, std::size_t n);

  /// Write queued bytes as far as c takes them. Returns the bytes still
  /// queued, or -1 when the connection is broken.
  std::ptrdiff_t flush(Conn& c);

  /// The one way a peer leaves: out of the table, later sends refused,
  /// shutdown(), senders in flight waited out, on_disconnect fired once
  /// (not while stopping), the Conn destroyed. No-op when already gone.
  void drop(PeerId peer);

 private:
  Handlers handlers_;
  std::atomic<bool> running_{false};
  std::mutex mu_;  ///< guards conns_ and next_peer_
  std::map<PeerId, std::unique_ptr<Conn>> conns_;
  PeerId next_peer_ = 1;
};

/// Client-side transport: one connection to a home process. It has no
/// thread: frames are read by the threads that wait for them (wait()),
/// and by poll().
class ClientTransport {
 public:
  using Clock = std::chrono::steady_clock;

  ClientTransport() = default;
  /// Derived destructors call stop() first, then free the connection.
  virtual ~ClientTransport() = default;
  ClientTransport(const ClientTransport&) = delete;
  ClientTransport& operator=(const ClientTransport&) = delete;

  /// Set the frame handlers. They run, in arrival order, on whichever
  /// thread holds the read role (inside wait() or poll()), one at a time.
  void start(std::function<void(wire::Frame&&)> on_frame,
             std::function<void()> on_disconnect);

  /// Block until `done` holds, the deadline passes, or the connection
  /// ends or is stopped, reading the connection while no other thread
  /// does; the caller then re-checks its own state. `done` may take
  /// locks the frame handlers take, so the caller must hold none.
  void wait(const std::function<bool()>& done, Clock::time_point deadline);

  /// Deliver every frame that has already arrived, without blocking.
  /// No-op while another thread holds the read role (it delivers them).
  void poll();

  /// Close the connection. Idempotent; no callbacks after stop(), every
  /// send after it returns false, and every wait() returns.
  void stop();

  /// Send one frame home. Thread-safe; valid before start(). False once
  /// disconnected.
  bool send(const wire::Frame& f);

 protected:
  bool stopped() const noexcept {
    return stopped_.load(std::memory_order_acquire);
  }

 private:
  /// Read up to n bytes, waiting at most timeout_ms for the first (0:
  /// do not wait). Returns the bytes read (> 0), 0 on timeout, or -1
  /// once the stream has ended (the home closed it, or shutdown()).
  virtual std::ptrdiff_t read_some(std::byte* p, std::size_t n,
                                   std::uint32_t timeout_ms) = 0;
  /// Write all n bytes, blocking while the connection is full. False
  /// when the connection broke or shutdown() ran.
  virtual bool write_all(const std::byte* p, std::size_t n) = 0;
  /// Close both directions: ends a read_some and fails a write_all in
  /// progress. Idempotent.
  virtual void shutdown() = 0;

  /// Caller holds the read role: read one chunk, waiting up to
  /// timeout_ms, and run the handlers on its frames. True when bytes
  /// were delivered.
  bool read_chunk(std::uint32_t timeout_ms);
  /// Give up the read role and wake every thread parked on seq_.
  void release_role();
  /// Holds the read role taken just before it; releases it on exit.
  struct RoleGuard {
    ClientTransport* t;
    ~RoleGuard() { t->release_role(); }
  };

  std::function<void(wire::Frame&&)> on_frame_;
  std::function<void()> on_disconnect_;
  std::mutex send_mu_;
  std::mutex read_mu_;  ///< the read role; guards in_ and chunk_
  wire::FrameStream in_;
  std::byte chunk_[4096];
  /// Bumped each time the read role is given up: the handlers have run
  /// (a waiter's state may have changed) and the role is free.
  std::atomic<std::uint32_t> seq_{0};
  std::atomic<std::uint32_t> parked_{0};  ///< waiters announced on seq_
  std::atomic<bool> stopped_{false};  ///< stop() began
  std::atomic<bool> ended_{false};    ///< the stream ended or went bad
};

/// Transport selector (ORWL_DIST, read with support::resolve): off
/// (intra-process only, default), shm, tcp. Enumerators follow
/// support::knob::kDist's spellings. The transports' own knobs are
/// ORWL_DIST_PORT and ORWL_DIST_SHM_SLOTS (support/env.hpp).
enum class DistMode : std::uint8_t { Off, Shm, Tcp };

const char* to_string(DistMode m) noexcept;

}  // namespace orwl::dist
