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
// The interface is deliberately small (start/stop/send + frame callback)
// so an RDMA transport can slot in later: nothing above this layer knows
// about sockets, segments or completion queues.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "dist/wire.hpp"

namespace orwl::dist {

/// Identifies one connected client on the home side. Stable for the life
/// of the connection; never reused while the transport is running.
using PeerId = std::uint64_t;

/// Home-side transport: accepts client connections and shuttles frames.
/// Callbacks fire on the transport's internal threads — handlers must be
/// thread-safe; frames from one peer are delivered in arrival order.
class ServerTransport {
 public:
  struct Handlers {
    std::function<void(PeerId, wire::Frame&&)> on_frame;
    std::function<void(PeerId)> on_disconnect;
  };

  virtual ~ServerTransport() = default;

  /// Begin accepting connections and delivering frames.
  virtual void start(Handlers handlers) = 0;

  /// Stop threads and drop every connection. Idempotent; after stop() no
  /// further callbacks fire.
  virtual void stop() = 0;

  /// Send one frame to a peer. Thread-safe, and never waits for the
  /// peer to read: what the connection cannot take right now is queued,
  /// in order, and written as the peer drains. (The sender may be the
  /// thread that reads this peer's frames.) False when the peer is gone.
  virtual bool send(PeerId peer, const wire::Frame& f) = 0;

  /// Connectable address of this transport ("host:port" for tcp, the
  /// segment base name for shm).
  virtual std::string address() const = 0;
};

/// Client-side transport: one connection to a home process.
class ClientTransport {
 public:
  virtual ~ClientTransport() = default;

  /// Begin delivering incoming frames (in arrival order, from an internal
  /// receiver thread).
  virtual void start(std::function<void(wire::Frame&&)> on_frame,
                     std::function<void()> on_disconnect) = 0;

  /// Close the connection. Idempotent; no callbacks after stop().
  virtual void stop() = 0;

  /// Send one frame home. Thread-safe. False once disconnected.
  virtual bool send(const wire::Frame& f) = 0;
};

/// Transport selector (ORWL_DIST, read with support::resolve): off
/// (intra-process only, default), shm, tcp. Enumerators follow
/// support::knob::kDist's spellings. The transports' own knobs are
/// ORWL_DIST_PORT and ORWL_DIST_SHM_SLOTS (support/env.hpp).
enum class DistMode : std::uint8_t { Off, Shm, Tcp };

const char* to_string(DistMode m) noexcept;

}  // namespace orwl::dist
