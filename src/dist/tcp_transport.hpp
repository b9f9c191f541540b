// TCP transport: ORWL locations across hosts.
//
// Frames are length-prefixed by their own wire header (payload_len), so
// the stream needs no extra framing. The home side runs one epoll-driven
// proxy thread that owns the listening socket and every client
// connection: reads are non-blocking and fan into the registry's frame
// handler. Sends go through the connection core (transport.hpp), so
// whichever thread grants a proxy ticket (a local releaser, the epoll
// thread itself) writes its GRANT at once; bytes the
// socket does not take wait in the connection's outbox, and the epoll
// thread writes them out when the socket becomes writable (EPOLLOUT).
// stop() wakes the epoll thread through an eventfd in its epoll set.
// The client side is one socket and no thread: the thread holding the
// read role (transport.hpp) polls the socket and reads what is there.
// Both readers, like the shm ones, poll for kReaderSpin (transport.hpp)
// before they park: the epoll thread keeps calling epoll_wait with a
// zero timeout for that long after its last event, and the client
// retries a non-blocking recv before it calls poll(). Each try yields,
// so a home and a client that share one PU still take turns. A closed
// loop's next frame usually lands within the budget, so neither side
// pays a wakeup per frame.
// Loopback-testable; the interface above this file is transport agnostic
// (see transport.hpp) so RDMA can replace it wholesale.
#pragma once

#include <cstdint>
#include <string>
#include <thread>

#include "dist/transport.hpp"

namespace orwl::dist {

/// Home side: listener plus epoll proxy thread.
class TcpServerTransport final : public ServerTransport {
 public:
  /// Bind and listen on `port` (0 = ephemeral; the actual port is
  /// reported by address()/port()). Throws std::runtime_error on bind
  /// failure.
  explicit TcpServerTransport(std::uint16_t port = 0);
  ~TcpServerTransport() override;

  std::string address() const override;
  std::uint16_t port() const noexcept { return port_; }

 private:
  struct TcpConn;

  void start_io() override;
  void stop_io() override;
  void epoll_loop();
  void accept_all();

  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;  ///< eventfd in the epoll set; stop_io() signals it
  std::uint16_t port_ = 0;
  std::thread loop_;
};

/// Client side: one socket, read by the thread holding the read role.
class TcpClientTransport final : public ClientTransport {
 public:
  /// Connect to host:port. Throws std::runtime_error on failure.
  TcpClientTransport(const std::string& host, std::uint16_t port);
  ~TcpClientTransport() override;

 private:
  std::ptrdiff_t read_some(std::byte* p, std::size_t n,
                           std::uint32_t timeout_ms) override;
  bool write_all(const std::byte* p, std::size_t n) override;
  void shutdown() override;

  int fd_ = -1;
};

}  // namespace orwl::dist
