// TCP transport: ORWL locations across hosts.
//
// Frames are length-prefixed by their own wire header (payload_len), so
// the stream needs no extra framing. The home side runs one epoll-driven
// proxy thread that owns the listening socket and every client
// connection: reads are non-blocking and fan into the registry's frame
// handler. Writes take a per-connection mutex, so whichever thread grants
// a proxy ticket (a control thread, a local releaser, the epoll thread
// itself) can send its GRANT concurrently with the epoll loop. A send
// never waits for the client: bytes the socket does not take at once
// are queued on the connection and written by the epoll thread when the
// socket becomes writable.
// Loopback-testable; the interface above this file is transport agnostic
// (see transport.hpp) so RDMA can replace it wholesale.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

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

  void start(Handlers handlers) override;
  void stop() override;
  bool send(PeerId peer, const wire::Frame& f) override;
  std::string address() const override;
  std::uint16_t port() const noexcept { return port_; }

 private:
  struct Conn {
    int fd = -1;
    std::mutex send_mu;  ///< guards fd for senders and outbuf
    /// Bytes the socket did not take when sent, in send order; the epoll
    /// thread writes them out as the socket drains (EPOLLOUT).
    std::vector<std::byte> outbuf;
    std::vector<std::byte> inbuf;
    std::atomic<bool> gone{false};
    /// Senders inside send() past the conns_ lookup (they hold this
    /// Conn raw); drop_conn()/stop() drain it to zero before deleting.
    std::atomic<int> active_sends{0};
  };

  void epoll_loop();
  /// Write out c's outbuf as far as the socket takes it; stop watching
  /// for EPOLLOUT once it is empty. False on a broken connection.
  /// Requires c->send_mu held.
  bool flush_locked(Conn* c);
  void drop_conn(PeerId id, bool notify);

  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  std::uint16_t port_ = 0;
  Handlers handlers_;
  std::thread loop_;
  std::atomic<bool> running_{false};
  std::mutex mu_;  ///< guards conns_
  std::map<PeerId, std::unique_ptr<Conn>> conns_;
  PeerId next_peer_ = 1;
  std::map<int, PeerId> by_fd_;
};

/// Client side: one blocking socket plus a receiver thread.
class TcpClientTransport final : public ClientTransport {
 public:
  /// Connect to host:port. Throws std::runtime_error on failure.
  TcpClientTransport(const std::string& host, std::uint16_t port);
  ~TcpClientTransport() override;

  void start(std::function<void(wire::Frame&&)> on_frame,
             std::function<void()> on_disconnect) override;
  void stop() override;
  bool send(const wire::Frame& f) override;

 private:
  void recv_loop();

  int fd_ = -1;
  std::function<void(wire::Frame&&)> on_frame_;
  std::function<void()> on_disconnect_;
  std::thread reader_;
  std::mutex send_mu_;
  std::atomic<bool> running_{false};
};

}  // namespace orwl::dist
