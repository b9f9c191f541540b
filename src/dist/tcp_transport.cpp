#include "dist/tcp_transport.hpp"

#include <cerrno>
#include <cstring>
#include <stdexcept>

#if defined(__linux__)
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>
#endif

namespace orwl::dist {

#if defined(__linux__)

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

void set_nodelay(int fd) {
  // The grant path is a request/response ping-pong of tiny frames:
  // Nagle would serialize every hand-off onto the delayed-ACK clock.
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

/// Decode every whole frame in `buf`, compacting consumed bytes.
/// Returns false on a malformed stream.
template <typename Sink>
bool drain_frames(std::vector<std::byte>& buf, Sink&& sink) {
  std::size_t off = 0;
  for (;;) {
    wire::Frame f;
    const auto r = wire::decode(buf.data() + off, buf.size() - off, f);
    if (r.status == wire::DecodeStatus::Bad) return false;
    if (r.status == wire::DecodeStatus::NeedMore) break;
    off += r.consumed;
    sink(std::move(f));
  }
  if (off > 0) buf.erase(buf.begin(), buf.begin() + off);
  return true;
}

/// Write as much of [p, p+n) as the socket takes without blocking.
/// Returns the bytes written, or -1 when the connection is broken.
ssize_t send_some(int fd, const std::byte* p, std::size_t n) {
  std::size_t done = 0;
  while (done < n) {
    const ssize_t sent =
        ::send(fd, p + done, n - done, MSG_NOSIGNAL | MSG_DONTWAIT);
    if (sent > 0) {
      done += static_cast<std::size_t>(sent);
      continue;
    }
    if (sent < 0 && errno == EINTR) continue;
    if (sent < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    return -1;
  }
  return static_cast<ssize_t>(done);
}

/// Blocking-ish send over a non-blocking fd: polls through EAGAIN and
/// partial writes. Returns false when the peer or transport went away.
bool send_all(int fd, const std::byte* p, std::size_t n,
              const std::atomic<bool>& running) {
  while (n > 0) {
    const ssize_t sent = ::send(fd, p, n, MSG_NOSIGNAL);
    if (sent > 0) {
      p += sent;
      n -= static_cast<std::size_t>(sent);
      continue;
    }
    if (sent < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (!running.load(std::memory_order_acquire)) return false;
      pollfd pf{fd, POLLOUT, 0};
      ::poll(&pf, 1, 100);
      continue;
    }
    if (sent < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

}  // namespace

// ---- TcpServerTransport ---------------------------------------------------

TcpServerTransport::TcpServerTransport(std::uint16_t port) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) throw_errno("socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) !=
      0) {
    ::close(listen_fd_);
    throw_errno("bind");
  }
  if (::listen(listen_fd_, 64) != 0) {
    ::close(listen_fd_);
    throw_errno("listen");
  }
  socklen_t len = sizeof addr;
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
  set_nonblocking(listen_fd_);
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) {
    ::close(listen_fd_);
    throw_errno("epoll_create1");
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
}

TcpServerTransport::~TcpServerTransport() { stop(); }

std::string TcpServerTransport::address() const {
  return "127.0.0.1:" + std::to_string(port_);
}

void TcpServerTransport::start(Handlers handlers) {
  handlers_ = std::move(handlers);
  running_.store(true, std::memory_order_release);
  loop_ = std::thread([this] { epoll_loop(); });
}

void TcpServerTransport::epoll_loop() {
  epoll_event events[32];
  std::byte chunk[4096];
  while (running_.load(std::memory_order_acquire)) {
    const int n = ::epoll_wait(epoll_fd_, events, 32, 100);
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == listen_fd_) {
        for (;;) {
          const int cfd = ::accept4(listen_fd_, nullptr, nullptr,
                                    SOCK_NONBLOCK | SOCK_CLOEXEC);
          if (cfd < 0) break;
          set_nodelay(cfd);
          auto conn = std::make_unique<Conn>();
          conn->fd = cfd;
          PeerId id;
          {
            std::lock_guard<std::mutex> lock(mu_);
            id = next_peer_++;
            by_fd_[cfd] = id;
            conns_[id] = std::move(conn);
          }
          epoll_event ev{};
          ev.events = EPOLLIN;
          ev.data.fd = cfd;
          ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, cfd, &ev);
          (void)id;
        }
        continue;
      }
      PeerId id = 0;
      Conn* c = nullptr;
      {
        std::lock_guard<std::mutex> lock(mu_);
        const auto it = by_fd_.find(fd);
        if (it == by_fd_.end()) continue;
        id = it->second;
        c = conns_[id].get();
      }
      bool drop = false;
      if ((events[i].events & EPOLLOUT) != 0) {
        std::lock_guard<std::mutex> lock(c->send_mu);
        drop = !flush_locked(c);  // still read what the peer sent
      }
      for (;;) {
        const ssize_t got = ::recv(fd, chunk, sizeof chunk, 0);
        if (got > 0) {
          c->inbuf.insert(c->inbuf.end(), chunk, chunk + got);
          continue;
        }
        if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        if (got < 0 && errno == EINTR) continue;
        drop = true;  // orderly close or hard error
        break;
      }
      // Drain even when the peer hung up: the frames that raced the FIN
      // into this event (typically DATA + RELEASE + BYE of an orderly
      // close) must be processed before the disconnect bookkeeping.
      if (!drain_frames(c->inbuf, [&](wire::Frame&& f) {
            if (handlers_.on_frame) handlers_.on_frame(id, std::move(f));
          })) {
        drop = true;  // malformed stream
      }
      if (drop) drop_conn(id, /*notify=*/true);
    }
  }
}

void TcpServerTransport::drop_conn(PeerId id, bool notify) {
  std::unique_ptr<Conn> conn;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = conns_.find(id);
    if (it == conns_.end()) return;
    conn = std::move(it->second);
    conns_.erase(it);
    by_fd_.erase(conn->fd);
  }
  conn->gone.store(true, std::memory_order_release);
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
  {
    // A thread shipping a grant may be mid-send on this connection:
    // closing the fd under it would race the descriptor number. Take the
    // send mutex first.
    std::lock_guard<std::mutex> lock(conn->send_mu);
    ::close(conn->fd);
    conn->fd = -1;
  }
  // A sender that looked the conn up before the erase above may still
  // hold the raw pointer; it exits promptly (gone is set, fd is -1), so
  // drain it before the unique_ptr destroys the Conn.
  while (conn->active_sends.load(std::memory_order_acquire) != 0) {
    std::this_thread::yield();
  }
  if (notify && handlers_.on_disconnect) handlers_.on_disconnect(id);
}

bool TcpServerTransport::flush_locked(Conn* c) {
  const ssize_t sent = send_some(c->fd, c->outbuf.data(), c->outbuf.size());
  if (sent < 0) return false;
  c->outbuf.erase(c->outbuf.begin(), c->outbuf.begin() + sent);
  if (c->outbuf.empty()) {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = c->fd;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, c->fd, &ev);
  }
  return true;
}

bool TcpServerTransport::send(PeerId peer, const wire::Frame& f) {
  std::vector<std::byte> bytes;
  wire::encode(f, bytes);
  // Hold mu_ only to find the conn; sending holds the per-conn mutex so
  // concurrent grant shippers serialize per peer, not across peers.
  Conn* c = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = conns_.find(peer);
    if (it == conns_.end()) return false;
    c = it->second.get();
    // Registered while the map entry still exists, so whoever later
    // removes the conn (drop_conn or stop) sees this sender and drains
    // the counter before destroying the Conn.
    c->active_sends.fetch_add(1, std::memory_order_acq_rel);
  }
  bool ok = false;
  {
    std::lock_guard<std::mutex> lock(c->send_mu);
    if (!c->gone.load(std::memory_order_acquire) && c->fd >= 0) {
      // Bytes queued earlier go first. What the socket does not take now
      // is queued: the sender may be the epoll thread itself, or a
      // control thread, and must not wait for this client to read.
      ssize_t sent = 0;
      if (c->outbuf.empty()) {
        sent = send_some(c->fd, bytes.data(), bytes.size());
      }
      ok = sent >= 0;
      if (ok && static_cast<std::size_t>(sent) < bytes.size()) {
        if (c->outbuf.empty()) {
          epoll_event ev{};
          ev.events = EPOLLIN | EPOLLOUT;
          ev.data.fd = c->fd;
          ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, c->fd, &ev);
        }
        c->outbuf.insert(c->outbuf.end(), bytes.begin() + sent, bytes.end());
      }
    }
  }
  c->active_sends.fetch_sub(1, std::memory_order_acq_rel);
  return ok;
}

void TcpServerTransport::stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) {
    if (epoll_fd_ >= 0) ::close(epoll_fd_), epoll_fd_ = -1;
    if (listen_fd_ >= 0) ::close(listen_fd_), listen_fd_ = -1;
    return;
  }
  if (loop_.joinable()) loop_.join();
  std::map<PeerId, std::unique_ptr<Conn>> conns;
  {
    std::lock_guard<std::mutex> lock(mu_);
    conns.swap(conns_);
    by_fd_.clear();
  }
  // A grant shipper may still be inside send() holding a raw Conn*;
  // send() never waits on the socket, so each counter drains fast. Only
  // then is it safe to close fds and destroy the conns.
  for (auto& [id, c] : conns) {
    c->gone.store(true, std::memory_order_release);
  }
  for (auto& [id, c] : conns) {
    while (c->active_sends.load(std::memory_order_acquire) != 0) {
      std::this_thread::yield();
    }
    if (c->fd >= 0) ::close(c->fd);
  }
  if (epoll_fd_ >= 0) ::close(epoll_fd_), epoll_fd_ = -1;
  if (listen_fd_ >= 0) ::close(listen_fd_), listen_fd_ = -1;
}

// ---- TcpClientTransport ---------------------------------------------------

TcpClientTransport::TcpClientTransport(const std::string& host,
                                       std::uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) throw_errno("socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd_);
    throw std::runtime_error("tcp connect: bad host \"" + host + "\"");
  }
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd_);
    throw_errno("connect " + host + ":" + std::to_string(port));
  }
  set_nodelay(fd_);
}

TcpClientTransport::~TcpClientTransport() { stop(); }

void TcpClientTransport::start(std::function<void(wire::Frame&&)> on_frame,
                               std::function<void()> on_disconnect) {
  on_frame_ = std::move(on_frame);
  on_disconnect_ = std::move(on_disconnect);
  running_.store(true, std::memory_order_release);
  reader_ = std::thread([this] { recv_loop(); });
}

void TcpClientTransport::recv_loop() {
  std::vector<std::byte> buf;
  std::byte chunk[4096];
  while (running_.load(std::memory_order_acquire)) {
    const ssize_t got = ::recv(fd_, chunk, sizeof chunk, 0);
    if (got > 0) {
      buf.insert(buf.end(), chunk, chunk + got);
      if (!drain_frames(buf, [&](wire::Frame&& f) {
            if (on_frame_) on_frame_(std::move(f));
          })) {
        break;
      }
      continue;
    }
    if (got < 0 && errno == EINTR) continue;
    break;  // orderly close, hard error, or shutdown() from stop()
  }
  if (running_.load(std::memory_order_acquire) && on_disconnect_) {
    on_disconnect_();
  }
}

bool TcpClientTransport::send(const wire::Frame& f) {
  std::vector<std::byte> bytes;
  wire::encode(f, bytes);
  std::lock_guard<std::mutex> lock(send_mu_);
  if (fd_ < 0) return false;
  return send_all(fd_, bytes.data(), bytes.size(), running_);
}

void TcpClientTransport::stop() {
  const bool was_running = running_.exchange(false, std::memory_order_acq_rel);
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);  // unblocks the reader's recv
  if (was_running && reader_.joinable()) reader_.join();
  std::lock_guard<std::mutex> lock(send_mu_);
  if (fd_ >= 0) ::close(fd_), fd_ = -1;
}

#else  // !__linux__

TcpServerTransport::TcpServerTransport(std::uint16_t) {
  throw std::runtime_error("TcpServerTransport requires Linux");
}
TcpServerTransport::~TcpServerTransport() = default;
std::string TcpServerTransport::address() const { return ""; }
void TcpServerTransport::start(Handlers) {}
void TcpServerTransport::epoll_loop() {}
bool TcpServerTransport::flush_locked(Conn*) { return false; }
void TcpServerTransport::drop_conn(PeerId, bool) {}
bool TcpServerTransport::send(PeerId, const wire::Frame&) { return false; }
void TcpServerTransport::stop() {}

TcpClientTransport::TcpClientTransport(const std::string&, std::uint16_t) {
  throw std::runtime_error("TcpClientTransport requires Linux");
}
TcpClientTransport::~TcpClientTransport() = default;
void TcpClientTransport::start(std::function<void(wire::Frame&&)>,
                               std::function<void()>) {}
void TcpClientTransport::recv_loop() {}
bool TcpClientTransport::send(const wire::Frame&) { return false; }
void TcpClientTransport::stop() {}

#endif

}  // namespace orwl::dist
