#include "dist/tcp_transport.hpp"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <thread>

#if defined(__linux__)
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
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

}  // namespace

// ---- TcpServerTransport ---------------------------------------------------

/// One accepted socket; its epoll data is the TcpConn itself (nullptr
/// marks the listening socket, &wake_fd_ the stop eventfd). Dropped, and
/// so destroyed, only by the epoll thread or by stop() once that thread
/// has exited, so an event's pointer is valid while the event is handled.
struct TcpServerTransport::TcpConn final : ServerTransport::Conn {
  int fd = -1;
  int epoll_fd = -1;

  ~TcpConn() override { ::close(fd); }

  std::ptrdiff_t write_some(const std::byte* p, std::size_t n) override {
    return send_some(fd, p, n);
  }

  void on_backlog(bool waiting) override {
    epoll_event ev{};
    ev.events = waiting ? EPOLLIN | EPOLLOUT : EPOLLIN;
    ev.data.ptr = this;
    ::epoll_ctl(epoll_fd, EPOLL_CTL_MOD, fd, &ev);
  }

  void shutdown() override {
    ::epoll_ctl(epoll_fd, EPOLL_CTL_DEL, fd, nullptr);
    ::shutdown(fd, SHUT_RDWR);
  }
};

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
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (wake_fd_ < 0) {
    ::close(epoll_fd_);
    ::close(listen_fd_);
    throw_errno("eventfd");
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.ptr = nullptr;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
  ev.data.ptr = &wake_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);
}

TcpServerTransport::~TcpServerTransport() {
  stop();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  ::close(wake_fd_);
  ::close(epoll_fd_);
}

std::string TcpServerTransport::address() const {
  return "127.0.0.1:" + std::to_string(port_);
}

void TcpServerTransport::start_io() {
  loop_ = std::thread([this] { epoll_loop(); });
}

void TcpServerTransport::stop_io() {
  // The loop parks in epoll_wait with a timeout; wake it so stop()
  // returns now. It sees running() false and exits.
  const std::uint64_t one = 1;
  (void)!::write(wake_fd_, &one, sizeof one);
  if (loop_.joinable()) loop_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
}

void TcpServerTransport::accept_all() {
  for (;;) {
    const int cfd =
        ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (cfd < 0) return;
    set_nodelay(cfd);
    auto conn = std::make_unique<TcpConn>();
    conn->fd = cfd;
    conn->epoll_fd = epoll_fd_;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.ptr = conn.get();
    add(std::move(conn));
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, cfd, &ev);
  }
}

void TcpServerTransport::epoll_loop() {
  using Clock = std::chrono::steady_clock;
  epoll_event events[32];
  std::byte chunk[4096];
  auto last_event = Clock::now();
  while (running()) {
    // Poll for kReaderSpin after the last event, yielding between polls,
    // then park: the next frame of a closed loop (the RELEASE after a
    // GRANT, the next REQ) usually lands within the window, and this
    // thread then pays no wakeup for it.
    const bool polling = Clock::now() - last_event < kReaderSpin;
    const int n = ::epoll_wait(epoll_fd_, events, 32, polling ? 0 : 100);
    if (n <= 0) {
      if (polling) std::this_thread::yield();
      continue;
    }
    for (int i = 0; i < n; ++i) {
      if (events[i].data.ptr == &wake_fd_) continue;  // stop_io()
      auto* c = static_cast<TcpConn*>(events[i].data.ptr);
      if (c == nullptr) {
        accept_all();
        continue;
      }
      // A broken write still reads what the peer sent.
      bool ok = (events[i].events & EPOLLOUT) == 0 || flush(*c) >= 0;
      for (;;) {
        const ssize_t got = ::recv(c->fd, chunk, sizeof chunk, 0);
        if (got > 0) {
          if (deliver(*c, chunk, static_cast<std::size_t>(got))) continue;
          ok = false;  // malformed stream
          break;
        }
        if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        if (got < 0 && errno == EINTR) continue;
        ok = false;  // orderly close or hard error
        break;
      }
      // Frames that raced the FIN into this event (typically the
      // RELEASE + BYE of an orderly close) were delivered above, before
      // the disconnect bookkeeping.
      if (!ok) drop(c->id);
    }
    last_event = Clock::now();
  }
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

TcpClientTransport::~TcpClientTransport() {
  stop();
  ::close(fd_);
}

std::ptrdiff_t TcpClientTransport::read_some(std::byte* p, std::size_t n,
                                             std::uint32_t timeout_ms) {
  // Poll the socket for kReaderSpin, yielding between tries, before
  // parking in poll(): the GRANT of a closed loop usually lands within
  // the window, and this thread then pays no wakeup for it. A call that
  // must not wait tries once.
  const auto spin_until = std::chrono::steady_clock::now() + kReaderSpin;
  for (;;) {
    const ssize_t got = ::recv(fd_, p, n, MSG_DONTWAIT);
    if (got > 0) return got;
    if (got == 0 ||
        (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR)) {
      return -1;  // orderly close, hard error, or shutdown()
    }
    if (timeout_ms == 0) return 0;
    if (std::chrono::steady_clock::now() >= spin_until) break;
    std::this_thread::yield();
  }
  pollfd pfd{fd_, POLLIN, 0};
  const int ready = ::poll(&pfd, 1, static_cast<int>(timeout_ms));
  if (ready == 0 || (ready < 0 && errno == EINTR)) return 0;
  const ssize_t got = ::recv(fd_, p, n, MSG_DONTWAIT);
  if (got > 0) return got;
  if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) {
    return 0;
  }
  return -1;  // orderly close, hard error, or shutdown()
}

bool TcpClientTransport::write_all(const std::byte* p, std::size_t n) {
  while (n > 0) {
    const ssize_t sent = ::send(fd_, p, n, MSG_NOSIGNAL);
    if (sent > 0) {
      p += sent;
      n -= static_cast<std::size_t>(sent);
      continue;
    }
    if (sent < 0 && errno == EINTR) continue;
    return false;  // broken, or shutdown()
  }
  return true;
}

void TcpClientTransport::shutdown() { ::shutdown(fd_, SHUT_RDWR); }

#else  // !__linux__

TcpServerTransport::TcpServerTransport(std::uint16_t) {
  throw std::runtime_error("TcpServerTransport requires Linux");
}
TcpServerTransport::~TcpServerTransport() = default;
std::string TcpServerTransport::address() const { return ""; }
void TcpServerTransport::start_io() {}
void TcpServerTransport::stop_io() {}
void TcpServerTransport::epoll_loop() {}
void TcpServerTransport::accept_all() {}

TcpClientTransport::TcpClientTransport(const std::string&, std::uint16_t) {
  throw std::runtime_error("TcpClientTransport requires Linux");
}
TcpClientTransport::~TcpClientTransport() = default;
std::ptrdiff_t TcpClientTransport::read_some(std::byte*, std::size_t,
                                             std::uint32_t) {
  return -1;
}
bool TcpClientTransport::write_all(const std::byte*, std::size_t) {
  return false;
}
void TcpClientTransport::shutdown() {}

#endif

}  // namespace orwl::dist
