#include "dist/transport.hpp"

#include <algorithm>
#include <thread>

#include "runtime/futex.hpp"
#include "support/env.hpp"

namespace orwl::dist {

const char* to_string(DistMode m) noexcept {
  return support::choice_name(support::knob::kDist, m);
}

// ---- ServerTransport: the home-side connection core ------------------------

void ServerTransport::start(Handlers handlers) {
  handlers_ = std::move(handlers);
  running_.store(true, std::memory_order_release);
  start_io();
}

void ServerTransport::stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  stop_io();
  for (;;) {
    PeerId peer = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (conns_.empty()) break;
      peer = conns_.begin()->first;
    }
    drop(peer);
  }
}

void ServerTransport::add(std::unique_ptr<Conn> c) {
  std::lock_guard<std::mutex> lock(mu_);
  c->id = next_peer_++;
  conns_[c->id] = std::move(c);
}

bool ServerTransport::deliver(Conn& c, const std::byte* p, std::size_t n) {
  return c.in.feed(p, n, [&](wire::Frame&& f) {
    if (handlers_.on_frame) handlers_.on_frame(c.id, std::move(f));
  });
}

bool ServerTransport::send(PeerId peer, const wire::Frame& f) {
  Conn* c = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = conns_.find(peer);
    if (it == conns_.end()) return false;
    c = it->second.get();
    // Registered while the table entry still exists, so drop() sees this
    // sender and waits for it before destroying the Conn.
    c->active_sends.fetch_add(1, std::memory_order_acq_rel);
  }
  std::vector<std::byte> bytes;
  wire::encode(f, bytes);
  bool ok = false;
  {
    std::lock_guard<std::mutex> lock(c->send_mu);
    if (!c->gone) {
      // Bytes queued earlier go first. What the connection does not take
      // now is queued: the sender may be this peer's own reader, or a
      // local releaser, and must not wait for the client to read.
      const bool idle = c->outbox.empty();
      const std::ptrdiff_t done =
          idle ? c->write_some(bytes.data(), bytes.size()) : 0;
      ok = done >= 0;
      if (ok && static_cast<std::size_t>(done) < bytes.size()) {
        c->outbox.insert(c->outbox.end(), bytes.begin() + done, bytes.end());
        if (idle) c->on_backlog(true);
      }
    }
  }
  c->active_sends.fetch_sub(1, std::memory_order_acq_rel);
  return ok;
}

std::ptrdiff_t ServerTransport::flush(Conn& c) {
  std::lock_guard<std::mutex> lock(c.send_mu);
  if (c.gone || c.outbox.empty()) return 0;
  const std::size_t left = c.outbox.size() - c.outbox_head;
  const std::ptrdiff_t done =
      c.write_some(c.outbox.data() + c.outbox_head, left);
  if (done < 0) return -1;
  if (static_cast<std::size_t>(done) < left) {
    c.outbox_head += static_cast<std::size_t>(done);
    return static_cast<std::ptrdiff_t>(left) - done;
  }
  c.outbox.clear();
  c.outbox_head = 0;
  c.on_backlog(false);
  return 0;
}

void ServerTransport::drop(PeerId peer) {
  std::unique_ptr<Conn> c;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = conns_.find(peer);
    if (it == conns_.end()) return;
    c = std::move(it->second);
    conns_.erase(it);
  }
  {
    std::lock_guard<std::mutex> lock(c->send_mu);
    c->gone = true;
  }
  c->shutdown();
  // A sender that found the Conn before it left the table may still hold
  // it raw; it sees `gone` under the send lock and leaves at once.
  while (c->active_sends.load(std::memory_order_acquire) != 0) {
    std::this_thread::yield();
  }
  if (running() && handlers_.on_disconnect) handlers_.on_disconnect(peer);
}

// ---- ClientTransport: the read role ---------------------------------------

namespace {

/// Longest single park of a waiter: it re-checks its deadline, and
/// whether the connection was stopped, at least this often.
constexpr auto kWaitSlice = std::chrono::milliseconds(100);

}  // namespace

void ClientTransport::start(std::function<void(wire::Frame&&)> on_frame,
                            std::function<void()> on_disconnect) {
  on_frame_ = std::move(on_frame);
  on_disconnect_ = std::move(on_disconnect);
}

bool ClientTransport::read_chunk(std::uint32_t timeout_ms) {
  if (stopped() || ended_.load(std::memory_order_acquire)) return false;
  const std::ptrdiff_t n = read_some(chunk_, sizeof chunk_, timeout_ms);
  if (n == 0) return false;
  if (n > 0 && in_.feed(chunk_, static_cast<std::size_t>(n),
                        [this](wire::Frame&& f) {
                          if (on_frame_) on_frame_(std::move(f));
                        })) {
    return true;
  }
  // End of stream (the home closed, or stop()) or a malformed one. The
  // handler runs before ended_ is set, so a waiter that sees ended_ sees
  // what the handler did.
  if (!stopped() && on_disconnect_) on_disconnect_();
  ended_.store(true, std::memory_order_release);
  return false;
}

void ClientTransport::release_role() {
  read_mu_.unlock();
  // Bump, then look for parked waiters (both seq_cst), against wait()'s
  // announce then re-read of seq_: either we see the waiter and wake it,
  // or it sees the new sequence and does not park. A lone waiter makes
  // no wake syscall.
  seq_.fetch_add(1, std::memory_order_seq_cst);
  if (parked_.load(std::memory_order_seq_cst) != 0) {
    rt::futex_wake(seq_, /*all=*/true);
  }
}

void ClientTransport::wait(const std::function<bool()>& done,
                           Clock::time_point deadline) {
  for (;;) {
    // Read the sequence before the predicate: a handler that changes the
    // predicate's state after this check bumps the sequence after it.
    const std::uint32_t seq = seq_.load(std::memory_order_seq_cst);
    if (done() || stopped() || ended_.load(std::memory_order_acquire)) {
      return;
    }
    const auto now = Clock::now();
    if (now >= deadline) return;
    const auto slice = std::min<Clock::duration>(kWaitSlice, deadline - now);
    const auto slice_ms = static_cast<std::uint32_t>(
        std::chrono::ceil<std::chrono::milliseconds>(slice).count());
    if (read_mu_.try_lock()) {
      const RoleGuard role{this};
      read_chunk(slice_ms);
      continue;
    }
    parked_.fetch_add(1, std::memory_order_seq_cst);
    if (seq_.load(std::memory_order_seq_cst) == seq) {
      rt::futex_wait(seq_, seq, slice_ms);
    }
    parked_.fetch_sub(1, std::memory_order_relaxed);
  }
}

void ClientTransport::poll() {
  if (!read_mu_.try_lock()) return;
  const RoleGuard role{this};
  while (read_chunk(0)) {
  }
}

bool ClientTransport::send(const wire::Frame& f) {
  std::vector<std::byte> bytes;
  wire::encode(f, bytes);
  std::lock_guard<std::mutex> lock(send_mu_);
  return !stopped() && write_all(bytes.data(), bytes.size());
}

void ClientTransport::stop() {
  stopped_.store(true, std::memory_order_release);
  shutdown();  // ends a read in progress, fails a send blocked in write_all
  // Wait out the role holder; a thread that takes the role later sees
  // stopped() and reads nothing. Then wake the parked waiters.
  read_mu_.lock();
  release_role();
  // A send in flight holds the lock until write_all returns; once stop()
  // has held it, no send touches the connection again, and the derived
  // destructor may free it.
  std::lock_guard<std::mutex> lock(send_mu_);
}

}  // namespace orwl::dist
