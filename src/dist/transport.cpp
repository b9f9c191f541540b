#include "dist/transport.hpp"

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
      // control thread, and must not wait for the client to read.
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

// ---- ClientTransport ------------------------------------------------------

void ClientTransport::start(std::function<void(wire::Frame&&)> on_frame,
                            std::function<void()> on_disconnect) {
  on_frame_ = std::move(on_frame);
  on_disconnect_ = std::move(on_disconnect);
  running_.store(true, std::memory_order_release);
  reader_ = std::thread([this] { read_loop(); });
}

void ClientTransport::read_loop() {
  wire::FrameStream stream;
  const wire::FrameStream::Sink sink = [this](wire::Frame&& f) {
    if (on_frame_) on_frame_(std::move(f));
  };
  std::byte chunk[4096];
  while (running_.load(std::memory_order_acquire)) {
    // End of stream (the home closed, or stop()) or a malformed one.
    const std::size_t n = read_some(chunk, sizeof chunk);
    if (n == 0 || !stream.feed(chunk, n, sink)) break;
  }
  if (running_.load(std::memory_order_acquire) && on_disconnect_) {
    on_disconnect_();
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
  const bool was_running = running_.exchange(false, std::memory_order_acq_rel);
  shutdown();  // wakes the reader, and a sender blocked in write_all
  if (was_running && reader_.joinable()) reader_.join();
  // A send in flight holds the lock until write_all returns; once stop()
  // has held it, no send touches the connection again, and the derived
  // destructor may free it.
  std::lock_guard<std::mutex> lock(send_mu_);
}

}  // namespace orwl::dist
