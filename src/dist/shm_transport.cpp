#include "dist/shm_transport.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>

#include "runtime/futex.hpp"

#if defined(__linux__)
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace orwl::dist {

namespace {

constexpr std::uint32_t kListenMagic = 0x4f52574cu;  // "ORWL"

/// Listen-segment header: a connection-id allocator plus the announce
/// doorbell the home side's listener futex-waits on.
struct ListenHeader {
  std::atomic<std::uint32_t> magic;
  std::atomic<std::uint32_t> announce;  ///< bumped once per ready segment
  std::atomic<std::uint32_t> next_id;   ///< connection-id allocator
  std::uint32_t ring_slots;             ///< server-chosen ring capacity
};

/// Connection-segment header; the two rings follow at 64-byte offsets.
struct ConnHeader {
  std::atomic<std::uint32_t> ready;  ///< client sets 1 once rings exist
  std::uint32_t ring_capacity;       ///< rounded payload bytes per ring
};

std::size_t round_up_pow2(std::size_t v) noexcept {
  std::size_t p = 16;
  while (p < v) p <<= 1;
  return p;
}

std::size_t ring_block_bytes(std::size_t capacity) noexcept {
  const std::size_t raw = ShmRing::bytes_for(capacity);
  return (raw + 63) / 64 * 64;
}

std::size_t conn_segment_bytes(std::size_t capacity) noexcept {
  return 64 + 2 * ring_block_bytes(capacity);
}

std::string shm_path(const std::string& base) { return "/" + base; }

#if defined(__linux__)
/// mmap a shm object; creates (O_EXCL) when `create`, sizing to `bytes`.
/// Returns nullptr on ENOENT when attaching to a missing segment.
void* map_segment(const std::string& name, std::size_t bytes, bool create) {
  const int flags = create ? O_RDWR | O_CREAT | O_EXCL : O_RDWR;
  const int fd = ::shm_open(name.c_str(), flags, 0600);
  if (fd < 0) {
    if (!create && errno == ENOENT) return nullptr;
    throw std::runtime_error("shm_open(" + name + "): " +
                             std::strerror(errno));
  }
  if (create && ::ftruncate(fd, static_cast<off_t>(bytes)) != 0) {
    ::close(fd);
    ::shm_unlink(name.c_str());
    throw std::runtime_error("ftruncate(" + name + "): " +
                             std::strerror(errno));
  }
  void* mem = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_SHARED, fd,
                     0);
  ::close(fd);
  if (mem == MAP_FAILED) {
    if (create) ::shm_unlink(name.c_str());
    throw std::runtime_error("mmap(" + name + "): " + std::strerror(errno));
  }
  return mem;
}
#endif

// Ring and segment words live in memory mapped by both processes, so
// every park and wake on them is process-shared. A zero timeout polls
// (futex_wait itself reads 0 as "wait forever").
void shm_wait(std::atomic<std::uint32_t>& w, std::uint32_t expect,
              std::uint32_t timeout_ms) {
  if (timeout_ms > 0) {
    rt::futex_wait(w, expect, timeout_ms, rt::FutexScope::Shared);
  }
}

void shm_wake_all(std::atomic<std::uint32_t>& w) {
  rt::futex_wake(w, /*all=*/true, rt::FutexScope::Shared);
}

/// How long a home connection reader polls its empty ring before it
/// parks. Longer than one remote write cycle (about 10-25 us on one
/// host), so a client in a closed loop finds the reader awake and skips
/// the futex wake. The client reader does not poll: the thread it hands
/// frames to is the one that would run next on its PU.
constexpr std::chrono::microseconds kHomeReaderSpin{50};

}  // namespace

// ---- ShmRing --------------------------------------------------------------

std::size_t ShmRing::bytes_for(std::size_t capacity) noexcept {
  return sizeof(ShmRing) + round_up_pow2(capacity);
}

ShmRing* ShmRing::init(void* mem, std::size_t capacity) noexcept {
  auto* r = new (mem) ShmRing();
  r->capacity_ = round_up_pow2(capacity);
  return r;
}

void ShmRing::write(const std::byte* p, std::size_t n,
                    std::uint64_t tail) noexcept {
  const std::size_t pos = static_cast<std::size_t>(tail & (capacity_ - 1));
  const std::size_t first =
      n < capacity_ - pos ? n : static_cast<std::size_t>(capacity_) - pos;
  std::memcpy(buf() + pos, p, first);
  std::memcpy(buf(), p + first, n - first);
  tail_.store(tail + n, std::memory_order_seq_cst);
  doorbell_.fetch_add(1, std::memory_order_release);
  if (consumers_parked_.load(std::memory_order_seq_cst) != 0) {
    shm_wake_all(doorbell_);
  }
}

std::size_t ShmRing::push_some(const std::byte* p, std::size_t n) noexcept {
  const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
  const std::uint64_t head = head_.load(std::memory_order_acquire);
  const std::size_t space = static_cast<std::size_t>(capacity_ - (tail - head));
  const std::size_t chunk = n < space ? n : space;
  if (chunk > 0) write(p, chunk, tail);
  return chunk;
}

bool ShmRing::push(const std::byte* p, std::size_t n,
                   const std::function<bool()>& abort) {
  while (n > 0) {
    const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    std::size_t space = 0;
    for (;;) {
      const std::uint64_t head = head_.load(std::memory_order_acquire);
      space = static_cast<std::size_t>(capacity_ - (tail - head));
      if (space > 0) break;
      if (abort && abort()) return false;
      // Announce, then re-check (both seq_cst), against pop()'s head
      // store then announcement load: either pop sees us and wakes, or
      // we see its new head and do not park.
      const std::uint32_t bell = space_bell_.load(std::memory_order_acquire);
      producers_parked_.fetch_add(1, std::memory_order_seq_cst);
      if (head_.load(std::memory_order_seq_cst) == head) {
        shm_wait(space_bell_, bell, 10);
      }
      producers_parked_.fetch_sub(1, std::memory_order_relaxed);
    }
    const std::size_t chunk = n < space ? n : space;
    write(p, chunk, tail);
    p += chunk;
    n -= chunk;
  }
  return true;
}

std::size_t ShmRing::pop(std::byte* out, std::size_t max,
                         std::uint32_t timeout_ms,
                         std::chrono::nanoseconds spin) {
  const std::uint64_t mask = capacity_ - 1;
  std::uint64_t head = head_.load(std::memory_order_relaxed);
  std::uint64_t tail = tail_.load(std::memory_order_acquire);
  if (tail == head && spin.count() > 0) {
    const auto until = std::chrono::steady_clock::now() + spin;
    while (tail == head && !closed() &&
           std::chrono::steady_clock::now() < until) {
      std::this_thread::yield();
      tail = tail_.load(std::memory_order_acquire);
    }
  }
  if (tail == head) {
    // The bell is read before closed(): close() sets the flag, then
    // bumps the bell, so a close we miss here still ends the wait.
    const std::uint32_t bell = doorbell_.load(std::memory_order_acquire);
    if (closed()) return 0;
    // Announce, then re-check (both seq_cst), against push()'s tail
    // store then announcement load: either push sees us and wakes, or we
    // see its new tail and do not park.
    consumers_parked_.fetch_add(1, std::memory_order_seq_cst);
    if (tail_.load(std::memory_order_seq_cst) == head) {
      shm_wait(doorbell_, bell, timeout_ms);
    }
    consumers_parked_.fetch_sub(1, std::memory_order_relaxed);
    tail = tail_.load(std::memory_order_acquire);
    if (tail == head) return 0;
  }
  const std::size_t avail = static_cast<std::size_t>(tail - head);
  const std::size_t chunk = avail < max ? avail : max;
  const std::size_t pos = static_cast<std::size_t>(head & mask);
  const std::size_t first =
      chunk < capacity_ - pos ? chunk : static_cast<std::size_t>(capacity_) -
                                            pos;
  std::memcpy(out, buf() + pos, first);
  std::memcpy(out + first, buf(), chunk - first);
  head_.store(head + chunk, std::memory_order_seq_cst);
  space_bell_.fetch_add(1, std::memory_order_release);
  if (producers_parked_.load(std::memory_order_seq_cst) != 0) {
    shm_wake_all(space_bell_);
  }
  return chunk;
}

void ShmRing::close() noexcept {
  closed_.store(1, std::memory_order_release);
  doorbell_.fetch_add(1, std::memory_order_release);
  shm_wake_all(doorbell_);
}

// ---- frame stream decoding shared by both sides ---------------------------

namespace {

/// Accumulates ring bytes and peels off whole frames. Returns false on a
/// malformed stream (caller drops the connection).
class FrameStream {
 public:
  template <typename Sink>
  bool feed(const std::byte* p, std::size_t n, Sink&& sink) {
    buf_.insert(buf_.end(), p, p + n);
    std::size_t off = 0;
    for (;;) {
      wire::Frame f;
      const auto r = wire::decode(buf_.data() + off, buf_.size() - off, f);
      if (r.status == wire::DecodeStatus::Bad) return false;
      if (r.status == wire::DecodeStatus::NeedMore) break;
      off += r.consumed;
      sink(std::move(f));
    }
    if (off > 0) buf_.erase(buf_.begin(), buf_.begin() + off);
    return true;
  }

 private:
  std::vector<std::byte> buf_;
};

}  // namespace

// ---- ShmServerTransport ---------------------------------------------------

ShmServerTransport::ShmServerTransport(std::string base,
                                       std::size_t ring_slots)
    : base_(std::move(base)), ring_slots_(ring_slots) {
#if defined(__linux__)
  listen_bytes_ = sizeof(ListenHeader);
  listen_map_ = map_segment(shm_path(base_), listen_bytes_, /*create=*/true);
  auto* h = new (listen_map_) ListenHeader();
  h->ring_slots = static_cast<std::uint32_t>(ring_slots_);
  h->magic.store(kListenMagic, std::memory_order_release);
#else
  throw std::runtime_error("ShmServerTransport: shm requires Linux");
#endif
}

ShmServerTransport::~ShmServerTransport() { stop(); }

void ShmServerTransport::start(Handlers handlers) {
  handlers_ = std::move(handlers);
  running_.store(true, std::memory_order_release);
  listener_ = std::thread([this] { listen_loop(); });
}

void ShmServerTransport::listen_loop() {
#if defined(__linux__)
  auto* h = static_cast<ListenHeader*>(listen_map_);
  std::uint32_t accepted = 0;
  while (running_.load(std::memory_order_acquire)) {
    const std::uint32_t announced =
        h->announce.load(std::memory_order_acquire);
    if (accepted >= announced) {
      shm_wait(h->announce, announced, 100);
      continue;
    }
    // Announce order need not match id order (clients race between id
    // allocation and segment creation), so sweep the id space.
    const std::uint32_t ids = h->next_id.load(std::memory_order_acquire);
    std::uint32_t now_accepted = accepted;
    for (std::uint32_t id = 0; id < ids; ++id) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (conns_.count(id) != 0) continue;
      }
      if (try_accept(id)) ++now_accepted;
    }
    accepted = now_accepted;
  }
#endif
}

bool ShmServerTransport::try_accept(std::uint32_t id) {
#if defined(__linux__)
  const std::string name = shm_path(base_) + ".c" + std::to_string(id);
  const std::size_t cap = round_up_pow2(ring_slots_ * kShmSlotBytes);
  const std::size_t bytes = conn_segment_bytes(cap);
  void* mem = map_segment(name, bytes, /*create=*/false);
  if (mem == nullptr) return false;  // not created yet; next sweep retries
  auto* ch = static_cast<ConnHeader*>(mem);
  if (ch->ready.load(std::memory_order_acquire) == 0) {
    shm_wait(ch->ready, 0, 50);
    if (ch->ready.load(std::memory_order_acquire) == 0) {
      ::munmap(mem, bytes);
      return false;
    }
  }
  auto conn = std::make_unique<Conn>();
  conn->map = mem;
  conn->map_bytes = bytes;
  conn->seg_name = name;
  auto* block = static_cast<std::byte*>(mem) + 64;
  conn->c2s = ShmRing::at(block);
  conn->s2c = ShmRing::at(block + ring_block_bytes(cap));
  Conn* raw = conn.get();
  {
    std::lock_guard<std::mutex> lock(mu_);
    conns_[id] = std::move(conn);
  }
  raw->reader = std::thread([this, id, raw] { conn_loop(id, raw); });
  return true;
#else
  (void)id;
  return false;
#endif
}

void ShmServerTransport::conn_loop(PeerId id, Conn* c) {
  FrameStream stream;
  std::byte chunk[4096];
  const auto deliver = [&](std::size_t n) {
    return stream.feed(chunk, n, [&](wire::Frame&& f) {
      if (handlers_.on_frame) handlers_.on_frame(id, std::move(f));
    });
  };
  bool ok = true;  // false on a malformed stream: drop the peer
  while (ok && running_.load(std::memory_order_acquire)) {
    const std::size_t n =
        c->c2s->pop(chunk, sizeof chunk, 100, kHomeReaderSpin);
    if (n == 0) {
      if (c->c2s->closed() && c->c2s->readable() == 0) break;
      continue;
    }
    ok = deliver(n);
  }
  // Woken by stop(): deliver what the client sent before it (typically a
  // last DATA + RELEASE + BYE), but nothing it sends later.
  if (!running_.load(std::memory_order_acquire)) {
    for (std::size_t left = c->c2s->readable(); ok && left > 0;) {
      const std::size_t n =
          c->c2s->pop(chunk, std::min(sizeof chunk, left), 0);
      if (n == 0) break;
      left -= n;
      ok = deliver(n);
    }
  }
  {
    std::lock_guard<std::mutex> lock(c->send_mu);
    c->gone.store(true, std::memory_order_release);
  }
  c->writer_cv.notify_all();
  if (running_.load(std::memory_order_acquire) && handlers_.on_disconnect) {
    handlers_.on_disconnect(id);
  }
}

bool ShmServerTransport::send(PeerId peer, const wire::Frame& f) {
  Conn* c = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = conns_.find(peer);
    if (it == conns_.end()) return false;
    c = it->second.get();
    // Registered while the map entry still exists, so stop() sees this
    // sender and drains the counter before destroying the Conn.
    c->active_sends.fetch_add(1, std::memory_order_acq_rel);
  }
  bool ok = false;
  if (!c->gone.load(std::memory_order_acquire)) {
    std::vector<std::byte> bytes;
    wire::encode(f, bytes);
    std::lock_guard<std::mutex> lock(c->send_mu);
    ok = !c->gone.load(std::memory_order_acquire);
    // Written inline as far as the ring has room, unless bytes are
    // waiting ahead of it. The rest joins the backlog: the sender may be
    // this connection's own reader, or a control thread, and must not
    // wait for the client to read.
    std::size_t done = 0;
    if (ok && !c->flushing && c->backlog.empty()) {
      done = c->s2c->push_some(bytes.data(), bytes.size());
    }
    if (ok && done < bytes.size()) {
      c->backlog.insert(c->backlog.end(), bytes.begin() + done, bytes.end());
      if (!c->writer.joinable()) {
        c->writer = std::thread([this, c] { write_loop(c); });
      }
      c->writer_cv.notify_one();
    }
  }
  c->active_sends.fetch_sub(1, std::memory_order_acq_rel);
  return ok;
}

void ShmServerTransport::write_loop(Conn* c) {
  const auto abort = [this, c] {
    return !running_.load(std::memory_order_acquire) ||
           c->gone.load(std::memory_order_acquire);
  };
  std::vector<std::byte> out;
  std::unique_lock<std::mutex> lock(c->send_mu);
  for (;;) {
    c->writer_cv.wait(lock, [&] { return !c->backlog.empty() || abort(); });
    if (abort()) return;
    out.clear();
    out.swap(c->backlog);
    // While flushing, senders append behind these bytes instead of
    // writing to the ring, so the stream keeps send order and the ring
    // keeps a single producer.
    c->flushing = true;
    lock.unlock();
    const bool ok = c->s2c->push(out.data(), out.size(), abort);
    lock.lock();
    c->flushing = false;
    if (!ok) return;
  }
}

void ShmServerTransport::stop() {
#if defined(__linux__)
  if (!running_.exchange(false, std::memory_order_acq_rel)) {
    if (listen_map_ != nullptr) {
      ::munmap(listen_map_, listen_bytes_);
      ::shm_unlink(shm_path(base_).c_str());
      listen_map_ = nullptr;
    }
    return;
  }
  // The listener and the connection readers park with a timeout; bump
  // and wake their words so stop() returns now, not when they time out.
  auto* h = static_cast<ListenHeader*>(listen_map_);
  h->announce.fetch_add(1, std::memory_order_release);
  shm_wake_all(h->announce);
  if (listener_.joinable()) listener_.join();
  std::map<PeerId, std::unique_ptr<Conn>> conns;
  {
    std::lock_guard<std::mutex> lock(mu_);
    conns.swap(conns_);
  }
  for (auto& [id, c] : conns) {
    {
      std::lock_guard<std::mutex> lock(c->send_mu);
      c->gone.store(true, std::memory_order_release);
    }
    c->writer_cv.notify_all();
    c->c2s->close();
  }
  for (auto& [id, c] : conns) {
    // A thread shipping a grant may still be inside send() holding a raw
    // Conn*; send() never waits on the ring, so the counter drains fast.
    // gone and !running_ abort the writer's push within one 10 ms park.
    // Only then is it safe to unmap the rings and destroy the conn.
    while (c->active_sends.load(std::memory_order_acquire) != 0) {
      std::this_thread::yield();
    }
    if (c->writer.joinable()) c->writer.join();
    c->s2c->close();
    if (c->reader.joinable()) c->reader.join();
    ::munmap(c->map, c->map_bytes);
    ::shm_unlink(c->seg_name.c_str());  // client may have unlinked already
  }
  if (listen_map_ != nullptr) {
    ::munmap(listen_map_, listen_bytes_);
    ::shm_unlink(shm_path(base_).c_str());
    listen_map_ = nullptr;
  }
#endif
}

// ---- ShmClientTransport ---------------------------------------------------

ShmClientTransport::ShmClientTransport(const std::string& base) {
#if defined(__linux__)
  void* lmem = map_segment(shm_path(base), sizeof(ListenHeader),
                           /*create=*/false);
  if (lmem == nullptr) {
    throw std::runtime_error("shm connect: no server at \"" + base + "\"");
  }
  auto* h = static_cast<ListenHeader*>(lmem);
  for (int spin = 0;
       h->magic.load(std::memory_order_acquire) != kListenMagic; ++spin) {
    if (spin > 1000) {
      ::munmap(lmem, sizeof(ListenHeader));
      throw std::runtime_error("shm connect: bad listen segment magic");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const std::uint32_t id = h->next_id.fetch_add(1, std::memory_order_acq_rel);
  const std::size_t cap = round_up_pow2(h->ring_slots * kShmSlotBytes);
  seg_name_ = shm_path(base) + ".c" + std::to_string(id);
  map_bytes_ = conn_segment_bytes(cap);
  map_ = map_segment(seg_name_, map_bytes_, /*create=*/true);
  auto* ch = new (map_) ConnHeader();
  ch->ring_capacity = static_cast<std::uint32_t>(cap);
  auto* block = static_cast<std::byte*>(map_) + 64;
  c2s_ = ShmRing::init(block, cap);
  s2c_ = ShmRing::init(block + ring_block_bytes(cap), cap);
  ch->ready.store(1, std::memory_order_release);
  shm_wake_all(ch->ready);
  h->announce.fetch_add(1, std::memory_order_acq_rel);
  shm_wake_all(h->announce);
  ::munmap(lmem, sizeof(ListenHeader));
#else
  (void)base;
  throw std::runtime_error("ShmClientTransport: shm requires Linux");
#endif
}

ShmClientTransport::~ShmClientTransport() { stop(); }

void ShmClientTransport::start(std::function<void(wire::Frame&&)> on_frame,
                               std::function<void()> on_disconnect) {
  on_frame_ = std::move(on_frame);
  on_disconnect_ = std::move(on_disconnect);
  running_.store(true, std::memory_order_release);
  reader_ = std::thread([this] { recv_loop(); });
}

void ShmClientTransport::recv_loop() {
  FrameStream stream;
  std::byte chunk[4096];
  while (running_.load(std::memory_order_acquire)) {
    const std::size_t n = s2c_->pop(chunk, sizeof chunk, 100);
    if (n == 0) {
      if (s2c_->closed() && s2c_->readable() == 0) break;
      continue;
    }
    const bool ok = stream.feed(chunk, n, [&](wire::Frame&& f) {
      if (on_frame_) on_frame_(std::move(f));
    });
    if (!ok) break;
  }
  if (running_.load(std::memory_order_acquire) && on_disconnect_) {
    on_disconnect_();
  }
}

bool ShmClientTransport::send(const wire::Frame& f) {
  if (map_ == nullptr) return false;
  std::vector<std::byte> bytes;
  wire::encode(f, bytes);
  std::lock_guard<std::mutex> lock(send_mu_);
  return c2s_->push(bytes.data(), bytes.size(), [this] {
    return !running_.load(std::memory_order_acquire) && reader_.joinable();
  });
}

void ShmClientTransport::stop() {
#if defined(__linux__)
  const bool was_running = running_.exchange(false, std::memory_order_acq_rel);
  if (map_ != nullptr && c2s_ != nullptr) {
    c2s_->close();
    s2c_->close();  // wakes our parked reader instead of its 100 ms timeout
  }
  if (was_running && reader_.joinable()) reader_.join();
  if (map_ != nullptr) {
    ::munmap(map_, map_bytes_);
    ::shm_unlink(seg_name_.c_str());
    map_ = nullptr;
  }
#endif
}

}  // namespace orwl::dist
