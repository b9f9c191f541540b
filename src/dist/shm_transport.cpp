#include "dist/shm_transport.hpp"

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
/// Returns nullptr when attaching to a segment that is missing or not
/// sized yet: its creator makes it, then sizes it, and a mapping past
/// the end of the object faults (SIGBUS) on first touch.
void* map_segment(const std::string& name, std::size_t bytes, bool create) {
  const int flags = create ? O_RDWR | O_CREAT | O_EXCL : O_RDWR;
  const int fd = ::shm_open(name.c_str(), flags, 0600);
  if (fd < 0) {
    if (!create && errno == ENOENT) return nullptr;
    throw std::runtime_error("shm_open(" + name + "): " +
                             std::strerror(errno));
  }
  struct stat st{};
  if (!create && (::fstat(fd, &st) != 0 ||
                  static_cast<std::size_t>(st.st_size) < bytes)) {
    ::close(fd);
    return nullptr;
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
  for (;;) {
    const std::size_t done = push_some(p, n);
    p += done;
    n -= done;
    if (n == 0) return true;
    if (closed() || (abort && abort())) return false;
    wait_space(10);
  }
}

void ShmRing::wait_space(std::uint32_t timeout_ms) {
  const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
  const std::uint64_t head = head_.load(std::memory_order_acquire);
  if (tail - head < capacity_) return;
  // The bell is read before closed(): close() sets the flag, then bumps
  // the bell, so a close we miss here still ends the wait.
  const std::uint32_t bell = space_bell_.load(std::memory_order_acquire);
  if (closed()) return;
  // Announce, then re-check (both seq_cst), against pop()'s head store
  // then announcement load: either pop sees us and wakes, or we see its
  // new head and do not park.
  producers_parked_.fetch_add(1, std::memory_order_seq_cst);
  if (head_.load(std::memory_order_seq_cst) == head) {
    shm_wait(space_bell_, bell, timeout_ms);
  }
  producers_parked_.fetch_sub(1, std::memory_order_relaxed);
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
  space_bell_.fetch_add(1, std::memory_order_release);
  shm_wake_all(space_bell_);
}

// ---- ShmServerTransport ---------------------------------------------------

/// One served connection: its segment, rings and threads. Destroyed by
/// drop() on the listener or in stop(), never on its own threads.
struct ShmServerTransport::ShmConn final : ServerTransport::Conn {
  ShmServerTransport* home = nullptr;
  void* map = nullptr;
  std::size_t map_bytes = 0;
  std::string seg_name;
  ShmRing* c2s = nullptr;  ///< client -> server (we consume)
  ShmRing* s2c = nullptr;  ///< server -> client (we produce)
  /// The writer parks on this sequence word; bumped when the outbox
  /// fills again and by shutdown().
  std::atomic<std::uint32_t> kick{0};
  std::atomic<bool> closing{false};  ///< shutdown() ran: the writer exits
  std::thread reader;
  std::thread writer;  ///< started the first time bytes have to wait

  ~ShmConn() override {
    if (reader.joinable()) reader.join();
    if (writer.joinable()) writer.join();
#if defined(__linux__)
    ::munmap(map, map_bytes);
    ::shm_unlink(seg_name.c_str());  // the client may have unlinked it
#endif
  }

  void wake_writer() noexcept {
    kick.fetch_add(1, std::memory_order_release);
    rt::futex_wake(kick, /*all=*/false);
  }

  std::ptrdiff_t write_some(const std::byte* p, std::size_t n) override {
    if (s2c->closed()) return -1;
    return static_cast<std::ptrdiff_t>(s2c->push_some(p, n));
  }

  void on_backlog(bool waiting) override {
    if (!waiting) return;
    if (!writer.joinable()) {
      writer = std::thread([this] { home->write_loop(this); });
      return;
    }
    wake_writer();
  }

  void shutdown() override {
    closing.store(true, std::memory_order_release);
    wake_writer();
    c2s->close();  // ends our reader once drained
    s2c->close();  // ends the client's reads, fails its pending sends
  }
};

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

ShmServerTransport::~ShmServerTransport() {
  stop();
#if defined(__linux__)
  ::munmap(listen_map_, listen_bytes_);
  ::shm_unlink(shm_path(base_).c_str());  // stop() may have unlinked it
#endif
}

void ShmServerTransport::start_io() {
  listener_ = std::thread([this] { listen_loop(); });
}

void ShmServerTransport::wake_listener() noexcept {
  auto* h = static_cast<ListenHeader*>(listen_map_);
  h->announce.fetch_add(1, std::memory_order_acq_rel);
  shm_wake_all(h->announce);
}

void ShmServerTransport::listen_loop() {
  auto* h = static_cast<ListenHeader*>(listen_map_);
  while (running()) {
    const std::uint32_t announced =
        h->announce.load(std::memory_order_acquire);
    std::vector<PeerId> ended;
    {
      std::lock_guard<std::mutex> lock(ended_mu_);
      ended.swap(ended_);
    }
    for (const PeerId peer : ended) drop(peer);
    // Announce order need not match id order (clients race between id
    // allocation and segment creation), so sweep the id space.
    const std::uint32_t ids = h->next_id.load(std::memory_order_acquire);
    if (accepted_.size() < ids) accepted_.resize(ids, false);
    for (std::uint32_t id = 0; id < ids; ++id) {
      if (!accepted_[id] && try_accept(id)) accepted_[id] = true;
    }
    shm_wait(h->announce, announced, 100);
  }
}

bool ShmServerTransport::try_accept(std::uint32_t id) {
#if defined(__linux__)
  const std::string name = shm_path(base_) + ".c" + std::to_string(id);
  const std::size_t cap = round_up_pow2(ring_slots_ * kShmSlotBytes);
  const std::size_t bytes = conn_segment_bytes(cap);
  void* mem = map_segment(name, bytes, /*create=*/false);
  if (mem == nullptr) return false;  // not created or sized yet; retried
  auto* ch = static_cast<ConnHeader*>(mem);
  if (ch->ready.load(std::memory_order_acquire) == 0) {
    shm_wait(ch->ready, 0, 50);
    if (ch->ready.load(std::memory_order_acquire) == 0) {
      ::munmap(mem, bytes);
      return false;
    }
  }
  auto conn = std::make_unique<ShmConn>();
  conn->home = this;
  conn->map = mem;
  conn->map_bytes = bytes;
  conn->seg_name = name;
  auto* block = static_cast<std::byte*>(mem) + 64;
  conn->c2s = ShmRing::at(block);
  conn->s2c = ShmRing::at(block + ring_block_bytes(cap));
  ShmConn* raw = conn.get();
  // Only this thread drops connections while the listener runs, so raw
  // stays valid until the reader is started.
  add(std::move(conn));
  raw->reader = std::thread([this, raw] { read_loop(raw); });
  return true;
#else
  (void)id;
  return false;
#endif
}

void ShmServerTransport::read_loop(ShmConn* c) {
  std::byte chunk[4096];
  for (;;) {
    const std::size_t n =
        c->c2s->pop(chunk, sizeof chunk, 100, kReaderSpin);
    if (n == 0) {
      // Closed by the client, or by drop(): what was sent before the
      // close has been delivered.
      if (c->c2s->closed() && c->c2s->readable() == 0) break;
      continue;
    }
    if (!deliver(*c, chunk, n)) break;  // malformed stream
  }
  {
    std::lock_guard<std::mutex> lock(ended_mu_);
    ended_.push_back(c->id);
  }
  wake_listener();
}

void ShmServerTransport::write_loop(ShmConn* c) {
  for (;;) {
    // Read the sequence first: bytes queued, or a shutdown, after the
    // flush below bump it, and the park returns at once.
    const std::uint32_t seq = c->kick.load(std::memory_order_acquire);
    // Stream the outbox out as the client frees ring space. flush() is
    // -1 once the ring is closed.
    while (flush(*c) > 0) c->s2c->wait_space(10);
    if (c->closing.load(std::memory_order_acquire)) return;
    rt::futex_wait(c->kick, seq, /*timeout_ms=*/0);  // 0: no timeout
  }
}

void ShmServerTransport::stop_io() {
#if defined(__linux__)
  // The listener parks with a timeout; wake it so stop() returns now.
  wake_listener();
  if (listener_.joinable()) listener_.join();
  ::shm_unlink(shm_path(base_).c_str());  // no new client finds us
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

ShmClientTransport::~ShmClientTransport() {
  stop();
#if defined(__linux__)
  ::munmap(map_, map_bytes_);
  ::shm_unlink(seg_name_.c_str());  // the home may have unlinked it
#endif
}

std::ptrdiff_t ShmClientTransport::read_some(std::byte* p, std::size_t n,
                                             std::uint32_t timeout_ms) {
  const std::size_t got = s2c_->pop(
      p, n, timeout_ms,
      timeout_ms > 0 ? kReaderSpin : std::chrono::microseconds{0});
  if (got > 0) return static_cast<std::ptrdiff_t>(got);
  return s2c_->closed() && s2c_->readable() == 0 ? -1 : 0;
}

bool ShmClientTransport::write_all(const std::byte* p, std::size_t n) {
  return c2s_->push(p, n, [this] { return stopped(); });
}

void ShmClientTransport::shutdown() {
  c2s_->close();  // the home's reader drops us once drained
  s2c_->close();  // ends the read of a waiting thread at once
}

}  // namespace orwl::dist
