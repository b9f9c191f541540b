#include "runtime/request_queue.hpp"

#include <chrono>
#include <new>
#include <stdexcept>
#include <string>
#include <thread>

#include "runtime/futex.hpp"

namespace orwl::rt {

namespace {

/// The sink calls this thread is inside, innermost first, so a detach
/// made from inside a sink call does not wait for that call.
struct SinkCall {
  const RequestQueue* queue;
  const SinkCall* outer;
};
thread_local const SinkCall* tl_sink_calls = nullptr;

}  // namespace

RequestQueue::RequestQueue(Arena* arena)
    : arena_(arena ? arena : &Arena::runtime_default()) {
  std::lock_guard lock(mu_);
  cur_ = make_window_locked(kInitialWindowCapacity);
  window_.store(cur_, std::memory_order_release);
}

RequestQueue::~RequestQueue() {
  // Blocks free back to whichever arena produced them (the header
  // routes), so queues that changed arenas mid-life tear down cleanly.
  for (Slot* chunk : slot_chunks_) {
    for (std::size_t i = 0; i < kSlotChunk; ++i) chunk[i].~Slot();
    Arena::deallocate(chunk);
  }
  for (Window* w : windows_) {
    w->~Window();
    Arena::deallocate(w);
  }
}

void RequestQueue::set_arena(Arena* arena) noexcept {
  if (arena != nullptr) arena_.store(arena, std::memory_order_release);
}

RequestQueue::Window* RequestQueue::make_window_locked(
    std::size_t capacity) {
  // One block: the Window header followed by its slot-pointer array.
  void* mem = arena()->allocate(
      sizeof(Window) + capacity * sizeof(std::atomic<Slot*>),
      alignof(Window));
  auto* slots = reinterpret_cast<std::atomic<Slot*>*>(
      static_cast<std::byte*>(mem) + sizeof(Window));
  for (std::size_t i = 0; i < capacity; ++i) {
    new (&slots[i]) std::atomic<Slot*>(nullptr);
  }
  Window* w = new (mem) Window{capacity - 1, slots};
  windows_.push_back(w);
  return w;
}

Ticket RequestQueue::enqueue_locked(AccessMode mode) {
  if (tail_ - head_ > cur_->mask) grow_locked();
  if (free_slots_.empty()) {
    void* mem = arena()->allocate(kSlotChunk * sizeof(Slot), alignof(Slot));
    Slot* chunk = static_cast<Slot*>(mem);
    for (std::size_t i = 0; i < kSlotChunk; ++i) new (&chunk[i]) Slot();
    slot_chunks_.push_back(chunk);
    for (std::size_t i = 0; i < kSlotChunk; ++i) {
      free_slots_.push_back(&chunk[i]);
    }
  }
  Slot* s = free_slots_.back();
  free_slots_.pop_back();
  const Ticket t = tail_++;
  s->mode = mode;
  s->word.store(pack(t, kWaiting), std::memory_order_relaxed);
  // Release store: a lock-free reader that reaches this slot through the
  // window sees the initialized state word and mode.
  cur_->slots[t & cur_->mask].store(s, std::memory_order_release);
  return t;
}

void RequestQueue::grow_locked() {
  Window* grown = make_window_locked(2 * (cur_->mask + 1));
  for (Ticket u = head_; u < tail_; ++u) {
    grown->slots[u & grown->mask].store(
        cur_->slots[u & cur_->mask].load(std::memory_order_relaxed),
        std::memory_order_relaxed);
  }
  cur_ = grown;
  // The old window stays allocated (retired): stale lock-free lookups may
  // still dereference it, and its entries remain correct for every ticket
  // that existed when it was current.
  window_.store(cur_, std::memory_order_release);
}

RequestQueue::Slot* RequestQueue::granted_slot_locked(
    Ticket t) const noexcept {
  if (t < head_ || t >= tail_) return nullptr;
  Slot* s = cur_->slots[t & cur_->mask].load(std::memory_order_relaxed);
  if (s == nullptr) return nullptr;
  if (s->word.load(std::memory_order_relaxed) != pack(t, kGranted)) {
    return nullptr;
  }
  return s;
}

void RequestQueue::release_locked(Ticket t, Slot* s) {
  s->word.store(0, std::memory_order_relaxed);
  cur_->slots[t & cur_->mask].store(nullptr, std::memory_order_relaxed);
  free_slots_.push_back(s);
  // Advance past the tombstones of the released head group. Entries at or
  // beyond grant_cursor_ are ungranted, hence unreleased, hence live — so
  // head_ can never pass grant_cursor_.
  while (head_ < tail_ && cur_->slots[head_ & cur_->mask].load(
                              std::memory_order_relaxed) == nullptr) {
    ++head_;
  }
}

void RequestQueue::grant_one_locked(Ticket t, Slot* s,
                                    std::vector<Slot*>& wake) {
  const std::uint64_t prev =
      s->word.exchange(pack(t, kGranted), std::memory_order_acq_rel);
  grants_.fetch_add(1, std::memory_order_relaxed);
  static_assert((kParked & 1) != 0 && (kRemote & 1) != 0 &&
                (kWaiting & 1) == 0 && (kGranted & 1) == 0);
  if ((prev & 1) != 0) {
    wake.push_back((prev & kPhaseMask) == kRemote ? tag_remote(s) : s);
  }
}

void RequestQueue::grant_some_locked(std::vector<Slot*>& wake) {
  if (head_ == tail_) return;
  Slot* head_slot =
      cur_->slots[head_ & cur_->mask].load(std::memory_order_relaxed);
  if (head_slot->mode == AccessMode::Write) {
    if (grant_cursor_ != head_) return;  // writer already granted
    grant_one_locked(head_, head_slot, wake);
    ++grant_cursor_;
    return;
  }
  // Reader sharing: the leading run [head_, grant_cursor_) is already
  // granted reads; extend the group over every contiguous read behind it.
  while (grant_cursor_ < tail_) {
    Slot* s = cur_->slots[grant_cursor_ & cur_->mask].load(
        std::memory_order_relaxed);
    if (s->mode != AccessMode::Read) break;
    grant_one_locked(grant_cursor_, s, wake);
    ++grant_cursor_;
  }
}

Ticket RequestQueue::enqueue(AccessMode mode) {
  std::vector<Slot*> wake;
  Ticket t;
  {
    std::lock_guard lock(mu_);
    t = enqueue_locked(mode);
    pending_.fetch_add(1, std::memory_order_relaxed);
    grant_some_locked(wake);
  }
  wake_parked(wake);
  return t;
}

void RequestQueue::acquire(Ticket t) {
  // Lock-free fast path: the grant was already published.
  const Window* w = window_.load(std::memory_order_acquire);
  const Slot* s = w->slots[t & w->mask].load(std::memory_order_acquire);
  if (s != nullptr &&
      s->word.load(std::memory_order_acquire) == pack(t, kGranted)) {
    return;
  }
  acquire_slow(t);
}

void RequestQueue::throw_acquire_timeout(Ticket t) const {
  std::string msg = "RequestQueue::acquire: ticket " + std::to_string(t) +
                    " on " + (tag_.empty() ? "untagged queue" : tag_) +
                    " timed out after " + std::to_string(timeout_ms_) +
                    " ms waiting for grant (likely a deadlocked access "
                    "protocol)";
  throw std::runtime_error(msg);
}

void RequestQueue::acquire_slow(Ticket t) {
  Slot* s = nullptr;
  {
    std::lock_guard lock(mu_);
    if (t >= head_ && t < tail_) {
      s = cur_->slots[t & cur_->mask].load(std::memory_order_relaxed);
    }
    if (s == nullptr ||
        (s->word.load(std::memory_order_relaxed) >> kPhaseBits) != t) {
      throw std::runtime_error("RequestQueue::acquire: unknown ticket");
    }
    if (s->word.load(std::memory_order_relaxed) == pack(t, kGranted)) {
      return;
    }
  }
  // Blocked: park on the slot's futex word until the grant lands.
  // Announce the parking with a bare CAS — no lock. The granter's
  // exchange either happens first (we observe kGranted below) or sees
  // kParked and then bumps seq before waking; our wait loop reads seq
  // *before* re-checking the word, so a grant between the re-check and
  // the futex_wait makes the wait return immediately (seq changed).
  std::uint64_t expected = pack(t, kWaiting);
  if (!s->word.compare_exchange_strong(expected, pack(t, kParked),
                                       std::memory_order_acq_rel,
                                       std::memory_order_acquire)) {
    if (expected == pack(t, kGranted)) return;
    if (expected != pack(t, kParked)) {
      throw std::runtime_error("RequestQueue::acquire: unknown ticket");
    }
    // Already parked: a previous acquire of this ticket timed out and left
    // the announcement in place. Fall through and wait for the grant.
  }
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms_);
  for (;;) {
    const std::uint32_t seq = s->seq.load(std::memory_order_acquire);
    if (s->word.load(std::memory_order_acquire) == pack(t, kGranted)) {
      return;
    }
    std::int64_t remaining_ms = 0;  // 0 = wait forever
    if (timeout_ms_ != 0) {
      remaining_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                         deadline - std::chrono::steady_clock::now())
                         .count();
      if (remaining_ms <= 0) remaining_ms = 1;  // one last short wait
    }
    futex_waits_.fetch_add(1, std::memory_order_relaxed);
    if (!futex_wait(s->seq, seq, remaining_ms)) {
      if (s->word.load(std::memory_order_acquire) == pack(t, kGranted)) {
        return;
      }
      if (std::chrono::steady_clock::now() >= deadline) {
        throw_acquire_timeout(t);
      }
    }
    // Spurious return, seq changed, or a wake for a recycled slot:
    // re-check the predicate and keep waiting.
  }
}

bool RequestQueue::granted(Ticket t) const {
  const Window* w = window_.load(std::memory_order_acquire);
  const Slot* s = w->slots[t & w->mask].load(std::memory_order_acquire);
  return s != nullptr &&
         s->word.load(std::memory_order_acquire) == pack(t, kGranted);
}

void RequestQueue::release(Ticket t) {
  std::vector<Slot*> wake;
  {
    std::lock_guard lock(mu_);
    Slot* s = granted_slot_locked(t);
    if (s == nullptr) {
      throw std::logic_error("RequestQueue::release: ticket not granted");
    }
    release_locked(t, s);
    pending_.fetch_sub(1, std::memory_order_relaxed);
    grant_some_locked(wake);
  }
  wake_parked(wake);
}

Ticket RequestQueue::reinsert_and_release(Ticket t, AccessMode mode) {
  std::vector<Slot*> wake;
  Ticket fresh;
  {
    std::lock_guard lock(mu_);
    Slot* s = granted_slot_locked(t);
    if (s == nullptr) {
      throw std::logic_error(
          "RequestQueue::reinsert_and_release: ticket not granted");
    }
    fresh = enqueue_locked(mode);
    release_locked(t, s);
    // pending_ is unchanged: the insert and the release cancel out.
    grant_some_locked(wake);
  }
  wake_parked(wake);
  return fresh;
}

void RequestQueue::wake_parked(const std::vector<Slot*>& wake) {
  bool remote = false;
  for (Slot* s : wake) {
    if (is_remote(s)) {
      remote = true;
      continue;
    }
    // The grant (word exchange) happened before this seq bump; a waiter
    // that read the old seq re-checks the word and returns, one that
    // read the new seq sees EAGAIN from the kernel. Either way no mutex
    // is touched on the hand-off path. A slot recycled in the meantime at
    // worst receives a spurious (predicate-checked) wakeup.
    s->seq.fetch_add(1, std::memory_order_release);
    futex_wake(s->seq, /*all=*/true);
    futex_wakes_.fetch_add(1, std::memory_order_relaxed);
  }
  if (remote) grant_remote(wake);
}

void RequestQueue::grant_remote(const std::vector<Slot*>& wake) {
  // Announce the call before reading the sink (both seq_cst): a detach
  // that stores null either is seen here or sees this call in flight and
  // waits for it, so the sink outlives every call made on it.
  sink_calls_.fetch_add(1, std::memory_order_seq_cst);
  if (RemoteGrantSink* sink = sink_.load(std::memory_order_seq_cst)) {
    const SinkCall call{this, tl_sink_calls};
    tl_sink_calls = &call;
    for (const Slot* s : wake) {
      if (!is_remote(s)) continue;
      // Still this ticket's word: only the sink's owner releases a
      // remote grant, and it learns of this one from the call below.
      const Ticket t =
          untag(s)->word.load(std::memory_order_acquire) >> kPhaseBits;
      sink->on_remote_grant(t);
    }
    tl_sink_calls = call.outer;
  }
  sink_calls_.fetch_sub(1, std::memory_order_release);
}

void RequestQueue::set_remote_sink(RemoteGrantSink* sink) noexcept {
  sink_.store(sink, std::memory_order_seq_cst);
  if (sink != nullptr) return;
  std::uint32_t own = 0;
  for (const SinkCall* c = tl_sink_calls; c != nullptr; c = c->outer) {
    if (c->queue == this) ++own;
  }
  while (sink_calls_.load(std::memory_order_seq_cst) > own) {
    std::this_thread::yield();
  }
}

bool RequestQueue::park_remote(Ticket t) {
  // Same announcement as acquire_slow's parking: the granter's exchange
  // either happens first (the CAS sees kGranted and the caller ships the
  // grant) or sees kRemote and queues the ticket for the sink. Exactly
  // one of the two owns the hand-off.
  const Window* w = window_.load(std::memory_order_acquire);
  Slot* s = w->slots[t & w->mask].load(std::memory_order_acquire);
  std::uint64_t expected = pack(t, kWaiting);
  if (s != nullptr &&
      s->word.compare_exchange_strong(expected, pack(t, kRemote),
                                      std::memory_order_acq_rel,
                                      std::memory_order_acquire)) {
    return true;
  }
  if (s != nullptr && expected == pack(t, kGranted)) return false;
  throw std::logic_error("RequestQueue::park_remote: ticket " +
                         std::to_string(t) + " is not waiting");
}

}  // namespace orwl::rt
