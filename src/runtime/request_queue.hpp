// The per-location FIFO of read/write requests — the heart of the ORWL
// synchronization model.
//
// "The model presents the concurrent access to a resource/location by
// using a FIFO that holds requests (requested, allocated, released) issued
// by the tasks. The FIFO controls the access order and locks and maps the
// resource for some threads either exclusively (for a writer) or shared
// (for a set of readers)." (Sec. III)
//
// Grant rule: the request at the head of the FIFO is granted; when the
// head is a read request, the maximal run of consecutive read requests at
// the head is granted together (reader sharing). Requests are removed at
// release time, after which the releasing thread grants the new head
// group inside its own critical section and wakes it after unlocking.
// The paper's runtime hands that grant to control threads (Sec. IV-A);
// here no thread besides the tasks takes part in a hand-off.
//
// Implementation: an O(1) targeted-wakeup grant engine. Tickets are dense
// uint64s starting at 1, so the live requests always occupy the window
// [head_, tail_) and `ticket & mask` addresses a slot directly — no queue
// scan anywhere. Each request lives in a reusable Slot whose atomic state
// word packs (ticket << 2) | phase; grants are published by flipping that
// word, which makes granted() and the already-granted acquire() fast path
// lock-free. Blocked acquirers park on their own slot's futex word (see
// runtime/futex.hpp), and only the newly granted writer — or exactly the
// parked members of a newly granted reader group — are woken (no
// broadcast). A ticket can also park *remotely* (park_remote): the home
// side of a distributed location parks each proxy ticket that way, and
// whichever thread grants it hands the ticket to the queue's
// RemoteGrantSink instead of waking a futex, so the GRANT frame leaves
// from the grant itself (no thread polls for it). The slot window grows
// by doubling; superseded windows are retired, never freed, so stale
// lock-free lookups stay safe (the state-word ticket check rejects
// them).
//
// Memory: windows and slot chunks come from the queue's rt::Arena (the
// node-bound arena of the owner's shard) — nothing on the grant path
// touches the global heap after warm-up.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "runtime/arena.hpp"
#include "runtime/types.hpp"

namespace orwl::rt {

/// Receiver of the grants of remote-phase tickets (see
/// RequestQueue::park_remote).
///
/// The paper's control threads do the lock hand-off *and* the data
/// transfer when the grant happens (Sec. IV-A). For a location exported
/// to other processes (dist::Registry) the data transfer is the GRANT
/// frame carrying the buffer bytes, so the registry installs itself here
/// and ships that frame from whichever thread granted the proxy ticket: a
/// local releaser, an enqueuer, or the transport thread releasing the
/// previous remote holder. The call runs outside the queue
/// mutex and may re-enter the queue (release the ticket, enqueue, ...).
class RemoteGrantSink {
 public:
  virtual ~RemoteGrantSink() = default;

  /// Called exactly once per remote-phase ticket, once it is granted.
  virtual void on_remote_grant(Ticket t) noexcept = 0;
};

class RequestQueue {
 public:
  /// `arena` backs the slot window and slot chunks (null = the process
  /// fallback arena).
  explicit RequestQueue(Arena* arena = nullptr);
  ~RequestQueue();
  RequestQueue(const RequestQueue&) = delete;
  RequestQueue& operator=(const RequestQueue&) = delete;

  /// Switch future window/slot allocations to `arena` (null ignored).
  /// Thread-safe: the Program re-points queues at their new shard's
  /// arena on re-placement, possibly while requests are in flight;
  /// existing blocks free back to the arena that made them.
  void set_arena(Arena* arena) noexcept;
  Arena* arena() const noexcept {
    return arena_.load(std::memory_order_acquire);
  }

  /// Parking-path statistics (ProgramStats::futex_*). Lock-free.
  std::uint64_t futex_waits() const noexcept {
    return futex_waits_.load(std::memory_order_relaxed);
  }
  std::uint64_t futex_wakes() const noexcept {
    return futex_wakes_.load(std::memory_order_relaxed);
  }

  /// The locality shard of this queue (the shard of its owner's placed
  /// PU): it names the arena the Program points the queue at and the
  /// CommMeter bank its hand-offs are counted in. Thread-safe: the
  /// Program re-routes queues when a placement is computed, possibly
  /// while releases are in flight.
  void set_shard(std::size_t shard) noexcept {
    shard_.store(static_cast<std::uint32_t>(shard),
                 std::memory_order_relaxed);
  }
  std::size_t shard() const noexcept {
    return shard_.load(std::memory_order_relaxed);
  }

  /// Milliseconds after which acquire() throws (deadlock guard).
  /// 0 disables the guard. Not thread-safe; set before concurrent use.
  void set_acquire_timeout(std::uint64_t ms) noexcept { timeout_ms_ = ms; }

  /// Human-readable identity of this queue, prefixed to every timeout /
  /// protocol error ("location 7 (owner task 3, slot 1, tenant 'video')").
  /// The Program composes it from the location's coordinates and the
  /// owning tenant's tag. Not thread-safe; set before concurrent use.
  void set_tag(std::string tag) { tag_ = std::move(tag); }
  const std::string& tag() const noexcept { return tag_; }

  /// Install the sink that receives the grants of remote-phase tickets.
  /// Thread-safe. Detaching (null) waits until every sink call already
  /// in flight on other threads has returned, so the old sink may be
  /// destroyed once the calling thread has left its own sink calls (a
  /// sink may detach itself from inside a call). A remote-phase ticket
  /// granted while no sink is installed stays granted with no holder.
  void set_remote_sink(RemoteGrantSink* sink) noexcept;
  RemoteGrantSink* remote_sink() const noexcept {
    return sink_.load(std::memory_order_acquire);
  }

  /// Append a request; returns its ticket. Grants immediately when the
  /// request lands in the eligible head group.
  Ticket enqueue(AccessMode mode);

  /// Block until the ticket is granted. Lock-free when the grant already
  /// happened. Throws std::runtime_error on timeout (likely protocol
  /// deadlock) or unknown ticket.
  void acquire(Ticket t);

  /// True when the ticket is already granted (non-blocking, lock-free).
  bool granted(Ticket t) const;

  /// Park a queued ticket remotely: its grant goes to the remote sink
  /// (on the granting thread, after the queue mutex is dropped) instead
  /// of waking a local acquirer. Returns true when parked — the sink
  /// will be called exactly once with `t`. Returns false when `t` is
  /// already granted; the caller then owns the hand-off and the sink is
  /// never called for it. Lock-free. Throws std::logic_error when `t`
  /// is neither waiting nor granted (unknown, released, or parked).
  bool park_remote(Ticket t);

  /// Remove a granted request and hand the resource to the next group:
  /// the calling thread grants it and wakes its parked members (or hands
  /// remote ones to the sink). Throws std::logic_error when the ticket is
  /// absent or not granted.
  void release(Ticket t);

  /// Atomically enqueue a new request of the same mode and release the
  /// given one. Implements the iterative handle ("Before its termination,
  /// such a section introduces a new query in the FIFO that requests the
  /// resource for the next iteration"). Returns the new ticket. Takes the
  /// queue mutex exactly once.
  Ticket reinsert_and_release(Ticket t, AccessMode mode);

  /// Number of requests currently queued (granted included). Lock-free.
  std::size_t pending() const noexcept {
    return pending_.load(std::memory_order_relaxed);
  }

  /// Statistics: total grants performed (for tests and benches). Lock-free.
  std::uint64_t total_grants() const noexcept {
    return grants_.load(std::memory_order_relaxed);
  }

 private:
  // Phase of a slot's state word: word == (ticket << kPhaseBits) | phase.
  // A word of 0 marks a free slot (ticket 0 is never issued).
  static constexpr std::uint64_t kWaiting = 0;  ///< queued, owner not parked
  static constexpr std::uint64_t kParked = 1;   ///< owner blocked in acquire
  static constexpr std::uint64_t kGranted = 2;  ///< lock held by owner
  static constexpr std::uint64_t kRemote = 3;   ///< grant goes to the sink
  static constexpr unsigned kPhaseBits = 2;
  static constexpr std::uint64_t kPhaseMask = (1u << kPhaseBits) - 1;

  static constexpr std::uint64_t pack(Ticket t, std::uint64_t phase) {
    return (t << kPhaseBits) | phase;
  }

  /// One request cell. Slots are arena-owned (stable addresses for the
  /// lifetime of the queue) and recycled through a freelist at release.
  struct Slot {
    std::atomic<std::uint64_t> word{0};
    AccessMode mode = AccessMode::Read;  ///< written under mu_ at enqueue
    std::atomic<std::uint32_t> seq{0};   ///< futex word, bumped per wake
  };

  /// Ticket -> slot map for the live window: slot(t) = slots[t & mask].
  /// The header and its trailing slot-pointer array live in one arena
  /// block. Windows are published through window_ and retired (kept
  /// allocated) when outgrown, so lock-free readers holding a stale
  /// window still dereference valid memory; the state-word ticket check
  /// rejects any aliased slot.
  struct Window {
    const std::uint64_t mask;
    std::atomic<Slot*>* slots;  ///< trailing array in the same block
  };

  static constexpr std::size_t kInitialWindowCapacity = 16;

  static constexpr std::size_t kSlotChunk = 8;  ///< slots per slab block

  /// Entries of a grant pass's wake list: parked slots as they are,
  /// remote-phase slots with the low pointer bit set (slots are at least
  /// 8-byte aligned). One list and one branch keep the local hand-off
  /// path as it was.
  static Slot* tag_remote(Slot* s) noexcept {
    static_assert(alignof(Slot) >= 2);
    return reinterpret_cast<Slot*>(reinterpret_cast<std::uintptr_t>(s) | 1);
  }
  static bool is_remote(const Slot* s) noexcept {
    return (reinterpret_cast<std::uintptr_t>(s) & 1) != 0;
  }
  static const Slot* untag(const Slot* s) noexcept {
    return reinterpret_cast<const Slot*>(reinterpret_cast<std::uintptr_t>(s) &
                                         ~std::uintptr_t{1});
  }

  // ---- all helpers below require mu_ held -------------------------------

  /// Appends the request and returns its ticket; the caller adjusts
  /// pending_ (reinsert_and_release's +1/-1 pair cancels out).
  Ticket enqueue_locked(AccessMode mode);
  Window* make_window_locked(std::size_t capacity);
  void grow_locked();
  /// The slot of `t` when it is live and granted, else nullptr.
  Slot* granted_slot_locked(Ticket t) const noexcept;
  void release_locked(Ticket t, Slot* s);
  /// Grant the eligible head group (Sec. III rule); parked slots needing
  /// a wakeup and (tagged) remote-phase slots are appended to `wake`.
  void grant_some_locked(std::vector<Slot*>& wake);
  void grant_one_locked(Ticket t, Slot* s, std::vector<Slot*>& wake);
  // ---- lock-free paths ---------------------------------------------------

  void acquire_slow(Ticket t);
  /// Futex-wake the parked slots, then hand the remote ones to the sink
  /// (grant_remote). Runs with mu_ dropped.
  void wake_parked(const std::vector<Slot*>& wake);
  void grant_remote(const std::vector<Slot*>& wake);

  /// The deadlock-guard error, with enough context to find the stuck
  /// protocol: queue tag (location + tenant), ticket, configured timeout.
  [[noreturn]] void throw_acquire_timeout(Ticket t) const;

  std::mutex mu_;
  Ticket head_ = 1;          ///< oldest live ticket (== tail_ when empty)
  Ticket tail_ = 1;          ///< next ticket to issue
  Ticket grant_cursor_ = 1;  ///< one past the last granted ticket
  Window* cur_ = nullptr;    ///< current window (same object window_ holds)
  std::vector<Window*> windows_;      ///< current + retired (arena blocks)
  std::vector<Slot*> slot_chunks_;    ///< stable slot storage (arena blocks)
  std::vector<Slot*> free_slots_;

  std::atomic<const Window*> window_{nullptr};  ///< lock-free lookup handle
  std::atomic<std::uint64_t> grants_{0};
  std::atomic<std::size_t> pending_{0};
  std::atomic<std::uint64_t> futex_waits_{0};
  std::atomic<std::uint64_t> futex_wakes_{0};

  std::atomic<Arena*> arena_;  ///< allocation source (re-pointed on route)
  std::uint64_t timeout_ms_ = 120000;
  std::string tag_;
  std::atomic<RemoteGrantSink*> sink_{nullptr};
  std::atomic<std::uint32_t> sink_calls_{0};  ///< sink calls in flight
  std::atomic<std::uint32_t> shard_{0};
};

}  // namespace orwl::rt
