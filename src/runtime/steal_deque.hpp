// Bounded Chase–Lev work-stealing deque over arena-backed storage.
//
// One deque per executor worker: the owner pushes and pops work items at
// the bottom (LIFO, cache-warm), thieves steal from the top (FIFO, the
// oldest — and for divide-and-conquer work the largest — item). The
// implementation follows the Chase–Lev design with the memory orderings
// of Lê/Pop/Cohen/Zappa Nardelli ("Correct and Efficient Work-Stealing
// for Weak Memory Models", PPoPP'13), except that the seq_cst *fences*
// of the paper are expressed as seq_cst accesses on top/bottom: the
// owner's bottom store and top load, and the thief's top and bottom
// loads, all participate in the single seq_cst total order, which gives
// the same Dekker-style guarantee (at least one side sees the other's
// write) while staying strictly stronger than the fence formulation.
// On x86 the cost is identical (the seq_cst store is an xchg where the
// fence was an mfence), and — the reason for the deviation — TSan does
// not model atomic_thread_fence, so the fence version both trips
// gcc's -Wtsan and reports false races; seq_cst accesses verify clean.
// CAS-on-top races decide the last element, push publishes its slot
// with a release store on bottom.
//
// Two deliberate deviations from the textbook version:
//  - The ring is *bounded* and never grows: push() returns false when
//    full and the executor runs the item inline instead. Growth would
//    need epoch reclamation of the old buffer; a bounded ring needs
//    none, and inline execution is exactly the right backpressure for a
//    work-stealing loop.
//  - Elements are std::atomic<uint64_t> slots (an item is an opaque
//    64-bit payload, typically an index into caller-owned state). Plain
//    slots would be a data race under the C++ memory model even though
//    the Chase–Lev protocol orders the accesses; atomic slots with
//    relaxed loads/stores cost nothing on x86/ARM and keep TSan clean.
//
// The slot buffer is allocated from an rt::Arena so each worker's deque
// lives on the NUMA node of the worker's PU.
#pragma once

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>

#include "runtime/arena.hpp"

namespace orwl::rt {

/// Bounded single-owner multi-thief deque of 64-bit work items.
///
/// Thread safety: push() and pop() are owner-only (one designated
/// thread); steal() is safe from any thread, concurrently with the
/// owner and other thieves. size() is a racy estimate for heuristics.
class StealDeque {
 public:
  /// \param arena    Arena the slot buffer is carved from (the arena of
  ///                 the owning worker's node).
  /// \param capacity Ring capacity; rounded up to a power of two,
  ///                 minimum 2.
  explicit StealDeque(Arena& arena, std::size_t capacity = 1024)
      : mask_(round_up_pow2(capacity) - 1),
        buffer_(static_cast<std::atomic<std::uint64_t>*>(arena.allocate(
            (mask_ + 1) * sizeof(std::atomic<std::uint64_t>),
            alignof(std::atomic<std::uint64_t>)))) {
    for (std::size_t i = 0; i <= mask_; ++i) {
      new (&buffer_[i]) std::atomic<std::uint64_t>(0);
    }
  }

  ~StealDeque() { Arena::deallocate(buffer_); }

  StealDeque(const StealDeque&) = delete;
  StealDeque& operator=(const StealDeque&) = delete;

  std::size_t capacity() const noexcept { return mask_ + 1; }

  /// Racy size estimate (for "who is hottest" heuristics only).
  std::size_t size() const noexcept {
    const std::int64_t b = bottom_.load(std::memory_order_relaxed);
    const std::int64_t t = top_.load(std::memory_order_relaxed);
    return b > t ? static_cast<std::size_t>(b - t) : 0;
  }

  bool empty() const noexcept { return size() == 0; }

  /// Owner-only: push an item at the bottom.
  /// \return false when the ring is full (caller runs the item inline).
  bool push(std::uint64_t item) noexcept {
    const std::int64_t b = bottom_.load(std::memory_order_relaxed);
    const std::int64_t t = top_.load(std::memory_order_acquire);
    if (b - t > static_cast<std::int64_t>(mask_)) return false;  // full
    buffer_[static_cast<std::size_t>(b) & mask_].store(
        item, std::memory_order_relaxed);
    // Publish the slot before the new bottom becomes visible to thieves.
    bottom_.store(b + 1, std::memory_order_release);
    return true;
  }

  /// Owner-only: pop the most recently pushed item.
  /// \return false when the deque is empty.
  bool pop(std::uint64_t& item) noexcept {
    const std::int64_t b = bottom_.load(std::memory_order_relaxed) - 1;
    // The bottom decrement must be ordered before the top read (the
    // owner/thief race on the last element hinges on it): both seq_cst,
    // pairing with steal()'s seq_cst loads.
    bottom_.store(b, std::memory_order_seq_cst);
    std::int64_t t = top_.load(std::memory_order_seq_cst);
    if (t > b) {  // already empty
      bottom_.store(b + 1, std::memory_order_relaxed);
      return false;
    }
    item = buffer_[static_cast<std::size_t>(b) & mask_].load(
        std::memory_order_relaxed);
    if (t == b) {
      // Last element: race thieves for it via the top counter.
      const bool won = top_.compare_exchange_strong(
          t, t + 1, std::memory_order_seq_cst, std::memory_order_relaxed);
      bottom_.store(b + 1, std::memory_order_relaxed);
      return won;
    }
    return true;  // more than one element left: no thief can reach it
  }

  /// Thief: steal the oldest item.
  /// \return false when the deque looked empty or the steal lost a race
  ///         (callers treat both as "try the next victim").
  bool steal(std::uint64_t& item) noexcept {
    // The top read is ordered before the bottom read (pairs with pop's
    // seq_cst decrement-then-read).
    std::int64_t t = top_.load(std::memory_order_seq_cst);
    const std::int64_t b = bottom_.load(std::memory_order_seq_cst);
    if (t >= b) return false;  // empty
    item = buffer_[static_cast<std::size_t>(t) & mask_].load(
        std::memory_order_relaxed);
    return top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                        std::memory_order_relaxed);
  }

 private:
  static std::size_t round_up_pow2(std::size_t n) noexcept {
    std::size_t p = 2;
    while (p < n) p <<= 1;
    return p;
  }

  alignas(64) std::atomic<std::int64_t> top_{0};
  alignas(64) std::atomic<std::int64_t> bottom_{0};
  const std::size_t mask_;
  std::atomic<std::uint64_t>* const buffer_;
};

}  // namespace orwl::rt
