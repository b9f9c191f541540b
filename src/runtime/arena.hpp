// rt::Arena — per-shard slab allocator with node-bound backing pages.
//
// The grant engine's hottest structures (slot windows, slot slabs, FIFO
// rings, meter banks) used to come from the global
// heap wherever they were first touched — exactly the placement blindness
// the paper argues against. An Arena carves small objects out of
// topo::MemBind slabs bound to one NUMA node (the node of the shard it
// serves), with power-of-two size-class freelists in front so
// the steady state never re-enters mmap.
//
// Ownership and routing: every allocation is prefixed by a small header
// naming the arena that produced it, so the static Arena::deallocate(p)
// routes a free back to the owning arena even after the object's queue
// has been re-routed to a different shard (ORWL_REPLACE moves queues
// between shards; memory stays on the node it was allocated on).
//
// Thread safety: all public member functions are safe to call
// concurrently; the arena is one locked freelist per size class. Every
// allocation happens at set-up or when a structure grows — request
// queues recycle slots through their own free list — so no hot path
// takes the lock. Under AddressSanitizer a freed block stays poisoned
// (all but its freelist link) until it is handed out again.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "topo/membind.hpp"

namespace orwl::rt {

class Arena {
 public:
  struct Header;  ///< per-allocation prefix (layout private to arena.cpp)

  /// Allocate backing slabs on any node (first touch).
  static constexpr int kAnyNode = -1;

  /// Default slab size. Large enough that a queue's whole slot window
  /// plus a few slot chunks fit in one mmap; small enough that a
  /// 20-shard program on a laptop does not pin half a gigabyte.
  static constexpr std::size_t kDefaultSlabBytes = 256 * 1024;

  /// Counter snapshot (also surfaced as ProgramStats::arena_*).
  struct Stats {
    std::uint64_t bytes_reserved = 0;  ///< backing bytes mmap'd
    std::uint64_t refills = 0;         ///< slab + large backing allocations
    std::uint64_t node_misses = 0;     ///< bind asked for a host node, pages
                                       ///< landed elsewhere (or tag-only)
    std::uint64_t allocs = 0;
    std::uint64_t frees = 0;
  };

  /// `node` is the NUMA node backing slabs are bound to (kAnyNode =
  /// first touch).
  explicit Arena(int node = kAnyNode,
                 std::size_t slab_bytes = kDefaultSlabBytes);
  ~Arena();

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Process-wide fallback arena (any-node). Intentionally leaked:
  /// runtime objects may free into it from static destructors after
  /// main().
  static Arena& runtime_default();

  /// Allocate `bytes` with at least `align` alignment. Never returns
  /// nullptr (throws std::bad_alloc on exhaustion like operator new).
  void* allocate(std::size_t bytes,
                 std::size_t align = alignof(std::max_align_t));

  /// Free a pointer from *any* arena (routed via the block header).
  /// nullptr is a no-op.
  static void deallocate(void* p) noexcept;

  int node() const noexcept { return node_; }
  std::size_t slab_bytes() const noexcept { return slab_bytes_; }

  Stats stats() const noexcept;
  std::uint64_t live_allocs() const noexcept;

 private:
  void release(Header* h) noexcept;
  void note_backing(const topo::MemBind& mb, std::size_t bytes);

  static std::size_t class_index(std::size_t need) noexcept;

  const std::size_t slab_bytes_;
  const int node_;

  mutable std::mutex mu_;
  std::vector<topo::MemBind> slabs_;              ///< small-object backing
  std::size_t bump_ = 0;                          ///< offset into slabs_.back()
  std::vector<void*> free_;                       ///< per-class freelist heads
  std::vector<std::pair<void*, topo::MemBind>> large_;  ///< oversize blocks

  std::atomic<std::uint64_t> bytes_reserved_{0};
  std::atomic<std::uint64_t> refills_{0};
  std::atomic<std::uint64_t> node_misses_{0};
  std::atomic<std::uint64_t> allocs_{0};
  std::atomic<std::uint64_t> frees_{0};
};

/// Placement-new a T from `arena`; pair with arena_delete / ArenaPtr.
template <typename T, typename... Args>
T* arena_new(Arena& arena, Args&&... args) {
  void* mem = arena.allocate(sizeof(T), alignof(T));
  try {
    return new (mem) T(std::forward<Args>(args)...);
  } catch (...) {
    Arena::deallocate(mem);
    throw;
  }
}

template <typename T>
void arena_delete(T* p) noexcept {
  if (!p) return;
  p->~T();
  Arena::deallocate(p);
}

struct ArenaDelete {
  template <typename T>
  void operator()(T* p) const noexcept {
    arena_delete(p);
  }
};

/// unique_ptr whose deleter routes through the owning arena's header.
template <typename T>
using ArenaPtr = std::unique_ptr<T, ArenaDelete>;

/// Standard-allocator adapter so std containers (the FIFO handle rings)
/// draw from an arena. Copies and
/// swaps propagate the arena with the container, and equality is arena
/// identity — containers from different arenas exchange elements by
/// reallocating, never by freeing into the wrong pool (the header would
/// route correctly anyway, but the allocator contract is cleaner).
template <typename T>
class ArenaAllocator {
 public:
  using value_type = T;
  using propagate_on_container_copy_assignment = std::true_type;
  using propagate_on_container_move_assignment = std::true_type;
  using propagate_on_container_swap = std::true_type;

  ArenaAllocator() noexcept : arena_(&Arena::runtime_default()) {}
  explicit ArenaAllocator(Arena* arena) noexcept
      : arena_(arena ? arena : &Arena::runtime_default()) {}

  template <typename U>
  ArenaAllocator(const ArenaAllocator<U>& other) noexcept
      : arena_(other.arena()) {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(arena_->allocate(n * sizeof(T), alignof(T)));
  }
  void deallocate(T* p, std::size_t) noexcept { Arena::deallocate(p); }

  Arena* arena() const noexcept { return arena_; }

  friend bool operator==(const ArenaAllocator& a,
                         const ArenaAllocator& b) noexcept {
    return a.arena_ == b.arena_;
  }

 private:
  template <typename U>
  friend class ArenaAllocator;

  Arena* arena_;
};

}  // namespace orwl::rt
