#include "runtime/arena.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace orwl::rt {

namespace {

// Size classes cover [64 B, 64 KiB] in powers of two; anything bigger
// (or bigger than half a slab, for small test arenas) gets a dedicated
// MemBind mapping. Class sizes include the per-allocation header.
constexpr std::size_t kMinClassShift = 6;                    // 64 B
constexpr std::size_t kMaxClassShift = 16;                   // 64 KiB
constexpr std::size_t kNumClasses =
    kMaxClassShift - kMinClassShift + 1;
constexpr std::uint32_t kClassLarge = 0xFFFFFFFEu;
constexpr std::uint32_t kMagic = 0xA93A73E4u;

constexpr std::size_t class_bytes(std::size_t idx) noexcept {
  return std::size_t{1} << (kMinClassShift + idx);
}

std::uintptr_t align_up(std::uintptr_t v, std::size_t align) noexcept {
  return (v + align - 1) & ~(static_cast<std::uintptr_t>(align) - 1);
}

// Arena identities are handed out from a process-wide counter so a
// magazine can tell "the arena I cached blocks from" apart from "a new
// arena that happens to live at the same address".
std::atomic<std::uint64_t> g_arena_ids{1};

// Registry of live arenas by id, so a dying thread can flush its
// magazines back without dereferencing a possibly-dead arena pointer.
std::mutex g_arena_reg_mu;
std::vector<std::pair<std::uint64_t, Arena*>>& arena_registry() {
  static std::vector<std::pair<std::uint64_t, Arena*>>* reg =
      new std::vector<std::pair<std::uint64_t, Arena*>>();
  return *reg;
}

}  // namespace

/// Prefixed to every allocation at (result - sizeof(Header)), so a bare
/// pointer routes back to its owning arena, block start and size class.
struct Arena::Header {
  Arena* owner;             ///< never nullptr
  void* block;              ///< block start: freelist node or
                            ///< large-mapping key
  std::uint32_t size_class; ///< class index or kClassLarge
  std::uint32_t magic;      ///< corruption / double-free tripwire
};

static_assert(sizeof(Arena::Header) <= 32,
              "header must fit the reserved 32-byte prefix");
static_assert(alignof(Arena::Header) <= 32, "header alignment");

namespace {
constexpr std::size_t kHeaderSize = 32;

Arena::Header* header_of(void* p) noexcept {
  return reinterpret_cast<Arena::Header*>(static_cast<std::byte*>(p) -
                                          sizeof(Arena::Header));
}

void write_header(void* result, Arena* owner, void* block,
                  std::uint32_t size_class) noexcept {
  Arena::Header* h = header_of(result);
  h->owner = owner;
  h->block = block;
  h->size_class = size_class;
  h->magic = kMagic;
}
}  // namespace

// ---- per-thread magazines ---------------------------------------------
//
// A magazine is a small per-(thread, arena, size-class) stack of free
// blocks sitting in front of the arena mutex: a free parks the block in
// the calling thread's magazine, the next same-class allocation on that
// thread pops it back without touching the lock. The lock used to be
// cold; the steal executor's deques and per-item scratch warm it, and
// the magazines keep the steady state mutex-free.
//
// Safety without cross-thread flushes: entries are validated against
// the arena's never-reused id (a dead arena's blocks died with its
// slabs — the pointers are simply dropped) and its rebind epoch (a
// moved arena gets its cached blocks flushed back to the shared
// freelists by the owning thread). Only the owning thread ever touches
// its magazines, so there is nothing to race with; on thread exit the
// blocks are returned through the live-arena registry.
struct ThreadMagazines {
  static constexpr std::size_t kSlots = 4;   ///< distinct arenas cached
  static constexpr std::size_t kDepth = 16;  ///< blocks per size class

  struct Slot {
    std::uint64_t arena_id = 0;  ///< 0 = empty slot
    Arena* arena = nullptr;
    std::uint64_t epoch = 0;
    std::uint8_t count[kNumClasses] = {};
    void* blocks[kNumClasses][kDepth];
  };

  Slot slots[kSlots];
  std::size_t next_evict = 0;

  ~ThreadMagazines() {
    for (Slot& s : slots) flush(s);
  }

  /// Return every cached block of `s` to its arena's shared freelists
  /// (via the registry: the arena may be gone) and empty the slot.
  void flush(Slot& s) {
    if (s.arena_id == 0) return;
    Arena* live = nullptr;
    {
      std::lock_guard<std::mutex> lock(g_arena_reg_mu);
      for (const auto& [id, a] : arena_registry()) {
        if (id == s.arena_id) {
          live = a;
          break;
        }
      }
    }
    if (live != nullptr) {
      for (std::size_t c = 0; c < kNumClasses; ++c) {
        if (s.count[c] > 0) {
          live->take_back_blocks(static_cast<std::uint32_t>(c), s.blocks[c],
                                 s.count[c]);
        }
      }
    }
    s.arena_id = 0;
    s.arena = nullptr;
    for (std::size_t c = 0; c < kNumClasses; ++c) s.count[c] = 0;
  }

  /// The slot caching `arena`, claiming (and flushing) one if absent.
  Slot& slot_for(Arena* arena, std::uint64_t id, std::uint64_t epoch) {
    for (Slot& s : slots) {
      if (s.arena != arena || s.arena_id == 0) continue;
      if (s.arena_id != id) {
        // Same address, different identity: the cached arena died and
        // its slabs were unmapped — the block pointers are dead weight.
        s.arena_id = 0;
        for (std::size_t c = 0; c < kNumClasses; ++c) s.count[c] = 0;
        break;
      }
      if (s.epoch != epoch) {
        // rebind() moved the arena: push the cached blocks back so
        // future carves come from freelists on the new node's slabs.
        flush(s);
        break;
      }
      return s;
    }
    for (Slot& s : slots) {
      if (s.arena_id == 0) {
        s.arena_id = id;
        s.arena = arena;
        s.epoch = epoch;
        return s;
      }
    }
    Slot& victim = slots[next_evict];
    next_evict = (next_evict + 1) % kSlots;
    flush(victim);
    victim.arena_id = id;
    victim.arena = arena;
    victim.epoch = epoch;
    return victim;
  }
};

namespace {
thread_local ThreadMagazines tl_magazines;
}  // namespace

Arena::Arena(int node, std::size_t slab_bytes)
    : slab_bytes_(std::max(slab_bytes, std::size_t{4096})),
      node_(node),
      id_(g_arena_ids.fetch_add(1, std::memory_order_relaxed)) {
  free_.assign(kNumClasses, nullptr);
  std::lock_guard<std::mutex> lock(g_arena_reg_mu);
  arena_registry().emplace_back(id_, this);
}

Arena::~Arena() {
  {
    std::lock_guard<std::mutex> lock(g_arena_reg_mu);
    auto& reg = arena_registry();
    for (std::size_t i = 0; i < reg.size(); ++i) {
      if (reg[i].first == id_) {
        reg[i] = reg.back();
        reg.pop_back();
        break;
      }
    }
  }
  // Every runtime component frees its blocks in its own destructor
  // before the Program's arenas go away (member declaration order);
  // a live allocation here is a lifetime bug upstream. Blocks still
  // cached in thread magazines were already counted as freed and die
  // with the slabs (the magazines drop them on the id mismatch).
  assert(allocs_.load(std::memory_order_relaxed) ==
         frees_.load(std::memory_order_relaxed));
  // MemBind destructors unmap the slabs and large mappings.
}

void Arena::take_back_blocks(std::uint32_t cls, void* const* blocks,
                             std::size_t n) noexcept {
  std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t i = 0; i < n; ++i) {
    void* block = blocks[i];
    *static_cast<void**>(block) = free_[cls];
    free_[cls] = block;
  }
}

Arena& Arena::runtime_default() {
  // Leaked on purpose: objects freed from static destructors (test
  // fixtures, globals holding queues) must find the arena alive.
  static Arena* instance = new Arena();
  return *instance;
}

std::size_t Arena::class_index(std::size_t need) noexcept {
  std::size_t idx = 0;
  while (class_bytes(idx) < need) ++idx;
  return idx;
}

void Arena::note_backing(const topo::MemBind& mb, std::size_t bytes,
                         int node) {
  bytes_reserved_.fetch_add(bytes, std::memory_order_relaxed);
  refills_.fetch_add(1, std::memory_order_relaxed);
  // A "node miss" is a bind the host could have honoured but did not:
  // a real host node was requested and the pages are tag-only emulated
  // or physically elsewhere. Fixture-only nodes (smp20e7 on a one-node
  // dev box) are not misses — there is nothing the allocator could have
  // done better on that hardware.
  if (node < 0 || !topo::MemBind::numa_syscalls_available()) return;
  const std::vector<int> host = topo::MemBind::host_node_ids();
  if (std::find(host.begin(), host.end(), node) == host.end()) return;
  if (mb.emulated() || mb.resident_node() != node) {
    node_misses_.fetch_add(1, std::memory_order_relaxed);
  }
}

void* Arena::allocate(std::size_t bytes, std::size_t align) {
  if (bytes == 0) bytes = 1;
  if (align < alignof(std::max_align_t)) align = alignof(std::max_align_t);
  // Worst-case prefix: header plus alignment slack past it.
  const std::size_t need = bytes + kHeaderSize + align;

  // Magazine fast path: same thread freed a same-class block recently.
  if (need <= class_bytes(kNumClasses - 1) && need <= slab_bytes_ / 2) {
    const std::size_t idx = class_index(need);
    ThreadMagazines::Slot& slot = tl_magazines.slot_for(
        this, id_, mag_epoch_.load(std::memory_order_acquire));
    if (slot.count[idx] > 0) {
      void* block = slot.blocks[idx][--slot.count[idx]];
      void* result = reinterpret_cast<void*>(align_up(
          reinterpret_cast<std::uintptr_t>(block) + kHeaderSize, align));
      write_header(result, this, block, static_cast<std::uint32_t>(idx));
      allocs_.fetch_add(1, std::memory_order_relaxed);
      magazine_hits_.fetch_add(1, std::memory_order_relaxed);
      return result;
    }
  }

  std::lock_guard<std::mutex> lock(mu_);
  return allocate_locked(need, bytes, align);
}

void* Arena::allocate_locked(std::size_t need, std::size_t /*bytes*/,
                             std::size_t align) {
  const int node = node_.load(std::memory_order_relaxed);

  void* block = nullptr;
  std::uint32_t cls;
  if (need > class_bytes(kNumClasses - 1) || need > slab_bytes_ / 2) {
    // Oversize: dedicated node-bound mapping, returned to the OS on free.
    topo::MemBind mb = topo::MemBind::allocate(need, node);
    note_backing(mb, need, node);
    block = mb.data();
    large_.emplace_back(block, std::move(mb));
    cls = kClassLarge;
  } else {
    const std::size_t idx = class_index(need);
    cls = static_cast<std::uint32_t>(idx);
    if (free_[idx]) {
      block = free_[idx];
      free_[idx] = *static_cast<void**>(block);
    } else {
      const std::size_t bsz = class_bytes(idx);
      if (slabs_.empty() || bump_ + bsz > slabs_.back().size()) {
        topo::MemBind slab = topo::MemBind::allocate(slab_bytes_, node);
        note_backing(slab, slab_bytes_, node);
        slabs_.push_back(std::move(slab));
        bump_ = 0;
      }
      block = slabs_.back().data() + bump_;
      bump_ += bsz;
    }
  }

  void* result = reinterpret_cast<void*>(
      align_up(reinterpret_cast<std::uintptr_t>(block) + kHeaderSize, align));
  write_header(result, this, block, cls);
  allocs_.fetch_add(1, std::memory_order_relaxed);
  return result;
}

void Arena::deallocate(void* p) noexcept {
  if (!p) return;
  Header* h = header_of(p);
  assert(h->magic == kMagic && "Arena::deallocate: bad or double-freed ptr");
  h->magic = 0;  // arm the double-free tripwire
  h->owner->release(h);
}

void Arena::release(Header* h) noexcept {
  frees_.fetch_add(1, std::memory_order_relaxed);
  // Small blocks park in the freeing thread's magazine when there is
  // room; the next same-class alloc on that thread skips the mutex.
  if (h->size_class < kNumClasses && magazine_put(h)) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (h->size_class == kClassLarge) {
    for (std::size_t i = 0; i < large_.size(); ++i) {
      if (large_[i].first == h->block) {
        bytes_reserved_.fetch_sub(large_[i].second.size(),
                                  std::memory_order_relaxed);
        large_[i] = std::move(large_.back());
        large_.pop_back();
        return;
      }
    }
    assert(false && "Arena::release: large block not found");
    return;
  }
  // Reuse the block's first word as the freelist link.
  void* block = h->block;
  *static_cast<void**>(block) = free_[h->size_class];
  free_[h->size_class] = block;
}

bool Arena::magazine_put(Header* h) noexcept {
  ThreadMagazines::Slot& slot = tl_magazines.slot_for(
      this, id_, mag_epoch_.load(std::memory_order_acquire));
  const std::uint32_t cls = h->size_class;
  if (slot.count[cls] >= ThreadMagazines::kDepth) return false;
  slot.blocks[cls][slot.count[cls]++] = h->block;
  return true;
}

void Arena::rebind(int node) {
  std::lock_guard<std::mutex> lock(mu_);
  if (node == node_.load(std::memory_order_relaxed)) return;
  node_.store(node, std::memory_order_release);
  rebinds_.fetch_add(1, std::memory_order_relaxed);
  // Invalidate every thread's magazines for this arena: the next
  // slot_for() sees the new epoch and flushes, so cached blocks return
  // to the shared freelists and reuse follows the new placement.
  mag_epoch_.fetch_add(1, std::memory_order_release);
  for (topo::MemBind& slab : slabs_) slab.migrate_to(node);
  for (auto& [ptr, mb] : large_) mb.migrate_to(node);
}

Arena::Stats Arena::stats() const noexcept {
  Stats s;
  s.bytes_reserved = bytes_reserved_.load(std::memory_order_relaxed);
  s.refills = refills_.load(std::memory_order_relaxed);
  s.node_misses = node_misses_.load(std::memory_order_relaxed);
  s.allocs = allocs_.load(std::memory_order_relaxed);
  s.frees = frees_.load(std::memory_order_relaxed);
  s.rebinds = rebinds_.load(std::memory_order_relaxed);
  s.magazine_hits = magazine_hits_.load(std::memory_order_relaxed);
  return s;
}

std::uint64_t Arena::live_allocs() const noexcept {
  return allocs_.load(std::memory_order_relaxed) -
         frees_.load(std::memory_order_relaxed);
}

}  // namespace orwl::rt
