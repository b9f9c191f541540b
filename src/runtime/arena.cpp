#include "runtime/arena.hpp"

#include <sanitizer/asan_interface.h>

#include <algorithm>
#include <cassert>

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

Arena::Arena(int node, std::size_t slab_bytes)
    : slab_bytes_(std::max(slab_bytes, std::size_t{4096})), node_(node) {
  free_.assign(kNumClasses, nullptr);
}

Arena::~Arena() {
  // Every runtime component frees its blocks in its own destructor
  // before the Program's arenas go away (member declaration order);
  // a live allocation here is a lifetime bug upstream.
  assert(allocs_.load(std::memory_order_relaxed) ==
         frees_.load(std::memory_order_relaxed));
  // MemBind destructors unmap the slabs and large mappings.
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

void Arena::note_backing(const topo::MemBind& mb, std::size_t bytes) {
  bytes_reserved_.fetch_add(bytes, std::memory_order_relaxed);
  refills_.fetch_add(1, std::memory_order_relaxed);
  // A "node miss" is a bind the host could have honoured but did not:
  // a real host node was requested and the pages are tag-only emulated
  // or physically elsewhere. Fixture-only nodes (smp20e7 on a one-node
  // dev box) are not misses — there is nothing the allocator could have
  // done better on that hardware.
  if (node_ < 0 || !topo::MemBind::numa_syscalls_available()) return;
  const std::vector<int> host = topo::MemBind::host_node_ids();
  if (std::find(host.begin(), host.end(), node_) == host.end()) return;
  if (mb.emulated() || mb.resident_node() != node_) {
    node_misses_.fetch_add(1, std::memory_order_relaxed);
  }
}

void* Arena::allocate(std::size_t bytes, std::size_t align) {
  if (bytes == 0) bytes = 1;
  if (align < alignof(std::max_align_t)) align = alignof(std::max_align_t);
  // Worst-case prefix: header plus alignment slack past it.
  const std::size_t need = bytes + kHeaderSize + align;

  std::lock_guard<std::mutex> lock(mu_);
  void* block = nullptr;
  std::uint32_t cls;
  if (need > class_bytes(kNumClasses - 1) || need > slab_bytes_ / 2) {
    // Oversize: dedicated node-bound mapping, returned to the OS on free.
    topo::MemBind mb = topo::MemBind::allocate(need, node_);
    note_backing(mb, need);
    block = mb.data();
    large_.emplace_back(block, std::move(mb));
    cls = kClassLarge;
  } else {
    const std::size_t idx = class_index(need);
    cls = static_cast<std::uint32_t>(idx);
    if (free_[idx]) {
      block = free_[idx];
      ASAN_UNPOISON_MEMORY_REGION(block, class_bytes(idx));
      free_[idx] = *static_cast<void**>(block);
    } else {
      const std::size_t bsz = class_bytes(idx);
      if (slabs_.empty() || bump_ + bsz > slabs_.back().size()) {
        topo::MemBind slab = topo::MemBind::allocate(slab_bytes_, node_);
        note_backing(slab, slab_bytes_);
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
  // Reuse the block's first word as the freelist link; the rest of the
  // block (header included) is off limits until allocate() hands it out.
  void* block = h->block;
  const std::size_t bsz = class_bytes(h->size_class);
  *static_cast<void**>(block) = free_[h->size_class];
  free_[h->size_class] = block;
  ASAN_POISON_MEMORY_REGION(static_cast<std::byte*>(block) + sizeof(void*),
                            bsz - sizeof(void*));
}

Arena::Stats Arena::stats() const noexcept {
  Stats s;
  s.bytes_reserved = bytes_reserved_.load(std::memory_order_relaxed);
  s.refills = refills_.load(std::memory_order_relaxed);
  s.node_misses = node_misses_.load(std::memory_order_relaxed);
  s.allocs = allocs_.load(std::memory_order_relaxed);
  s.frees = frees_.load(std::memory_order_relaxed);
  return s;
}

std::uint64_t Arena::live_allocs() const noexcept {
  return allocs_.load(std::memory_order_relaxed) -
         frees_.load(std::memory_order_relaxed);
}

}  // namespace orwl::rt
