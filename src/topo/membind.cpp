#include "topo/membind.hpp"

#include <sanitizer/asan_interface.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <new>
#include <utility>

#include "support/env.hpp"

#if defined(__linux__)
#include <dirent.h>
#include <sys/mman.h>
#include <sys/syscall.h>
#endif
#include <unistd.h>

// The NUMA syscalls are used raw (no libnuma dependency): the syscall
// numbers come from <sys/syscall.h> and the few policy constants we need
// are fixed ABI values (see linux/mempolicy.h).
#if defined(__linux__) && defined(SYS_mbind) && defined(SYS_move_pages) && \
    defined(SYS_get_mempolicy)
#define ORWL_HAVE_NUMA_SYSCALLS 1
#endif

namespace orwl::topo {

namespace {

#if defined(ORWL_HAVE_NUMA_SYSCALLS)
constexpr int kMpolBind = 2;           // MPOL_BIND
constexpr unsigned kMpolMfMove = 0x2;  // MPOL_MF_MOVE
constexpr std::size_t kMovePagesChunk = 16384;  // pages per syscall
#endif

/// ORWL_MEMBIND's spellings, in the knob row's order.
enum class MemBindMode { Auto, Emulate };

/// Allocate-path check: true when ORWL_MEMBIND=emulate forces the
/// portable fallback; rejects a malformed value loudly. Read per call
/// (not cached) so tests can toggle it with ScopedEnv.
bool force_emulation_checked() {
  return support::resolve<MemBindMode>(support::knob::kMemBind) ==
         MemBindMode::Emulate;
}

/// True when the syscall lane must be skipped. noexcept callers (migrate,
/// residency queries) route garbage to the safe emulate lane; the throwing
/// validation lives on the allocate path, which every buffer passes first.
bool force_emulation() noexcept {
  try {
    return force_emulation_checked();
  } catch (...) {
    return true;
  }
}

std::size_t round_to_pages(std::size_t bytes) {
  const std::size_t page = MemBind::page_size();
  return (bytes + page - 1) / page * page;
}

#if defined(__linux__)
/// Host node ids present under /sys/devices/system/node (scanned once).
const std::vector<bool>& host_node_table() {
  static const std::vector<bool> table = [] {
    std::vector<bool> nodes;
    if (DIR* dir = opendir("/sys/devices/system/node")) {
      while (const dirent* e = readdir(dir)) {
        if (std::strncmp(e->d_name, "node", 4) != 0) continue;
        char* end = nullptr;
        const long id = std::strtol(e->d_name + 4, &end, 10);
        if (end == e->d_name + 4 || *end != '\0' || id < 0) continue;
        if (static_cast<std::size_t>(id) >= nodes.size()) {
          nodes.resize(static_cast<std::size_t>(id) + 1, false);
        }
        nodes[static_cast<std::size_t>(id)] = true;
      }
      closedir(dir);
    }
    if (nodes.empty()) nodes.assign(1, true);  // NUMA-less: just node 0
    return nodes;
  }();
  return table;
}
#endif  // __linux__

/// True when `node` names a real NUMA node of the host.
bool host_has_node(int node) noexcept {
#if defined(__linux__)
  const auto& table = host_node_table();
  return node >= 0 && static_cast<std::size_t>(node) < table.size() &&
         table[static_cast<std::size_t>(node)];
#else
  return node == 0;
#endif
}

/// Compile-time presence + one runtime probe of the NUMA syscalls
/// (sandboxes commonly deny them with EPERM, which must look like
/// "unavailable", not like an error).
bool syscalls_usable() noexcept {
#if defined(ORWL_HAVE_NUMA_SYSCALLS)
  static const bool usable = [] {
    errno = 0;
    const long r = syscall(SYS_get_mempolicy, nullptr, nullptr, 0UL,
                           nullptr, 0UL);
    if (r == 0) return true;
    return errno != ENOSYS && errno != EPERM;
  }();
  return usable;
#else
  return false;
#endif
}

#if defined(ORWL_HAVE_NUMA_SYSCALLS)
/// mbind() the whole mapping to one node. Single-word nodemask: nodes
/// >= 64 are out of scope for a reproduction (the paper's machines top
/// out at 20) and fall back to tag-only binding at the call sites.
bool bind_mapping(void* ptr, std::size_t len, int node) noexcept {
  if (node < 0 || node >= static_cast<int>(8 * sizeof(unsigned long))) {
    return false;
  }
  const unsigned long mask = 1UL << node;
  // maxnode is number-of-bits + 1 (the libnuma convention): the kernel
  // internally truncates to maxnode - 1 bits, so passing exactly 64
  // would make bit 63 unreachable.
  return syscall(SYS_mbind, ptr, len, kMpolBind, &mask,
                 8 * sizeof(unsigned long) + 1, kMpolMfMove) == 0;
}

/// Drop the mapping's node policy (back to first-touch MPOL_DEFAULT), so
/// pages faulted after an unbind are no longer forced to the old node.
void unbind_mapping(void* ptr, std::size_t len) noexcept {
  syscall(SYS_mbind, ptr, len, 0 /* MPOL_DEFAULT */, nullptr, 0UL, 0U);
}

/// move_pages() the whole mapping to one node, chunked. Success requires
/// every resident page to land on the node: a 0 return from the syscall
/// still reports per-page failures (-EBUSY pinned pages, -ENOMEM full
/// target node) in `status`, and claiming success on those would let the
/// runtime count a move (and stop retrying it) while the data is still
/// remote.
/// Not-yet-faulted pages (-ENOENT) are fine — the trailing mbind makes
/// them fault on the target node.
bool move_mapping(void* ptr, std::size_t len, int node) noexcept {
  const std::size_t page = MemBind::page_size();
  const std::size_t npages = len / page;
  std::vector<void*> pages;
  std::vector<int> nodes;
  std::vector<int> status;
  bool all_moved = true;
  for (std::size_t first = 0; first < npages; first += kMovePagesChunk) {
    const std::size_t count = std::min(kMovePagesChunk, npages - first);
    pages.resize(count);
    nodes.assign(count, node);
    status.assign(count, 0);
    for (std::size_t i = 0; i < count; ++i) {
      pages[i] = static_cast<std::byte*>(ptr) + (first + i) * page;
    }
    if (syscall(SYS_move_pages, 0, static_cast<unsigned long>(count),
                pages.data(), nodes.data(), status.data(),
                kMpolMfMove) < 0) {
      return false;
    }
    for (std::size_t i = 0; i < count; ++i) {
      if (status[i] < 0 && status[i] != -ENOENT) all_moved = false;
    }
  }
  // Make sure pages faulted in *after* the move also land on `node` —
  // but only when the move actually succeeded: re-pointing the policy on
  // a partial failure would force future faults to a node the caller is
  // told the area is *not* bound to.
  if (all_moved) bind_mapping(ptr, len, node);
  return all_moved;
}
#endif  // ORWL_HAVE_NUMA_SYSCALLS

}  // namespace

MemBind::~MemBind() { reset(); }

MemBind::MemBind(MemBind&& other) noexcept
    : ptr_(std::exchange(other.ptr_, nullptr)),
      bytes_(std::exchange(other.bytes_, 0)),
      cap_(std::exchange(other.cap_, 0)),
      mapped_(std::exchange(other.mapped_, 0)),
      node_(std::exchange(other.node_, kAnyNode)),
      real_bind_(std::exchange(other.real_bind_, false)) {}

MemBind& MemBind::operator=(MemBind&& other) noexcept {
  if (this != &other) {
    reset();
    ptr_ = std::exchange(other.ptr_, nullptr);
    bytes_ = std::exchange(other.bytes_, 0);
    cap_ = std::exchange(other.cap_, 0);
    mapped_ = std::exchange(other.mapped_, 0);
    node_ = std::exchange(other.node_, kAnyNode);
    real_bind_ = std::exchange(other.real_bind_, false);
  }
  return *this;
}

void MemBind::reset() noexcept {
  if (ptr_ != nullptr) {
    // Clear every poisoned byte (the tail, freed arena blocks) first: a
    // later mapping at the same address must start out addressable.
    ASAN_UNPOISON_MEMORY_REGION(ptr_, cap_);
#if defined(__linux__)
    if (mapped_ != 0) {
      munmap(ptr_, mapped_);
    } else {
      delete[] ptr_;
    }
#else
    delete[] ptr_;
#endif
  }
  ptr_ = nullptr;
  bytes_ = 0;
  cap_ = 0;
  mapped_ = 0;
  node_ = kAnyNode;
  real_bind_ = false;
}

bool MemBind::try_resize(std::size_t bytes) noexcept {
  if (empty() || bytes == 0 || bytes > cap_) return false;
  ASAN_UNPOISON_MEMORY_REGION(ptr_, bytes);
  ASAN_POISON_MEMORY_REGION(ptr_ + bytes, cap_ - bytes);
  bytes_ = bytes;
  return true;
}

MemBind MemBind::allocate(std::size_t bytes, int node) {
  MemBind m;
  m.node_ = node;
  if (bytes == 0) return m;

#if defined(__linux__)
  if (!force_emulation_checked()) {
    const std::size_t len = round_to_pages(bytes);
    void* p = mmap(nullptr, len, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p != MAP_FAILED) {
      m.ptr_ = static_cast<std::byte*>(p);
      m.bytes_ = bytes;
      m.cap_ = len;
      m.mapped_ = len;
#if defined(ORWL_HAVE_NUMA_SYSCALLS)
      if (node >= 0 && syscalls_usable() && host_has_node(node)) {
        m.real_bind_ = bind_mapping(p, len, node);
      }
#endif
      // The page-rounded tail past `bytes` is not the caller's: an
      // overrun into it is an ASan report, not a silent write.
      ASAN_POISON_MEMORY_REGION(m.ptr_ + bytes, len - bytes);
      return m;
    }
  }
#endif  // __linux__

  // Portable heap fallback: zero-initialized, binding stays tag-only.
  m.ptr_ = new std::byte[bytes]();
  m.bytes_ = bytes;
  m.cap_ = bytes;
  return m;
}

bool MemBind::migrate_to(int node) noexcept {
  if (node < 0) {
    // Clearing the binding: also drop the kernel policy, or pages faulted
    // later would still be forced to the old node.
#if defined(ORWL_HAVE_NUMA_SYSCALLS)
    if (!empty() && mapped_ != 0 && real_bind_) {
      unbind_mapping(ptr_, mapped_);
    }
#endif
    node_ = node;
    real_bind_ = false;
    return true;
  }
  if (empty()) {
    node_ = node;
    real_bind_ = false;
    return true;
  }
#if defined(ORWL_HAVE_NUMA_SYSCALLS)
  if (mapped_ != 0 && !force_emulation() && syscalls_usable() &&
      host_has_node(node)) {
    if (!move_mapping(ptr_, mapped_, node)) {
      // Keep the previous binding state: callers observe the failure and
      // can retry on the next bind instead of believing a wrong tag.
      return false;
    }
    node_ = node;
    real_bind_ = true;
    return true;
  }
#endif
  node_ = node;
  real_bind_ = false;
  return true;  // recorded tag-only (fixture node / fallback storage)
}

std::vector<int> MemBind::page_nodes() const {
  if (empty()) return {};
  const std::size_t npages = round_to_pages(bytes_) / page_size();
#if defined(ORWL_HAVE_NUMA_SYSCALLS)
  // A tag-only binding (fixture node, denied syscalls) answers with the
  // intent: that is the portability contract. Physical queries are for
  // really-bound or unbound mappings.
  const bool tag_only = node_ >= 0 && !real_bind_;
  if (!tag_only && mapped_ != 0 && !force_emulation() && syscalls_usable()) {
    // Chunked like move_mapping: a paper-scale buffer has millions of
    // pages, and one giant query would build equally giant arrays and
    // hand them to the kernel in a single copy.
    std::vector<int> result(npages, 0);
    std::vector<void*> pages;
    bool ok = true;
    for (std::size_t first = 0; ok && first < npages;
         first += kMovePagesChunk) {
      const std::size_t count = std::min(kMovePagesChunk, npages - first);
      pages.resize(count);
      for (std::size_t i = 0; i < count; ++i) {
        pages[i] = ptr_ + (first + i) * page_size();
      }
      ok = syscall(SYS_move_pages, 0, static_cast<unsigned long>(count),
                   pages.data(), nullptr, result.data() + first, 0) == 0;
    }
    if (ok) {
      // Pages not faulted in yet report a negative status; they will be
      // allocated under the bound policy, so count them as the intent.
      for (int& s : result) {
        if (s < 0) s = node_;
      }
      return result;
    }
  }
#endif
  return std::vector<int>(npages, node_);
}

int MemBind::resident_node() const {
  const std::vector<int> nodes = page_nodes();
  if (nodes.empty()) return kAnyNode;
  std::map<int, std::size_t> counts;
  for (int n : nodes) ++counts[n];
  int best = kAnyNode;
  std::size_t best_count = 0;
  for (const auto& [n, c] : counts) {
    if (c > best_count) {
      best = n;
      best_count = c;
    }
  }
  return best;
}

bool MemBind::numa_syscalls_available() noexcept {
  return syscalls_usable() && !force_emulation();
}

int MemBind::host_node_count() noexcept {
#if defined(__linux__)
  const auto& table = host_node_table();
  const int present =
      static_cast<int>(std::count(table.begin(), table.end(), true));
  return present > 0 ? present : 1;
#else
  return 1;
#endif
}

std::vector<int> MemBind::host_node_ids() {
  std::vector<int> ids;
#if defined(__linux__)
  const auto& table = host_node_table();
  for (std::size_t node = 0; node < table.size(); ++node) {
    if (table[node]) ids.push_back(static_cast<int>(node));
  }
#endif
  if (ids.empty()) ids.push_back(0);
  return ids;
}

int MemBind::node_of_cpu(int cpu) noexcept {
#if defined(__linux__)
  if (cpu < 0) return -1;
  const auto& table = host_node_table();
  for (std::size_t node = 0; node < table.size(); ++node) {
    if (!table[node]) continue;
    char path[64];
    std::snprintf(path, sizeof path, "/sys/devices/system/node/node%zu/cpu%d",
                  node, cpu);
    if (access(path, F_OK) == 0) return static_cast<int>(node);
  }
  return -1;
#else
  (void)cpu;
  return -1;
#endif
}

std::size_t MemBind::page_size() noexcept {
  static const std::size_t page = [] {
    const long p = sysconf(_SC_PAGESIZE);
    return p > 0 ? static_cast<std::size_t>(p) : std::size_t{4096};
  }();
  return page;
}

int numa_node_of_pu(const Topology& t, int pu_os_index) noexcept {
  if (t.empty()) return -1;
  const Object* pu = t.pu_by_os_index(pu_os_index);
  if (pu == nullptr) return -1;
  const Object* node = pu->ancestor_of_type(ObjType::NumaNode);
  if (node == nullptr) return -1;
  // Detected host topologies carry the real OS node id (what mbind
  // expects — node ids can be sparse after offlining); synthetic
  // fixtures leave os_index at -1 and use the logical numbering.
  return node->os_index >= 0 ? node->os_index : node->logical_index;
}

void NumaBuffer::resize(std::size_t bytes) {
  std::lock_guard lock(mu_);
  if (bytes == 0) {
    mem_.reset();
    data_.store(nullptr, std::memory_order_release);
    size_.store(0, std::memory_order_release);
    return;
  }
  const int node = node_.load(std::memory_order_relaxed);
  if (!mem_.empty() && mem_.bound_node() == node &&
      mem_.try_resize(bytes)) {
    // Reuse in place (fits the page-rounded capacity): re-zero the used
    // prefix, publish the new size.
    std::memset(mem_.data(), 0, bytes);
  } else {
    mem_ = MemBind::allocate(bytes, node);
  }
  data_.store(mem_.data(), std::memory_order_release);
  size_.store(bytes, std::memory_order_release);
}

bool NumaBuffer::bind_to(int node) {
  std::lock_guard lock(mu_);
  if (node_.load(std::memory_order_relaxed) == node) return false;
  if (!mem_.empty()) {
    // A failed physical migration leaves the binding unchanged, so the
    // next bind (a re-placement) retries instead of trusting a wrong tag.
    if (!mem_.migrate_to(node)) return false;
    migrations_.fetch_add(1, std::memory_order_relaxed);
  }
  node_.store(node, std::memory_order_release);
  return true;
}

int NumaBuffer::resident_node() const {
  std::lock_guard lock(mu_);
  if (mem_.empty()) return node_.load(std::memory_order_relaxed);
  return mem_.resident_node();
}

bool NumaBuffer::emulated() const {
  std::lock_guard lock(mu_);
  return mem_.emulated();
}

}  // namespace orwl::topo
