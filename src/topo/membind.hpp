// NUMA-targeted memory: the data half of the paper's control threads.
//
// "the ORWL runtime additionally deploys control threads and a lock
// mechanism that manage lock synchronization and data transfer."
// (Sec. IV-A) — thread placement alone leaves location buffers wherever
// first touch happened to put them; this header provides the memory side:
// node-targeted page allocation, page-residency queries and an explicit
// migration primitive, all degrading gracefully on hosts without NUMA.
//
// Portability contract (the same fixture-driven spirit as ORWL_TOPOLOGY):
// when the NUMA syscalls are unavailable — non-Linux hosts, seccomp'd
// runners, or a target node that does not exist on the real machine
// because the program runs on a *fixture* topology — a binding is
// recorded instead of performed. The intended node stays queryable
// (bound_node(), page_nodes(), resident_node() all report it), so the
// runtime's data-transfer logic and its tests behave identically on a
// 12-NUMA-node fixture and on a 1-node laptop; only the physical page
// movement is elided.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

#include "topo/topology.hpp"

namespace orwl::topo {

/// A page-granular memory area with an intended NUMA node.
///
/// The low-level primitive: one anonymous mapping (or heap block in
/// fallback mode) whose pages can be bound to a node at allocation time
/// and migrated later. Not thread-safe — callers serialize structural
/// operations; the runtime wraps it in NumaBuffer, which is.
class MemBind {
 public:
  /// Sentinel node meaning "no binding": pages stay where first touch
  /// (or the kernel's default policy) puts them.
  static constexpr int kAnyNode = -1;

  MemBind() noexcept = default;
  ~MemBind();
  MemBind(MemBind&& other) noexcept;
  MemBind& operator=(MemBind&& other) noexcept;
  MemBind(const MemBind&) = delete;
  MemBind& operator=(const MemBind&) = delete;

  /// Allocate `bytes` of zero-initialized memory with its pages bound to
  /// `node` (kAnyNode => unbound first-touch memory).
  ///
  /// \param bytes  Size of the area; 0 yields an empty object.
  /// \param node   Target NUMA node, or kAnyNode for no binding. Nodes
  ///               that do not exist on the host (fixture topologies) are
  ///               recorded but not physically bound.
  /// \return The new area. Never throws for allocation-policy reasons:
  ///         when mmap or mbind is unavailable the portable heap fallback
  ///         is used. Throws std::bad_alloc only when memory itself is
  ///         exhausted. Under AddressSanitizer the page-rounded tail
  ///         past `bytes` is poisoned, so an overrun inside the last
  ///         page is reported.
  static MemBind allocate(std::size_t bytes, int node = kAnyNode);

  /// Start of the area; nullptr when empty.
  std::byte* data() const noexcept { return ptr_; }
  /// Usable size in bytes (the mapping itself is page-rounded).
  std::size_t size() const noexcept { return bytes_; }
  /// Bytes usable without reallocating: the page-rounded mapping length
  /// for mapped storage, the allocation size for heap-fallback storage.
  std::size_t capacity() const noexcept { return cap_; }
  bool empty() const noexcept { return ptr_ == nullptr; }

  /// Adjust the usable size within the existing storage, keeping the
  /// binding and the contents.
  /// \param bytes New size; must be non-zero and <= capacity().
  /// \return true when resized in place; false when empty, bytes == 0,
  ///         or bytes exceeds capacity() (caller reallocates instead).
  bool try_resize(std::size_t bytes) noexcept;

  /// The node this area is intended to live on (kAnyNode = unbound).
  /// Authoritative in emulated mode; equals the physical majority node
  /// after a successful real bind or migration.
  int bound_node() const noexcept { return node_; }

  /// True when the current binding is tag-only: heap fallback storage,
  /// missing syscalls, or a node beyond the host's (fixture topologies).
  bool emulated() const noexcept { return !real_bind_; }

  /// Move the pages to `node`. kAnyNode clears the binding — including
  /// the kernel's node policy on really-bound mappings, so later faults
  /// are first-touch again.
  ///
  /// \param node Target node; nodes unknown to the host are recorded
  ///             tag-only (see the portability contract above).
  /// \return true when the area is now considered bound to `node`
  ///         (physically or by emulation); false only when a physical
  ///         migration was attempted and the kernel rejected it — the
  ///         previous binding state is kept in that case, so callers can
  ///         retry.
  bool migrate_to(int node) noexcept;

  /// Residency of every page of the area, front to back.
  ///
  /// \return One node id per page. Physical residency (move_pages query)
  ///         for real bound mappings; the intended node in emulated mode;
  ///         kAnyNode entries when the kernel cannot tell. Empty for an
  ///         empty area.
  std::vector<int> page_nodes() const;

  /// Majority node of page_nodes(); kAnyNode when empty or unknown.
  int resident_node() const;

  /// Release the memory and return to the empty state.
  void reset() noexcept;

  // ---- host introspection ------------------------------------------------

  /// True when the mbind/move_pages syscalls exist and are permitted
  /// (cached; honors ORWL_MEMBIND=emulate, which forces false).
  static bool numa_syscalls_available() noexcept;

  /// Number of NUMA nodes of the host (>= 1; 1 on NUMA-less machines and
  /// wherever /sys/devices/system/node is unreadable).
  static int host_node_count() noexcept;

  /// Node ids present on the host, ascending. Node ids can be sparse
  /// (offlined nodes, CXL layouts), so iterate these instead of assuming
  /// 0..host_node_count()-1. Never empty: {0} on NUMA-less hosts.
  static std::vector<int> host_node_ids();

  /// Host NUMA node owning `cpu`, from sysfs.
  /// \param cpu OS cpu id (sched_getcpu numbering).
  /// \return The node id, or -1 when unknown (non-Linux, bad id).
  static int node_of_cpu(int cpu) noexcept;

  /// Page size used for rounding and residency queries.
  static std::size_t page_size() noexcept;

 private:
  std::byte* ptr_ = nullptr;
  std::size_t bytes_ = 0;
  std::size_t cap_ = 0;     ///< reusable storage size (>= bytes_)
  std::size_t mapped_ = 0;  ///< page-rounded mmap length; 0 => heap block
  int node_ = kAnyNode;     ///< intended node
  bool real_bind_ = false;  ///< pages were physically bound/migrated
};

/// The NUMA node of a processing unit *inside a given topology* — the
/// fixture view, as opposed to MemBind::node_of_cpu's host view. This is
/// the one place the runtime asks which locality domain a PU is in: the
/// node's logical_index is the dense index (0 .. nodes-1) per-node state
/// is kept under, and numa_node_of_pu gives the id mbind expects.
///
/// \param t           The (possibly synthetic) machine.
/// \param pu_os_index OS index of the PU, as used by placements.
/// \return The PU's NUMA-node ancestor in `t`, or null when the PU is
///         unknown or `t` has no NUMA level.
const Object* numa_node_of(const Topology& t, int pu_os_index) noexcept;

/// Memory-binding id of a PU's NUMA node (see numa_node_of).
///
/// \return The OS node id for detected host topologies (what mbind
///         expects; ids can be sparse after offlining), the logical index
///         for synthetic fixtures, which carry no OS node ids; -1 when
///         the PU is unknown or `t` has no NUMA level.
int numa_node_of_pu(const Topology& t, int pu_os_index) noexcept;

/// A resizable, zero-initialized byte buffer with a sticky NUMA binding.
///
/// This is what Location buffers are made of: resize() keeps the buffer
/// on its bound node, bind_to() migrates live pages, and the accessors
/// (node(), data(), size()) are safe to call concurrently with a
/// migration — a re-placement may rebind the pages while task threads
/// hold the area mapped. Structural mutation
/// (resize) must still be externally serialized against itself and
/// against readers of data(), exactly like std::vector.
class NumaBuffer {
 public:
  NumaBuffer() = default;
  NumaBuffer(const NumaBuffer&) = delete;
  NumaBuffer& operator=(const NumaBuffer&) = delete;

  /// (Re)allocate to `bytes` zero-initialized bytes on the bound node.
  /// Storage is reused (and re-zeroed) when the page-rounded size fits.
  /// \param bytes New size; 0 drops the storage (size() becomes 0,
  ///        data() nullptr) but keeps the node binding.
  void resize(std::size_t bytes);

  /// Start of the buffer; nullptr when empty (e.g. after resize(0)).
  std::byte* data() const noexcept {
    return data_.load(std::memory_order_acquire);
  }
  std::size_t size() const noexcept {
    return size_.load(std::memory_order_acquire);
  }

  /// Bind (and migrate, when storage exists) the buffer to `node`.
  /// Subsequent resize() calls allocate on that node. Thread-safe against
  /// concurrent bind_to/resize and against readers.
  /// \param node Target node; MemBind::kAnyNode clears the binding.
  /// \return true when the binding actually changed; false when it was
  ///         already in place or a physical migration failed (the binding
  ///         is then left unchanged so a later attempt retries).
  bool bind_to(int node);

  /// The node the buffer is bound to (MemBind::kAnyNode = unbound).
  /// Lock-free; safe concurrently with bind_to().
  int node() const noexcept {
    return node_.load(std::memory_order_acquire);
  }

  /// Physical (or emulated) majority residency; see MemBind.
  int resident_node() const;

  /// True when the current binding is tag-only (see MemBind::emulated).
  bool emulated() const;

  /// Number of bind_to() calls that changed the binding of live storage —
  /// i.e. actual page migrations (or their emulated equivalent).
  std::uint64_t migrations() const noexcept {
    return migrations_.load(std::memory_order_relaxed);
  }

 private:
  mutable std::mutex mu_;  ///< serializes structural ops and migration
  MemBind mem_;
  std::atomic<std::byte*> data_{nullptr};
  std::atomic<std::size_t> size_{0};
  std::atomic<int> node_{MemBind::kAnyNode};
  std::atomic<std::uint64_t> migrations_{0};
};

}  // namespace orwl::topo
