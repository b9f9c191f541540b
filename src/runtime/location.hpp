// ORWL locations: the shared resources of the programming model.
//
// "orwl_location is the primitive to represent a shared resource between
// the tasks. It could be data (identical contents at varying memory
// addresses), memory (a specific address), a computational unit (CPU or
// accelerator) or an I/O device." (Sec. III)
//
// A location owns a NUMA-aware byte buffer (sized by scale()) and the
// FIFO request queue that serializes access to it. The buffer is a
// topo::NumaBuffer: once the affinity module has placed the owner task,
// the runtime binds the buffer to the owner's NUMA node (the "data
// transfer" that the paper's control threads manage beside lock
// synchronization, Sec. IV-A). The pages move only when the placement moves: at
// placement, on re-placement and on live inserts, never at grant time.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "runtime/request_queue.hpp"
#include "runtime/types.hpp"
#include "topo/membind.hpp"

namespace orwl::rt {

/// Location-memory policy of the runtime (ORWL_DATA_TRANSFER /
/// ProgramOptions::data_transfer). Enumerators follow
/// support::knob::kDataTransfer's spellings.
enum class DataTransferMode : std::uint8_t {
  Off,    ///< first-touch only: never bind or migrate location buffers
  Owner,  ///< bind each buffer to its owner task's placed NUMA node
};

/// Human-readable policy name ("off", "owner").
const char* to_string(DataTransferMode p) noexcept;

class Location {
 public:
  /// \param id    Global location id (owner * locations_per_task + slot).
  /// \param owner Task owning (and scaling) this location.
  /// \param slot  Index of this location among its owner's locations.
  /// \param arena Arena backing the request queue's windows and slots
  ///              (the owner's control-shard arena; null = process arena).
  Location(LocationId id, TaskId owner, std::size_t slot,
           rt::Arena* arena = nullptr)
      : id_(id), owner_(owner), slot_(slot), queue_(arena) {}
  virtual ~Location() = default;
  Location(const Location&) = delete;
  Location& operator=(const Location&) = delete;

  // ---- the request surface Handles drive ---------------------------------
  // Virtual so a location can live in another process or on another host:
  // dist::RemoteLocation overrides these four to run the same ticket
  // life-cycle over a transport (REQ -> GRANT -> RELEASE frames) while
  // Handle, the guards and the v2 facade stay byte-for-byte unchanged.
  // The defaults drive the in-process FIFO queue.

  /// Append a request for this location; returns its ticket.
  virtual Ticket enqueue_request(AccessMode mode) {
    return queue_.enqueue(mode);
  }

  /// Block until the ticket is granted (and, for a remote location, the
  /// buffer payload has landed in the local mirror buffer).
  virtual void acquire_request(Ticket t) { queue_.acquire(t); }

  /// Release a granted request (for a remote write, ships the buffer
  /// back to the home process first).
  virtual void release_request(Ticket t) { queue_.release(t); }

  /// Atomically re-insert a request of the same mode and release the
  /// given one (the iterative-handle cycle). Returns the new ticket.
  virtual Ticket reinsert_release_request(Ticket t, AccessMode mode) {
    return queue_.reinsert_and_release(t, mode);
  }

  /// True for locations whose home is another process (dist layer).
  virtual bool is_remote() const noexcept { return false; }

  LocationId id() const noexcept { return id_; }
  TaskId owner() const noexcept { return owner_; }
  /// Index of this location among its owner's locations.
  std::size_t slot() const noexcept { return slot_; }

  /// "Scale our own location(s) to the appropriate size" (Listing 1).
  /// (Re)allocates the backing buffer on the location's bound NUMA node;
  /// contents are zero-initialized. Storage is one page-rounded mapping
  /// (topo::NumaBuffer); a smaller scale reuses it in place.
  /// \param bytes New size of the buffer.
  void scale(std::size_t bytes) { buf_.resize(bytes); }

  /// Size of the buffer set by the last scale() (0 before any).
  std::size_t size() const noexcept { return buf_.size(); }
  /// Buffer start; nullptr before any scale() and for zero-sized ones.
  std::byte* data() noexcept { return buf_.data(); }
  const std::byte* data() const noexcept { return buf_.data(); }

  /// Typed view of the buffer. The caller is responsible for holding the
  /// lock (through a granted handle) during concurrent phases.
  template <typename T>
  T* as() noexcept {
    return reinterpret_cast<T*>(buf_.data());
  }
  template <typename T>
  const T* as() const noexcept {
    return reinterpret_cast<const T*>(buf_.data());
  }

  RequestQueue& queue() noexcept { return queue_; }
  const RequestQueue& queue() const noexcept { return queue_; }

  // ---- NUMA-local location memory (Sec. IV-A data transfer) --------------

  /// The NUMA-aware backing store (benches and tests inspect residency
  /// through it; application code should stick to data()/as()).
  topo::NumaBuffer& buffer() noexcept { return buf_; }
  const topo::NumaBuffer& buffer() const noexcept { return buf_; }

  /// Declare `node` the home of this location (its owner task's placed
  /// NUMA node) and migrate the buffer there. Called by the runtime at
  /// placement time, on dynamic re-placement, and for live inserts; the
  /// Program skips the call under DataTransferMode::Off. Thread-safe.
  /// \param node Topology NUMA-node index; -1 = unknown/unplaced (only
  ///        recorded).
  /// \return true when live storage already bound to another node moved
  ///         here (a data transfer); false for a first binding, an
  ///         unchanged home or a failed migration.
  bool bind_home(int node);

  /// Home node currently declared via bind_home(); -1 when unplaced.
  int home_node() const noexcept {
    return home_node_.load(std::memory_order_acquire);
  }

  /// Node the buffer is currently bound to; -1 when unbound.
  int memory_node() const noexcept { return buf_.node(); }

  /// Record the task that just released this location's lock (any access
  /// mode). The next acquirer reads it to attribute the hand-off in the
  /// measured communication matrix. Relaxed would suffice for the data —
  /// the queue's grant publication orders the store before the matching
  /// load — release/acquire keeps the pairing self-evident.
  void note_releaser(TaskId task) noexcept {
    last_releaser_.store(static_cast<std::int64_t>(task),
                         std::memory_order_release);
  }

  /// Task of the most recent release, or -1 before the first one.
  std::int64_t last_releaser() const noexcept {
    return last_releaser_.load(std::memory_order_acquire);
  }

 private:
  LocationId id_;
  TaskId owner_;
  std::size_t slot_;
  topo::NumaBuffer buf_;
  RequestQueue queue_;
  std::atomic<int> home_node_{-1};
  std::atomic<std::int64_t> last_releaser_{-1};
};

}  // namespace orwl::rt
