// Handles and sections: how tasks link to and access locations.
//
// "orwl_handle implements a primitive to link the locations to the
// appropriate tasks with read or write access." — and ORWL_SECTION
// "defines a critical section that manages the access of threads to the
// location". The iterative variant (orwl_handle2 / ORWL_SECTION2)
// re-inserts its request at every release so that "each task may run a
// series of iterations that are autonomously synchronized by their access
// to the resource". (Sec. III)
#pragma once

#include <span>
#include <stdexcept>

#include "runtime/location.hpp"
#include "runtime/program.hpp"

namespace orwl::rt {

class Handle {
 public:
  Handle() = default;
  virtual ~Handle() = default;
  Handle(const Handle&) = delete;
  Handle& operator=(const Handle&) = delete;

  /// orwl_write_insert: link this handle to `loc` with exclusive access.
  /// \param ctx      The inserting task's context.
  /// \param loc      Location to link; must belong to ctx's program.
  /// \param priority Position in the location's initial FIFO (ties broken
  ///                 by task id, then insertion order). After schedule(),
  ///                 inserts are live and enqueue at the tail instead.
  /// \throws std::logic_error when the handle is already linked.
  void write_insert(TaskContext& ctx, Location& loc, std::uint64_t priority);

  /// orwl_read_insert: link with shared access (same contract as
  /// write_insert; readers at the FIFO head are granted as a group).
  void read_insert(TaskContext& ctx, Location& loc, std::uint64_t priority);

  /// Link this handle to a location outside any Program (no task context,
  /// no schedule barrier): the request is enqueued immediately at the
  /// FIFO tail. This is how dist clients drive a RemoteLocation — the
  /// remote home's queue, not a local Program, orders the grants.
  /// \throws std::logic_error when the handle is already linked.
  void insert_standalone(Location& loc, AccessMode mode);

  /// Block until this handle's request is granted.
  /// \throws std::logic_error on protocol misuse (not linked, no pending
  ///         request, double acquire); std::runtime_error when the
  ///         deadlock-guard timeout expires.
  void acquire();

  /// Release the grant. Iterative handles re-insert automatically; plain
  /// handles become inert afterwards.
  /// \throws std::logic_error when nothing is acquired.
  void release();

  /// Guard-teardown variant of release(): never throws. Releasing a
  /// handle that is not acquired is a no-op (so a guard whose lock was
  /// released early tears down cleanly), and a release that would have
  /// thrown is swallowed and recorded — on the owning program's
  /// guard_teardown_failures() counter and the global
  /// rt::guard_teardown_failures(). This is what `~Section` and the v2
  /// facade's guard destructors call: destructors must not throw.
  void release_for_teardown() noexcept;

  bool linked() const noexcept { return loc_ != nullptr; }
  bool acquired() const noexcept { return acquired_; }
  bool iterative() const noexcept { return iterative_; }
  AccessMode mode() const noexcept { return mode_; }
  Location* location() const noexcept { return loc_; }

  /// orwl_write_map: mutable view of the location buffer. Requires an
  /// acquired write handle.
  std::span<std::byte> write_map();

  /// orwl_read_map: read view of the buffer. Requires an acquired handle.
  std::span<const std::byte> read_map();

  /// Typed convenience maps.
  template <typename T>
  T* write_map_as() {
    return reinterpret_cast<T*>(write_map().data());
  }
  template <typename T>
  const T* read_map_as() {
    return reinterpret_cast<const T*>(read_map().data());
  }

 protected:
  friend class Program;

  /// Installed by the runtime when the request enters the FIFO.
  void attach_ticket(Ticket t) noexcept { ticket_ = t; }

  void insert(TaskContext& ctx, Location& loc, AccessMode mode,
              std::uint64_t priority);

  Location* loc_ = nullptr;
  Program* prog_ = nullptr;  ///< set at insert; meter and teardown stats
  TaskId task_ = 0;          ///< task that inserted this handle
  AccessMode mode_ = AccessMode::Read;
  Ticket ticket_ = 0;
  bool acquired_ = false;
  bool iterative_ = false;
};

/// orwl_handle2: the iterative handle. Each release atomically re-inserts
/// a request for the next iteration, keeping the cyclic FIFO order of all
/// participants.
class Handle2 : public Handle {
 public:
  Handle2() { iterative_ = true; }
};

/// Number of guard teardowns (Section / v2 guard destructors) that had to
/// swallow a throwing release since process start. A non-zero value means
/// a protocol error surfaced during stack unwinding and was recorded
/// instead of terminating the program.
std::uint64_t guard_teardown_failures() noexcept;

/// ORWL_SECTION as RAII: acquires on construction, releases on scope exit.
/// Teardown is noexcept: a handle already released (double release) is a
/// no-op, and a throwing release is swallowed and counted (see
/// guard_teardown_failures).
///
///   Section sec(handle);
///   double* v = sec.as<double>();
class Section {
 public:
  explicit Section(Handle& h) : h_(&h) { h_->acquire(); }
  ~Section() { h_->release_for_teardown(); }
  Section(const Section&) = delete;
  Section& operator=(const Section&) = delete;

  /// Release the lock before scope exit; the destructor then does
  /// nothing. Throws like Handle::release on protocol misuse.
  void release() { h_->release(); }

  std::span<std::byte> write_map() { return h_->write_map(); }
  std::span<const std::byte> read_map() { return h_->read_map(); }

  template <typename T>
  T* as() {
    return h_->write_map_as<T>();
  }
  template <typename T>
  const T* as_const() {
    return h_->read_map_as<T>();
  }

 private:
  Handle* h_;
};

}  // namespace orwl::rt
