#include "runtime/handle.hpp"

#include <atomic>

#include "runtime/comm_meter.hpp"

namespace orwl::rt {

namespace {

/// Process-wide count of swallowed teardown releases (see
/// guard_teardown_failures in the header).
std::atomic<std::uint64_t>& teardown_failure_counter() noexcept {
  static std::atomic<std::uint64_t> count{0};
  return count;
}

}  // namespace

std::uint64_t guard_teardown_failures() noexcept {
  return teardown_failure_counter().load(std::memory_order_relaxed);
}

void Handle::insert(TaskContext& ctx, Location& loc, AccessMode mode,
                    std::uint64_t priority) {
  if (linked()) {
    throw std::logic_error("Handle: already linked to a location");
  }
  loc_ = &loc;
  prog_ = &ctx.program();
  task_ = ctx.id();
  mode_ = mode;
  ctx.program().register_insert(ctx.id(), loc, mode, priority, this);
}

void Handle::insert_standalone(Location& loc, AccessMode mode) {
  if (linked()) {
    throw std::logic_error("Handle: already linked to a location");
  }
  loc_ = &loc;
  prog_ = nullptr;
  task_ = 0;
  mode_ = mode;
  ticket_ = loc.enqueue_request(mode);
}

void Handle::write_insert(TaskContext& ctx, Location& loc,
                          std::uint64_t priority) {
  insert(ctx, loc, AccessMode::Write, priority);
}

void Handle::read_insert(TaskContext& ctx, Location& loc,
                         std::uint64_t priority) {
  insert(ctx, loc, AccessMode::Read, priority);
}

void Handle::acquire() {
  if (!linked()) throw std::logic_error("Handle::acquire: not linked");
  if (ticket_ == 0) {
    throw std::logic_error(
        "Handle::acquire: no pending request (plain handles cannot be "
        "re-acquired after release; use Handle2 for iterations)");
  }
  if (acquired_) throw std::logic_error("Handle::acquire: already acquired");
  loc_->acquire_request(ticket_);
  acquired_ = true;
  // Measured communication matrix (ORWL_REPLACE): the grant we just got
  // is a hand-off from whoever released the location last — the pair
  // (releaser, us) moved this location's bytes between their caches and
  // NUMA nodes. Gated on the meter so the Off policy costs one branch.
  if (prog_ != nullptr && prog_->comm_meter() != nullptr) {
    const std::int64_t from = loc_->last_releaser();
    if (from >= 0 && static_cast<TaskId>(from) != task_) {
      prog_->record_handoff(static_cast<TaskId>(from), task_, *loc_);
    }
  }
}

void Handle::release() {
  if (!acquired_) throw std::logic_error("Handle::release: not acquired");
  // Leave our task id on the location before the hand-off fires, so the
  // next grantee can attribute the transfer (see Handle::acquire).
  if (prog_ != nullptr && prog_->comm_meter() != nullptr) {
    loc_->note_releaser(task_);
  }
  if (iterative_) {
    ticket_ = loc_->reinsert_release_request(ticket_, mode_);
  } else {
    loc_->release_request(ticket_);
    ticket_ = 0;
  }
  acquired_ = false;
}

void Handle::release_for_teardown() noexcept {
  if (!acquired_) return;  // double release through a guard is legal
  try {
    release();
  } catch (...) {
    // A destructor must not throw; record the failure so tests and
    // operators can still see that a teardown went wrong.
    teardown_failure_counter().fetch_add(1, std::memory_order_relaxed);
    if (prog_ != nullptr) prog_->note_teardown_failure();
    acquired_ = false;  // the grant state is unknown; do not retry
  }
}

std::span<std::byte> Handle::write_map() {
  if (!acquired_) throw std::logic_error("write_map: section not acquired");
  if (mode_ != AccessMode::Write) {
    throw std::logic_error("write_map: handle has read access only");
  }
  return {loc_->data(), loc_->size()};
}

std::span<const std::byte> Handle::read_map() {
  if (!acquired_) throw std::logic_error("read_map: section not acquired");
  return {loc_->data(), loc_->size()};
}

}  // namespace orwl::rt
