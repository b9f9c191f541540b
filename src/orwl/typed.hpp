// Typed locations for the v2 facade.
//
// The paper's model is deliberately abstract — "orwl_location is the
// primitive to represent a shared resource between the tasks" (Sec. III)
// — but the v1 surface leaked the reproduction's internals: callers
// scaled byte counts by hand and reinterpret_cast their way through
// std::byte maps. The typed layer closes that gap: a Local<T> knows its
// element type, scale() sizes come from the type, and every map is
// checked (size, divisibility, alignment) before a reference is handed
// out — no reinterpret_cast in user code.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "runtime/location.hpp"
#include "runtime/types.hpp"

namespace orwl {

using rt::AccessMode;
using rt::LocationId;
using rt::TaskId;

/// Coordinates of a location: (owning task, slot). The v2 way to name
/// ORWL_LOCATION(task, slot) without touching runtime types.
struct LocRef {
  TaskId task = 0;
  std::size_t slot = 0;

  friend bool operator==(const LocRef&, const LocRef&) = default;
};

/// Shorthand constructor: loc(task) or loc(task, slot).
constexpr LocRef loc(TaskId task, std::size_t slot = 0) noexcept {
  return LocRef{task, slot};
}

namespace detail {

/// Element types a location may hold: trivially copyable (the buffer is
/// raw shared memory that migrates between NUMA nodes) and cv-unqualified
/// (constness is expressed by the guard, not the element type).
template <typename T>
inline constexpr bool is_location_element =
    std::is_trivially_copyable_v<T> && !std::is_const_v<T> &&
    !std::is_volatile_v<T> && !std::is_reference_v<T>;

/// The one checked byte->T conversion of the facade. Verifies that the
/// buffer exists, holds a whole number of at least `min_count` elements,
/// and is aligned for T — then hands out the only reinterpret_cast the
/// user never has to write. Array surfaces pass min_count = 0: a
/// zero-sized location is the v1 pure-synchronization idiom and maps to
/// an empty span.
template <typename T>
std::span<T> checked_span(std::byte* data, std::size_t bytes,
                          const char* what, std::size_t min_count = 1) {
  static_assert(is_location_element<T>,
                "location element types must be cv-unqualified and "
                "trivially copyable");
  if (bytes == 0 && min_count == 0) return {};
  if (data == nullptr) {
    throw std::logic_error(std::string(what) +
                           ": location has no buffer (scale() it first)");
  }
  if (bytes < min_count * sizeof(T) || bytes % sizeof(T) != 0) {
    throw std::length_error(
        std::string(what) + ": location holds " + std::to_string(bytes) +
        " bytes, not a multiple of sizeof(T)=" + std::to_string(sizeof(T)) +
        " covering at least " + std::to_string(min_count) + " element(s)");
  }
  if (reinterpret_cast<std::uintptr_t>(data) % alignof(T) != 0) {
    throw std::runtime_error(std::string(what) +
                             ": buffer is not aligned for the element type");
  }
  return {reinterpret_cast<T*>(data), bytes / sizeof(T)};
}

template <typename T>
std::span<const T> checked_span(const std::byte* data, std::size_t bytes,
                                const char* what, std::size_t min_count = 1) {
  const std::span<T> s = checked_span<T>(const_cast<std::byte*>(data), bytes,
                                         what, min_count);
  return {s.data(), s.size()};
}

}  // namespace detail

/// Checked typed view of an untyped byte span (the FIFO channels and
/// other blob surfaces): size must be a multiple of sizeof(T) and the
/// storage aligned for T; an empty input yields an empty span.
template <typename T>
std::span<T> as_span(std::span<std::byte> bytes) {
  return detail::checked_span<T>(bytes.data(), bytes.size(), "as_span", 0);
}
template <typename T>
std::span<const T> as_span(std::span<const std::byte> bytes) {
  return detail::checked_span<T>(bytes.data(), bytes.size(), "as_span", 0);
}

/// Typed view of one location holding a single T (Local<T>) or a runtime-
/// sized array of T (Local<T[]>). A Local does not own the location — it
/// is a cheap, copyable lens the facade hands out; the underlying
/// rt::Location (buffer, FIFO, NUMA binding) lives in the program.
///
/// Host-side access (value()/span()) does NOT consult the lock protocol:
/// it is for the init phase (priming buffers before schedule) and for
/// post-run inspection. During the compute phase, access goes through
/// ReadGuard/WriteGuard on a declared link.
template <typename T>
class Local {
  static_assert(detail::is_location_element<T>,
                "Local<T>: T must be cv-unqualified, trivially copyable");

 public:
  explicit Local(rt::Location& l) noexcept : loc_(&l) {}

  /// orwl_scale with the size taken from the type: exactly one T.
  void scale() { loc_->scale(sizeof(T)); }

  /// Host-side reference to the element (init phase / inspection only).
  T& value() {
    return detail::checked_span<T>(loc_->data(), loc_->size(), "Local")[0];
  }
  const T& value() const {
    return detail::checked_span<T>(loc_->data(), loc_->size(), "Local")[0];
  }

  rt::Location& location() const noexcept { return *loc_; }

 private:
  rt::Location* loc_;
};

template <typename T>
class Local<T[]> {
  static_assert(detail::is_location_element<T>,
                "Local<T[]>: T must be cv-unqualified, trivially copyable");

 public:
  explicit Local(rt::Location& l) noexcept : loc_(&l) {}

  /// orwl_scale in elements, not bytes (see rt::Location::scale).
  void scale(std::size_t count) { loc_->scale(count * sizeof(T)); }

  /// Elements of the last scale().
  std::size_t count() const noexcept { return loc_->size() / sizeof(T); }

  /// Host-side view of the elements (init phase / inspection only;
  /// empty for zero-sized synchronization-only locations).
  std::span<T> span() {
    return detail::checked_span<T>(loc_->data(), loc_->size(), "Local", 0);
  }
  std::span<const T> span() const {
    return detail::checked_span<T>(loc_->data(), loc_->size(), "Local", 0);
  }

  rt::Location& location() const noexcept { return *loc_; }

 private:
  rt::Location* loc_;
};

}  // namespace orwl
