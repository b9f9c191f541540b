#include "runtime/location.hpp"

#include <algorithm>

#include "support/env.hpp"

namespace orwl::rt {

const char* to_string(DataTransferMode p) noexcept {
  return support::choice_name(support::knob::kDataTransfer, p);
}

void Location::bind_home(int node) {
  const int old_home = home_node_.exchange(node, std::memory_order_acq_rel);
  if (policy_ == DataTransferMode::Off || node < 0) return;
  if (policy_ == DataTransferMode::Adaptive && old_home == node &&
      buf_.node() >= 0) {
    // Re-placement that did not move the owner: a buffer the adaptive
    // policy already parked next to its writers must not bounce back to
    // the home node just because affinity_compute() ran again.
    return;
  }
  buf_.bind_to(node);
  if (old_home != node) {
    // The placement moved: writer streaks recorded under the old
    // placement are stale, so the adaptive history restarts from scratch.
    writer_streak_.store(pack_streak(-1, 0), std::memory_order_release);
  }
}

void Location::note_writer_node(int node) noexcept {
  if (node < 0) return;  // unplaced writer: no evidence either way
  // Writers are serialized by the lock protocol, but bind_home() resets
  // the streak concurrently on re-placement — a plain store here could
  // overwrite that reset with history from the old placement, so the
  // update is a CAS loop that rebuilds from whatever it raced with.
  std::uint64_t cur = writer_streak_.load(std::memory_order_acquire);
  for (;;) {
    int streak = streak_node(cur);
    std::uint32_t count = streak_count(cur);
    if (node == streak) {
      // Saturate so a long-settled phase cannot build unbounded decay
      // debt: switching away after saturation takes at most
      // log2(2K) + K grants.
      count = std::min(count + 1, 2 * hysteresis_);
    } else if (count > 1) {
      count /= 2;  // decay toward switching, but keep the incumbent node
    } else {
      streak = node;
      count = 1;
    }
    if (writer_streak_.compare_exchange_weak(cur, pack_streak(streak, count),
                                             std::memory_order_acq_rel,
                                             std::memory_order_acquire)) {
      return;
    }
  }
}

void Location::before_grant() noexcept {
  if (policy_ == DataTransferMode::Off) return;
  int target = home_node_.load(std::memory_order_acquire);
  if (policy_ == DataTransferMode::Adaptive) {
    // Follow the writers: only a streak of K consecutive granted writers
    // on one node is evidence the producer settled there — then move the
    // pages next to it before waking the next grantee. A shorter streak
    // (one-off remote writers, ping-ponging writer sets) is noise: keep
    // whatever binding is in place rather than bouncing the pages back
    // to the home node and out again a few grants later. Only a location
    // that has never seen a placed writer falls back to the owner
    // binding.
    const std::uint64_t s = writer_streak_.load(std::memory_order_acquire);
    const int node = streak_node(s);
    const std::uint32_t count = streak_count(s);
    if (node >= 0 && count >= hysteresis_) {
      target = node;
    } else if (count > 0) {
      return;  // writers seen but streak below threshold: leave alone
    }
  }
  if (target < 0 || buf_.node() == target) return;
  if (buf_.size() == 0) return;  // never scaled: no pages to move
  if (buf_.bind_to(target)) {
    transfers_.fetch_add(1, std::memory_order_relaxed);
  }
}

}  // namespace orwl::rt
