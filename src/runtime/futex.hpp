// Futex parking — the one way the runtime puts a thread to sleep.
//
// The grant engine (blocked acquirers, one word per request slot), the
// steal executor's idle workers, the
// tasks waiting at the all-task rendezvous (rt::Program::rendezvous:
// the schedule barrier, reduce_iteration, for_each), the shm
// transport's ring doorbells and writer threads, and the dist client's
// threads waiting for the read role all park directly on a 32-bit
// sequence word via SYS_futex on Linux; no condition variable sits on
// any of those paths.
//
// Protocol (same everywhere): the waiter reads the sequence word,
// re-checks its predicate, then futex-waits for the sequence to change;
// the waker updates the predicate state first, bumps the sequence
// (release), then wakes. A wake between the waiter's re-check and its
// futex_wait makes the wait return immediately (EAGAIN) — no lost
// wakeup, no mutex. Timed waits are supported (FUTEX_WAIT takes a
// relative timeout), which is what the acquire-timeout guard runs on.
//
// Scope: FutexScope::Private (FUTEX_*_PRIVATE) for words inside one
// process, FutexScope::Shared (plain FUTEX_WAIT/WAKE) for words in memory
// mapped by several processes. Non-Linux hosts fall back to C++20 atomic
// waiting, polling coarsely for timed waits.
//
// TSan note: the happens-before edges all come from the atomic
// predicate/sequence words, which TSan models; the futex syscall only
// blocks, it transfers no data.
#pragma once

#include <atomic>
#include <cstdint>

#if defined(__linux__)
#include <climits>
#include <linux/futex.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <cerrno>
#include <ctime>
#else
#include <chrono>
#include <thread>
#endif

namespace orwl::rt {

/// Which processes may park on a word: only this one (the runtime's
/// own words), or every process mapping it (shm doorbells).
enum class FutexScope { Private, Shared };

/// Block until `word != expected` is *signalled* (futex_wake after a
/// sequence bump), a spurious return, or the timeout. `timeout_ms <= 0`
/// means wait forever. Returns false only on timeout — callers must
/// re-check their predicate on true (spurious and EAGAIN returns are
/// folded into "woken").
inline bool futex_wait(std::atomic<std::uint32_t>& word,
                       std::uint32_t expected, std::int64_t timeout_ms,
                       FutexScope scope = FutexScope::Private) noexcept {
#if defined(__linux__)
  timespec ts;
  timespec* tsp = nullptr;
  if (timeout_ms > 0) {
    ts.tv_sec = static_cast<time_t>(timeout_ms / 1000);
    ts.tv_nsec = static_cast<long>((timeout_ms % 1000) * 1000000);
    tsp = &ts;
  }
  const long rc =
      syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(&word),
              scope == FutexScope::Private ? FUTEX_WAIT_PRIVATE : FUTEX_WAIT,
              expected, tsp, nullptr, 0);
  return !(rc == -1 && errno == ETIMEDOUT);
#else
  // Portability fallback: untimed waits map to C++20 atomic waiting;
  // timed waits poll coarsely.
  (void)scope;
  if (timeout_ms <= 0) {
    word.wait(expected, std::memory_order_acquire);
    return true;
  }
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (word.load(std::memory_order_acquire) == expected) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
#endif
}

/// Wake one (or all) futex_wait-ers parked on `word`. Call after
/// bumping the sequence word with release ordering.
inline void futex_wake(std::atomic<std::uint32_t>& word, bool all,
                       FutexScope scope = FutexScope::Private) noexcept {
#if defined(__linux__)
  syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(&word),
          scope == FutexScope::Private ? FUTEX_WAKE_PRIVATE : FUTEX_WAKE,
          all ? INT_MAX : 1, nullptr, nullptr, 0);
#else
  (void)scope;
  if (all) {
    word.notify_all();
  } else {
    word.notify_one();
  }
#endif
}

}  // namespace orwl::rt
