// Watchdog for tests whose failure mode is a Program::run() that never
// returns (an all-task collective waiting for a task that left): run()
// goes on a helper thread, and the whole suite aborts if it has not
// returned after 10 s, since stuck threads cannot be joined.
#pragma once

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <thread>

#include "orwl/orwl.hpp"

namespace orwl::test {

/// What Program::run() threw and how long it took.
struct RunOutcome {
  std::exception_ptr error;
  double seconds = 0.0;
};

inline RunOutcome run_or_abort(Program& p, const char* what) {
  RunOutcome out;
  std::atomic<bool> done{false};
  const auto start = std::chrono::steady_clock::now();
  std::thread runner([&] {
    try {
      p.run();
    } catch (...) {
      out.error = std::current_exception();
    }
    out.seconds = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start)
                      .count();
    done.store(true, std::memory_order_release);
  });
  while (!done.load(std::memory_order_acquire)) {
    if (std::chrono::steady_clock::now() - start > std::chrono::seconds(10)) {
      std::fprintf(stderr, "%s: Program::run() still blocked after 10 s\n",
                   what);
      std::abort();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  runner.join();
  return out;
}

/// run() must have rethrown the root cause, a std::domain_error carrying
/// `message`, within 2 s: well inside a 60 s deadlock guard.
inline void expect_root_cause_fast(const RunOutcome& out,
                                   const char* message) {
  ASSERT_TRUE(out.error) << "run() returned normally";
  EXPECT_LT(out.seconds, 2.0);
  try {
    std::rethrow_exception(out.error);
  } catch (const std::domain_error& e) {
    EXPECT_STREQ(e.what(), message);
  } catch (const std::exception& e) {
    ADD_FAILURE() << "run() threw something other than the root cause: "
                  << e.what();
  }
}

}  // namespace orwl::test
