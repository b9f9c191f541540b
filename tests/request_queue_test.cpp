#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "orwl/orwl.hpp"
#include "support/rng.hpp"

namespace {

using namespace orwl::rt;

TEST(RequestQueue, FirstWriterGrantedImmediately) {
  RequestQueue q;
  const Ticket w = q.enqueue(AccessMode::Write);
  EXPECT_TRUE(q.granted(w));
}

TEST(RequestQueue, SecondWriterWaitsForFirst) {
  RequestQueue q;
  const Ticket w1 = q.enqueue(AccessMode::Write);
  const Ticket w2 = q.enqueue(AccessMode::Write);
  EXPECT_TRUE(q.granted(w1));
  EXPECT_FALSE(q.granted(w2));
  q.release(w1);
  EXPECT_TRUE(q.granted(w2));
}

TEST(RequestQueue, LeadingReadersShareTheGrant) {
  RequestQueue q;
  const Ticket r1 = q.enqueue(AccessMode::Read);
  const Ticket r2 = q.enqueue(AccessMode::Read);
  const Ticket w = q.enqueue(AccessMode::Write);
  const Ticket r3 = q.enqueue(AccessMode::Read);
  EXPECT_TRUE(q.granted(r1));
  EXPECT_TRUE(q.granted(r2));
  EXPECT_FALSE(q.granted(w));
  EXPECT_FALSE(q.granted(r3)) << "reads behind a write must not be granted";
  q.release(r1);
  EXPECT_FALSE(q.granted(w)) << "writer waits for the whole read group";
  q.release(r2);
  EXPECT_TRUE(q.granted(w));
  q.release(w);
  EXPECT_TRUE(q.granted(r3));
  q.release(r3);
  EXPECT_EQ(q.pending(), 0u);
}

TEST(RequestQueue, FifoOrderIsRespected) {
  RequestQueue q;
  const Ticket w1 = q.enqueue(AccessMode::Write);
  const Ticket r1 = q.enqueue(AccessMode::Read);
  const Ticket w2 = q.enqueue(AccessMode::Write);
  EXPECT_TRUE(q.granted(w1));
  q.release(w1);
  EXPECT_TRUE(q.granted(r1));
  EXPECT_FALSE(q.granted(w2));
  q.release(r1);
  EXPECT_TRUE(q.granted(w2));
  q.release(w2);
}

TEST(RequestQueue, ReleaseOfUngrantedThrows) {
  RequestQueue q;
  q.enqueue(AccessMode::Write);
  const Ticket w2 = q.enqueue(AccessMode::Write);
  EXPECT_THROW(q.release(w2), std::logic_error);
}

TEST(RequestQueue, ReleaseOfUnknownTicketThrows) {
  RequestQueue q;
  EXPECT_THROW(q.release(12345), std::logic_error);
}

TEST(RequestQueue, AcquireUnknownTicketThrows) {
  RequestQueue q;
  EXPECT_THROW(q.acquire(42), std::runtime_error);
}

TEST(RequestQueue, AcquireTimesOutOnDeadlock) {
  RequestQueue q;
  q.set_acquire_timeout(50);
  q.enqueue(AccessMode::Write);  // never released
  const Ticket w2 = q.enqueue(AccessMode::Write);
  EXPECT_THROW(q.acquire(w2), std::runtime_error);
}

TEST(RequestQueue, ReinsertAndReleaseKeepsCycle) {
  // Two iterative participants: writer (prio pos 0) and reader (pos 1).
  RequestQueue q;
  Ticket w = q.enqueue(AccessMode::Write);
  Ticket r = q.enqueue(AccessMode::Read);
  for (int iter = 0; iter < 10; ++iter) {
    EXPECT_TRUE(q.granted(w)) << "iteration " << iter;
    EXPECT_FALSE(q.granted(r));
    w = q.reinsert_and_release(w, AccessMode::Write);
    EXPECT_TRUE(q.granted(r));
    EXPECT_FALSE(q.granted(w));
    r = q.reinsert_and_release(r, AccessMode::Read);
  }
  EXPECT_EQ(q.pending(), 2u);
}

TEST(RequestQueue, AcquireBlocksUntilGrant) {
  RequestQueue q;
  const Ticket w1 = q.enqueue(AccessMode::Write);
  const Ticket w2 = q.enqueue(AccessMode::Write);
  std::atomic<bool> got{false};
  std::thread waiter([&] {
    q.acquire(w2);
    got.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(got.load());
  q.release(w1);
  waiter.join();
  EXPECT_TRUE(got.load());
}

TEST(RequestQueue, ManyThreadsMutualExclusion) {
  // N writer threads iterate on the same location; the counter must never
  // be updated concurrently.
  RequestQueue q;
  constexpr int kThreads = 8;
  constexpr int kIters = 200;
  std::vector<Ticket> tickets(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    tickets[static_cast<std::size_t>(t)] = q.enqueue(AccessMode::Write);
  }
  int counter = 0;           // protected by the queue's exclusivity
  std::atomic<int> in_section{0};
  std::atomic<bool> overlap{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Ticket mine = tickets[static_cast<std::size_t>(t)];
      for (int i = 0; i < kIters; ++i) {
        q.acquire(mine);
        if (in_section.fetch_add(1) != 0) overlap.store(true);
        ++counter;
        in_section.fetch_sub(1);
        mine = q.reinsert_and_release(mine, AccessMode::Write);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_FALSE(overlap.load());
  EXPECT_EQ(counter, kThreads * kIters);
}

TEST(RequestQueue, GrantsCountedForStats) {
  RequestQueue q;
  const Ticket w1 = q.enqueue(AccessMode::Write);
  q.enqueue(AccessMode::Write);
  EXPECT_EQ(q.total_grants(), 1u);
  q.release(w1);
  EXPECT_EQ(q.total_grants(), 2u);
}

// ------------------------------------------------- grant-engine checks ----

TEST(RequestQueue, GrantedIsFalseForReleasedAndUnknownTickets) {
  RequestQueue q;
  const Ticket w1 = q.enqueue(AccessMode::Write);
  EXPECT_TRUE(q.granted(w1));
  q.release(w1);
  EXPECT_FALSE(q.granted(w1));
  // Cycle enough tickets through the small queue that the slot and window
  // index of w1 are reused several times; the stale ticket must keep
  // reading as not-granted.
  Ticket t = q.enqueue(AccessMode::Write);
  for (int i = 0; i < 100; ++i) {
    q.acquire(t);
    t = q.reinsert_and_release(t, AccessMode::Write);
  }
  EXPECT_FALSE(q.granted(w1));
  EXPECT_TRUE(q.granted(t));
  EXPECT_FALSE(q.granted(t + 1));    // not yet issued
  EXPECT_FALSE(q.granted(123456));   // never issued
  EXPECT_EQ(q.pending(), 1u);
}

TEST(RequestQueue, ReacquireOfParkedTicketKeepsWaiting) {
  // A timed-out acquire leaves its parking announcement in the slot's
  // state word; a retry of the same live ticket must wait again (and
  // succeed once granted), not be rejected as unknown.
  RequestQueue q;
  q.set_acquire_timeout(50);
  const Ticket w1 = q.enqueue(AccessMode::Write);
  const Ticket w2 = q.enqueue(AccessMode::Write);
  EXPECT_THROW(q.acquire(w2), std::runtime_error);  // times out (parked)
  const auto t0 = std::chrono::steady_clock::now();
  try {
    q.acquire(w2);  // still ungranted: must time out again, not throw early
    FAIL() << "acquire of an ungranted ticket returned";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("timed out"), std::string::npos)
        << e.what();
    const auto waited = std::chrono::steady_clock::now() - t0;
    EXPECT_GE(std::chrono::duration_cast<std::chrono::milliseconds>(waited)
                  .count(),
              40);
  }
  std::thread releaser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    q.release(w1);
  });
  q.acquire(w2);  // third try: parked again, then granted and woken
  releaser.join();
  q.release(w2);
  EXPECT_EQ(q.pending(), 0u);
}

TEST(RequestQueue, TimedOutTicketCanStillBeGrantedLater) {
  // A timeout abandons the wait, not the request: the entry stays queued
  // (parked) and a later hand-off grants it; re-acquiring then succeeds
  // through the lock-free fast path.
  RequestQueue q;
  q.set_acquire_timeout(50);
  const Ticket w1 = q.enqueue(AccessMode::Write);
  const Ticket w2 = q.enqueue(AccessMode::Write);
  EXPECT_THROW(q.acquire(w2), std::runtime_error);
  q.release(w1);
  EXPECT_TRUE(q.granted(w2));
  q.acquire(w2);
  q.release(w2);
  EXPECT_EQ(q.pending(), 0u);
}

TEST(RequestQueue, WindowGrowthPreservesFifoAndGroupGrants) {
  // 300 queued requests force the ticket window to double several times
  // (it starts far smaller); FIFO order and reader-group grants must
  // survive every growth, including out-of-order releases inside a group.
  RequestQueue q;
  const Ticket first = q.enqueue(AccessMode::Write);
  struct Req {
    Ticket ticket;
    AccessMode mode;
  };
  std::vector<Req> reqs;
  for (int i = 0; i < 300; ++i) {
    // Blocks of three: WWW RRR WWW ...
    const AccessMode m =
        (i / 3) % 2 == 0 ? AccessMode::Write : AccessMode::Read;
    reqs.push_back({q.enqueue(m), m});
  }
  EXPECT_TRUE(q.granted(first));
  for (const Req& r : reqs) EXPECT_FALSE(q.granted(r.ticket));
  q.release(first);

  std::size_t i = 0;
  while (i < reqs.size()) {
    if (reqs[i].mode == AccessMode::Write) {
      EXPECT_TRUE(q.granted(reqs[i].ticket)) << "writer at " << i;
      if (i + 1 < reqs.size()) {
        EXPECT_FALSE(q.granted(reqs[i + 1].ticket)) << "behind writer " << i;
      }
      q.release(reqs[i].ticket);
      ++i;
      continue;
    }
    // The whole contiguous read run must be granted together, the write
    // behind it must not be.
    std::size_t end = i;
    while (end < reqs.size() && reqs[end].mode == AccessMode::Read) ++end;
    for (std::size_t j = i; j < end; ++j) {
      EXPECT_TRUE(q.granted(reqs[j].ticket)) << "reader at " << j;
    }
    if (end < reqs.size()) {
      EXPECT_FALSE(q.granted(reqs[end].ticket)) << "writer behind group";
    }
    // Release the group out of order (middle first) to exercise tombstone
    // skipping when the head advances.
    std::vector<std::size_t> order;
    for (std::size_t j = i; j < end; ++j) order.push_back(j);
    std::rotate(order.begin(), order.begin() + order.size() / 2,
                order.end());
    for (std::size_t j : order) q.release(reqs[j].ticket);
    i = end;
  }
  EXPECT_EQ(q.pending(), 0u);
  EXPECT_EQ(q.total_grants(), static_cast<std::uint64_t>(reqs.size()) + 1);
}

TEST(RequestQueue, ConcurrentGrowthVersusLockFreeLookups) {
  // The ticket window doubles while other threads poll granted() and park
  // in acquire(): the lock-free lookups must stay correct across window
  // publication (this is the test TSan watches for the retired-window
  // scheme).
  RequestQueue q;
  q.set_acquire_timeout(20000);
  const Ticket gate = q.enqueue(AccessMode::Write);
  constexpr int kWaiters = 4;
  std::vector<Ticket> writers;
  for (int i = 0; i < kWaiters; ++i) {
    writers.push_back(q.enqueue(AccessMode::Write));
  }
  std::vector<std::thread> threads;
  for (int i = 0; i < kWaiters; ++i) {
    threads.emplace_back([&, t = writers[static_cast<std::size_t>(i)]] {
      while (!q.granted(t)) std::this_thread::yield();
      q.acquire(t);  // lock-free fast path after the poll
      q.release(t);
    });
  }
  // Force several window growths while the pollers hammer the lock-free
  // paths: 600 reads push the span from a handful to the hundreds.
  std::vector<Ticket> readers;
  for (int i = 0; i < 600; ++i) {
    readers.push_back(q.enqueue(AccessMode::Read));
  }
  q.release(gate);  // cascade: writers drain one by one, then the reads
  for (auto& th : threads) th.join();
  for (Ticket r : readers) {
    EXPECT_TRUE(q.granted(r));
    q.release(r);
  }
  EXPECT_EQ(q.pending(), 0u);
  EXPECT_EQ(q.total_grants(),
            static_cast<std::uint64_t>(1 + kWaiters) + readers.size());
}

// A straightforward deque-scan implementation of the Sec. III grant rule,
// used as the oracle for the randomized equivalence test below.
class ReferenceQueue {
 public:
  Ticket enqueue(AccessMode mode) {
    q_.push_back({next_++, mode, false});
    grant();
    return q_.back().ticket;
  }
  void release(Ticket t) {
    const auto it =
        std::find_if(q_.begin(), q_.end(),
                     [&](const Entry& e) { return e.ticket == t; });
    ASSERT_TRUE(it != q_.end() && it->granted);
    q_.erase(it);
    grant();
  }
  bool granted(Ticket t) const {
    const auto it =
        std::find_if(q_.begin(), q_.end(),
                     [&](const Entry& e) { return e.ticket == t; });
    return it != q_.end() && it->granted;
  }
  std::size_t pending() const { return q_.size(); }
  std::uint64_t total_grants() const { return grants_; }

 private:
  struct Entry {
    Ticket ticket;
    AccessMode mode;
    bool granted;
  };
  void grant() {
    if (q_.empty()) return;
    if (q_.front().mode == AccessMode::Write) {
      if (!q_.front().granted) {
        q_.front().granted = true;
        ++grants_;
      }
      return;
    }
    for (auto& e : q_) {
      if (e.mode != AccessMode::Read) break;
      if (!e.granted) {
        e.granted = true;
        ++grants_;
      }
    }
  }
  std::deque<Entry> q_;
  Ticket next_ = 1;
  std::uint64_t grants_ = 0;
};

TEST(RequestQueue, RandomizedOpsMatchReferenceModel) {
  // Drive the engine and the deque oracle with the same random op stream
  // (seeded, reproducible) and require identical observable state after
  // every step: granted() per live ticket, pending(), total grants.
  orwl::support::SplitMix64 rng(0xE17);
  RequestQueue q;
  ReferenceQueue ref;
  std::vector<Ticket> live;
  for (int step = 0; step < 2000; ++step) {
    std::vector<Ticket> releasable;
    for (Ticket t : live) {
      if (ref.granted(t)) releasable.push_back(t);
    }
    const bool do_enqueue =
        releasable.empty() || live.size() < 4 || rng.below(2) == 0;
    if (do_enqueue) {
      const AccessMode m =
          rng.below(3) == 0 ? AccessMode::Write : AccessMode::Read;
      const Ticket a = q.enqueue(m);
      const Ticket b = ref.enqueue(m);
      ASSERT_EQ(a, b) << "step " << step;
      live.push_back(a);
    } else {
      const Ticket t = releasable[rng.below(releasable.size())];
      q.release(t);
      ref.release(t);
      live.erase(std::find(live.begin(), live.end(), t));
    }
    ASSERT_EQ(q.pending(), ref.pending()) << "step " << step;
    ASSERT_EQ(q.total_grants(), ref.total_grants()) << "step " << step;
    for (Ticket t : live) {
      ASSERT_EQ(q.granted(t), ref.granted(t))
          << "step " << step << " ticket " << t;
    }
  }
}

TEST(RequestQueue, StressMixedModesFifoGroupsAndGrantCount) {
  // Many threads, mixed read/write, randomized reinsert modes. Checks,
  // under load (and under TSan in CI): writers are exclusive, readers
  // never overlap a writer, grants are handed out in FIFO ticket order
  // (out-of-ticket-order acquires may only be readers of one shared
  // group), and every request is granted exactly once.
  RequestQueue q;
  q.set_acquire_timeout(20000);
  constexpr int kThreads = 8;
  constexpr int kIters = 60;

  std::vector<Ticket> start(kThreads);
  std::vector<AccessMode> start_mode(kThreads);
  orwl::support::SplitMix64 seed_rng(7);
  for (int i = 0; i < kThreads; ++i) {
    start_mode[static_cast<std::size_t>(i)] =
        seed_rng.below(3) == 0 ? AccessMode::Write : AccessMode::Read;
    start[static_cast<std::size_t>(i)] =
        q.enqueue(start_mode[static_cast<std::size_t>(i)]);
  }

  std::atomic<int> active_readers{0};
  std::atomic<int> active_writers{0};
  std::atomic<bool> overlap{false};
  std::mutex log_mu;
  std::vector<std::pair<Ticket, AccessMode>> log;

  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      orwl::support::SplitMix64 rng(1000 + static_cast<std::uint64_t>(i));
      Ticket t = start[static_cast<std::size_t>(i)];
      AccessMode mode = start_mode[static_cast<std::size_t>(i)];
      for (int k = 0; k < kIters; ++k) {
        q.acquire(t);
        if (mode == AccessMode::Write) {
          if (active_writers.fetch_add(1) != 0 ||
              active_readers.load() != 0) {
            overlap.store(true);
          }
        } else {
          active_readers.fetch_add(1);
          if (active_writers.load() != 0) overlap.store(true);
        }
        {
          std::lock_guard lock(log_mu);
          log.emplace_back(t, mode);
        }
        if (mode == AccessMode::Write) {
          active_writers.fetch_sub(1);
        } else {
          active_readers.fetch_sub(1);
        }
        // The final iteration releases without reinserting: a pending
        // ticket abandoned by a finished thread would block every later
        // request forever (writers are exclusive).
        if (k + 1 == kIters) {
          q.release(t);
        } else {
          mode = rng.below(3) == 0 ? AccessMode::Write : AccessMode::Read;
          t = q.reinsert_and_release(t, mode);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_FALSE(overlap.load());
  EXPECT_EQ(q.pending(), 0u);
  EXPECT_EQ(q.total_grants(),
            static_cast<std::uint64_t>(kThreads) * kIters);

  // FIFO per ticket: grants happen in ticket order, so two acquires out
  // of ticket order can only be readers sharing one group grant.
  for (std::size_t a = 0; a < log.size(); ++a) {
    for (std::size_t b = a + 1; b < log.size(); ++b) {
      if (log[a].first > log[b].first) {
        EXPECT_EQ(log[a].second, AccessMode::Read)
            << "ticket " << log[a].first << " before " << log[b].first;
        EXPECT_EQ(log[b].second, AccessMode::Read)
            << "ticket " << log[b].first << " after " << log[a].first;
      }
    }
  }
}

// ------------------------------------------------------ futex parking ----

// Blocked acquirers park on their slot's futex word; the deadlock guard
// is a timed futex wait on the same word.
TEST(RequestQueueParking, AcquireBlocksUntilGrant) {
  RequestQueue q;
  const Ticket w1 = q.enqueue(AccessMode::Write);
  const Ticket w2 = q.enqueue(AccessMode::Write);
  std::atomic<bool> got{false};
  std::thread waiter([&] {
    q.acquire(w2);
    got.store(true);
  });
  // The waiter counts its futex sleep just before entering it.
  while (q.futex_waits() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_FALSE(got.load());
  q.release(w1);
  waiter.join();
  EXPECT_TRUE(got.load());
  EXPECT_GE(q.futex_waits(), 1u);
  EXPECT_GE(q.futex_wakes(), 1u);
}

TEST(RequestQueueParking, AcquireTimesOutOnDeadlock) {
  RequestQueue q;
  q.set_acquire_timeout(50);
  q.enqueue(AccessMode::Write);  // never released
  const Ticket w2 = q.enqueue(AccessMode::Write);
  const auto start = std::chrono::steady_clock::now();
  EXPECT_THROW(q.acquire(w2), std::runtime_error);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_GE(elapsed, std::chrono::milliseconds(45));
  // The guard is a timed futex wait that nobody wakes.
  EXPECT_GE(q.futex_waits(), 1u);
  EXPECT_EQ(q.futex_wakes(), 0u);
}

TEST(RequestQueueParking, TimedOutTicketStillGrantableLater) {
  RequestQueue q;
  q.set_acquire_timeout(30);
  const Ticket w1 = q.enqueue(AccessMode::Write);
  const Ticket w2 = q.enqueue(AccessMode::Write);
  EXPECT_THROW(q.acquire(w2), std::runtime_error);
  EXPECT_GE(q.futex_waits(), 1u);
  EXPECT_EQ(q.futex_wakes(), 0u);
  // The timed-out slot stays announced as parked, so the grant wakes it.
  q.release(w1);
  EXPECT_GE(q.futex_wakes(), 1u);
  q.acquire(w2);  // grant arrived after the timeout: still usable
  q.release(w2);
}

TEST(RequestQueueParking, ManyThreadsMutualExclusion) {
  RequestQueue q;
  constexpr int kThreads = 8;
  constexpr int kIters = 200;
  std::vector<Ticket> tickets(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    tickets[static_cast<std::size_t>(t)] = q.enqueue(AccessMode::Write);
  }
  int counter = 0;
  std::atomic<int> in_section{0};
  std::atomic<bool> overlap{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Ticket mine = tickets[static_cast<std::size_t>(t)];
      for (int i = 0; i < kIters; ++i) {
        q.acquire(mine);
        if (in_section.fetch_add(1) != 0) overlap.store(true);
        ++counter;
        in_section.fetch_sub(1);
        mine = q.reinsert_and_release(mine, AccessMode::Write);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_FALSE(overlap.load());
  EXPECT_EQ(counter, kThreads * kIters);
  // Eight writers queue behind one another: acquirers parked and were
  // woken by the grants.
  EXPECT_GE(q.futex_waits(), 1u);
  EXPECT_GE(q.futex_wakes(), 1u);
}

// ------------------------------------------------------- remote phase ----

/// Records every remote grant with the thread it arrived on, then runs
/// `then` (a re-entrant queue call, typically) on the same thread.
struct RecordingSink final : RemoteGrantSink {
  std::mutex mu;
  std::vector<std::pair<Ticket, std::thread::id>> calls;
  std::function<void(Ticket)> then;

  void on_remote_grant(Ticket t) noexcept override {
    {
      std::lock_guard<std::mutex> lock(mu);
      calls.emplace_back(t, std::this_thread::get_id());
    }
    if (then) then(t);
  }
  std::size_t count() {
    std::lock_guard<std::mutex> lock(mu);
    return calls.size();
  }
};

TEST(RequestQueueRemote, ParkedTicketGoesToTheSinkOnTheReleasingThread) {
  RequestQueue q;
  RecordingSink sink;
  q.set_remote_sink(&sink);
  // The sink releases the remote ticket right away, re-entering the
  // queue from inside the hand-off: no queue lock may be held there.
  sink.then = [&](Ticket t) { q.release(t); };
  const Ticket w1 = q.enqueue(AccessMode::Write);
  const Ticket w2 = q.enqueue(AccessMode::Write);
  EXPECT_TRUE(q.park_remote(w2));
  EXPECT_EQ(sink.count(), 0u);
  std::thread::id releaser;
  std::thread th([&] {
    releaser = std::this_thread::get_id();
    q.release(w1);
  });
  th.join();
  ASSERT_EQ(sink.count(), 1u);
  EXPECT_EQ(sink.calls[0].first, w2);
  EXPECT_EQ(sink.calls[0].second, releaser);
  EXPECT_EQ(q.pending(), 0u);
  // A remote grant is not a local wakeup.
  EXPECT_EQ(q.futex_wakes(), 0u);
  q.set_remote_sink(nullptr);
}

TEST(RequestQueueRemote, AlreadyGrantedTicketIsNotParked) {
  RequestQueue q;
  RecordingSink sink;
  q.set_remote_sink(&sink);
  const Ticket w = q.enqueue(AccessMode::Write);
  EXPECT_FALSE(q.park_remote(w));  // the caller ships the grant itself
  q.release(w);
  const Ticket r1 = q.enqueue(AccessMode::Read);
  const Ticket r2 = q.enqueue(AccessMode::Read);
  EXPECT_FALSE(q.park_remote(r2));  // joined the granted reader group
  q.release(r1);
  q.release(r2);
  EXPECT_EQ(sink.count(), 0u);
  // Released, unknown and already parked tickets are misuse.
  EXPECT_THROW(q.park_remote(w), std::logic_error);
  EXPECT_THROW(q.park_remote(999), std::logic_error);
  const Ticket w3 = q.enqueue(AccessMode::Write);
  const Ticket w4 = q.enqueue(AccessMode::Write);
  EXPECT_TRUE(q.park_remote(w4));
  EXPECT_THROW(q.park_remote(w4), std::logic_error);
  sink.then = [&](Ticket t) { q.release(t); };
  q.release(w3);
  EXPECT_EQ(sink.count(), 1u);
  q.set_remote_sink(nullptr);
}

TEST(RequestQueueRemote, ReaderGroupWakesLocalAndCallsSinkForRemote) {
  RequestQueue q;
  RecordingSink sink;
  q.set_remote_sink(&sink);
  const Ticket w = q.enqueue(AccessMode::Write);
  const Ticket local = q.enqueue(AccessMode::Read);
  const Ticket remote1 = q.enqueue(AccessMode::Read);
  const Ticket remote2 = q.enqueue(AccessMode::Read);
  EXPECT_TRUE(q.park_remote(remote1));
  EXPECT_TRUE(q.park_remote(remote2));
  std::thread reader([&] { q.acquire(local); });
  while (q.futex_waits() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  q.release(w);  // grants the whole reader group
  reader.join();
  EXPECT_EQ(q.futex_wakes(), 1u);
  ASSERT_EQ(sink.count(), 2u);
  EXPECT_EQ(sink.calls[0].first, remote1);
  EXPECT_EQ(sink.calls[1].first, remote2);
  q.release(local);
  q.release(remote1);
  q.release(remote2);
  EXPECT_EQ(q.pending(), 0u);
  q.set_remote_sink(nullptr);
}

TEST(RequestQueueRemote, DetachWaitsForSinkCallsInFlight) {
  RequestQueue q;
  RecordingSink sink;
  std::atomic<bool> entered{false}, gate{false};
  sink.then = [&](Ticket) {
    entered.store(true);
    while (!gate.load()) std::this_thread::yield();
  };
  q.set_remote_sink(&sink);
  const Ticket w1 = q.enqueue(AccessMode::Write);
  const Ticket w2 = q.enqueue(AccessMode::Write);
  ASSERT_TRUE(q.park_remote(w2));
  std::thread releaser([&] { q.release(w1); });
  while (!entered.load()) std::this_thread::yield();
  std::atomic<bool> detached{false};
  std::thread detacher([&] {
    q.set_remote_sink(nullptr);
    detached.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(detached.load());
  gate.store(true);
  releaser.join();
  detacher.join();
  EXPECT_TRUE(detached.load());
  EXPECT_EQ(q.remote_sink(), nullptr);
  q.release(w2);
}

TEST(RequestQueueRemote, SinkCanDetachItselfFromInsideACall) {
  // The sink releases its ticket (a nested grant pass on the same queue
  // calls it again for the next one) and detaches on the last ticket,
  // while two sink calls of this thread are in flight: the detach must
  // not wait for them.
  RequestQueue q;
  RecordingSink sink;
  q.set_remote_sink(&sink);
  const Ticket w1 = q.enqueue(AccessMode::Write);
  const Ticket w2 = q.enqueue(AccessMode::Write);
  const Ticket w3 = q.enqueue(AccessMode::Write);
  ASSERT_TRUE(q.park_remote(w2));
  ASSERT_TRUE(q.park_remote(w3));
  sink.then = [&](Ticket t) {
    q.release(t);
    if (t == w3) q.set_remote_sink(nullptr);
  };
  q.release(w1);
  ASSERT_EQ(sink.count(), 2u);
  EXPECT_EQ(sink.calls[1].first, w3);
  EXPECT_EQ(q.remote_sink(), nullptr);
  EXPECT_EQ(q.pending(), 0u);
}

TEST(RequestQueue, StressManyQueuesManyThreads) {
  // Every hand-off is granted by the thread that releases: sixteen
  // threads cycling on sixteen queues at once exercise that path under
  // TSan.
  constexpr int kQueues = 16;
  constexpr int kIters = 100;
  std::vector<RequestQueue> queues(kQueues);
  std::vector<std::thread> threads;
  std::atomic<int> done{0};
  for (int i = 0; i < kQueues; ++i) {
    threads.emplace_back([&, i] {
      RequestQueue& q = queues[static_cast<std::size_t>(i)];
      Ticket t = q.enqueue(AccessMode::Write);
      for (int k = 0; k < kIters; ++k) {
        q.acquire(t);
        t = q.reinsert_and_release(t, AccessMode::Write);
      }
      done.fetch_add(1);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(done.load(), kQueues);
  for (const auto& q : queues) {
    EXPECT_EQ(q.total_grants(), static_cast<std::uint64_t>(kIters) + 1);
  }
}

}  // namespace
