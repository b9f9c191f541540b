// Failure injection and robustness: the paths a production runtime must
// survive — task crashes mid-pipeline, asymmetric host topologies,
// adversarial lock usage, and randomized queue histories checked against
// a reference model.
#include <gtest/gtest.h>

#include <chrono>
#include <deque>
#include <map>

#include "orwl/orwl.hpp"
#include "support/rng.hpp"
#include "topo/machines.hpp"

namespace {

using namespace orwl;

rt::ProgramOptions quiet() {
  rt::ProgramOptions o;
  o.affinity = rt::AffinityMode::Off;
  o.acquire_timeout_ms = 3000;
  return o;
}

// ------------------------------------------------- failure injection ----

TEST(Robustness, TaskCrashAfterScheduleDoesNotHangTheProgram) {
  // Task 1 dies while holding a lock the others wait for; the deadlock
  // guard must turn the hang into a clean error.
  rt::Program prog(3, quiet());
  prog.set_task_body([&](rt::TaskContext& ctx) {
    ctx.scale(64);
    rt::Handle own;
    rt::Handle next;
    own.write_insert(ctx, ctx.my_location(), 0);
    next.read_insert(ctx, ctx.location((ctx.id() + 1) % 3), 1);
    ctx.schedule();
    rt::Section sec(own);
    if (ctx.id() == 1) {
      throw std::runtime_error("injected task failure");
    }
    rt::Section sec2(next);  // waits on the crashed task's location
  });
  EXPECT_THROW(prog.run(), std::runtime_error);
}

TEST(Robustness, CrashBeforeScheduleFailsTheBarrierFast) {
  // Task 0 leaves before the schedule barrier. Its departure fails the
  // barrier for the waiting task at once: the early failure surfaces
  // well before the 60 s deadlock guard would, and it is what run()
  // rethrows (not the barrier's own error).
  rt::ProgramOptions o = quiet();
  o.acquire_timeout_ms = 60000;
  rt::Program prog(2, o);
  prog.set_task_body([&](rt::TaskContext& ctx) {
    if (ctx.id() == 0) throw std::logic_error("early failure");
    ctx.schedule();
  });
  const auto start = std::chrono::steady_clock::now();
  try {
    prog.run();
    FAIL() << "expected an exception";
  } catch (const std::logic_error& e) {
    EXPECT_STREQ(e.what(), "early failure");
  }
  EXPECT_LT(std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          start)
                .count(),
            2.0);
}

TEST(Robustness, AsymmetricTopologyFallsBackToCompactCores) {
  // A host with disabled cores: 2 nodes with 3 and 1 cores. Algorithm 1
  // cannot run; the module must degrade to a valid placement instead of
  // killing the program.
  auto root = std::make_unique<topo::Object>();
  root->type = topo::ObjType::Machine;
  for (int node = 0; node < 2; ++node) {
    auto& numa = root->add_child(topo::ObjType::NumaNode);
    const int cores = node == 0 ? 3 : 1;
    for (int c = 0; c < cores; ++c) {
      numa.add_child(topo::ObjType::Core).add_child(topo::ObjType::PU);
    }
  }
  const topo::Topology machine =
      topo::Topology::adopt(std::move(root), "asymmetric-host");
  ASSERT_FALSE(machine.is_symmetric());

  rt::ProgramOptions o;
  o.affinity = rt::AffinityMode::On;
  o.topology = &machine;
  o.bind_threads = false;
  o.acquire_timeout_ms = 10000;
  rt::Program prog(3, o);
  prog.set_task_body([&](rt::TaskContext& ctx) {
    ctx.scale(64);
    rt::Handle h;
    h.write_insert(ctx, ctx.my_location(), 0);
    ctx.schedule();
    rt::Section s(h);
  });
  EXPECT_NO_THROW(prog.run());
  EXPECT_TRUE(prog.stats().affinity_fallback);
  const auto& pl = prog.placement();
  EXPECT_TRUE(pl.valid_for(machine));
  // Compact-cores keeps the first three tasks on the 4 available cores.
  for (int pu : pl.compute_pu) EXPECT_GE(pu, 0);
}

// --------------------------------------------- randomized queue model ----

/// Reference model of the ORWL FIFO semantics: a deque of (ticket, mode);
/// granted = leading write or maximal leading read group.
class ModelQueue {
 public:
  void enqueue(rt::Ticket t, rt::AccessMode m) { q_.push_back({t, m}); }
  void release(rt::Ticket t) {
    for (auto it = q_.begin(); it != q_.end(); ++it) {
      if (it->first == t) {
        q_.erase(it);
        return;
      }
    }
    FAIL() << "model: releasing unknown ticket";
  }
  bool granted(rt::Ticket t) const {
    for (std::size_t i = 0; i < q_.size(); ++i) {
      if (q_[i].first == t) {
        if (i == 0) return true;
        // Granted iff everything up to and including i is a read.
        for (std::size_t k = 0; k <= i; ++k) {
          if (q_[k].second != rt::AccessMode::Read) return false;
        }
        return true;
      }
    }
    return false;
  }
  std::size_t size() const { return q_.size(); }
  rt::Ticket at(std::size_t i) const { return q_[i].first; }

 private:
  std::deque<std::pair<rt::Ticket, rt::AccessMode>> q_;
};

TEST(Robustness, RandomizedQueueHistoryMatchesReferenceModel) {
  // Drive the real RequestQueue with random single-threaded histories
  // and compare the granted-set against the reference model after every
  // step.
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    rt::RequestQueue q;
    ModelQueue model;
    support::SplitMix64 rng(seed);
    std::map<rt::Ticket, rt::AccessMode> live;

    for (int step = 0; step < 300; ++step) {
      const bool do_enqueue = live.empty() || rng.below(100) < 55;
      if (do_enqueue) {
        const auto mode = rng.below(2) == 0 ? rt::AccessMode::Read
                                            : rt::AccessMode::Write;
        const rt::Ticket t = q.enqueue(mode);
        model.enqueue(t, mode);
        live[t] = mode;
      } else {
        // Release a random granted ticket (there is always one: the
        // head is granted by construction).
        std::vector<rt::Ticket> granted;
        for (const auto& [t, m] : live) {
          if (q.granted(t)) granted.push_back(t);
        }
        ASSERT_FALSE(granted.empty()) << "seed " << seed;
        const rt::Ticket victim =
            granted[rng.below(granted.size())];
        q.release(victim);
        model.release(victim);
        live.erase(victim);
      }
      // Invariant: real grants == model grants for every live ticket.
      for (const auto& [t, m] : live) {
        ASSERT_EQ(q.granted(t), model.granted(t))
            << "seed " << seed << " step " << step << " ticket " << t;
      }
      ASSERT_EQ(q.pending(), model.size());
    }
  }
}

// ------------------------------------------------ adversarial usage -----

TEST(Robustness, SectionOnUnscheduledHandleFailsCleanly) {
  rt::Program prog(1, quiet());
  prog.set_task_body([&](rt::TaskContext& ctx) {
    ctx.scale(8);
    rt::Handle h;
    h.write_insert(ctx, ctx.my_location(), 0);
    // acquire() before schedule(): no ticket has been issued yet.
    EXPECT_THROW(h.acquire(), std::logic_error);
    ctx.schedule();
    { rt::Section s(h); }
  });
  EXPECT_NO_THROW(prog.run());
}

TEST(Robustness, AcquireTimeoutNamesLocationTicketAndTenant) {
  // Regression: the deadlock guard used to fire with no context ("lock
  // acquire timed out"), useless on a server running many tenants. The
  // message must now identify the queue (location + owner coordinates),
  // the stuck ticket and the tenant tag.
  rt::ProgramOptions o = quiet();
  o.acquire_timeout_ms = 200;
  o.tag = "acme";
  rt::Program prog(1, o);
  prog.set_task_body([&](rt::TaskContext& ctx) {
    ctx.scale(8);
    rt::Handle held;
    rt::Handle starved;
    held.write_insert(ctx, ctx.my_location(), 0);
    starved.write_insert(ctx, ctx.my_location(), 1);
    ctx.schedule();
    rt::Section s(held);
    // A second writer on the same location can never be granted while
    // the first section is open: the guard must fire, with context.
    starved.acquire();
  });
  try {
    prog.run();
    FAIL() << "expected the acquire-timeout guard to fire";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("ticket"), std::string::npos) << msg;
    EXPECT_NE(msg.find("location 0"), std::string::npos) << msg;
    EXPECT_NE(msg.find("owner task 0"), std::string::npos) << msg;
    EXPECT_NE(msg.find("tenant 'acme'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("timed out after 200 ms"), std::string::npos) << msg;
  }
}

TEST(Robustness, AcquireTimeoutOnUntaggedProgramStaysAnonymous) {
  // No ProgramOptions::tag => the message names the location but no
  // tenant (single-program runs must not grow a bogus "tenant ''").
  rt::ProgramOptions o = quiet();
  o.acquire_timeout_ms = 200;
  rt::Program prog(1, o);
  prog.set_task_body([&](rt::TaskContext& ctx) {
    ctx.scale(8);
    rt::Handle held;
    rt::Handle starved;
    held.write_insert(ctx, ctx.my_location(), 0);
    starved.write_insert(ctx, ctx.my_location(), 1);
    ctx.schedule();
    rt::Section s(held);
    starved.acquire();
  });
  try {
    prog.run();
    FAIL() << "expected the acquire-timeout guard to fire";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("location 0"), std::string::npos) << msg;
    EXPECT_EQ(msg.find("tenant"), std::string::npos) << msg;
  }
}

TEST(Robustness, DoubleInsertRejected) {
  rt::Program prog(2, quiet());
  prog.set_task_body([&](rt::TaskContext& ctx) {
    ctx.scale(8);
    rt::Handle h;
    h.write_insert(ctx, ctx.my_location(), 0);
    EXPECT_THROW(h.read_insert(ctx, ctx.location(0), 1), std::logic_error);
    ctx.schedule();
    { rt::Section s(h); }
  });
  EXPECT_NO_THROW(prog.run());
}

TEST(Robustness, SectionTeardownIsNoexceptOnDoubleRelease) {
  // Regression for the throwing ~Section: releasing the handle early —
  // explicitly or behind the guard's back — must leave the destructor a
  // no-op instead of throwing out of stack unwinding.
  rt::Program prog(1, quiet());
  prog.set_task_body([&](rt::TaskContext& ctx) {
    ctx.scale(8);
    rt::Handle2 h;
    h.write_insert(ctx, ctx.my_location(), 0);
    ctx.schedule();
    {
      rt::Section s(h);
      s.release();  // explicit early release...
    }               // ...then the destructor: must be a clean no-op
    {
      rt::Section s(h);
      h.release();  // released behind the Section's back
    }
  });
  const std::uint64_t before = rt::guard_teardown_failures();
  EXPECT_NO_THROW(prog.run());
  EXPECT_EQ(rt::guard_teardown_failures(), before);
  EXPECT_EQ(prog.stats().guard_teardown_failures, 0u);
}

TEST(Robustness, SectionTeardownSwallowsAndCountsAThrowingRelease) {
  // Make the underlying release throw while the Section still believes
  // it holds the lock: release the ticket through the queue directly.
  // The destructor must swallow the error and record it.
  rt::Program prog(1, quiet());
  prog.set_task_body([&](rt::TaskContext& ctx) {
    ctx.scale(8);
    rt::Handle h;
    h.write_insert(ctx, ctx.my_location(), 0);
    ctx.schedule();
    rt::Section s(h);
    ctx.my_location().queue().release(1);  // yank the grant away
  });
  const std::uint64_t before = rt::guard_teardown_failures();
  EXPECT_NO_THROW(prog.run());
  EXPECT_EQ(rt::guard_teardown_failures(), before + 1);
  EXPECT_EQ(prog.stats().guard_teardown_failures, 1u);
  EXPECT_EQ(prog.guard_teardown_failures(), 1u);
}

TEST(Robustness, ZeroSizedLocationSectionsWork) {
  // Locations can model pure synchronization resources (no data).
  rt::Program prog(2, quiet());
  prog.set_task_body([&](rt::TaskContext& ctx) {
    rt::Handle2 own;
    own.write_insert(ctx, ctx.my_location(), 0);
    rt::Handle2 other;
    other.read_insert(ctx, ctx.location((ctx.id() + 1) % 2), 1);
    ctx.schedule();
    for (int i = 0; i < 5; ++i) {
      { rt::Section s(own); }
      {
        rt::Section s(other);
        EXPECT_EQ(s.read_map().size(), 0u);
      }
    }
  });
  EXPECT_NO_THROW(prog.run());
}

}  // namespace
