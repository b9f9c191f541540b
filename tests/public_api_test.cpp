// The v2 facade (orwl/orwl.hpp): typed locations, phase-safe guards and
// the declarative ProgramBuilder. Covers the acceptance contract of the
// API redesign: a builder-declared graph produces the same communication
// matrix and placement as the imperatively wired equivalent — read off
// the declarations alone, with nothing built — and writing through a read
// link is a compile-time error (checked with static_asserts below, the
// negative-compile tests).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <span>
#include <stdexcept>
#include <typeinfo>
#include <vector>

#include "orwl/orwl.hpp"
#include "run_watchdog.hpp"
#include "topo/machines.hpp"

namespace {

using namespace orwl;
using orwl::test::expect_root_cause_fast;
using orwl::test::run_or_abort;

// ------------------------------------------------- negative compiles ----
// Phase safety lives in the type system: a WriteGuard is constructible
// from a WriteLink only (and vice versa), so the "write through a read
// link" bug class cannot compile.
static_assert(!std::is_constructible_v<WriteGuard<double>, ReadLink<double>>,
              "a WriteGuard over a read link must not compile");
static_assert(
    !std::is_constructible_v<WriteGuard<double[]>, ReadLink<double[]>>,
    "a WriteGuard over a read array link must not compile");
static_assert(!std::is_constructible_v<ReadGuard<double>, WriteLink<double>>,
              "guards name their link's mode exactly");
static_assert(!std::is_convertible_v<ReadLink<double>, WriteLink<double>>,
              "read links must not convert to write links");
static_assert(std::is_constructible_v<WriteGuard<double>, WriteLink<double>>);
static_assert(std::is_constructible_v<ReadGuard<double>, ReadLink<double>>);

rt::ProgramOptions quiet() {
  rt::ProgramOptions o;
  o.affinity = rt::AffinityMode::Off;
  o.acquire_timeout_ms = 30000;
  return o;
}

rt::ProgramOptions fixture_opts(const topo::Topology& machine) {
  rt::ProgramOptions o;
  o.topology = &machine;
  o.affinity = rt::AffinityMode::Off;  // placement driven explicitly
  o.bind_threads = false;
  o.acquire_timeout_ms = 30000;
  return o;
}

// The Listing 1 chain, declared: task t owns a double, writes it, task
// t > 0 reads its predecessor's.
ProgramBuilder chain_builder(std::size_t tasks, rt::ProgramOptions opts) {
  ProgramBuilder b(tasks, opts);
  for (TaskId t = 0; t < tasks; ++t) {
    TaskSpec& spec = b.task(t);
    spec.owns<double>().writes<double>(loc(t), t);
    if (t > 0) spec.reads<double>(loc(t - 1), t);
  }
  return b;
}

// ------------------------------------------ builder vs imperative -------

TEST(Builder, DeclaredGraphMatchesImperativeWiring) {
  const topo::Topology machine = topo::make_numa(2, 2, 1);
  static constexpr std::size_t kTasks = 4;

  // Imperative v1-style wiring, extracted by running its init phase.
  rt::Program imperative(kTasks, fixture_opts(machine));
  imperative.set_task_body([](rt::TaskContext& ctx) {
    ctx.scale(sizeof(double));
    rt::Handle own;
    rt::Handle prev;
    own.write_insert(ctx, ctx.my_location(), ctx.id());
    if (ctx.id() > 0) {
      prev.read_insert(ctx, ctx.location(ctx.id() - 1), ctx.id());
    }
    ctx.schedule();
  });
  imperative.run();
  imperative.dependency_get();
  imperative.affinity_compute();

  // The same graph declared: matrix and placement exist pre-run.
  rt::ProgramOptions opts = fixture_opts(machine);
  Program declared = chain_builder(kTasks, opts).build();
  declared.dependency_get();
  declared.affinity_compute();

  const tm::CommMatrix& a = imperative.comm_matrix();
  const tm::CommMatrix& b = declared.comm_matrix();
  ASSERT_EQ(a.order(), b.order());
  for (std::size_t i = 0; i < a.order(); ++i) {
    for (std::size_t j = 0; j < a.order(); ++j) {
      EXPECT_DOUBLE_EQ(a.at(i, j), b.at(i, j)) << i << "," << j;
    }
  }
  EXPECT_EQ(imperative.placement().compute_pu,
            declared.placement().compute_pu)
      << "same matrix + same topology must place identically";
}

TEST(Builder, MatrixAvailableWithoutRunningAnything) {
  ProgramBuilder b = chain_builder(3, quiet());
  const tm::CommMatrix m = b.comm_matrix();
  EXPECT_EQ(m.order(), 3u);
  EXPECT_DOUBLE_EQ(m.at(0, 1), sizeof(double));
  EXPECT_DOUBLE_EQ(m.at(1, 2), sizeof(double));
  EXPECT_DOUBLE_EQ(m.at(0, 2), 0.0);
  // Reading the matrix built nothing: the builder can still build().
  EXPECT_NO_THROW((void)b.build());
}

TEST(Builder, CommMatrixEqualsTheBuiltProgramsCellForCell) {
  // Every declaration kind at once: owned slots, reads and writes, a
  // channel with two consumers, an access to a slot nobody sizes, and an
  // export that widens the slot space.
  ProgramBuilder b(5, quiet());
  b.task(0)
      .owns<double[]>(64, 0)
      .owns<double>(1)
      .writes<double[]>(loc(0, 0), 0)
      .writes<double>(loc(0, 1), 0)
      .reads<double[]>(loc(1, 0), 1);
  b.task(1)
      .owns<double[]>(32)
      .writes<double[]>(loc(1), 0)
      .reads<double[]>(loc(0, 0), 1)
      .reads<double>(loc(0, 1), 1);
  b.task(2).fifo_out<int[]>("c", 16, 3).reads(loc(3, 2));  // never sized
  b.task(3).fifo_in<int[]>("c").owns<double>().writes<double>(loc(3), 0);
  b.task(4).fifo_in<int[]>("c").reads<double[]>(loc(1, 0), 1);
  b.export_location(loc(4, 3), "wide");

  const tm::CommMatrix declared = b.comm_matrix();
  Program p = b.build();
  p.dependency_get();
  const tm::CommMatrix& built = p.comm_matrix();
  ASSERT_EQ(declared.order(), built.order());
  for (std::size_t i = 0; i < built.order(); ++i) {
    for (std::size_t j = 0; j < built.order(); ++j) {
      EXPECT_EQ(declared.at(i, j), built.at(i, j)) << i << "," << j;
    }
  }
  EXPECT_EQ(declared.at(2, 3), 3.0 * 16 * sizeof(int))
      << "the producer's ring reaches every consumer";
  EXPECT_EQ(declared.at(2, 4), 3.0 * 16 * sizeof(int));
  EXPECT_EQ(declared.at(3, 4), 0.0) << "consumers share no writer";
  EXPECT_EQ(declared.at(0, 1), (64 + 1 + 32) * sizeof(double))
      << "both of task 0's slots and task 1's block";
}

TEST(Builder, PaperScaleMatrixAllocatesNothing) {
  // 8 TiB of owned doubles: build() would have to allocate them; the
  // matrix needs only the number.
  constexpr std::size_t kCount = std::size_t{1} << 40;
  ProgramBuilder b(2, quiet());
  b.task(0).owns<double[]>(kCount).writes<double[]>(loc(0), 0);
  b.task(1).reads<double[]>(loc(0), 1);
  const tm::CommMatrix m = b.comm_matrix();
  EXPECT_EQ(m.at(0, 1), static_cast<double>(kCount * sizeof(double)));
  EXPECT_EQ(m.at(1, 0), m.at(0, 1));
}

// The dynamic type of what `fn` throws; typeid(void) when it returns.
template <typename F>
const std::type_info& thrown_by(F&& fn) {
  try {
    fn();
  } catch (const std::exception& e) {
    return typeid(e);
  }
  return typeid(void);
}

TEST(Builder, CommMatrixRejectsWhatBuildRejects) {
  using Declare = std::function<void(ProgramBuilder&)>;
  const std::vector<Declare> malformed = {
      // Access target names a task that does not exist.
      [](ProgramBuilder& b) { b.task(0).reads<double>(loc(7), 1); },
      // Two same-mode links of one task on one location.
      [](ProgramBuilder& b) {
        b.task(0).owns<double>().writes<double>(loc(0), 0).writes<double>(
            loc(0), 5);
      },
      // A one-slot ring cannot alternate.
      [](ProgramBuilder& b) {
        b.task(0).fifo_out<int>("a", /*depth=*/1);
        b.task(1).fifo_in<int>("a");
      },
      // Zero-byte items.
      [](ProgramBuilder& b) { b.task(0).fifo_out_bytes("a", 0); },
      // One channel name, two producers.
      [](ProgramBuilder& b) {
        b.task(0).fifo_out<int>("a");
        b.task(1).fifo_out<int>("a");
      },
      // Consumer of a channel nobody produces.
      [](ProgramBuilder& b) {
        b.task(0).fifo_out<int>("a");
        b.task(1).fifo_in<int>("b");
      },
      // Producer consuming its own channel.
      [](ProgramBuilder& b) { b.task(0).fifo_out<int>("a").fifo_in<int>("a"); },
      // Item type mismatch between the two ends.
      [](ProgramBuilder& b) {
        b.task(0).fifo_out<int>("a");
        b.task(1).fifo_in<float>("a");
      },
      // One consumer declaring the same channel twice.
      [](ProgramBuilder& b) {
        b.task(0).fifo_out<int>("a");
        b.task(1).fifo_in<int>("a").fifo_in<int>("a");
      },
  };
  for (std::size_t i = 0; i < malformed.size(); ++i) {
    ProgramBuilder to_build(2, quiet());
    ProgramBuilder to_read(2, quiet());
    malformed[i](to_build);
    malformed[i](to_read);
    const std::type_info& from_build =
        thrown_by([&] { (void)to_build.build(); });
    const std::type_info& from_read =
        thrown_by([&] { (void)to_read.comm_matrix(); });
    EXPECT_TRUE(from_build != typeid(void)) << "case " << i;
    EXPECT_STREQ(from_read.name(), from_build.name()) << "case " << i;
  }
}

TEST(Builder, DeclarativeRunComputesAndInitHookPrimes) {
  // A two-task producer/consumer with a lagged location: the consumer
  // reads first (priority 0), so the value it sees in iteration 0 is
  // whatever init() primed — proving the hook runs before the barrier.
  rt::ProgramOptions opts = quiet();
  ProgramBuilder b(2, opts);
  std::atomic<double> first_read{0.0};
  std::atomic<int> reads{0};

  b.task(0)
      .owns<double>()
      .writes<double>(loc(0), 1)  // lagged: reader first
      .iterates(3)
      .init([](Task& task) { task.my<double>().value() = 42.0; })
      .body([](Task& task) {
        WriteLink<double> own = task.write_link<double>(loc(0));
        task.run_iterations([&](std::size_t i) {
          WriteGuard<double> w(own);
          w.ref() = static_cast<double>(i);
        });
      });
  b.task(1)
      .reads<double>(loc(0), 0)
      .iterates(3)
      .body([&](Task& task) {
        ReadLink<double> in = task.read_link<double>(loc(0));
        EXPECT_EQ(task.iterations(), 3u);
        task.run_iterations([&](std::size_t i) {
          ReadGuard<double> r(in);
          if (i == 0) first_read.store(r.ref());
          reads.fetch_add(1);
        });
      });

  Program p = b.build();
  p.run();
  EXPECT_EQ(reads.load(), 3);
  EXPECT_DOUBLE_EQ(first_read.load(), 42.0)
      << "init() must run before the schedule barrier";
}

TEST(Builder, ScheduleFromDeclarativeBodyThrows) {
  ProgramBuilder b(1, quiet());
  b.task(0).owns<double>().writes<double>(loc(0));
  b.body([](Task& task) { task.schedule(); });
  Program p = b.build();
  EXPECT_THROW(p.run(), std::logic_error);
}

TEST(Builder, LinkLookupChecksModeAndType) {
  ProgramBuilder b(1, quiet());
  b.task(0).owns<double>().writes<double>(loc(0));
  b.body([](Task& task) {
    // Right mode + type works; wrong mode, type or shape is refused.
    EXPECT_NO_THROW(task.write_link<double>(loc(0)));
    EXPECT_THROW(task.read_link<double>(loc(0)), std::logic_error);
    EXPECT_THROW(task.write_link<float>(loc(0)), std::logic_error);
    EXPECT_THROW(task.write_link<double[]>(loc(0)), std::logic_error)
        << "array lookup must not alias a scalar declaration";
  });
  b.build().run();
}

TEST(Builder, BodylessTaskWithDeclaredAccessesIsRejected) {
  // Such a task's tickets would never be acquired, stalling the
  // location's FIFO until the deadlock guard; fail fast instead.
  ProgramBuilder b(2, quiet());
  b.task(0).owns<double>().writes<double>(loc(0));  // no body
  b.task(1).reads<double>(loc(0)).body([](Task&) {});
  Program p = b.build();
  EXPECT_THROW(p.run(), std::logic_error);
}

TEST(Guards, ZeroSizedSyncLocationsYieldEmptySpans) {
  // The v1 pure-synchronization idiom: locations with no data, used
  // only for their FIFO ordering. Array guards map them as empty spans.
  rt::ProgramOptions opts = quiet();
  ProgramBuilder b(2, opts);
  for (TaskId t = 0; t < 2; ++t) {
    b.task(t)
        .writes<std::byte[]>(loc(t), 0)
        .reads<std::byte[]>(loc((t + 1) % 2), 1)
        .iterates(5);
  }
  b.body([](Task& task) {
    WriteLink<std::byte[]> own =
        task.write_link<std::byte[]>(loc(task.id()));
    ReadLink<std::byte[]> other =
        task.read_link<std::byte[]>(loc((task.id() + 1) % 2));
    task.run_iterations([&](std::size_t) {
      {
        WriteGuard<std::byte[]> w(own);
        EXPECT_EQ(w.size(), 0u);
      }
      {
        ReadGuard<std::byte[]> r(other);
        EXPECT_TRUE(r.span().empty());
      }
    });
  });
  EXPECT_NO_THROW(b.build().run());
}

TEST(Builder, BuildTwiceAndBadTargetsThrow) {
  {
    ProgramBuilder b(2, quiet());
    b.task(0).owns<double>().writes<double>(loc(0));
    b.body([](Task&) {});
    (void)b.build();
    EXPECT_THROW(b.build(), std::logic_error);
  }
  {
    ProgramBuilder b(2, quiet());
    b.task(0).reads<double>(loc(7), 1);  // no task 7
    EXPECT_THROW(b.build(), std::out_of_range);
  }
  {
    // Two same-mode links of one task on one location would be
    // unreachable through the (location, mode) lookup: rejected.
    ProgramBuilder b(2, quiet());
    b.task(0).owns<double>().writes<double>(loc(0), 0).writes<double>(
        loc(0), 5);
    EXPECT_THROW(b.build(), std::logic_error);
  }
}

// ------------------------------------------------- typed locations ------

TEST(TypedLocal, ScaleComesFromTheType) {
  rt::Location raw(0, 0, 0);
  Local<std::uint32_t> one(raw);
  one.scale();
  EXPECT_EQ(raw.size(), sizeof(std::uint32_t));
  one.value() = 7;
  EXPECT_EQ(one.value(), 7u);

  Local<double[]> many(raw);
  many.scale(12);
  EXPECT_EQ(raw.size(), 12 * sizeof(double));
  EXPECT_EQ(many.count(), 12u);
  EXPECT_EQ(many.span().size(), 12u);
  many.span()[11] = 3.5;
  EXPECT_DOUBLE_EQ(many.span()[11], 3.5);
}

TEST(TypedLocal, CheckedAccessRejectsBadShapes) {
  rt::Location raw(0, 0, 0);
  Local<double> lens(raw);
  // No buffer yet.
  EXPECT_THROW(lens.value(), std::logic_error);
  // Wrong size for the element type.
  raw.scale(3);
  EXPECT_THROW(lens.value(), std::length_error);
  raw.scale(sizeof(double));
  EXPECT_NO_THROW(lens.value());
}

TEST(TypedSpans, AsSpanChecksDivisibility) {
  alignas(double) std::byte storage[24] = {};
  EXPECT_EQ(as_span<double>(std::span<std::byte>(storage, 24)).size(), 3u);
  EXPECT_THROW(as_span<double>(std::span<std::byte>(storage, 20)),
               std::length_error);
}

// ------------------------------------------------ imperative guards -----

TEST(Guards, TypedRoundTripThroughImperativeProgram) {
  struct Packet {
    std::int32_t seq;
    double payload;
  };
  rt::ProgramOptions opts = quiet();
  std::atomic<double> seen{0.0};
  Program prog(2, opts);
  prog.set_task_body(0, [](Task& task) {
    task.my<Packet>().scale();
    WriteLink<Packet> out = task.write<Packet>(task.mine(), 0);
    task.schedule();
    WriteGuard<Packet> w(out);
    w->seq = 1;
    w->payload = 2.5;
  });
  prog.set_task_body(1, [&](Task& task) {
    ReadLink<Packet> in = task.read<Packet>(loc(0), 1);
    task.schedule();
    ReadGuard<Packet> r(in);
    EXPECT_EQ(r->seq, 1);
    seen.store(r->payload);
  });
  prog.run();
  EXPECT_DOUBLE_EQ(seen.load(), 2.5);
}

TEST(Guards, EarlyReleaseIsIdempotentAndTeardownSafe) {
  rt::ProgramOptions opts = quiet();
  Program prog(1, opts);
  prog.set_task_body([](Task& task) {
    task.my<double>().scale();
    WriteLink<double> own = task.write<double>(task.mine(), 0);
    task.schedule();
    WriteGuard<double> w(own);
    w.ref() = 1.0;
    w.release();
    EXPECT_FALSE(w.held());
    EXPECT_NO_THROW(w.release());  // double release: no-op
    // The buffer belongs to the next grantee now: the cached map must
    // be unreachable (v1's "section not acquired" contract).
    EXPECT_THROW(w.ref(), std::logic_error);
    // Destructor of the already-released guard must also be a no-op.
  });
  const std::uint64_t before = rt::guard_teardown_failures();
  prog.run();
  EXPECT_EQ(rt::guard_teardown_failures(), before)
      << "clean early release must not count as a teardown failure";
}

TEST(Guards, ThrowingExplicitReleaseStillRecordsAtTeardown) {
  // release() propagates protocol errors but must leave the guard
  // armed, so the destructor's noexcept teardown runs and counts the
  // failure — otherwise a lost grant would vanish from the counters.
  rt::ProgramOptions opts = quiet();
  Program prog(1, opts);
  prog.set_task_body([](Task& task) {
    task.my<double>().scale();
    WriteLink<double> own = task.write<double>(task.mine(), 0);
    task.schedule();
    WriteGuard<double> w(own);
    // Yank the grant away underneath the guard (ticket 1 is the only
    // request), then release() must throw and the dtor must swallow.
    task.program().location(task.mine()).queue().release(1);
    EXPECT_THROW(w.release(), std::logic_error);
    EXPECT_TRUE(w.held()) << "a failed release keeps the guard armed";
  });
  const std::uint64_t before = rt::guard_teardown_failures();
  EXPECT_NO_THROW(prog.run());
  EXPECT_EQ(rt::guard_teardown_failures(), before + 1);
  EXPECT_EQ(prog.runtime().stats().guard_teardown_failures, 1u);
}

TEST(Guards, WriteGuardChecksElementShape) {
  rt::ProgramOptions opts = quiet();
  Program prog(1, opts);
  prog.set_task_body([](Task& task) {
    task.my<std::byte[]>().scale(3);  // 3 bytes: not a whole double
    WriteLink<double> bad = task.write<double>(task.mine(), 0);
    task.schedule();
    EXPECT_THROW(WriteGuard<double> g(bad), std::length_error);
  });
  prog.run();
}

// --------------------------------------------------- FIFO channels ------

TEST(Fifo, ScalarRoundTripThroughBuilder) {
  static constexpr std::size_t kItems = 16;
  ProgramBuilder b(2, quiet());
  b.task(0).fifo_out<int>("nums", /*depth=*/2).body([](Task& task) {
    FifoOut<int> out = task.fifo_out<int>("nums");
    EXPECT_EQ(out.depth(), 2u);
    for (std::size_t i = 0; i < kItems; ++i)
      out.push(static_cast<int>(i * i));
    EXPECT_EQ(out.pushed(), kItems);
  });
  std::atomic<long> sum{0};
  b.task(1).fifo_in<int>("nums").body([&](Task& task) {
    FifoIn<int> in = task.fifo_in<int>("nums");
    for (std::size_t i = 0; i < kItems; ++i) sum.fetch_add(in.pop());
    EXPECT_EQ(in.popped(), kItems);
  });
  b.build().run();

  long expect = 0;
  for (std::size_t i = 0; i < kItems; ++i) expect += static_cast<long>(i * i);
  EXPECT_EQ(sum.load(), expect);
}

TEST(Fifo, ArrayChannelBroadcastsToEveryConsumer) {
  // Two consumers on one channel: each pops EVERY item (the readers at
  // each ring slot's head share the grant — Sec. V-C broadcast).
  static constexpr std::size_t kItems = 8;
  static constexpr std::size_t kCount = 32;
  ProgramBuilder b(3, quiet());
  b.task(0)
      .fifo_out<double[]>("blocks", kCount, /*depth=*/3)
      .body([](Task& task) {
        FifoOut<double[]> out = task.fifo_out<double[]>("blocks");
        for (std::size_t i = 0; i < kItems; ++i) {
          std::span<double> item = out.begin_push();
          ASSERT_EQ(item.size(), kCount);
          for (double& d : item) d = static_cast<double>(i);
          out.end_push();
        }
      });
  std::atomic<double> sums[2] = {0.0, 0.0};
  for (TaskId c = 1; c <= 2; ++c) {
    b.task(c).fifo_in<double[]>("blocks").body([&, c](Task& task) {
      FifoIn<double[]> in = task.fifo_in<double[]>("blocks");
      double total = 0.0;
      for (std::size_t i = 0; i < kItems; ++i) {
        std::span<const double> item = in.begin_pop();
        for (double d : item) total += d;
        in.end_pop();
      }
      sums[c - 1].store(total);
    });
  }
  b.build().run();

  const double expect = kCount * (kItems * (kItems - 1) / 2.0);
  EXPECT_DOUBLE_EQ(sums[0].load(), expect);
  EXPECT_DOUBLE_EQ(sums[1].load(), expect) << "broadcast: every consumer "
                                              "sees every item";
}

TEST(Fifo, EndpointLookupChecksIdentityAndType) {
  ProgramBuilder b(2, quiet());
  b.task(0).fifo_out<int>("c").body([](Task& task) {
    EXPECT_THROW(task.fifo_out<double>("c"), std::logic_error)
        << "channel item type is part of the contract";
    EXPECT_THROW(task.fifo_out<int>("nope"), std::logic_error);
    EXPECT_THROW(task.fifo_in<int>("c"), std::logic_error)
        << "the producer is not a consumer";
    FifoOut<int> out = task.fifo_out<int>("c");
    out.push(1);
  });
  b.task(1).fifo_in<int>("c").body([](Task& task) {
    EXPECT_THROW(task.fifo_out<int>("c"), std::logic_error)
        << "only the declaring producer owns the write end";
    EXPECT_THROW(task.fifo_in<double>("c"), std::logic_error);
    EXPECT_EQ(task.fifo_in<int>("c").pop(), 1);
  });
  b.build().run();
}

TEST(Fifo, UntypedByteChannelRoundTrip) {
  // fifo_out_bytes: the wire format is the application's business — the
  // channel moves `kItemBytes` raw bytes per item, and both endpoints use
  // the T = void byte view.
  static constexpr std::size_t kItemBytes = 48;
  static constexpr std::size_t kItems = 12;
  ProgramBuilder b(2, quiet());
  b.task(0)
      .fifo_out_bytes("wire", kItemBytes, /*depth=*/3)
      .body([](Task& task) {
        FifoOut<> out = task.fifo_out<>("wire");
        EXPECT_EQ(out.depth(), 3u);
        for (std::size_t i = 0; i < kItems; ++i) {
          std::span<std::byte> item = out.begin_push();
          ASSERT_EQ(item.size(), kItemBytes);
          for (std::size_t j = 0; j < item.size(); ++j) {
            item[j] = static_cast<std::byte>((i * 7 + j) & 0xFF);
          }
          out.end_push();
        }
      });
  std::atomic<std::size_t> bad{0};
  b.task(1).fifo_in<>("wire").body([&](Task& task) {
    FifoIn<> in = task.fifo_in<>("wire");
    EXPECT_NO_THROW(task.fifo_in<int>("wire"))
        << "an untyped declaration is a wildcard: typed views are allowed";
    for (std::size_t i = 0; i < kItems; ++i) {
      std::span<const std::byte> item = in.begin_pop();
      ASSERT_EQ(item.size(), kItemBytes);
      for (std::size_t j = 0; j < item.size(); ++j) {
        if (item[j] != static_cast<std::byte>((i * 7 + j) & 0xFF)) {
          bad.fetch_add(1);
        }
      }
      in.end_pop();
    }
    EXPECT_EQ(in.popped(), kItems);
  });
  b.build().run();
  EXPECT_EQ(bad.load(), 0u);
}

TEST(Fifo, BuildRejectsMalformedChannels) {
  {
    // Unknown channel name.
    ProgramBuilder b(2, quiet());
    b.task(0).fifo_out<int>("a").body([](Task&) {});
    b.task(1).fifo_in<int>("b").body([](Task&) {});
    EXPECT_THROW(b.build(), std::logic_error);
  }
  {
    // Duplicate channel name across producers.
    ProgramBuilder b(2, quiet());
    b.task(0).fifo_out<int>("a").body([](Task&) {});
    b.task(1).fifo_out<int>("a").body([](Task&) {});
    EXPECT_THROW(b.build(), std::logic_error);
  }
  {
    // A producer consuming its own channel would self-deadlock.
    ProgramBuilder b(1, quiet());
    b.task(0).fifo_out<int>("a").fifo_in<int>("a").body([](Task&) {});
    EXPECT_THROW(b.build(), std::logic_error);
  }
  {
    // Item type mismatch between the two ends.
    ProgramBuilder b(2, quiet());
    b.task(0).fifo_out<int>("a").body([](Task&) {});
    b.task(1).fifo_in<float>("a").body([](Task&) {});
    EXPECT_THROW(b.build(), std::logic_error);
  }
  {
    // depth < 2 cannot overlap production with consumption.
    ProgramBuilder b(2, quiet());
    b.task(0).fifo_out<int>("a", /*depth=*/1).body([](Task&) {});
    b.task(1).fifo_in<int>("a").body([](Task&) {});
    EXPECT_THROW(b.build(), std::invalid_argument);
  }
}

// ----------------------------------------------- converged iteration ----

TEST(Converged, PredicateLoopTerminatesUniformly) {
  // Each task contributes 1/(i+1); the global sum is tasks/(i+1), and
  // every task must leave the loop on the same iteration — the sum is
  // reduced across all of them before anyone evaluates the predicate.
  static constexpr std::size_t kTasks = 3;
  ProgramBuilder b(kTasks, quiet());
  std::atomic<std::size_t> counts[kTasks] = {};
  for (TaskId t = 0; t < kTasks; ++t) {
    b.task(t).body([&, t](Task& task) {
      const std::size_t ran = task.run_iterations(
          [](double global) { return global < 0.5; },
          [](std::size_t i) { return 1.0 / static_cast<double>(i + 1); });
      counts[t].store(ran);
    });
  }
  b.build().run();

  // 3/(i+1) < 0.5 first holds at i = 6, so 7 iterations everywhere.
  for (TaskId t = 0; t < kTasks; ++t) EXPECT_EQ(counts[t].load(), 7u);
}

TEST(Converged, MixedWorkloadsStaySynchronized) {
  // The reduction is a generation barrier: a fast task cannot lap a
  // slow one, and each generation's published sum is identical for all.
  static constexpr std::size_t kTasks = 4;
  ProgramBuilder b(kTasks, quiet());
  std::atomic<int> exact_sums{0};
  std::atomic<std::size_t> rounds[kTasks] = {};
  for (TaskId t = 0; t < kTasks; ++t) {
    b.task(t).body([&, t](Task& task) {
      const std::size_t ran = task.run_iterations(
          [&](double global) {
            // Every task contributes its id + 1, so each full round
            // sums to exactly 1 + 2 + ... + kTasks.
            if (global == kTasks * (kTasks + 1) / 2.0)
              exact_sums.fetch_add(1);
            return global < 0.0;
          },
          [t](std::size_t i) {
            // Round 20 flips everyone to a negative contribution,
            // driving the sum below zero and stopping all loops at once.
            return i < 20 ? static_cast<double>(t + 1)
                          : -static_cast<double>(kTasks * kTasks);
          });
      rounds[t].store(ran);
    });
  }
  b.build().run();
  EXPECT_EQ(exact_sums.load(), 20 * static_cast<int>(kTasks))
      << "every task must observe the complete sum of every round";
  for (TaskId t = 0; t < kTasks; ++t) EXPECT_EQ(rounds[t].load(), 21u);
}

// ------------------------------------------ a task leaves the reduction ----

rt::ProgramOptions departure_options() {
  rt::ProgramOptions o = quiet();
  o.acquire_timeout_ms = 60000;
  return o;
}

TEST(Converged, TaskLeavingBeforeReduceIterationFailsFast) {
  ProgramBuilder b(2, departure_options());
  b.task(0).body([](Task&) { throw std::domain_error("task 0 left"); });
  b.task(1).body([](Task& task) { task.program().reduce_iteration(1.0); });
  Program p = b.build();
  expect_root_cause_fast(run_or_abort(p, "reduce_iteration departure"),
                         "task 0 left");
}

TEST(Converged, TaskLeavingBeforePredicateLoopFailsFast) {
  ProgramBuilder b(2, departure_options());
  b.task(0).body([](Task&) { throw std::domain_error("task 0 left"); });
  b.task(1).body([](Task& task) {
    task.run_iterations([](double global) { return global < 0.0; },
                        [](std::size_t) { return 1.0; });
  });
  Program p = b.build();
  expect_root_cause_fast(run_or_abort(p, "run_iterations departure"),
                         "task 0 left");
}

}  // namespace
