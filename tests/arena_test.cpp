#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <deque>
#include <set>
#include <thread>
#include <vector>

#include "runtime/arena.hpp"
#include "support/env.hpp"
#include "topo/membind.hpp"

namespace {

using orwl::rt::Arena;
using orwl::rt::ArenaAllocator;
using orwl::rt::ArenaPtr;
using orwl::rt::arena_new;
using orwl::support::ScopedEnv;

TEST(ArenaSlab, SizeClassRoundTrips) {
  Arena arena;
  // One allocation per size class, each written end to end and freed:
  // the header must survive a full fill of the user bytes.
  for (std::size_t bytes : {1u, 17u, 64u, 100u, 1000u, 4096u, 30000u}) {
    void* p = arena.allocate(bytes);
    ASSERT_NE(p, nullptr) << bytes;
    std::memset(p, 0xAB, bytes);
    Arena::deallocate(p);
  }
  const Arena::Stats s = arena.stats();
  EXPECT_EQ(s.allocs, 7u);
  EXPECT_EQ(s.frees, 7u);
  EXPECT_EQ(arena.live_allocs(), 0u);
}

TEST(ArenaSlab, FreelistReusesFreedBlock) {
  Arena arena;
  void* a = arena.allocate(128);
  Arena::deallocate(a);
  // Same size class -> the freelist hands the identical block back
  // instead of carving new slab space.
  void* b = arena.allocate(100);
  EXPECT_EQ(a, b);
  Arena::deallocate(b);
}

TEST(ArenaSlab, DistinctClassesDoNotAlias) {
  Arena arena;
  void* small = arena.allocate(64);
  void* big = arena.allocate(4096);
  EXPECT_NE(small, big);
  Arena::deallocate(small);
  void* big2 = arena.allocate(4096);
  // Freeing the 64B block must not feed the 4KiB class.
  EXPECT_NE(big2, small);
  Arena::deallocate(big);
  Arena::deallocate(big2);
}

TEST(ArenaSlab, AlignmentHonored) {
  Arena arena;
  for (std::size_t align : {8u, 16u, 64u, 128u}) {
    void* p = arena.allocate(24, align);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % align, 0u) << align;
    Arena::deallocate(p);
  }
}

TEST(ArenaSlab, ExhaustionGrowsNewSlab) {
  // Tiny slabs so a handful of allocations forces a refill.
  Arena arena(Arena::kAnyNode, /*slab_bytes=*/8 * 1024);
  const std::uint64_t before = arena.stats().refills;
  std::vector<void*> blocks;
  for (int i = 0; i < 16; ++i) blocks.push_back(arena.allocate(1024));
  std::set<void*> unique(blocks.begin(), blocks.end());
  EXPECT_EQ(unique.size(), blocks.size());
  EXPECT_GT(arena.stats().refills, before);
  EXPECT_GT(arena.stats().bytes_reserved, 8u * 1024u);
  for (void* p : blocks) Arena::deallocate(p);
  EXPECT_EQ(arena.live_allocs(), 0u);
}

TEST(ArenaSlab, LargeAllocationBypassesSlabs) {
  Arena arena(Arena::kAnyNode, /*slab_bytes=*/16 * 1024);
  // Larger than any size class: must still round-trip and be writable.
  const std::size_t big = 256 * 1024;
  void* p = arena.allocate(big);
  ASSERT_NE(p, nullptr);
  std::memset(p, 0x5C, big);
  EXPECT_EQ(arena.live_allocs(), 1u);
  Arena::deallocate(p);
  EXPECT_EQ(arena.live_allocs(), 0u);
}

TEST(ArenaSlab, EmulatedBindFallsBackWithoutMisses) {
  // ORWL_MEMBIND=emulate removes the NUMA syscalls; binding to a node the
  // host cannot honor must degrade to plain pages and must NOT count as a
  // node miss (the gate arena_node_misses == 0 relies on this for
  // fixture topologies wider than the host).
  ScopedEnv emulate(orwl::support::knob::kMemBind.name, "emulate");
  Arena arena(/*node=*/3);
  void* p = arena.allocate(512);
  ASSERT_NE(p, nullptr);
  std::memset(p, 0x11, 512);
  Arena::deallocate(p);
  EXPECT_EQ(arena.stats().node_misses, 0u);
  EXPECT_GT(arena.stats().bytes_reserved, 0u);
}

TEST(ArenaSlab, BindToHostNodeIsMissFree) {
  // Binding to a node the host really has must produce zero misses too
  // (this is the smp20e7-fixture acceptance gate in miniature).
  const std::vector<int> nodes = orwl::topo::MemBind::host_node_ids();
  const int node = nodes.empty() ? 0 : nodes.front();
  Arena arena(node);
  void* p = arena.allocate(2048);
  std::memset(p, 0x22, 2048);
  Arena::deallocate(p);
  EXPECT_EQ(arena.stats().node_misses, 0u);
  EXPECT_EQ(arena.node(), node);
}

TEST(ArenaSlab, FreedBlockIsReusableFromAnotherLiveThread) {
  // A block freed on one thread is reusable by another while the freeing
  // thread still runs: no per-thread cache may strand it.
  Arena arena;
  void* p = arena.allocate(256);
  std::atomic<int> phase{0};
  std::thread freer([&] {
    Arena::deallocate(p);
    phase.store(1);
    while (phase.load() != 2) std::this_thread::yield();
  });
  while (phase.load() != 1) std::this_thread::yield();
  void* q = arena.allocate(256);
  phase.store(2);
  freer.join();
  EXPECT_EQ(q, p);
  Arena::deallocate(q);
}

TEST(ArenaSlab, ReadingAFreedBlockIsAnAsanReport) {
#if !defined(__SANITIZE_ADDRESS__)
  GTEST_SKIP() << "needs an AddressSanitizer build";
#else
  Arena arena;
  void* block = arena.allocate(64);
  auto* p = static_cast<volatile unsigned char*>(block);
  p[16] = 1;
  Arena::deallocate(block);
  EXPECT_DEATH((void)p[16], "use-after-poison");
  // Reuse hands the same block out whole again.
  void* again = arena.allocate(64);
  ASSERT_EQ(again, block);
  p[16] = 2;
  EXPECT_EQ(p[16], 2);
  Arena::deallocate(again);
#endif
}

TEST(ArenaSlab, CrossArenaFreeRoutesToOwner) {
  Arena a;
  Arena b;
  void* pa = a.allocate(128);
  void* pb = b.allocate(128);
  // Frees issued "from the wrong side": the header routes each block
  // back to its owner, the way a re-routed queue frees old windows.
  Arena::deallocate(pb);
  Arena::deallocate(pa);
  EXPECT_EQ(a.stats().frees, 1u);
  EXPECT_EQ(b.stats().frees, 1u);
  EXPECT_EQ(a.live_allocs(), 0u);
  EXPECT_EQ(b.live_allocs(), 0u);
}

TEST(ArenaSlab, ArenaNewAndPtrRunDestructors) {
  Arena arena;
  static std::atomic<int> destroyed{0};
  struct Probe {
    ~Probe() { destroyed.fetch_add(1); }
    std::uint64_t payload[4] = {};
  };
  destroyed.store(0);
  {
    ArenaPtr<Probe> p(arena_new<Probe>(arena));
    ASSERT_NE(p, nullptr);
  }
  EXPECT_EQ(destroyed.load(), 1);
  EXPECT_EQ(arena.live_allocs(), 0u);
}

TEST(ArenaSlab, AllocatorAdapterWorksWithContainers) {
  Arena arena;
  {
    std::vector<int, ArenaAllocator<int>> v{ArenaAllocator<int>(&arena)};
    for (int i = 0; i < 1000; ++i) v.push_back(i);
    EXPECT_EQ(v[999], 999);

    std::deque<int, ArenaAllocator<int>> d{ArenaAllocator<int>(&arena)};
    for (int i = 0; i < 1000; ++i) d.push_back(i);
    while (d.size() > 500) d.pop_front();
    EXPECT_EQ(d.front(), 500);
  }
  EXPECT_EQ(arena.live_allocs(), 0u);
  EXPECT_GT(arena.stats().allocs, 0u);
}

TEST(Arena, AllocatorEqualityIsArenaIdentity) {
  Arena a;
  Arena b;
  EXPECT_TRUE(ArenaAllocator<int>(&a) == ArenaAllocator<int>(&a));
  EXPECT_FALSE(ArenaAllocator<int>(&a) == ArenaAllocator<int>(&b));
  // Rebinding T preserves the arena.
  ArenaAllocator<long> rebound{ArenaAllocator<int>(&a)};
  EXPECT_EQ(rebound.arena(), &a);
}

TEST(ArenaSlab, ConcurrentAllocFreeIsRaceFree) {
  Arena arena;
  constexpr int kThreads = 4;
  constexpr int kIters = 2000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&arena, t] {
      std::vector<void*> mine;
      mine.reserve(8);
      for (int i = 0; i < kIters; ++i) {
        const std::size_t mix = static_cast<std::size_t>((i * 7 + t) % 400);
        const std::size_t bytes = 32 + mix;
        void* p = arena.allocate(bytes);
        std::memset(p, t, bytes);
        mine.push_back(p);
        if (mine.size() == 8) {
          for (void* q : mine) Arena::deallocate(q);
          mine.clear();
        }
      }
      for (void* q : mine) Arena::deallocate(q);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(arena.live_allocs(), 0u);
  EXPECT_EQ(arena.stats().allocs, arena.stats().frees);
}

TEST(Arena, RuntimeDefaultIsStable) {
  Arena& a = Arena::runtime_default();
  Arena& b = Arena::runtime_default();
  EXPECT_EQ(&a, &b);
  void* p = a.allocate(64);
  Arena::deallocate(p);
}

}  // namespace
