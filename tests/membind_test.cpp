// topo::MemBind / topo::NumaBuffer: node-targeted allocation, residency
// queries, migration, and — most importantly for CI — the portable
// fallback paths (NUMA-less hosts, fixture nodes beyond the host,
// forced emulation via ORWL_MEMBIND=emulate).
#include "topo/membind.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <utility>

#include "support/env.hpp"
#include "topo/machines.hpp"

namespace {

using orwl::topo::MemBind;
using orwl::topo::NumaBuffer;

TEST(MemBind, PageSizeIsSane) {
  EXPECT_GE(MemBind::page_size(), 512u);
  EXPECT_EQ(MemBind::page_size() % 512, 0u);
}

TEST(MemBind, AllocateZeroInitialized) {
  const std::size_t bytes = 3 * MemBind::page_size() + 17;
  MemBind m = MemBind::allocate(bytes);
  ASSERT_NE(m.data(), nullptr);
  EXPECT_EQ(m.size(), bytes);
  EXPECT_FALSE(m.empty());
  EXPECT_EQ(m.bound_node(), MemBind::kAnyNode);
  for (std::size_t i = 0; i < bytes; ++i) {
    ASSERT_EQ(m.data()[i], std::byte{0}) << "byte " << i;
  }
}

TEST(MemBind, EmptyAllocation) {
  MemBind m = MemBind::allocate(0, 2);
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.data(), nullptr);
  EXPECT_EQ(m.size(), 0u);
  EXPECT_EQ(m.bound_node(), 2);  // intent is recorded even when empty
  EXPECT_TRUE(m.page_nodes().empty());
  EXPECT_EQ(m.resident_node(), MemBind::kAnyNode);
}

TEST(MemBind, MoveTransfersOwnership) {
  MemBind a = MemBind::allocate(4096, 1);
  std::byte* p = a.data();
  MemBind b = std::move(a);
  EXPECT_EQ(b.data(), p);
  EXPECT_EQ(b.size(), 4096u);
  EXPECT_EQ(b.bound_node(), 1);
  EXPECT_TRUE(a.empty());  // NOLINT(bugprone-use-after-move): spec'd state
  MemBind c;
  c = std::move(b);
  EXPECT_EQ(c.data(), p);
  EXPECT_TRUE(b.empty());  // NOLINT(bugprone-use-after-move)
}

TEST(MemBind, BindingIntentIsQueryableEvenWithoutRealNuma) {
  // A fixture node far beyond any plausible host: the binding must be
  // recorded tag-only and every query must answer with the intent — this
  // is what keeps fixture-topology programs deterministic on 1-node CI.
  // Past the highest *id*, not the count: node ids can be sparse, so
  // count+3 could name a real node on offlined/CXL layouts.
  const int node = MemBind::host_node_ids().back() + 3;
  MemBind m = MemBind::allocate(2 * MemBind::page_size(), node);
  ASSERT_NE(m.data(), nullptr);
  std::memset(m.data(), 0x5a, m.size());  // touch so pages exist
  EXPECT_EQ(m.bound_node(), node);
  EXPECT_TRUE(m.emulated());
  EXPECT_EQ(m.resident_node(), node);
  for (int n : m.page_nodes()) EXPECT_EQ(n, node);
}

TEST(MemBind, ForcedEmulationFallback) {
  orwl::support::ScopedEnv force(orwl::support::knob::kMemBind.name, "emulate");
  EXPECT_FALSE(MemBind::numa_syscalls_available());
  MemBind m = MemBind::allocate(1 << 16, 2);
  ASSERT_NE(m.data(), nullptr);
  EXPECT_TRUE(m.emulated());
  EXPECT_EQ(m.bound_node(), 2);
  std::memset(m.data(), 0x7f, m.size());  // heap block must be writable
  EXPECT_EQ(m.data()[1000], std::byte{0x7f});
  EXPECT_TRUE(m.migrate_to(0));
  EXPECT_EQ(m.bound_node(), 0);
  EXPECT_EQ(m.resident_node(), 0);
  const auto nodes = m.page_nodes();
  EXPECT_EQ(nodes.size(),
            (m.size() + MemBind::page_size() - 1) / MemBind::page_size());
  for (int n : nodes) EXPECT_EQ(n, 0);
}

TEST(MemBind, MigratePreservesContents) {
  MemBind m = MemBind::allocate(2 * MemBind::page_size());
  for (std::size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = static_cast<std::byte>(i * 131u);
  }
  EXPECT_TRUE(m.migrate_to(0));
  EXPECT_EQ(m.bound_node(), 0);
  for (std::size_t i = 0; i < m.size(); ++i) {
    ASSERT_EQ(m.data()[i], static_cast<std::byte>(i * 131u)) << i;
  }
  // Back to unbound: always succeeds, clears the intent.
  EXPECT_TRUE(m.migrate_to(MemBind::kAnyNode));
  EXPECT_EQ(m.bound_node(), MemBind::kAnyNode);
}

TEST(MemBind, HostIntrospection) {
  EXPECT_GE(MemBind::host_node_count(), 1);
  const std::vector<int> ids = MemBind::host_node_ids();
  ASSERT_FALSE(ids.empty());
  EXPECT_EQ(ids.size(), static_cast<std::size_t>(MemBind::host_node_count()));
  EXPECT_TRUE(std::is_sorted(ids.begin(), ids.end()));
  const int node = MemBind::node_of_cpu(0);
  EXPECT_GE(node, -1);
  EXPECT_LT(node, MemBind::host_node_count() + 64);
  EXPECT_EQ(MemBind::node_of_cpu(-1), -1);
}

TEST(MemBind, NumaNodeOfPuUsesTheFixtureTopology) {
  const orwl::topo::Topology t = orwl::topo::make_numa(2, 2, 1);
  ASSERT_EQ(t.num_pus(), 4u);
  EXPECT_EQ(numa_node_of_pu(t, t.pu_at(0)->os_index), 0);
  EXPECT_EQ(numa_node_of_pu(t, t.pu_at(1)->os_index), 0);
  EXPECT_EQ(numa_node_of_pu(t, t.pu_at(2)->os_index), 1);
  EXPECT_EQ(numa_node_of_pu(t, t.pu_at(3)->os_index), 1);
  EXPECT_EQ(numa_node_of_pu(t, 9999), -1);

  const orwl::topo::Topology flat = orwl::topo::make_flat(4);
  EXPECT_EQ(numa_node_of_pu(flat, flat.pu_at(0)->os_index), -1)
      << "no NUMA level => no node, callers skip binding";

  EXPECT_EQ(numa_node_of_pu(orwl::topo::Topology{}, 0), -1);
}

// ------------------------------------------------------- NumaBuffer ----

TEST(NumaBuffer, ResizeZeroInitializesAndReuses) {
  NumaBuffer buf;
  EXPECT_EQ(buf.data(), nullptr);
  EXPECT_EQ(buf.size(), 0u);
  buf.resize(1000);
  ASSERT_NE(buf.data(), nullptr);
  EXPECT_EQ(buf.size(), 1000u);
  std::memset(buf.data(), 0xff, buf.size());
  std::byte* const before = buf.data();
  buf.resize(500);  // shrink: storage reused, used prefix re-zeroed
  EXPECT_EQ(buf.data(), before);
  EXPECT_EQ(buf.size(), 500u);
  for (std::size_t i = 0; i < buf.size(); ++i) {
    ASSERT_EQ(buf.data()[i], std::byte{0}) << i;
  }
  buf.resize(0);
  EXPECT_EQ(buf.data(), nullptr);
  EXPECT_EQ(buf.size(), 0u);
}

TEST(NumaBuffer, BindIsStickyAcrossResize) {
  orwl::support::ScopedEnv force(orwl::support::knob::kMemBind.name, "emulate");
  NumaBuffer buf;
  EXPECT_TRUE(buf.bind_to(3));  // binding an empty buffer records intent
  EXPECT_EQ(buf.migrations(), 0u) << "no storage yet, nothing migrated";
  buf.resize(4096);
  EXPECT_EQ(buf.node(), 3);
  EXPECT_EQ(buf.resident_node(), 3);
  buf.resize(1 << 16);  // grow: fresh allocation must stay on the node
  EXPECT_EQ(buf.node(), 3);
  EXPECT_EQ(buf.resident_node(), 3);
  EXPECT_TRUE(buf.emulated());
}

TEST(NumaBuffer, RebindMigratesLiveStorage) {
  orwl::support::ScopedEnv force(orwl::support::knob::kMemBind.name, "emulate");
  NumaBuffer buf;
  buf.resize(8192);
  EXPECT_TRUE(buf.bind_to(0));
  EXPECT_EQ(buf.migrations(), 1u);
  EXPECT_FALSE(buf.bind_to(0)) << "already there: no change, no migration";
  EXPECT_EQ(buf.migrations(), 1u);
  EXPECT_TRUE(buf.bind_to(1));
  EXPECT_EQ(buf.migrations(), 2u);
  EXPECT_EQ(buf.node(), 1);
  EXPECT_EQ(buf.resident_node(), 1);
}

TEST(NumaBuffer, ResizeToZeroKeepsTheBinding) {
  NumaBuffer buf;
  buf.bind_to(2);
  buf.resize(4096);
  buf.resize(0);
  EXPECT_EQ(buf.data(), nullptr);
  EXPECT_EQ(buf.size(), 0u);
  EXPECT_EQ(buf.node(), 2) << "a later resize must land on the node again";
  buf.resize(64);
  EXPECT_EQ(buf.node(), 2);
}

TEST(NumaBuffer, WritePastSizeIsAnAsanReport) {
#if !defined(__SANITIZE_ADDRESS__)
  GTEST_SKIP() << "needs an AddressSanitizer build";
#else
  // The mapping is page-rounded, but only size() bytes are the caller's:
  // the tail stays poisoned after allocate and after an in-place shrink.
  NumaBuffer buf;
  buf.resize(8);
  volatile std::byte* p = buf.data();
  EXPECT_DEATH(p[8] = std::byte{1}, "use-after-poison");
  buf.resize(4096);
  buf.resize(8);
  p = buf.data();
  EXPECT_DEATH(p[8] = std::byte{1}, "use-after-poison");
  p[7] = std::byte{1};  // the last owned byte stays writable
#endif
}

}  // namespace
