#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "support/rng.hpp"
#include "topo/carve.hpp"
#include "topo/machines.hpp"

namespace {

using namespace orwl::topo;

/// The three named fixtures every carve-out property is checked on.
std::vector<std::string> named_fixtures() {
  return {"smp20e7", "smp12e5", "fig2"};
}

// ----------------------------- carve-out invariants (property cases) ----
//
// The three invariants every tenant carve-out must satisfy, checked on
// all named topology fixtures:
//   1. disjoint    — no PU belongs to two carve-outs;
//   2. contiguous-subtree — each piece is a union of consecutive whole
//      subtrees at one depth (never a fragment of a domain);
//   3. covers-requested-width — a piece is at least as wide as asked.

/// Every PU of `objs[first..first+count)` and nothing else.
CpuSet pus_of_run(const Topology& t, int depth, std::size_t first,
                  std::size_t count) {
  CpuSet set;
  const auto objs = t.at_depth(depth);
  for (std::size_t i = first; i < first + count; ++i) {
    for (int pu = objs[i]->first_pu; pu <= objs[i]->last_pu; ++pu) {
      set.set(t.pu_at(pu)->os_index);
    }
  }
  return set;
}

TEST(Carveout, RandomPackingKeepsAllInvariantsOnEveryFixture) {
  for (const std::string& spec : named_fixtures()) {
    const Topology t = *make_named(spec);
    orwl::support::SplitMix64 rng(11);
    CpuSet taken;
    for (int round = 0; round < 64; ++round) {
      const std::size_t free = t.num_pus() - taken.count();
      if (free == 0) break;
      const std::size_t width = 1 + rng.below(t.num_pus() / 3 + 1);
      const auto c = carve_subtrees(t, width, taken);
      if (!c) {
        // Rejection is only legitimate while fragmented/full; width 1
        // must still fit whenever any PU is free.
        const auto one = carve_subtrees(t, 1, taken);
        ASSERT_TRUE(one.has_value()) << spec << " free=" << free;
        taken = taken | one->pus;
        continue;
      }
      // 1. disjoint from everything carved before;
      EXPECT_TRUE((c->pus & taken).empty()) << spec;
      // 3. covers the requested width;
      EXPECT_GE(c->width, width) << spec;
      EXPECT_EQ(c->pus.count(), c->width) << spec;
      // 2. exactly a run of consecutive whole subtrees at c->depth.
      ASSERT_GE(c->depth, 0) << spec;
      ASSERT_LE(c->first_obj + c->num_objs,
                t.at_depth(c->depth).size())
          << spec;
      EXPECT_TRUE(c->pus ==
                  pus_of_run(t, c->depth, c->first_obj, c->num_objs))
          << spec;
      taken = taken | c->pus;
    }
  }
}

TEST(Carveout, PrefersWholeLocalityDomains) {
  // On smp20e7 (8 PUs per NUMA node) an 8-wide request must be served
  // as one whole node, and 16 as two consecutive nodes — never as a
  // run of finer-grained cores straddling domains.
  const Topology t = make_smp20e7();
  const int node_depth = t.depth_of_type(ObjType::NumaNode);
  ASSERT_GE(node_depth, 0);

  const auto one_node = carve_subtrees(t, 8, CpuSet{});
  ASSERT_TRUE(one_node.has_value());
  EXPECT_EQ(one_node->depth, node_depth);
  EXPECT_EQ(one_node->num_objs, 1u);
  EXPECT_EQ(one_node->width, 8u);

  const auto two_nodes = carve_subtrees(t, 16, one_node->pus);
  ASSERT_TRUE(two_nodes.has_value());
  EXPECT_EQ(two_nodes->depth, node_depth);
  EXPECT_EQ(two_nodes->num_objs, 2u);
  EXPECT_TRUE((two_nodes->pus & one_node->pus).empty());
}

TEST(Carveout, RoundsUpToWholeSubtrees) {
  // 9 PUs on smp20e7: whole 8-PU nodes are the coarsest granularity
  // that fits, and no run of them covers exactly 9 — the carve rounds
  // up to two whole nodes (covers-width, never splinters a domain).
  const Topology t = make_smp20e7();
  const auto c = carve_subtrees(t, 9, CpuSet{});
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->depth, t.depth_of_type(ObjType::NumaNode));
  EXPECT_EQ(c->num_objs, 2u);
  EXPECT_EQ(c->width, 16u);
}

TEST(Carveout, FragmentationDescendsToFinerSubtrees) {
  // Poke holes in every node of fig2 (32 PUs, 8 per socket): no whole
  // socket is free, so a 4-wide carve must descend to cores.
  const Topology t = make_fig2_machine();
  CpuSet holes;
  for (int pu = 0; pu < 32; pu += 8) holes.set(pu);
  const auto c = carve_subtrees(t, 4, holes);
  ASSERT_TRUE(c.has_value());
  EXPECT_TRUE((c->pus & holes).empty());
  EXPECT_GE(c->width, 4u);
  EXPECT_GT(c->depth, t.depth_of_type(ObjType::Package));
}

TEST(Carveout, RejectsImpossibleRequests) {
  const Topology t = make_fig2_machine();
  EXPECT_FALSE(carve_subtrees(t, 0, CpuSet{}).has_value());
  EXPECT_FALSE(carve_subtrees(t, 33, CpuSet{}).has_value());
  EXPECT_FALSE(
      carve_subtrees(t, 1, CpuSet::range(0, 31)).has_value());
  EXPECT_FALSE(carve_subtrees(Topology{}, 1, CpuSet{}).has_value());
}

// ----------------------------------------------------- subtopology ----

TEST(Subtopology, PreservesOsIndicesAndStructure) {
  for (const std::string& spec : named_fixtures()) {
    const Topology t = *make_named(spec);
    const auto c = carve_subtrees(t, 8, CpuSet{});
    ASSERT_TRUE(c.has_value()) << spec;
    const Topology sub = subtopology(t, c->pus, spec + "/tenant");
    EXPECT_EQ(sub.num_pus(), c->width) << spec;
    EXPECT_EQ(sub.name(), spec + "/tenant");
    // Same os indices as the carve, in the host's left-to-right order.
    CpuSet seen;
    for (const Object* pu : sub.pus()) seen.set(pu->os_index);
    EXPECT_TRUE(seen == c->pus) << spec;
    // The copy is a well-formed machine the runtime can place on.
    EXPECT_EQ(sub.root().type, ObjType::Machine) << spec;
    EXPECT_EQ(sub.depth(), t.depth()) << spec;
  }
}

TEST(Subtopology, CarvedSubtopologiesStaySymmetric) {
  // Whole-subtree carves keep per-depth arity uniform, so Algorithm 1
  // never hits its asymmetric-host fallback inside a tenant.
  const Topology t = make_smp12e5();
  const auto c = carve_subtrees(t, 32, CpuSet{});
  ASSERT_TRUE(c.has_value());
  const Topology sub = subtopology(t, c->pus, "tenant");
  EXPECT_TRUE(sub.is_symmetric());
  EXPECT_TRUE(sub.has_hyperthreads());
}

TEST(Subtopology, ThrowsWhenNothingSelected) {
  const Topology t = make_fig2_machine();
  EXPECT_THROW(subtopology(t, CpuSet{}, "x"), std::invalid_argument);
  EXPECT_THROW(subtopology(t, CpuSet::single(999), "x"),
               std::invalid_argument);
  EXPECT_THROW(subtopology(Topology{}, CpuSet::single(0), "x"),
               std::invalid_argument);
}

}  // namespace
