#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>

#include "apps/video.hpp"
#include "support/rng.hpp"
#include "topo/machines.hpp"
#include "topo/carve.hpp"
#include "treematch/strategies.hpp"
#include "treematch/treematch.hpp"

namespace {

using namespace orwl::tm;
using namespace orwl::topo;
using orwl::support::SplitMix64;

CommMatrix random_matrix(std::size_t n, std::uint64_t seed) {
  CommMatrix m(n);
  SplitMix64 rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      m.set(i, j, static_cast<double>(rng.below(1000)));
    }
  }
  return m;
}

/// A ring matrix: thread i talks to i+1 (mod n) with heavy volume.
CommMatrix ring_matrix(std::size_t n, double volume = 1000.0) {
  CommMatrix m(n);
  for (std::size_t i = 0; i < n; ++i) {
    m.add(i, (i + 1) % n, volume);
  }
  return m;
}

/// Pairs matrix: (0,1), (2,3), ... are heavy, everything else light.
CommMatrix pairs_matrix(std::size_t n) {
  CommMatrix m(n);
  for (std::size_t i = 0; i + 1 < n; i += 2) m.set(i, i + 1, 1000.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (m.at(i, j) == 0) m.set(i, j, 1.0);
    }
  }
  return m;
}

// ------------------------------------------------------- validity -------

TEST(TreeMatch, RejectsEmptyInputs) {
  const Topology t = make_numa(2, 4, 1);
  EXPECT_THROW(tree_match(t, CommMatrix{}), std::invalid_argument);
  EXPECT_THROW(tree_match(Topology{}, CommMatrix(4)), std::invalid_argument);
}

TEST(TreeMatch, SingleThread) {
  const Topology t = make_numa(2, 4, 1);
  const Placement p = tree_match(t, CommMatrix(1));
  ASSERT_EQ(p.compute_pu.size(), 1u);
  EXPECT_TRUE(p.valid_for(t));
}

TEST(TreeMatch, PlacementIsInjectionWithoutOversubscription) {
  const Topology t = make_numa(4, 4, 1);
  const CommMatrix m = random_matrix(16, 42);
  const Placement p = tree_match(t, m);
  EXPECT_FALSE(p.oversubscribed);
  EXPECT_TRUE(p.valid_for(t));
  std::set<int> pus(p.compute_pu.begin(), p.compute_pu.end());
  EXPECT_EQ(pus.size(), 16u);
}

TEST(TreeMatch, HyperthreadedMachineUsesOnePuPerCore) {
  // "we map only one compute intensive task per physical core"
  const Topology t = make_numa(2, 4, 2);  // 8 cores, 16 PUs
  const CommMatrix m = random_matrix(8, 1);
  const Placement p = tree_match(t, m);
  EXPECT_TRUE(p.valid_for(t));
  for (std::size_t i = 0; i < 8; ++i) {
    const Object* pu = t.pu_by_os_index(p.compute_pu[i]);
    ASSERT_NE(pu, nullptr);
    // First sibling of its core.
    EXPECT_EQ(pu->parent->children.front().get(), pu);
  }
}

// ----------------------------------------------- affinity awareness ----

TEST(TreeMatch, HeavyPairsShareCaches) {
  // 2 NUMA x 4 cores; pairs (0,1),(2,3),... must land in the same NUMA
  // node, and the pairing must never be split across nodes.
  const Topology t = make_numa(2, 4, 1);
  const CommMatrix m = pairs_matrix(8);
  const Placement p = tree_match(t, m);
  ASSERT_TRUE(p.valid_for(t));
  for (std::size_t i = 0; i + 1 < 8; i += 2) {
    const Object* a = t.pu_by_os_index(p.compute_pu[i]);
    const Object* b = t.pu_by_os_index(p.compute_pu[i + 1]);
    const Object* anc = t.common_ancestor(*a, *b);
    EXPECT_GE(anc->depth, t.depth_of_type(ObjType::NumaNode))
        << "pair (" << i << "," << i + 1 << ") split across NUMA nodes";
  }
}

TEST(TreeMatch, BeatsOrTiesScatterAndCompactOnModeledCost) {
  const Topology t = make_numa(4, 4, 1);
  for (std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    const CommMatrix m = random_matrix(16, seed);
    const Placement tm_p = tree_match(t, m);
    const Placement sc = place_strategy(Strategy::Scatter, t, 16);
    const Placement cp = place_strategy(Strategy::Compact, t, 16);
    const double c_tm = modeled_cost(t, m, tm_p);
    EXPECT_LE(c_tm, modeled_cost(t, m, sc) + 1e-6) << "seed " << seed;
    EXPECT_LE(c_tm, modeled_cost(t, m, cp) + 1e-6) << "seed " << seed;
  }
}

TEST(TreeMatch, RingPlacementKeepsNeighborsClose) {
  // On 2x4 the ring 0-1-2-3-4-5-6-7 has an optimal cut of 2 edges.
  const Topology t = make_numa(2, 4, 1);
  const CommMatrix m = ring_matrix(8);
  const Placement p = tree_match(t, m);
  int cross_numa_edges = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    const std::size_t j = (i + 1) % 8;
    const Object* a = t.pu_by_os_index(p.compute_pu[i]);
    const Object* b = t.pu_by_os_index(p.compute_pu[j]);
    if (t.common_ancestor(*a, *b)->type == ObjType::Machine) {
      ++cross_numa_edges;
    }
  }
  EXPECT_EQ(cross_numa_edges, 2);
}

// --------------------------------------------------- control threads ----

TEST(TreeMatch, ControlOnHyperthreadSiblings) {
  // SMP12E5-like: control threads must land on the sibling PU of their
  // associated compute thread's core.
  const Topology t = make_numa(2, 4, 2);
  const CommMatrix m = random_matrix(8, 9);
  Options opts;
  opts.num_control_threads = 8;
  const Placement p = tree_match(t, m, opts);
  EXPECT_EQ(p.control_policy, ControlPolicy::HyperthreadSiblings);
  ASSERT_EQ(p.control_pu.size(), 8u);
  for (std::size_t j = 0; j < 8; ++j) {
    const Object* comp = t.pu_by_os_index(p.compute_pu[j]);
    const Object* ctrl = t.pu_by_os_index(p.control_pu[j]);
    ASSERT_NE(ctrl, nullptr);
    EXPECT_EQ(comp->parent, ctrl->parent) << "not hyperthread siblings";
    EXPECT_NE(comp, ctrl);
  }
}

TEST(TreeMatch, ControlOnSpareCoresWithoutHyperthreads) {
  // Fig. 2 situation: 30 tasks on a 32-core non-HT machine -> 2 spare
  // cores are automatically reserved for control threads.
  const Topology t = make_fig2_machine();
  const CommMatrix m = random_matrix(30, 10);
  Options opts;
  opts.num_control_threads = 6;
  const Placement p = tree_match(t, m, opts);
  EXPECT_EQ(p.control_policy, ControlPolicy::SpareCores);
  ASSERT_EQ(p.control_pu.size(), 6u);
  std::set<int> compute(p.compute_pu.begin(), p.compute_pu.end());
  std::set<int> control;
  for (int pu : p.control_pu) {
    ASSERT_GE(pu, 0) << "control thread left unmanaged";
    EXPECT_FALSE(compute.count(pu))
        << "control thread shares a core with a compute thread";
    control.insert(pu);
  }
  EXPECT_LE(control.size(), 2u) << "only 2 spare cores exist";
}

TEST(TreeMatch, ControlUnmanagedWhenNoRoom) {
  // Non-HT machine fully used by compute -> control left to the OS.
  const Topology t = make_numa(2, 4, 1);
  const CommMatrix m = random_matrix(8, 11);
  Options opts;
  opts.num_control_threads = 4;
  const Placement p = tree_match(t, m, opts);
  EXPECT_EQ(p.control_policy, ControlPolicy::Unmanaged);
  for (int pu : p.control_pu) EXPECT_EQ(pu, -1);
}

TEST(TreeMatch, ControlManagementCanBeDisabled) {
  const Topology t = make_numa(2, 4, 2);
  const CommMatrix m = random_matrix(8, 12);
  Options opts;
  opts.num_control_threads = 4;
  opts.manage_control_threads = false;
  const Placement p = tree_match(t, m, opts);
  EXPECT_EQ(p.control_policy, ControlPolicy::Unmanaged);
}

TEST(TreeMatch, ControlAssociationRespected) {
  const Topology t = make_numa(2, 4, 2);
  const CommMatrix m = pairs_matrix(8);
  Options opts;
  opts.num_control_threads = 2;
  opts.control_associate = {5, 2};
  const Placement p = tree_match(t, m, opts);
  ASSERT_EQ(p.control_pu.size(), 2u);
  const Object* c0 = t.pu_by_os_index(p.control_pu[0]);
  const Object* comp5 = t.pu_by_os_index(p.compute_pu[5]);
  EXPECT_EQ(c0->parent, comp5->parent);
  const Object* c1 = t.pu_by_os_index(p.control_pu[1]);
  const Object* comp2 = t.pu_by_os_index(p.compute_pu[2]);
  EXPECT_EQ(c1->parent, comp2->parent);
}

// ---------------------------------------------------- oversubscription --

TEST(TreeMatch, OversubscriptionGoesUpOneLevel) {
  // 8 cores, 16 threads -> 2 threads per core, valid placement.
  const Topology t = make_numa(2, 4, 1);
  const CommMatrix m = pairs_matrix(16);
  const Placement p = tree_match(t, m);
  EXPECT_TRUE(p.oversubscribed);
  EXPECT_TRUE(p.valid_for(t));
  // Every PU hosts exactly 2 threads.
  std::map<int, int> load;
  for (int pu : p.compute_pu) load[pu]++;
  for (const auto& [pu, n] : load) EXPECT_EQ(n, 2) << "PU " << pu;
  // Heavy pairs share a core (the virtual level groups by affinity).
  for (std::size_t i = 0; i + 1 < 16; i += 2) {
    EXPECT_EQ(p.compute_pu[i], p.compute_pu[i + 1])
        << "heavy pair should share the oversubscribed core";
  }
}

TEST(TreeMatch, ExtremeOversubscription) {
  const Topology t = make_numa(1, 2, 1);  // 2 cores
  const CommMatrix m = random_matrix(11, 13);
  const Placement p = tree_match(t, m);
  EXPECT_TRUE(p.oversubscribed);
  EXPECT_TRUE(p.valid_for(t));
  std::map<int, int> load;
  for (int pu : p.compute_pu) load[pu]++;
  for (const auto& [pu, n] : load) EXPECT_LE(n, 6) << "PU " << pu;
}

// ------------------------------------------------------ group binding --

TEST(TreeMatch, OversubscribedVideoBindsEveryTaskToTheMachine) {
  // The benchmark's 11-task video on 4 single-PU cores: each task may run
  // on any of the 4 cores, so the OS can spread the data-parallel splits
  // the virtual leaf level put on one PU.
  orwl::apps::VideoParams params;
  params.gmm_splits = 2;
  params.dilates = 2;
  params.ccl_splits = 1;
  ASSERT_EQ(params.num_tasks(), 11u);
  const Topology t = make_flat(4);
  const Placement p =
      tree_match(t, orwl::apps::video_comm_matrix(params));
  EXPECT_TRUE(p.oversubscribed);
  EXPECT_TRUE(p.valid_for(t));
  ASSERT_EQ(p.compute_set.size(), 11u);
  for (std::size_t i = 0; i < 11; ++i) {
    EXPECT_EQ(p.compute_set[i], CpuSet::range(0, 3)) << "thread " << i;
    EXPECT_TRUE(p.compute_set[i].test(p.compute_pu[i]));
  }
}

TEST(TreeMatch, OversubscribedGroupStaysInsideTheNumaNode) {
  const Topology t = make_numa(2, 4, 1);  // 8 cores
  const Placement p = tree_match(t, pairs_matrix(16));
  ASSERT_TRUE(p.oversubscribed);
  EXPECT_TRUE(p.valid_for(t));
  for (std::size_t i = 0; i < 16; ++i) {
    const Object* numa = t.pu_by_os_index(p.compute_pu[i])
                             ->ancestor_of_type(ObjType::NumaNode);
    ASSERT_NE(numa, nullptr);
    // All 4 cores of the representative PU's node, nothing else.
    EXPECT_EQ(p.compute_set[i],
              CpuSet::range(numa->first_pu, numa->last_pu))
        << "thread " << i;
  }
}

TEST(TreeMatch, OversubscribedGroupLeavesHyperthreadSiblingsOut) {
  // 2 nodes x 2 cores x 2 PUs: 4 compute PUs, the siblings are reserved
  // for control threads and must not appear in any task's set.
  const Topology t = make_numa(2, 2, 2);
  Options opts;
  opts.num_control_threads = 2;
  const Placement p = tree_match(t, random_matrix(9, 31), opts);
  ASSERT_TRUE(p.oversubscribed);
  EXPECT_EQ(p.control_policy, ControlPolicy::HyperthreadSiblings);
  EXPECT_TRUE(p.valid_for(t));
  for (std::size_t i = 0; i < 9; ++i) {
    EXPECT_EQ(p.compute_set[i].count(), 2u) << "thread " << i;
    for (int os : p.compute_set[i].to_vector()) {
      const Object* pu = t.pu_by_os_index(os);
      EXPECT_EQ(pu->parent->children.front().get(), pu)
          << "PU " << os << " of thread " << i << " is a sibling";
    }
    for (int ctrl : p.control_pu) EXPECT_FALSE(p.compute_set[i].test(ctrl));
  }
}

TEST(TreeMatch, OversubscribedGroupStaysInsideASubtopology) {
  // A server tenant places its program on its carve-out: the groups are
  // made of the carve-out's cores only, under the host's os indices.
  const Topology host = make_numa(2, 4, 1);
  const Topology carve = subtopology(host, CpuSet::range(4, 7), "tenant");
  const Placement p = tree_match(carve, random_matrix(10, 34));
  ASSERT_TRUE(p.oversubscribed);
  EXPECT_TRUE(p.valid_for(carve));
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(p.compute_set[i], CpuSet::range(4, 7)) << "thread " << i;
  }
}

TEST(TreeMatch, GroupOfOneCorePerNodeStaysOnePu) {
  const Topology t = make_numa(4, 1, 1);  // one core per node
  const Placement p = tree_match(t, random_matrix(8, 32));
  ASSERT_TRUE(p.oversubscribed);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(p.compute_set[i], CpuSet::single(p.compute_pu[i]));
  }
}

TEST(TreeMatch, WithoutOversubscriptionEverySetIsItsPu) {
  for (const char* spec : {"flat:4", "numa:2:4:1", "numa:2:2:2", "fig2",
                           "smp12e5"}) {
    const Topology t = *make_named(spec);
    const std::size_t n = std::min<std::size_t>(t.num_cores(), 8);
    const Placement p = tree_match(t, random_matrix(n, 33));
    ASSERT_FALSE(p.oversubscribed) << spec;
    ASSERT_EQ(p.compute_set.size(), n) << spec;
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(p.compute_set[i], CpuSet::single(p.compute_pu[i])) << spec;
    }
  }
}

TEST(TreeMatch, ValidForChecksTheSets) {
  const Topology t = make_numa(2, 4, 1);
  Placement p = tree_match(t, pairs_matrix(16));
  ASSERT_TRUE(p.valid_for(t));
  Placement bad = p;
  bad.compute_set[3] = CpuSet{};
  EXPECT_FALSE(bad.valid_for(t)) << "empty set";
  bad = p;
  bad.compute_set[3].set(99);
  EXPECT_FALSE(bad.valid_for(t)) << "PU outside the topology";
  bad = p;
  bad.compute_set[3].clear(p.compute_pu[3]);
  EXPECT_FALSE(bad.valid_for(t)) << "set without its compute PU";
  bad = p;
  bad.compute_set.pop_back();
  EXPECT_FALSE(bad.valid_for(t)) << "one set per compute thread";
}

// --------------------------------------------------------- describe -----

TEST(TreeMatch, DescribeMentionsThreadsAndPolicy) {
  const Topology t = make_numa(2, 2, 2);
  const CommMatrix m = random_matrix(4, 14);
  Options opts;
  opts.num_control_threads = 1;
  const Placement p = tree_match(t, m, opts);
  const std::string d = p.describe(t);
  EXPECT_NE(d.find("thread 0"), std::string::npos);
  EXPECT_NE(d.find("hyperthread-siblings"), std::string::npos);
  EXPECT_NE(d.find("control 0"), std::string::npos);
}

TEST(TreeMatch, DescribeShowsAGroupBinding) {
  const Topology t = make_flat(4);
  const Placement p = tree_match(t, random_matrix(6, 15));
  ASSERT_TRUE(p.oversubscribed);
  const std::string d = p.describe(t);
  EXPECT_NE(d.find("thread 5 -> PUs 0-3 (Machine"), std::string::npos) << d;
  EXPECT_EQ(d.find("-> PU "), std::string::npos) << d;
}

// ------------------------------------------- parameterized validity -----

struct TmCase {
  int numa;
  int cores;
  int pus;
  std::size_t threads;
  std::uint64_t seed;
};

class TreeMatchValidityTest : public ::testing::TestWithParam<TmCase> {};

TEST_P(TreeMatchValidityTest, AlwaysProducesValidPlacement) {
  const auto& c = GetParam();
  const Topology t = make_numa(c.numa, c.cores, c.pus);
  const CommMatrix m = random_matrix(c.threads, c.seed);
  Options opts;
  opts.num_control_threads = c.threads / 2;
  const Placement p = tree_match(t, m, opts);
  EXPECT_TRUE(p.valid_for(t));
  EXPECT_EQ(p.compute_pu.size(), c.threads);
  EXPECT_EQ(p.control_pu.size(), c.threads / 2);
  const std::size_t slots = t.num_cores();
  EXPECT_EQ(p.oversubscribed,
            c.threads + (p.control_policy == ControlPolicy::SpareCores
                             ? std::min(c.threads / 2, slots - c.threads)
                             : 0) >
                slots);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TreeMatchValidityTest,
    ::testing::Values(TmCase{2, 4, 1, 8, 1}, TmCase{2, 4, 1, 5, 2},
                      TmCase{2, 4, 1, 13, 3}, TmCase{2, 4, 2, 8, 4},
                      TmCase{2, 4, 2, 3, 5}, TmCase{4, 8, 2, 32, 6},
                      TmCase{4, 8, 2, 20, 7}, TmCase{12, 8, 2, 96, 8},
                      TmCase{20, 8, 1, 64, 9}, TmCase{1, 1, 1, 4, 10},
                      TmCase{3, 5, 1, 15, 11}, TmCase{2, 2, 4, 4, 12}));

// ------------------------------------------------- paper machines -------

TEST(TreeMatchPaper, Smp12e5FullScale) {
  // 96 threads on the hyperthreaded machine: one per physical core,
  // control threads on siblings.
  const Topology t = make_smp12e5();
  const CommMatrix m = ring_matrix(96);
  Options opts;
  opts.num_control_threads = 96;
  const Placement p = tree_match(t, m, opts);
  EXPECT_TRUE(p.valid_for(t));
  EXPECT_FALSE(p.oversubscribed);
  EXPECT_EQ(p.control_policy, ControlPolicy::HyperthreadSiblings);
  // Ring on 12 nodes of 8: at most 12 cross-NUMA edges (one per node
  // boundary) is optimal; allow a little slack but far below random.
  int cross = 0;
  for (std::size_t i = 0; i < 96; ++i) {
    const Object* a = t.pu_by_os_index(p.compute_pu[i]);
    const Object* b = t.pu_by_os_index(p.compute_pu[(i + 1) % 96]);
    if (t.common_ancestor(*a, *b)->type == ObjType::Machine) ++cross;
  }
  EXPECT_LE(cross, 14);
}

TEST(TreeMatchPaper, Smp20e7FullScale) {
  const Topology t = make_smp20e7();
  const CommMatrix m = ring_matrix(160);
  Options opts;
  opts.num_control_threads = 64;
  const Placement p = tree_match(t, m, opts);
  EXPECT_TRUE(p.valid_for(t));
  // No hyperthreads, no spare cores -> control unmanaged.
  EXPECT_EQ(p.control_policy, ControlPolicy::Unmanaged);
}

}  // namespace
