#include <gtest/gtest.h>

#include "affinity/affinity.hpp"
#include "affinity/report.hpp"
#include "topo/machines.hpp"

namespace {

using namespace orwl;
using rt::AccessMode;
using rt::TaskGraph;

TaskGraph chain_graph(std::size_t n, std::size_t bytes) {
  // Task i writes its own location; task i+1 reads it (Listing 1 chain).
  TaskGraph g;
  g.num_tasks = n;
  g.locations_per_task = 1;
  g.locations.resize(n);
  for (std::size_t t = 0; t < n; ++t) {
    g.locations[t].id = t;
    g.locations[t].owner = t;
    g.locations[t].bytes = bytes;
    g.locations[t].accesses.push_back({t, AccessMode::Write, 0});
    if (t + 1 < n) {
      g.locations[t].accesses.push_back({t + 1, AccessMode::Read, 1});
    }
  }
  return g;
}

// ------------------------------------------------- matrix extraction ----

TEST(DependencyGet, ChainProducesTridiagonalMatrix) {
  const TaskGraph g = chain_graph(5, 1000);
  const tm::CommMatrix m = aff::comm_matrix_from_graph(g);
  ASSERT_EQ(m.order(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    for (std::size_t j = i + 1; j < 5; ++j) {
      if (j == i + 1) {
        EXPECT_DOUBLE_EQ(m.at(i, j), 1000.0) << i << "," << j;
      } else {
        EXPECT_DOUBLE_EQ(m.at(i, j), 0.0) << i << "," << j;
      }
    }
  }
}

TEST(DependencyGet, VolumeScalesWithLocationSize) {
  TaskGraph g = chain_graph(3, 64);
  g.locations[0].bytes = 4096;
  const tm::CommMatrix m = aff::comm_matrix_from_graph(g);
  EXPECT_DOUBLE_EQ(m.at(0, 1), 4096.0);
  EXPECT_DOUBLE_EQ(m.at(1, 2), 64.0);
}

TEST(DependencyGet, MultipleReadersEachCoupleToWriter) {
  TaskGraph g;
  g.num_tasks = 4;
  g.locations_per_task = 1;
  g.locations.resize(1);
  g.locations[0] = {0, 0, 512, {}};
  g.locations[0].accesses.push_back({0, AccessMode::Write, 0});
  g.locations[0].accesses.push_back({1, AccessMode::Read, 1});
  g.locations[0].accesses.push_back({2, AccessMode::Read, 1});
  g.locations[0].accesses.push_back({3, AccessMode::Read, 1});
  const tm::CommMatrix m = aff::comm_matrix_from_graph(g);
  EXPECT_DOUBLE_EQ(m.at(0, 1), 512.0);
  EXPECT_DOUBLE_EQ(m.at(0, 2), 512.0);
  EXPECT_DOUBLE_EQ(m.at(0, 3), 512.0);
  // Readers do not exchange data among themselves.
  EXPECT_DOUBLE_EQ(m.at(1, 2), 0.0);
  EXPECT_DOUBLE_EQ(m.at(2, 3), 0.0);
}

TEST(DependencyGet, WriterPairsCouple) {
  TaskGraph g;
  g.num_tasks = 3;
  g.locations_per_task = 1;
  g.locations.resize(1);
  g.locations[0] = {0, 0, 256, {}};
  g.locations[0].accesses.push_back({0, AccessMode::Write, 0});
  g.locations[0].accesses.push_back({1, AccessMode::Write, 1});
  const tm::CommMatrix m = aff::comm_matrix_from_graph(g);
  EXPECT_DOUBLE_EQ(m.at(0, 1), 256.0);
}

TEST(DependencyGet, DuplicateAccessesCountOnce) {
  TaskGraph g;
  g.num_tasks = 2;
  g.locations_per_task = 1;
  g.locations.resize(1);
  g.locations[0] = {0, 0, 100, {}};
  g.locations[0].accesses.push_back({0, AccessMode::Write, 0});
  g.locations[0].accesses.push_back({1, AccessMode::Read, 1});
  g.locations[0].accesses.push_back({1, AccessMode::Read, 2});  // dup
  const tm::CommMatrix m = aff::comm_matrix_from_graph(g);
  EXPECT_DOUBLE_EQ(m.at(0, 1), 100.0);
}

TEST(DependencyGet, SelfAccessProducesNoVolume) {
  TaskGraph g;
  g.num_tasks = 2;
  g.locations_per_task = 1;
  g.locations.resize(1);
  g.locations[0] = {0, 0, 100, {}};
  g.locations[0].accesses.push_back({0, AccessMode::Write, 0});
  g.locations[0].accesses.push_back({0, AccessMode::Read, 1});
  const tm::CommMatrix m = aff::comm_matrix_from_graph(g);
  EXPECT_DOUBLE_EQ(m.total_volume(), 0.0);
}

TEST(DependencyGet, EmptyAndZeroSizedLocationsIgnored) {
  TaskGraph g;
  g.num_tasks = 2;
  g.locations_per_task = 2;
  g.locations.resize(4);
  for (std::size_t i = 0; i < 4; ++i) {
    g.locations[i] = {i, i / 2, 0, {}};
  }
  g.locations[0].accesses.push_back({0, AccessMode::Write, 0});
  g.locations[0].accesses.push_back({1, AccessMode::Read, 1});
  const tm::CommMatrix m = aff::comm_matrix_from_graph(g);
  EXPECT_DOUBLE_EQ(m.total_volume(), 0.0);
}

// ------------------------------------------------ compute_placement -----

TEST(ComputePlacement, ChainMapsNeighborsTogether) {
  const TaskGraph g = chain_graph(8, 4096);
  const tm::CommMatrix m = aff::comm_matrix_from_graph(g);
  const auto t = topo::make_numa(2, 4, 1);
  const tm::Placement p = aff::compute_placement(m, t);
  ASSERT_TRUE(p.valid_for(t));
  // A chain of 8 on 2 nodes of 4: exactly one chain edge crosses nodes.
  int cross = 0;
  for (std::size_t i = 0; i + 1 < 8; ++i) {
    const auto* a = t.pu_by_os_index(p.compute_pu[i]);
    const auto* b = t.pu_by_os_index(p.compute_pu[i + 1]);
    if (t.common_ancestor(*a, *b)->type == topo::ObjType::Machine) ++cross;
  }
  EXPECT_EQ(cross, 1);
}

// ------------------------------------------------------------ report ----

TEST(Report, MappingListsTasksAndControl) {
  const auto t = topo::make_fig2_machine();
  const TaskGraph g = chain_graph(30, 1 << 20);
  const tm::CommMatrix m = aff::comm_matrix_from_graph(g);
  aff::ComputeOptions opts;
  opts.num_control_threads = 4;
  const tm::Placement p = aff::compute_placement(m, t, opts);
  std::vector<std::string> names(30);
  for (int i = 0; i < 30; ++i) names[i] = "stage" + std::to_string(i);

  const std::string s = aff::render_mapping(t, p, names);
  EXPECT_NE(s.find("Blade 0"), std::string::npos);
  EXPECT_NE(s.find("Socket 3"), std::string::npos);
  EXPECT_NE(s.find("0:stage0"), std::string::npos);
  EXPECT_NE(s.find("control"), std::string::npos);
  EXPECT_NE(s.find("spare-cores"), std::string::npos);
}

TEST(Report, MappingWithoutNamesUsesTaskPlaceholder) {
  const auto t = topo::make_numa(2, 2, 1);
  tm::Placement p;
  p.compute_pu = {0, 1, 2, 3};
  const std::string s = aff::render_mapping(t, p);
  EXPECT_NE(s.find("0:task"), std::string::npos);
}

TEST(Report, OversubscribedMappingShowsEachThreadsGroup) {
  // 12 chained tasks on 2 nodes x 2 cores: every task is bound to the two
  // cores of its node, and both renderings say so.
  const auto t = topo::make_numa(2, 2, 1);
  const tm::Placement p =
      aff::compute_placement(aff::comm_matrix_from_graph(chain_graph(12, 64)),
                             t);
  ASSERT_TRUE(p.oversubscribed);
  ASSERT_TRUE(p.valid_for(t));
  const std::string map = aff::render_mapping(t, p);
  const std::string desc = p.describe(t);
  for (std::size_t i = 0; i < 12; ++i) {
    const std::string set = p.cpus_of(i).to_list_string();
    EXPECT_TRUE(set == "0-1" || set == "2-3") << "thread " << i << ": " << set;
    EXPECT_NE(map.find(std::to_string(i) + ":task [PUs " + set + "]"),
              std::string::npos)
        << map;
    const std::string node = set == "0-1" ? "NUMANode 0" : "NUMANode 1";
    EXPECT_NE(desc.find("thread " + std::to_string(i) + " -> PUs " + set +
                        " (" + node + ")"),
              std::string::npos)
        << desc;
  }
}

TEST(Report, PlacementWithoutSetsFallsBackToItsPus) {
  // A hand-built placement carries no sets: each thread is bound to its
  // PU, an unplaced one to nothing, and a set that drops its PU is invalid.
  const auto t = topo::make_numa(2, 2, 1);
  tm::Placement p;
  p.compute_pu = {0, 1, 2, 3};
  EXPECT_TRUE(p.valid_for(t));
  EXPECT_EQ(p.cpus_of(2), topo::CpuSet::single(2));
  EXPECT_TRUE(p.cpus_of(4).empty());
  EXPECT_EQ(aff::render_mapping(t, p).find(":task [PUs"), std::string::npos);
  p.compute_set.assign(4, topo::CpuSet::range(0, 1));
  EXPECT_FALSE(p.valid_for(t)) << "threads 2 and 3 lie outside their set";
}

TEST(Report, CommMatrixDelegatesToHeatmap) {
  tm::CommMatrix m(3);
  m.set(0, 1, 100.0);
  const std::string s = aff::render_comm_matrix(m);
  EXPECT_NE(s.find("order 3"), std::string::npos);
}

}  // namespace
