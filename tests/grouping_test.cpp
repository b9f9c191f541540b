#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "support/rng.hpp"
#include "treematch/grouping.hpp"

namespace {

using namespace orwl::tm;
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

void expect_valid_partition(const std::vector<std::vector<int>>& groups,
                            std::size_t p, std::size_t arity) {
  std::vector<bool> seen(p, false);
  ASSERT_EQ(groups.size(), p / arity);
  for (const auto& g : groups) {
    ASSERT_EQ(g.size(), arity);
    for (int e : g) {
      ASSERT_GE(e, 0);
      ASSERT_LT(static_cast<std::size_t>(e), p);
      ASSERT_FALSE(seen[static_cast<std::size_t>(e)]) << "duplicate " << e;
      seen[static_cast<std::size_t>(e)] = true;
    }
  }
}

// --------------------------------------------------------- basic API ----

TEST(Grouping, RejectsNonMultipleOrder) {
  const CommMatrix m(5);
  EXPECT_THROW(group_processes(m, 2), std::invalid_argument);
}

TEST(Grouping, RejectsZeroArity) {
  const CommMatrix m(4);
  EXPECT_THROW(group_processes(m, 0), std::invalid_argument);
}

TEST(Grouping, AritiyOneMakesSingletons) {
  const CommMatrix m = random_matrix(4, 1);
  const auto g = group_processes(m, 1);
  ASSERT_EQ(g.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(g[i], std::vector<int>{static_cast<int>(i)});
  }
}

TEST(Grouping, ArityEqualOrderMakesOneGroup) {
  const CommMatrix m = random_matrix(4, 2);
  const auto g = group_processes(m, 4);
  ASSERT_EQ(g.size(), 1u);
  EXPECT_EQ(g[0], (std::vector<int>{0, 1, 2, 3}));
}

TEST(Grouping, PadToMultiple) {
  EXPECT_EQ(pad_to_multiple(5, 2), 6u);
  EXPECT_EQ(pad_to_multiple(4, 2), 4u);
  EXPECT_EQ(pad_to_multiple(1, 8), 8u);
  EXPECT_THROW(pad_to_multiple(4, 0), std::invalid_argument);
}

TEST(Grouping, PartitionCount) {
  // 4 entities in pairs: {01|23},{02|13},{03|12} -> 3.
  EXPECT_DOUBLE_EQ(partition_count(4, 2), 3.0);
  // 6 in pairs: 15.
  EXPECT_NEAR(partition_count(6, 2), 15.0, 1e-9);
  // Non-divisible: infinite sentinel.
  EXPECT_TRUE(std::isinf(partition_count(5, 2)));
}

// ---------------------------------------------------------- exact -------

TEST(GroupingExact, FindsObviousPairs) {
  // Two heavy pairs (0,1) and (2,3); exact must recover them.
  CommMatrix m(4);
  m.set(0, 1, 100.0);
  m.set(2, 3, 100.0);
  m.set(0, 2, 1.0);
  m.set(1, 3, 1.0);
  const auto g = group_processes(m, 2, GroupingEngine::Exact);
  EXPECT_EQ(g[0], (std::vector<int>{0, 1}));
  EXPECT_EQ(g[1], (std::vector<int>{2, 3}));
}

TEST(GroupingExact, InterleavedHeavyPairs) {
  // Heavy pairs are (0,2) and (1,3) - not adjacent indices.
  CommMatrix m(4);
  m.set(0, 2, 50.0);
  m.set(1, 3, 50.0);
  m.set(0, 1, 1.0);
  const auto g = group_processes(m, 2, GroupingEngine::Exact);
  EXPECT_EQ(g[0], (std::vector<int>{0, 2}));
  EXPECT_EQ(g[1], (std::vector<int>{1, 3}));
}

TEST(GroupingExact, GroupsOfFour) {
  CommMatrix m(8);
  // Clique {0,1,2,3} and clique {4,5,6,7}.
  for (int i = 0; i < 4; ++i) {
    for (int j = i + 1; j < 4; ++j) {
      m.set(i, j, 10.0);
      m.set(i + 4, j + 4, 10.0);
    }
  }
  m.set(0, 4, 2.0);
  const auto g = group_processes(m, 4, GroupingEngine::Exact);
  EXPECT_EQ(g[0], (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(g[1], (std::vector<int>{4, 5, 6, 7}));
}

// The exact engine as it was before it became allocation-free: a vector
// per open group and a copy of the partial partition per completed group.
// Kept as the reference the flat engine must match group for group,
// including which of several tied optima it returns (the first one met,
// because only a strictly larger volume replaces the best).
class ReferenceExactEngine {
 public:
  ReferenceExactEngine(const CommMatrix& m, std::size_t a)
      : m_(m), a_(a), p_(m.order()), assigned_(p_, false) {}

  std::vector<std::vector<int>> run() {
    recurse(0.0);
    for (auto& g : best_) std::sort(g.begin(), g.end());
    std::sort(best_.begin(), best_.end(), [](const auto& x, const auto& y) {
      return x.front() < y.front();
    });
    return best_;
  }

 private:
  void recurse(double value) {
    std::size_t seed = 0;
    while (seed < p_ && assigned_[seed]) ++seed;
    if (seed == p_) {
      if (value > best_value_) {
        best_value_ = value;
        best_ = current_;
      }
      return;
    }
    assigned_[seed] = true;
    std::vector<int> group{static_cast<int>(seed)};
    choose_partners(seed + 1, group, value);
    assigned_[seed] = false;
  }

  void choose_partners(std::size_t from, std::vector<int>& group,
                       double value) {
    if (group.size() == a_) {
      current_.push_back(group);
      recurse(value);
      current_.pop_back();
      return;
    }
    for (std::size_t e = from; e < p_; ++e) {
      if (assigned_[e]) continue;
      double gain = 0.0;
      for (int g : group) gain += m_.at(static_cast<std::size_t>(g), e);
      assigned_[e] = true;
      group.push_back(static_cast<int>(e));
      choose_partners(e + 1, group, value + gain);
      group.pop_back();
      assigned_[e] = false;
    }
  }

  const CommMatrix& m_;
  std::size_t a_;
  std::size_t p_;
  std::vector<bool> assigned_;
  std::vector<std::vector<int>> current_;
  std::vector<std::vector<int>> best_;
  double best_value_ = -1.0;
};

TEST(GroupingExact, MatchesReferenceEngineWithTies) {
  // Small integer volumes make many partitions tie on the optimum, so
  // this also pins which optimum the enumeration order returns.
  SplitMix64 rng(2025);
  for (const std::size_t a : {2u, 3u, 4u, 6u}) {
    for (std::size_t p = 2 * a; p <= 12; p += a) {
      for (int round = 0; round < 12; ++round) {
        CommMatrix m(p);
        const std::uint64_t levels = 1 + rng.below(4);
        for (std::size_t i = 0; i < p; ++i) {
          for (std::size_t j = i + 1; j < p; ++j) {
            m.set(i, j, static_cast<double>(rng.below(levels)));
          }
        }
        EXPECT_EQ(group_processes(m, a, GroupingEngine::Exact),
                  ReferenceExactEngine(m, a).run())
            << "p=" << p << " a=" << a << " round " << round;
      }
    }
  }
}

// ---------------------------------------------------------- greedy ------

TEST(GroupingGreedy, ProducesValidPartition) {
  const CommMatrix m = random_matrix(24, 7);
  const auto g = group_processes(m, 4, GroupingEngine::Greedy);
  expect_valid_partition(g, 24, 4);
}

TEST(GroupingGreedy, RecoversPlantedClusters) {
  // Planted: groups of 4 consecutive entities with strong internal volume
  // and weak external noise; greedy must recover them exactly.
  constexpr std::size_t kN = 16;
  CommMatrix m(kN);
  SplitMix64 rng(3);
  for (std::size_t i = 0; i < kN; ++i) {
    for (std::size_t j = i + 1; j < kN; ++j) {
      const bool same = (i / 4) == (j / 4);
      m.set(i, j, same ? 1000.0 + static_cast<double>(rng.below(10))
                       : static_cast<double>(rng.below(10)));
    }
  }
  const auto g = group_processes(m, 4, GroupingEngine::Greedy);
  expect_valid_partition(g, kN, 4);
  for (std::size_t gi = 0; gi < 4; ++gi) {
    EXPECT_EQ(g[gi],
              (std::vector<int>{static_cast<int>(gi * 4),
                                static_cast<int>(gi * 4 + 1),
                                static_cast<int>(gi * 4 + 2),
                                static_cast<int>(gi * 4 + 3)}));
  }
}

// ------------------------------------------------- property: quality ----

struct QualityCase {
  std::size_t p;
  std::size_t arity;
  std::uint64_t seed;
};

class GroupingQualityTest : public ::testing::TestWithParam<QualityCase> {};

TEST_P(GroupingQualityTest, ExactBeatsOrTiesGreedyAndBothValid) {
  const auto [p, arity, seed] = GetParam();
  const CommMatrix m = random_matrix(p, seed);

  const auto exact = group_processes(m, arity, GroupingEngine::Exact);
  const auto greedy = group_processes(m, arity, GroupingEngine::Greedy);
  expect_valid_partition(exact, p, arity);
  expect_valid_partition(greedy, p, arity);

  const double v_exact = intra_volume(m, exact);
  const double v_greedy = intra_volume(m, greedy);
  EXPECT_GE(v_exact, v_greedy - 1e-9)
      << "exact grouping must dominate greedy";

  // Objective duality: intra + inter == total, so maximal intra is
  // minimal inter.
  EXPECT_LE(v_exact, m.total_volume() + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GroupingQualityTest,
    ::testing::Values(QualityCase{4, 2, 11}, QualityCase{6, 2, 12},
                      QualityCase{8, 2, 13}, QualityCase{10, 2, 14},
                      QualityCase{6, 3, 15}, QualityCase{9, 3, 16},
                      QualityCase{8, 4, 17}, QualityCase{12, 4, 18},
                      QualityCase{12, 2, 19}, QualityCase{12, 3, 20}));

TEST(GroupingAuto, SwitchesToGreedyOnLargeInstances) {
  // 64 entities in pairs has ~6e53 partitions; Auto must not hang.
  const CommMatrix m = random_matrix(64, 5);
  const auto g = group_processes(m, 2, GroupingEngine::Auto);
  expect_valid_partition(g, 64, 2);
}

TEST(GroupingAuto, MatchesExactOnSmallInstances) {
  const CommMatrix m = random_matrix(8, 21);
  EXPECT_EQ(group_processes(m, 2, GroupingEngine::Auto),
            group_processes(m, 2, GroupingEngine::Exact));
}

TEST(Grouping, DeterministicAcrossCalls) {
  const CommMatrix m = random_matrix(32, 77);
  EXPECT_EQ(group_processes(m, 4), group_processes(m, 4));
}

}  // namespace
