#include "treematch/grouping.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace orwl::tm {

namespace {

/// Work bound under which the exact engine is allowed by Auto.
constexpr double kExactWorkLimit = 200000.0;

void canonicalize(std::vector<std::vector<int>>& groups) {
  for (auto& g : groups) std::sort(g.begin(), g.end());
  std::sort(groups.begin(), groups.end(),
            [](const auto& a, const auto& b) { return a.front() < b.front(); });
}

/// Exhaustive search over partitions into groups of size `a`.
///
/// Canonical enumeration: the lowest unassigned entity always opens the
/// next group, and its a-1 partners are chosen among the remaining
/// entities in increasing order. This enumerates every unordered partition
/// exactly once. The search allocates nothing: the partition being built
/// is the flat prefix order_[0, placed), group k at [k*a, k*a + a), and
/// the best one found so far is a flat copy of it.
class ExactEngine {
 public:
  ExactEngine(const CommMatrix& m, std::size_t a)
      : a_(a), p_(m.order()), to_(p_ * p_), assigned_(p_, 0), order_(p_),
        best_(p_) {
    // Dense transpose: to_[e * p + g] = m(g, e), so the gain of adding e
    // to a group reads one contiguous row.
    for (std::size_t g = 0; g < p_; ++g) {
      for (std::size_t e = 0; e < p_; ++e) to_[e * p_ + g] = m.at(g, e);
    }
  }

  std::vector<std::vector<int>> run() {
    best_value_ = -1.0;
    open_group(0, 0.0);
    std::vector<std::vector<int>> groups(p_ / a_);
    for (std::size_t k = 0; k < groups.size(); ++k) {
      groups[k].assign(best_.begin() + static_cast<std::ptrdiff_t>(k * a_),
                       best_.begin() +
                           static_cast<std::ptrdiff_t>((k + 1) * a_));
    }
    return groups;
  }

 private:
  void open_group(std::size_t placed, double value) {
    // Find lowest unassigned entity.
    std::size_t seed = 0;
    while (seed < p_ && assigned_[seed]) ++seed;
    if (seed == p_) {
      if (value > best_value_) {
        best_value_ = value;
        best_ = order_;
      }
      return;
    }
    assigned_[seed] = 1;
    order_[placed] = static_cast<int>(seed);
    choose_partners(seed + 1, placed, placed + 1, value);
    assigned_[seed] = 0;
  }

  /// The open group is order_[begin, placed); its next member comes from
  /// the unassigned entities >= from.
  void choose_partners(std::size_t from, std::size_t begin,
                       std::size_t placed, double value) {
    if (placed - begin == a_) {
      open_group(placed, value);
      return;
    }
    for (std::size_t e = from; e < p_; ++e) {
      if (assigned_[e]) continue;
      // Volume gained by adding e to the open group.
      const double* row = &to_[e * p_];
      double gain = 0.0;
      for (std::size_t k = begin; k < placed; ++k) {
        gain += row[static_cast<std::size_t>(order_[k])];
      }
      assigned_[e] = 1;
      order_[placed] = static_cast<int>(e);
      choose_partners(e + 1, begin, placed + 1, value + gain);
      assigned_[e] = 0;
    }
  }

  std::size_t a_;
  std::size_t p_;
  std::vector<double> to_;
  std::vector<char> assigned_;
  std::vector<int> order_;
  std::vector<int> best_;
  double best_value_ = -1.0;
};

/// Greedy engine: repeatedly seed a group with the unassigned entity of
/// largest remaining row sum, then grow it with the entity most connected
/// to the group.
std::vector<std::vector<int>> greedy_engine(const CommMatrix& m,
                                            std::size_t a) {
  const std::size_t p = m.order();
  std::vector<bool> assigned(p, false);
  std::vector<std::vector<int>> groups;
  groups.reserve(p / a);

  for (std::size_t made = 0; made < p / a; ++made) {
    // Seed: max row sum among unassigned (ties -> lowest index for
    // determinism).
    std::size_t seed = p;
    double best_row = -1.0;
    for (std::size_t e = 0; e < p; ++e) {
      if (assigned[e]) continue;
      const double r = m.row_sum(e);
      if (r > best_row) {
        best_row = r;
        seed = e;
      }
    }
    std::vector<int> group{static_cast<int>(seed)};
    assigned[seed] = true;

    while (group.size() < a) {
      std::size_t pick = p;
      double best_gain = -1.0;
      for (std::size_t e = 0; e < p; ++e) {
        if (assigned[e]) continue;
        double gain = 0.0;
        for (int g : group) gain += m.at(static_cast<std::size_t>(g), e);
        if (gain > best_gain) {
          best_gain = gain;
          pick = e;
        }
      }
      group.push_back(static_cast<int>(pick));
      assigned[pick] = true;
    }
    groups.push_back(std::move(group));
  }
  return groups;
}

}  // namespace

double partition_count(std::size_t p, std::size_t a) {
  if (a == 0 || p % a != 0) return std::numeric_limits<double>::infinity();
  const std::size_t k = p / a;
  // p! / ((a!)^k * k!)
  const double log_count = std::lgamma(static_cast<double>(p) + 1) -
                           static_cast<double>(k) *
                               std::lgamma(static_cast<double>(a) + 1) -
                           std::lgamma(static_cast<double>(k) + 1);
  if (log_count > 700.0) return std::numeric_limits<double>::infinity();
  return std::exp(log_count);
}

std::size_t pad_to_multiple(std::size_t p, std::size_t arity) {
  if (arity == 0) throw std::invalid_argument("pad_to_multiple: arity 0");
  return (p + arity - 1) / arity * arity;
}

double intra_volume(const CommMatrix& m,
                    const std::vector<std::vector<int>>& groups) {
  double acc = 0.0;
  for (const auto& g : groups) acc += m.volume_within(g);
  return acc;
}

std::vector<std::vector<int>> group_processes(const CommMatrix& m,
                                              std::size_t arity,
                                              GroupingEngine engine) {
  const std::size_t p = m.order();
  if (arity == 0) throw std::invalid_argument("group_processes: arity 0");
  if (p == 0 || p % arity != 0) {
    throw std::invalid_argument(
        "group_processes: order must be a positive multiple of arity");
  }

  if (arity == 1) {
    std::vector<std::vector<int>> singletons(p);
    for (std::size_t i = 0; i < p; ++i) singletons[i] = {static_cast<int>(i)};
    return singletons;
  }
  if (arity == p) {
    std::vector<int> all(p);
    for (std::size_t i = 0; i < p; ++i) all[i] = static_cast<int>(i);
    return {all};
  }

  GroupingEngine chosen = engine;
  if (chosen == GroupingEngine::Auto) {
    chosen = partition_count(p, arity) <= kExactWorkLimit
                 ? GroupingEngine::Exact
                 : GroupingEngine::Greedy;
  }

  std::vector<std::vector<int>> groups;
  if (chosen == GroupingEngine::Exact) {
    groups = ExactEngine(m, arity).run();
  } else {
    groups = greedy_engine(m, arity);
  }
  canonicalize(groups);
  return groups;
}

}  // namespace orwl::tm
