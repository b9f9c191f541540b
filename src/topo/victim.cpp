#include "topo/victim.hpp"

#include <algorithm>

namespace orwl::topo {

std::span<const int> VictimTable::row(std::size_t pu) const noexcept {
  if (pu >= num_pus || num_pus < 2) return {};
  const std::size_t stride = num_pus - 1;
  return {victims.data() + pu * stride, stride};
}

VictimTable make_victim_table(const Topology& t) {
  VictimTable table;
  if (t.empty()) return table;
  const std::size_t npus = t.num_pus();
  table.num_pus = npus;
  if (npus < 2) return table;

  const std::size_t stride = npus - 1;
  table.victims.resize(npus * stride);

  std::vector<int> order(stride);
  for (std::size_t p = 0; p < npus; ++p) {
    order.clear();
    for (std::size_t v = 0; v < npus; ++v) {
      if (v != p) order.push_back(static_cast<int>(v));
    }
    // Nearest first; equal sharing depths fan out clockwise from the
    // thief so concurrent thieves spread over distinct victims.
    const auto ring = [&](int v) {
      return (static_cast<std::size_t>(v) + npus - p) % npus;
    };
    std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
      const int da = t.sharing_depth(static_cast<int>(p), a);
      const int db = t.sharing_depth(static_cast<int>(p), b);
      if (da != db) return da > db;
      return ring(a) < ring(b);
    });
    std::copy(order.begin(), order.end(),
              table.victims.begin() + p * stride);
  }
  return table;
}

}  // namespace orwl::topo
