#include "topo/carve.hpp"

#include <memory>
#include <stdexcept>
#include <utility>

namespace orwl::topo {

namespace {

/// All of the subtree's PUs are outside `taken`.
bool subtree_free(const Topology& t, const Object& obj, const CpuSet& taken) {
  for (int pu = obj.first_pu; pu <= obj.last_pu; ++pu) {
    const Object* leaf = t.pu_at(pu);
    if (leaf == nullptr || leaf->os_index < 0) return false;
    if (taken.test(leaf->os_index)) return false;
  }
  return obj.pu_count() > 0;
}

CpuSet subtree_pus(const Topology& t, const Object& obj) {
  CpuSet set;
  for (int pu = obj.first_pu; pu <= obj.last_pu; ++pu) {
    const Object* leaf = t.pu_at(pu);
    if (leaf != nullptr && leaf->os_index >= 0) set.set(leaf->os_index);
  }
  return set;
}

}  // namespace

std::optional<Carveout> carve_subtrees(const Topology& t, std::size_t width,
                                       const CpuSet& taken) {
  if (t.empty() || width == 0 || width > t.num_pus()) return std::nullopt;
  for (int d = 0; d < t.depth(); ++d) {
    const auto objs = t.at_depth(d);
    // A depth is too coarse when a single subtree there already exceeds
    // the request: carving it would hand the tenant a whole domain of
    // PUs it never asked for. Descend until whole subtrees fit.
    bool too_coarse = false;
    for (const Object* o : objs) {
      if (static_cast<std::size_t>(o->pu_count()) > width) {
        too_coarse = true;
        break;
      }
    }
    if (too_coarse) continue;
    // First-fit scan for a run of consecutive fully-free subtrees
    // covering the width.
    std::size_t run_start = 0;
    std::size_t covered = 0;
    for (std::size_t i = 0; i < objs.size(); ++i) {
      if (!subtree_free(t, *objs[i], taken)) {
        run_start = i + 1;
        covered = 0;
        continue;
      }
      covered += static_cast<std::size_t>(objs[i]->pu_count());
      if (covered >= width) {
        Carveout c;
        c.depth = d;
        c.first_obj = run_start;
        c.num_objs = i - run_start + 1;
        c.width = covered;
        for (std::size_t k = run_start; k <= i; ++k) {
          c.pus = c.pus | subtree_pus(t, *objs[k]);
        }
        return c;
      }
    }
    // Fragmented at this granularity: finer subtrees may still fit.
  }
  return std::nullopt;
}

namespace {

/// Deep-copy `src` keeping only subtrees that still contain a selected
/// PU; returns null when the whole subtree is dropped.
std::unique_ptr<Object> prune_copy(const Object& src, const CpuSet& pus) {
  if (src.type == ObjType::PU) {
    if (src.os_index < 0 || !pus.test(src.os_index)) return nullptr;
  }
  auto copy = std::make_unique<Object>();
  copy->type = src.type;
  copy->os_index = src.os_index;
  copy->attr_size = src.attr_size;
  copy->name = src.name;
  for (const auto& child : src.children) {
    if (auto kept = prune_copy(*child, pus)) {
      kept->parent = copy.get();
      copy->children.push_back(std::move(kept));
    }
  }
  if (src.type != ObjType::PU && copy->children.empty()) return nullptr;
  return copy;
}

}  // namespace

Topology subtopology(const Topology& t, const CpuSet& pus,
                     std::string name) {
  if (t.empty()) {
    throw std::invalid_argument("subtopology: empty source topology");
  }
  auto root = prune_copy(t.root(), pus);
  if (root == nullptr) {
    throw std::invalid_argument(
        "subtopology: cpuset selects no PU of the source topology");
  }
  return Topology::adopt(std::move(root), std::move(name));
}

}  // namespace orwl::topo
