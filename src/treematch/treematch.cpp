#include "treematch/treematch.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace orwl::tm {

namespace {

using topo::ObjType;
using topo::Object;
using topo::Topology;

/// The PU used for computation within a core-like object (its first PU).
const Object* slot_pu(const Object* core_like) {
  const Object* o = core_like;
  while (!o->is_leaf()) o = o->children.front().get();
  return o;
}

/// The PU reserved for control threads within a core (second PU);
/// nullptr when the core has a single PU.
const Object* sibling_pu(const Object* core_like) {
  // Walk to the deepest level and pick the second leaf if present.
  if (core_like->pu_count() < 2) return nullptr;
  const Object* o = core_like;
  while (!o->is_leaf()) {
    if (o->children.size() > 1) {
      o = o->children[1].get();
      while (!o->is_leaf()) o = o->children.front().get();
      return o;
    }
    o = o->children.front().get();
  }
  return nullptr;
}

/// The PUs an oversubscribed task on `slot` is bound to: the compute PU
/// of every core under the slot's nearest ancestor that covers more than
/// one core, never going above the slot's NUMA node ("going up one level
/// in the tree"). Hyperthread siblings stay out: they belong to control
/// threads. A slot alone in its NUMA node keeps its single PU.
topo::CpuSet group_set(const Topology& topo, const Object* slot) {
  auto compute_pus_under = [&](const Object* o) {
    topo::CpuSet set;
    for (const Object* core : topo.cores()) {
      if (core->first_pu >= o->first_pu && core->first_pu <= o->last_pu) {
        set.set(slot_pu(core)->os_index);
      }
    }
    return set;
  };
  const Object* numa = slot->ancestor_of_type(ObjType::NumaNode);
  for (const Object* o = slot->parent; o != nullptr; o = o->parent) {
    topo::CpuSet set = compute_pus_under(o);
    if (set.count() > 1) return set;
    if (o == numa) break;
  }
  return topo::CpuSet::single(slot_pu(slot)->os_index);
}

struct LevelGrouping {
  std::vector<std::vector<int>> groups;
  std::size_t real_entities = 0;  ///< entities before zero-padding
};

}  // namespace

const char* to_string(ControlPolicy p) noexcept {
  switch (p) {
    case ControlPolicy::HyperthreadSiblings: return "hyperthread-siblings";
    case ControlPolicy::SpareCores: return "spare-cores";
    case ControlPolicy::Unmanaged: return "unmanaged";
  }
  return "?";
}

topo::CpuSet Placement::cpus_of(std::size_t t) const {
  if (t < compute_set.size()) return compute_set[t];
  if (t < compute_pu.size() && compute_pu[t] >= 0) {
    return topo::CpuSet::single(compute_pu[t]);
  }
  return {};
}

bool Placement::valid_for(const topo::Topology& t) const {
  if (!compute_set.empty()) {
    if (compute_set.size() != compute_pu.size()) return false;
    for (std::size_t i = 0; i < compute_set.size(); ++i) {
      const topo::CpuSet& set = compute_set[i];
      if (set.empty() || !set.test(compute_pu[i])) return false;
      for (int pu : set.to_vector()) {
        if (t.pu_by_os_index(pu) == nullptr) return false;
      }
    }
  }
  std::vector<int> seen;
  for (int pu : compute_pu) {
    if (t.pu_by_os_index(pu) == nullptr) return false;
    seen.push_back(pu);
  }
  if (!oversubscribed) {
    std::sort(seen.begin(), seen.end());
    if (std::adjacent_find(seen.begin(), seen.end()) != seen.end()) {
      return false;
    }
  }
  for (int pu : control_pu) {
    if (pu != -1 && t.pu_by_os_index(pu) == nullptr) return false;
  }
  return true;
}

std::string Placement::describe(const topo::Topology& t) const {
  std::ostringstream out;
  out << "placement on " << t.name() << " (control: "
      << to_string(control_policy)
      << (oversubscribed ? ", oversubscribed" : "") << ")\n";
  for (std::size_t i = 0; i < compute_pu.size(); ++i) {
    const Object* pu = t.pu_by_os_index(compute_pu[i]);
    const topo::CpuSet set = cpus_of(i);
    if (set.count() > 1) {
      // Bound to a group: name the outermost object that holds exactly
      // the group's PUs (a NUMA node rather than its only L3).
      const Object* group = pu;
      for (int os : set.to_vector()) {
        const Object* member = t.pu_by_os_index(os);
        if (group != nullptr && member != nullptr) {
          group = t.common_ancestor(*group, *member);
        }
      }
      while (group != nullptr && group->parent != nullptr &&
             group->parent->pu_count() == group->pu_count()) {
        group = group->parent;
      }
      out << "  thread " << i << " -> PUs " << set.to_list_string();
      if (group != nullptr) out << " (" << group->label() << ")";
      out << '\n';
      continue;
    }
    out << "  thread " << i << " -> PU " << compute_pu[i];
    if (pu != nullptr) {
      if (const Object* numa = pu->ancestor_of_type(ObjType::NumaNode)) {
        out << " (" << numa->label();
        if (const Object* core = pu->ancestor_of_type(ObjType::Core)) {
          out << ", " << core->label();
        }
        out << ")";
      }
    }
    out << '\n';
  }
  for (std::size_t j = 0; j < control_pu.size(); ++j) {
    out << "  control " << j << " -> ";
    if (control_pu[j] < 0) {
      out << "OS-scheduled\n";
    } else {
      out << "PU " << control_pu[j] << '\n';
    }
  }
  return out.str();
}

Placement tree_match(const Topology& topo, const CommMatrix& m,
                     const Options& opts) {
  if (topo.empty() || m.order() == 0) {
    throw std::invalid_argument("tree_match: empty topology or matrix");
  }
  if (!topo.is_symmetric()) {
    throw std::invalid_argument(
        "tree_match: asymmetric topologies are not supported; "
        "use place_strategy(Strategy::Compact, ...) as a fallback");
  }

  const std::size_t p = m.order();
  const std::size_t nc = opts.num_control_threads;

  // Resolved associate of control thread j: caller-provided, defaulting
  // to round-robin over the compute threads.
  auto associate_of = [&](std::size_t j) -> std::size_t {
    return j < opts.control_associate.size() && opts.control_associate[j] >= 0
               ? static_cast<std::size_t>(opts.control_associate[j]) % p
               : j % p;
  };

  // ---- Compute slots: one per physical core. --------------------------
  // "we map only one compute intensive task per physical core" (Sec. IV-A)
  std::vector<const Object*> slots;  // core-like objects
  for (const Object* core : topo.cores()) slots.push_back(core);
  const std::size_t num_slots = slots.size();

  // ---- Control policy decision (Algorithm 1, step 1). -----------------
  ControlPolicy policy = ControlPolicy::Unmanaged;
  std::size_t num_extension = 0;  // matrix rows added for SpareCores
  if (opts.manage_control_threads && nc > 0) {
    if (topo.has_hyperthreads()) {
      policy = ControlPolicy::HyperthreadSiblings;
    } else if (num_slots > p) {
      policy = ControlPolicy::SpareCores;
      num_extension = std::min(nc, num_slots - p);
    }
  }

  // extend_to_manage_control_threads(m): SpareCores adds one entity per
  // reserved spare core, with a small affinity towards the compute
  // threads whose control load it will carry, so the grouping step parks
  // it nearby without displacing strongly-communicating threads.
  CommMatrix work = m;
  if (num_extension > 0) {
    work = m.extended(p + num_extension);
    const double eps =
        m.max_entry() > 0 ? m.max_entry() / 1e6 : 1.0;
    for (std::size_t j = 0; j < nc; ++j) {
      const std::size_t ext = p + (j % num_extension);
      work.add(ext, associate_of(j), eps);
    }
  }
  const std::size_t total_entities = work.order();

  // ---- Effective tree arities over compute slots (top -> leaf). -------
  // The compute-slot tree is the topology truncated at the core level;
  // arity-1 levels do not affect grouping and are skipped.
  std::vector<std::size_t> arities;
  {
    const int core_depth =
        topo.depth_of_type(ObjType::Core) >= 0
            ? topo.depth_of_type(ObjType::Core)
            : topo.depth() - 1;  // PU level doubles as cores
    for (int d = 0; d < core_depth; ++d) {
      const int a = topo.arity_at(d);
      if (a > 1) arities.push_back(static_cast<std::size_t>(a));
    }
  }
  if (arities.empty()) arities.push_back(num_slots);  // flat machine

  // ---- manage_oversubscription(T, m): virtual leaf level. -------------
  // "If oversubscribing is required, ORWL tasks are mapped to the
  // physical cores by going up one level in the tree."
  bool oversubscribed = false;
  std::size_t virtual_arity = 1;
  if (total_entities > num_slots) {
    oversubscribed = true;
    virtual_arity = (total_entities + num_slots - 1) / num_slots;
    arities.push_back(virtual_arity);
  }

  // ---- Bottom-up grouping (Algorithm 1, main loop). -------------------
  std::vector<LevelGrouping> level_groups(arities.size());
  CommMatrix cur = work;
  for (std::size_t li = arities.size(); li-- > 0;) {
    const std::size_t a = arities[li];
    LevelGrouping& lg = level_groups[li];
    lg.real_entities = cur.order();
    const std::size_t padded = pad_to_multiple(cur.order(), a);
    if (padded != cur.order()) cur = cur.extended(padded);
    lg.groups = group_processes(cur, a, opts.engine);
    cur = cur.aggregated(lg.groups);
  }
  if (cur.order() > 1) {
    // More top-level groups than machine roots cannot happen: the final
    // grouping always aggregates into ceil(k / a_top) and the padding
    // above makes it exactly 1 when a_top >= k. Defensive check only.
    throw std::logic_error("tree_match: top-level aggregation incomplete");
  }

  // ---- MapGroups: recursive expansion to leaf slots. -------------------
  // Leaf index space has prod(arities) positions; each entity at level li
  // spans prod(arities[li+1..]) of them.
  std::vector<std::size_t> span(arities.size() + 1, 1);
  for (std::size_t li = arities.size(); li-- > 0;) {
    span[li] = span[li + 1] * arities[li];
  }

  std::vector<int> leaf_of_thread(total_entities, -1);
  // expand(level, entity, base): entity ids beyond real_entities at that
  // level are zero-padding dummies and occupy empty leaves.
  auto expand = [&](auto&& self, std::size_t level, std::size_t entity,
                    std::size_t base) -> void {
    if (level == arities.size()) {
      leaf_of_thread[entity] = static_cast<int>(base);
      return;
    }
    const LevelGrouping& lg = level_groups[level];
    if (entity >= lg.groups.size()) return;  // dummy group
    const auto& members = lg.groups[entity];
    for (std::size_t j = 0; j < members.size(); ++j) {
      const std::size_t member = static_cast<std::size_t>(members[j]);
      if (level + 1 == arities.size()) {
        if (member >= total_entities) continue;  // padding dummy thread
      } else if (member >= level_groups[level + 1].groups.size()) {
        continue;  // padding dummy group
      }
      self(self, level + 1, member, base + j * span[level + 1]);
    }
  };
  expand(expand, 0, 0, 0);

  // ---- Emit the placement. ---------------------------------------------
  Placement result;
  result.control_policy = policy;
  result.oversubscribed = oversubscribed;
  result.compute_pu.resize(p, -1);

  auto leaf_to_slot = [&](int leaf) {
    return static_cast<std::size_t>(leaf) / virtual_arity;
  };

  result.compute_set.resize(p);
  for (std::size_t t = 0; t < p; ++t) {
    if (leaf_of_thread[t] < 0) {
      throw std::logic_error("tree_match: thread left unmapped");
    }
    const std::size_t slot = leaf_to_slot(leaf_of_thread[t]);
    result.compute_pu[t] = slot_pu(slots[slot])->os_index;
    result.compute_set[t] =
        oversubscribed ? group_set(topo, slots[slot])
                       : topo::CpuSet::single(result.compute_pu[t]);
  }

  result.control_pu.assign(nc, -1);
  result.control_associate.resize(nc);
  for (std::size_t j = 0; j < nc; ++j) {
    result.control_associate[j] = static_cast<int>(associate_of(j));
  }
  if (policy == ControlPolicy::HyperthreadSiblings) {
    for (std::size_t j = 0; j < nc; ++j) {
      const std::size_t slot = leaf_to_slot(leaf_of_thread[associate_of(j)]);
      if (const Object* sib = sibling_pu(slots[slot])) {
        result.control_pu[j] = sib->os_index;
      }
    }
  } else if (policy == ControlPolicy::SpareCores) {
    for (std::size_t j = 0; j < nc; ++j) {
      const std::size_t ext = p + (j % num_extension);
      if (leaf_of_thread[ext] >= 0) {
        const std::size_t slot = leaf_to_slot(leaf_of_thread[ext]);
        result.control_pu[j] = slot_pu(slots[slot])->os_index;
      }
    }
  }
  return result;
}

std::vector<int> control_shard_of(const Placement& placement,
                                  const topo::ShardMap& shards) {
  std::vector<int> out(placement.control_associate.size(), -1);
  for (std::size_t j = 0; j < out.size(); ++j) {
    const int assoc = placement.control_associate[j];
    if (assoc < 0 ||
        static_cast<std::size_t>(assoc) >= placement.compute_pu.size()) {
      continue;
    }
    out[j] =
        shards.shard_of(placement.compute_pu[static_cast<std::size_t>(assoc)]);
  }
  return out;
}

double modeled_cost(const Topology& topo, const CommMatrix& m,
                    const Placement& placement) {
  if (placement.compute_pu.size() < m.order()) {
    throw std::invalid_argument("modeled_cost: placement too small");
  }
  double acc = 0.0;
  for (std::size_t i = 0; i < m.order(); ++i) {
    const Object* pu_i = topo.pu_by_os_index(placement.compute_pu[i]);
    if (pu_i == nullptr) continue;  // unbound threads contribute nothing
    for (std::size_t j = i + 1; j < m.order(); ++j) {
      const double v = m.at(i, j);
      if (v == 0) continue;
      const Object* pu_j = topo.pu_by_os_index(placement.compute_pu[j]);
      if (pu_j == nullptr) continue;
      acc += v * topo.distance(pu_i->logical_index, pu_j->logical_index);
    }
  }
  return acc;
}

}  // namespace orwl::tm
