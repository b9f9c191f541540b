#include "affinity/report.hpp"

#include <map>
#include <sstream>

namespace orwl::aff {

using topo::ObjType;
using topo::Object;
using topo::Topology;

std::string render_comm_matrix(const tm::CommMatrix& m) {
  return m.render_heatmap();
}

std::string render_mapping(const Topology& topology,
                           const tm::Placement& placement,
                           const std::vector<std::string>& task_names) {
  // Threads per PU os index.
  std::map<int, std::vector<std::string>> by_pu;
  for (std::size_t i = 0; i < placement.compute_pu.size(); ++i) {
    const int pu = placement.compute_pu[i];
    std::string label = std::to_string(i) + ":";
    label += i < task_names.size() ? task_names[i] : "task";
    // A thread bound to a group is listed under its representative PU
    // with the group it may run on.
    const topo::CpuSet cpus = placement.cpus_of(i);
    if (cpus.count() > 1) label += " [PUs " + cpus.to_list_string() + "]";
    by_pu[pu].push_back(std::move(label));
  }
  std::map<int, int> control_by_pu;
  int unmanaged_control = 0;
  for (int pu : placement.control_pu) {
    if (pu < 0) {
      ++unmanaged_control;
    } else {
      control_by_pu[pu]++;
    }
  }

  // Box level: packages when present, else NUMA nodes, else the machine.
  int box_depth = topology.depth_of_type(ObjType::Package);
  if (box_depth < 0) box_depth = topology.depth_of_type(ObjType::NumaNode);
  if (box_depth < 0) box_depth = 0;

  std::ostringstream out;
  out << "task allocation on " << topology.name() << " ("
      << to_string(placement.control_policy) << " control placement)\n";
  const Object* last_group = nullptr;
  for (const Object* box : topology.at_depth(box_depth)) {
    // Print the blade/group header once when entering a new group.
    const Object* group = box->ancestor_of_type(ObjType::Group);
    if (group != nullptr && group != last_group) {
      out << group->label() << '\n';
      last_group = group;
    }
    out << (group != nullptr ? "  " : "") << box->label() << "  [PUs "
        << box->first_pu << "-" << box->last_pu
        << "]\n";
    for (int pu_idx = box->first_pu; pu_idx <= box->last_pu; ++pu_idx) {
      const Object* pu = topology.pu_at(pu_idx);
      const auto it = by_pu.find(pu->os_index);
      const auto ct = control_by_pu.find(pu->os_index);
      if (it == by_pu.end() && ct == control_by_pu.end()) continue;
      const Object* core = pu->ancestor_of_type(ObjType::Core);
      out << "  " << (core != nullptr ? core->label() : pu->label())
          << " (PU " << pu->os_index << "): ";
      bool first = true;
      if (it != by_pu.end()) {
        for (const auto& name : it->second) {
          if (!first) out << ", ";
          out << name;
          first = false;
        }
      }
      if (ct != control_by_pu.end()) {
        if (!first) out << "  ";
        out << "+" << ct->second << " control";
      }
      out << '\n';
    }
  }
  if (unmanaged_control > 0) {
    out << "OS-scheduled control threads: " << unmanaged_control << '\n';
  }
  return out.str();
}

}  // namespace orwl::aff
