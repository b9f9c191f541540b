#include "topo/detect.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <tuple>

#include "support/env.hpp"
#include "topo/binding.hpp"
#include "topo/cpuset.hpp"
#include "topo/machines.hpp"

namespace orwl::topo {

namespace {

namespace fs = std::filesystem;

std::optional<std::string> read_file_trimmed(const fs::path& p) {
  std::ifstream in(p);
  if (!in) return std::nullopt;
  std::string s;
  std::getline(in, s);
  while (!s.empty() && (s.back() == '\n' || s.back() == '\r' || s.back() == ' ')) {
    s.pop_back();
  }
  return s;
}

std::optional<int> read_int(const fs::path& p) {
  const auto s = read_file_trimmed(p);
  if (!s || s->empty()) return std::nullopt;
  try {
    return std::stoi(*s);
  } catch (...) {
    return std::nullopt;
  }
}

struct CpuInfo {
  int cpu = -1;
  int package = 0;
  int core = 0;
  int node = 0;
};

}  // namespace

Topology detect_from_sysfs(const std::string& sysfs_root, int fallback_cpus) {
  try {
    const fs::path cpu_dir = fs::path(sysfs_root) / "devices/system/cpu";
    if (!fs::exists(cpu_dir)) return make_flat(fallback_cpus);

    // Enumerate cpuN directories that expose topology data.
    std::vector<CpuInfo> cpus;
    for (const auto& entry : fs::directory_iterator(cpu_dir)) {
      const std::string name = entry.path().filename().string();
      if (name.size() < 4 || name.compare(0, 3, "cpu") != 0) continue;
      if (!std::all_of(name.begin() + 3, name.end(),
                       [](char c) { return c >= '0' && c <= '9'; })) {
        continue;
      }
      const fs::path topo_dir = entry.path() / "topology";
      const auto pkg = read_int(topo_dir / "physical_package_id");
      const auto core = read_int(topo_dir / "core_id");
      if (!pkg || !core) continue;
      CpuInfo info;
      info.cpu = std::stoi(name.substr(3));
      info.package = *pkg;
      info.core = *core;
      cpus.push_back(info);
    }
    if (cpus.empty()) return make_flat(fallback_cpus);

    // NUMA membership from /sys/devices/system/node/node*/cpulist.
    const fs::path node_dir = fs::path(sysfs_root) / "devices/system/node";
    if (fs::exists(node_dir)) {
      for (const auto& entry : fs::directory_iterator(node_dir)) {
        const std::string name = entry.path().filename().string();
        if (name.size() < 5 || name.compare(0, 4, "node") != 0) continue;
        if (!std::all_of(name.begin() + 4, name.end(),
                         [](char c) { return c >= '0' && c <= '9'; })) {
          continue;
        }
        const auto list = read_file_trimmed(entry.path() / "cpulist");
        if (!list || list->empty()) continue;
        CpuSet set;
        try {
          set = CpuSet::parse(*list);
        } catch (...) {
          continue;
        }
        const int node = std::stoi(name.substr(4));
        for (auto& c : cpus) {
          if (set.test(c.cpu)) c.node = node;
        }
      }
    }

    // Group PUs into (node, package, core) triples, then build the tree.
    std::map<std::tuple<int, int, int>, std::vector<int>> core_map;
    for (const auto& c : cpus) {
      core_map[{c.node, c.package, c.core}].push_back(c.cpu);
    }

    auto root = std::make_unique<Object>();
    root->type = ObjType::Machine;
    int last_node = -1;
    int last_pkg = -1;
    Object* node_obj = nullptr;
    Object* pkg_obj = nullptr;
    for (auto& [key, members] : core_map) {
      const auto [node, pkg, core_id] = key;
      if (node_obj == nullptr || node != last_node) {
        node_obj = &root->add_child(ObjType::NumaNode);
        node_obj->os_index = node;
        last_node = node;
        last_pkg = -1;
        pkg_obj = nullptr;
      }
      if (pkg_obj == nullptr || pkg != last_pkg) {
        pkg_obj = &node_obj->add_child(ObjType::Package);
        pkg_obj->os_index = pkg;
        last_pkg = pkg;
      }
      Object& core = pkg_obj->add_child(ObjType::Core);
      core.os_index = core_id;
      std::sort(members.begin(), members.end());
      for (int cpu : members) {
        Object& pu = core.add_child(ObjType::PU);
        pu.os_index = cpu;
      }
    }

    return Topology::adopt(std::move(root), "host");
  } catch (...) {
    return make_flat(fallback_cpus);
  }
}

Topology detect_host() {
  // Explicit override first: lets users and CI pin a fixture topology
  // (e.g. ORWL_TOPOLOGY=smp12e5 or ORWL_TOPOLOGY=numa:2:4:1) on hosts
  // where sysfs probing is unavailable or misleading.
  const auto spec = support::resolve<std::string>(support::knob::kTopology);
  if (!spec.empty()) {
    if (auto t = make_named(spec)) return std::move(*t);
    support::throw_bad_env(support::knob::kTopology.name, spec,
                           "a known fixture spec (see topo::make_named)");
  }
#if defined(__linux__)
  return detect_from_sysfs("/sys", host_cpu_count());
#else
  // No sysfs to probe outside Linux: fall back to the flat fixture over
  // the online CPUs (same shape detect_from_sysfs degrades to).
  return make_flat(host_cpu_count());
#endif
}

}  // namespace orwl::topo
