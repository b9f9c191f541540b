#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "support/env.hpp"
#include "topo/binding.hpp"
#include "topo/detect.hpp"
#include "topo/machines.hpp"

namespace {

namespace fs = std::filesystem;
using namespace orwl::topo;
constexpr const char* kTopologyVar = orwl::support::knob::kTopology.name;

/// Builds a fake sysfs tree describing a synthetic machine.
class FakeSysfs {
 public:
  FakeSysfs() {
    root_ = fs::temp_directory_path() /
            ("orwl-sysfs-" + std::to_string(::getpid()) + "-" +
             std::to_string(counter_++));
    fs::create_directories(root_);
  }
  ~FakeSysfs() {
    std::error_code ec;
    fs::remove_all(root_, ec);
  }

  void add_cpu(int cpu, int package, int core) {
    const fs::path d = root_ / "devices/system/cpu" /
                       ("cpu" + std::to_string(cpu)) / "topology";
    fs::create_directories(d);
    write(d / "physical_package_id", std::to_string(package));
    write(d / "core_id", std::to_string(core));
  }

  void add_node(int node, const std::string& cpulist) {
    const fs::path d =
        root_ / "devices/system/node" / ("node" + std::to_string(node));
    fs::create_directories(d);
    write(d / "cpulist", cpulist);
  }

  std::string path() const { return root_.string(); }

 private:
  static void write(const fs::path& p, const std::string& content) {
    std::ofstream out(p);
    out << content << '\n';
  }
  fs::path root_;
  static inline int counter_ = 0;
};

TEST(Detect, FakeTwoSocketWithHyperthreads) {
  FakeSysfs sys;
  // 2 packages x 2 cores x 2 PUs; sibling PUs are (c, c+4) as on many Intels.
  // package 0: cores 0,1 -> cpus 0,4 / 1,5 ; package 1: cores 0,1 -> 2,6 / 3,7
  sys.add_cpu(0, 0, 0);
  sys.add_cpu(4, 0, 0);
  sys.add_cpu(1, 0, 1);
  sys.add_cpu(5, 0, 1);
  sys.add_cpu(2, 1, 0);
  sys.add_cpu(6, 1, 0);
  sys.add_cpu(3, 1, 1);
  sys.add_cpu(7, 1, 1);
  sys.add_node(0, "0-1,4-5");
  sys.add_node(1, "2-3,6-7");

  const Topology t = detect_from_sysfs(sys.path(), 99);
  EXPECT_EQ(t.num_cores(), 4u);
  EXPECT_EQ(t.num_pus(), 8u);
  EXPECT_TRUE(t.has_hyperthreads());
  EXPECT_EQ(t.at_depth(t.depth_of_type(ObjType::NumaNode)).size(), 2u);

  // PUs of one core must be hyperthread siblings: cpu 0 and cpu 4.
  const Object* pu0 = t.pu_by_os_index(0);
  const Object* pu4 = t.pu_by_os_index(4);
  ASSERT_NE(pu0, nullptr);
  ASSERT_NE(pu4, nullptr);
  EXPECT_EQ(pu0->parent, pu4->parent);

  // NUMA separation: cpu 0 and cpu 2 share nothing below the machine.
  const Object* pu2 = t.pu_by_os_index(2);
  ASSERT_NE(pu2, nullptr);
  EXPECT_EQ(t.common_ancestor(*pu0, *pu2)->type, ObjType::Machine);
}

TEST(Detect, MissingTreeFallsBackToFlat) {
  const Topology t = detect_from_sysfs("/nonexistent/sysfs", 6);
  EXPECT_EQ(t.num_pus(), 6u);
  EXPECT_FALSE(t.has_hyperthreads());
}

TEST(Detect, EmptyCpuDirFallsBack) {
  FakeSysfs sys;
  fs::create_directories(fs::path(sys.path()) / "devices/system/cpu");
  const Topology t = detect_from_sysfs(sys.path(), 3);
  EXPECT_EQ(t.num_pus(), 3u);
}

TEST(Detect, NoNumaInfoYieldsSingleNode) {
  FakeSysfs sys;
  sys.add_cpu(0, 0, 0);
  sys.add_cpu(1, 0, 1);
  const Topology t = detect_from_sysfs(sys.path(), 99);
  EXPECT_EQ(t.num_pus(), 2u);
  EXPECT_EQ(t.at_depth(t.depth_of_type(ObjType::NumaNode)).size(), 1u);
}

TEST(Detect, NamedFixturesParse) {
  const auto smp12 = make_named("smp12e5");
  ASSERT_TRUE(smp12.has_value());
  EXPECT_EQ(smp12->num_pus(), 192u);
  const auto smp20 = make_named("SMP20E7");
  ASSERT_TRUE(smp20.has_value());
  EXPECT_EQ(smp20->num_pus(), 160u);
  const auto fig2 = make_named("fig2");
  ASSERT_TRUE(fig2.has_value());
  EXPECT_EQ(fig2->num_cores(), 32u);
  const auto flat = make_named("flat:6");
  ASSERT_TRUE(flat.has_value());
  EXPECT_EQ(flat->num_pus(), 6u);
  const auto numa = make_named("numa:2:4:2");
  ASSERT_TRUE(numa.has_value());
  EXPECT_EQ(numa->num_pus(), 16u);
  EXPECT_FALSE(make_named("").has_value());
  EXPECT_FALSE(make_named("bogus").has_value());
  EXPECT_FALSE(make_named("flat:0").has_value());
  EXPECT_FALSE(make_named("flat:x").has_value());
  EXPECT_FALSE(make_named("numa:2:4").has_value());
}

TEST(Detect, EnvOverrideSelectsFixture) {
  orwl::support::ScopedEnv guard(kTopologyVar, "numa:2:4:1");
  const Topology t = detect_host();
  EXPECT_EQ(t.num_pus(), 8u);
  EXPECT_EQ(t.at_depth(t.depth_of_type(ObjType::NumaNode)).size(), 2u);
}

TEST(Detect, BadEnvOverrideIsRejectedNotIgnored) {
  orwl::support::ScopedEnv guard(kTopologyVar, "not-a-machine");
  EXPECT_THROW(detect_host(), std::invalid_argument);
}

TEST(Detect, HostDetectionProducesUsableTopology) {
  orwl::support::ScopedEnv guard(kTopologyVar, nullptr);
  const Topology t = detect_host();
  EXPECT_GE(t.num_pus(), 1u);
  EXPECT_EQ(static_cast<int>(t.num_pus()) >= host_cpu_count() ? 1 : 0, 1)
      << "detected fewer PUs than online CPUs";
  // Every PU os index must be bindable on this host.
  const Object* pu = t.pus().front();
  EXPECT_GE(pu->os_index, 0);
}

}  // namespace
