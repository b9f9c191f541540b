// Metric name tables, timing helpers and the host context of a result.
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "runtime/program.hpp"
#include "support/rng.hpp"
#include "topo/detect.hpp"

namespace perfbench {

const std::vector<MetricSpec> kEndToEnd = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
    {"work_per_s", "work/s"},
    {"latency_p50_ms", "ms"},
};

const std::vector<MetricSpec> kPerLayer = {
    {"topo.detect_ms", "ms"},
    {"orwl.declare_ms", "ms"},
    {"treematch.place_ms", "ms"},
    {"affinity.speedup_vs_off", "x"},
    {"affinity.bind_failures", "count"},
    {"runtime.control_threads", "count"},
    {"runtime.control_shards", "count"},
    {"runtime.control_events_per_iter", "1/iter"},
    {"runtime.inline_grant_ratio", "fraction"},
    {"runtime.futex_waits_per_iter", "1/iter"},
    {"runtime.futex_wakes_per_iter", "1/iter"},
    {"runtime.data_transfers", "count"},
    {"runtime.arena_refills", "count"},
    {"runtime.handoff_ns", "ns"},
    {"apps.sequential_s", "s"},
    {"apps.parallel_efficiency", "fraction"},
    {"pool.forkjoin_s", "s"},
    {"sim.predicted_over_measured", "x"},
    {"server.admit_ms", "ms"},
    {"server.service_ms_p50", "ms"},
    {"server.service_ms_p99", "ms"},
    {"server.queue_wait_ms_p99", "ms"},
    {"server.peak_workers", "count"},
    {"server.generator_late_ms_max", "ms"},
    {"server.latency_ms_p99", "ms"},
    {"dist.connect_ms", "ms"},
    {"dist.acquire_us_p50", "us"},
    {"dist.release_us_p50", "us"},
    {"dist.cycle_us_p99", "us"},
    {"dist.wire_overhead_x", "x"},
    {"dist.cycles", "count"},
    {"dist.grants_sent", "count"},
    {"dist.orphans_reclaimed", "count"},
    {"trace.spans", "count"},
    {"trace.spans_dropped", "count"},
    {"trace.overhead.setup_s", "fraction"},
    {"trace.overhead.peak_rss_mb", "fraction"},
    {"trace.overhead.work_per_s", "fraction"},
    {"trace.overhead.latency_p50_ms", "fraction"},
};

void Result::note_value(const std::string& name, double v,
                        const std::string& unit) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  report.push_back(name + " " + buf + " " + unit);
}

void Result::not_applicable(const std::vector<std::string>& patterns,
                            const std::string& why) {
  const auto matches = [](const std::string& pattern, const std::string& n) {
    return pattern == n || (!pattern.empty() && pattern.back() == '.' &&
                            n.rfind(pattern, 0) == 0);
  };
  for (const std::string& pattern : patterns) {
    bool any = false;
    for (const MetricSpec& m : kPerLayer) {
      if (!matches(pattern, m.name)) continue;
      any = true;
      if (layer.count(m.name) != 0) {
        throw std::logic_error(std::string("metric ") + m.name +
                               " is set and marked not applicable");
      }
      layer[m.name] = {0.0, m.unit};
    }
    if (!any) throw std::logic_error("no per-layer metric matches " + pattern);
    note("n/a " + pattern + " (" + why + ")");
  }
}

double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  const double rank = std::ceil(p * static_cast<double>(xs.size()));
  const std::size_t i =
      rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
  return xs[std::min(i, xs.size() - 1)];
}

double median(std::vector<double> xs) { return percentile(std::move(xs), 0.5); }

double median_group_rate(const std::vector<double>& op_s, double work_per_op,
                         std::size_t group) {
  group = std::max<std::size_t>(1, std::min(group, op_s.size()));
  std::vector<double> rates;
  for (std::size_t g = 0; g + group <= op_s.size(); g += group) {
    double s = 0;
    for (std::size_t i = g; i < g + group; ++i) s += op_s[i];
    if (s > 0) rates.push_back(work_per_op * static_cast<double>(group) / s);
  }
  return median(rates);
}

double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void restart_peak_rss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

CpuTicks cpu_ticks() {
  std::ifstream f("/proc/stat");
  std::string cpu;
  double v[8] = {};
  f >> cpu;
  for (double& x : v) f >> x;
  if (!f || cpu != "cpu") return {};
  CpuTicks t;
  for (const double x : v) t.total += x;
  t.steal = v[7];
  return t;
}

double steal_share(const CpuTicks& from, const CpuTicks& to) {
  const double total = to.total - from.total;
  return total > 0 ? (to.steal - from.steal) / total : 0.0;
}

std::vector<double> least_stolen(const std::vector<double>& values,
                                 const std::vector<double>& steal) {
  const double limit = std::max(percentile(steal, 0.25), 0.01);
  std::vector<double> kept;
  for (std::size_t i = 0; i < values.size() && i < steal.size(); ++i) {
    if (steal[i] <= limit) kept.push_back(values[i]);
  }
  return kept;
}

std::uint64_t derive_seed(std::uint64_t run_seed, std::uint64_t stream) {
  orwl::support::SplitMix64 g(run_seed * 0x9e3779b97f4a7c15ULL + stream);
  return g();
}

void set_e2e(Result& r, const E2E& e) {
  r.set_e2e("setup_s", e.setup_s, "s");
  r.set_e2e("peak_rss_mb", e.peak_rss_mb, "MiB");
  r.set_e2e("work_per_s", e.work_per_s, "work/s");
  r.set_e2e("latency_p50_ms", e.latency_p50_ms, "ms");
}

void set_overheads(Result& r, const E2E& u, const E2E& t) {
  const auto rel = [](double traced, double untraced) {
    return untraced != 0 ? (traced - untraced) / untraced : 0.0;
  };
  r.set_layer("trace.overhead.setup_s", rel(t.setup_s, u.setup_s),
              "fraction");
  r.set_layer("trace.overhead.peak_rss_mb",
              rel(t.peak_rss_mb, u.peak_rss_mb), "fraction");
  r.set_layer("trace.overhead.work_per_s", rel(t.work_per_s, u.work_per_s),
              "fraction");
  r.set_layer("trace.overhead.latency_p50_ms",
              rel(t.latency_p50_ms, u.latency_p50_ms), "fraction");
}

const std::vector<std::string> kProgramStatsLayers = {
    "runtime.control_events_per_iter", "runtime.inline_grant_ratio",
    "runtime.futex_waits_per_iter",    "runtime.futex_wakes_per_iter",
    "runtime.data_transfers",          "runtime.arena_refills",
    "affinity.bind_failures",
};

void set_runtime_layers(Result& r, const orwl::rt::ProgramStats& s,
                        double iterations) {
  const auto per_iter = [&](std::uint64_t v) {
    return iterations > 0 ? static_cast<double>(v) / iterations : 0.0;
  };
  const double grants = static_cast<double>(s.control_events) +
                        static_cast<double>(s.control_inline_grants);
  r.set_layer("runtime.control_events_per_iter", per_iter(s.control_events),
              "1/iter");
  r.set_layer("runtime.inline_grant_ratio",
              grants > 0 ? static_cast<double>(s.control_inline_grants) / grants
                         : 0.0,
              "fraction");
  r.set_layer("runtime.futex_waits_per_iter", per_iter(s.futex_waits),
              "1/iter");
  r.set_layer("runtime.futex_wakes_per_iter", per_iter(s.futex_wakes),
              "1/iter");
  r.set_layer("runtime.data_transfers", static_cast<double>(s.data_transfers),
              "count");
  r.set_layer("runtime.arena_refills", static_cast<double>(s.arena_refills),
              "count");
  r.set_layer("affinity.bind_failures", static_cast<double>(s.bind_failures),
              "count");
}

void finish_trace(Result& r, const Args& a, const Tracer& tracer) {
  r.set_layer("trace.spans", static_cast<double>(tracer.recorded()),
              "count");
  r.set_layer("trace.spans_dropped", static_cast<double>(tracer.dropped()),
              "count");
  for (const auto& [name, ms] : tracer.self_ms()) {
    r.note_value("self_ms." + name, ms, "ms");
  }
  // The self-test's tiny runs get their own file names, so they never
  // overwrite the trace of a real run.
  std::filesystem::create_directories(".bench_out");
  const std::string path = ".bench_out/" + a.workload + "-seed" +
                           std::to_string(a.seed) + (a.tiny ? "-tiny" : "") +
                           ".trace.json";
  std::map<std::string, std::string> meta;
  for (std::size_t i = 0; i < r.report.size(); ++i) {
    meta["context." + std::to_string(i)] = r.report[i];
  }
  tracer.write_chrome_json(path, meta);
  r.note("trace.file " + path);
}

void add_host_context(Result& r, const Args& a) {
  cpu_set_t set;
  CPU_ZERO(&set);
  const int usable =
      sched_getaffinity(0, sizeof set, &set) == 0 ? CPU_COUNT(&set) : -1;
  const std::string build = ORWL_BENCH_BUILD_TYPE;
  r.note("host.nproc " + std::to_string(usable) + " (hardware_concurrency " +
         std::to_string(std::thread::hardware_concurrency()) + ")");
  r.note("host.topology " + orwl::topo::detect_host().summary());
  r.note("host.build " + build + ", " + ORWL_BENCH_COMPILER);
  if (build != "Release") {
    r.note("WARNING: not a Release build; timings are not comparable");
  }
  r.note("run.seed " + std::to_string(a.seed));
  r.note("run.affinity " +
         std::string(a.workload.rfind("dist_", 0) == 0
                         ? "n/a (no Program is placed)"
                         : "AffinityMode::On"));
}

}  // namespace perfbench
