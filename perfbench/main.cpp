// orwl_e2e_bench: one workload per invocation.
//
//   orwl_e2e_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--tiny]
//
// Prints a human-readable report (host context, the workload's own
// metric names) and, as the last line, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding every end-to-end metric (--trace 0) or every per-layer metric
// (--trace 1). Exits 1 when any output failed verification or a metric
// is missing, 2 on a usage error.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <map>
#include <string>

#include "bench.hpp"

namespace {

using perfbench::Args;
using perfbench::Result;

const std::map<std::string, std::function<Result(const Args&)>> kWorkloads = {
    {"matmul_ring", perfbench::run_matmul_ring},
    {"video_dataflow", perfbench::run_video_dataflow},
    {"server_open_loop", perfbench::run_server_open_loop},
    {"dist_shm", perfbench::run_dist_shm},
    {"dist_tcp", perfbench::run_dist_tcp},
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "orwl_e2e_bench: %s\nusage: orwl_e2e_bench --workload <name> "
               "--seed <n> --seconds <s> --trace <0|1> [--tiny]\n"
               "workloads:",
               why.c_str());
  for (const auto& [name, fn] : kWorkloads) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--tiny") {
      a.tiny = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + k);
    const std::string v = argv[++i];
    try {
      if (k == "--workload") {
        a.workload = v;
      } else if (k == "--seed") {
        a.seed = std::stoull(v);
      } else if (k == "--seconds") {
        a.seconds = std::stod(v);
      } else if (k == "--trace") {
        a.trace = std::stoi(v) != 0;
      } else {
        usage("unknown argument " + k);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + k + ": " + v);
    }
  }
  if (kWorkloads.count(a.workload) == 0) {
    usage("unknown workload '" + a.workload + "'");
  }
  if (!(a.seconds > 0)) usage("--seconds must be positive");
  return a;
}

/// Prints the metrics named in `specs`. One that `got` lacks, or that is
/// not finite, or (with `positive`) not above 0, reads 0 and clears `ok`.
std::string metrics_json(const std::vector<perfbench::MetricSpec>& specs,
                         const std::map<std::string, perfbench::Metric>& got,
                         bool positive, bool& ok) {
  std::string out = "{";
  char buf[512];
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto it = got.find(specs[i].name);
    double v = it == got.end() ? 0.0 : it->second.value;
    const char* problem = it == got.end()   ? "was not set"
                          : !std::isfinite(v) ? "is not finite"
                          : positive && !(v > 0) ? "is not above 0"
                                                 : nullptr;
    if (problem != nullptr) {
      std::fprintf(stderr, "orwl_e2e_bench: metric %s %s\n", specs[i].name,
                   problem);
      ok = false;
      v = 0;
    }
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", specs[i].name, v, specs[i].unit);
    out += buf;
  }
  return out + "}";
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse(argc, argv);
  Result r;
  const perfbench::CpuTicks ticks0 = perfbench::cpu_ticks();
  try {
    r = kWorkloads.at(a.workload)(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "orwl_e2e_bench: %s failed: %s\n",
                 a.workload.c_str(), e.what());
    return 1;
  }
  // A shared virtual host lends its CPUs out: the share taken during the
  // whole run.
  r.note_value("host.steal_fraction",
               perfbench::steal_share(ticks0, perfbench::cpu_ticks()),
               "fraction");
  for (const std::string& line : r.report) std::printf("# %s\n", line.c_str());
  std::printf("# failed_ratio %.6g fraction (%llu of %llu)\n",
              r.attempted > 0 ? static_cast<double>(r.failed) /
                                    static_cast<double>(r.attempted)
                              : 1.0,
              static_cast<unsigned long long>(r.failed),
              static_cast<unsigned long long>(r.attempted));

  // End-to-end metrics are never 0; a per-layer metric may be (a count
  // that must stay 0, or one marked not applicable), but must be set.
  bool metrics_ok = true;
  const std::string metrics =
      a.trace ? metrics_json(perfbench::kPerLayer, r.layer, false, metrics_ok)
              : metrics_json(perfbench::kEndToEnd, r.e2e, true, metrics_ok);
  const bool correct = r.failed == 0 && r.attempted > 0 && metrics_ok;
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      correct ? "true" : "false", static_cast<unsigned long long>(r.attempted),
      static_cast<unsigned long long>(r.failed), metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
