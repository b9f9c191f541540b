// Shared pieces of the end-to-end benchmark executable: run arguments, the
// result every workload fills in, the span tracer and small timing
// helpers. See perfbench/README.md for the workloads and metrics.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace orwl::rt {
struct ProgramStats;
}

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Tiny problem sizes (self-test): every path runs, nothing is tuned.
  bool tiny = false;
};

struct Metric {
  double value = 0;
  std::string unit;
};

/// What one workload run reports. `e2e` holds the end-to-end metrics of
/// an untraced run, `layer` the per-layer metrics of a traced run; the
/// executable prints whichever the run was asked for.
struct Result {
  std::map<std::string, Metric> e2e;
  std::map<std::string, Metric> layer;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Human-readable lines printed before the JSON result: each workload's
  /// own metric names (sweeps_per_s, gflops, ...), host context, self times.
  std::vector<std::string> report;

  void set_e2e(const std::string& name, double v, const std::string& unit) {
    e2e[name] = {v, unit};
  }
  void set_layer(const std::string& name, double v, const std::string& unit) {
    layer[name] = {v, unit};
  }
  void note(const std::string& line) { report.push_back(line); }
  /// A named quantity in the report ("name value unit").
  void note_value(const std::string& name, double v, const std::string& unit);
  /// Marks the per-layer metrics this workload does not exercise: each
  /// pattern is a metric name, or a prefix ending in '.' for a whole
  /// layer. They read 0 and the report says why. Marking a metric that
  /// is already set throws, so nothing is filled in silently.
  void not_applicable(const std::vector<std::string>& patterns,
                      const std::string& why);
};

// ---- the names every run prints --------------------------------------------

/// End-to-end metrics (printed by every workload with --trace 0).
struct MetricSpec {
  const char* name;
  const char* unit;
};
extern const std::vector<MetricSpec> kEndToEnd;
/// Per-layer metrics (printed by every workload with --trace 1). Each
/// workload sets every one of them or marks it not applicable.
extern const std::vector<MetricSpec> kPerLayer;

// ---- span tracer -------------------------------------------------------------

/// In-memory span recorder. Spans are kept (up to a cap) and written as
/// Chrome trace-event JSON at the end; when disabled, Span costs one
/// branch.
class Tracer {
 public:
  explicit Tracer(bool enabled, std::size_t cap = 60000);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const noexcept { return enabled_; }

  /// RAII span around one call into a layer. `id` names the request or
  /// iteration the span belongs to; the parent is the innermost open
  /// span on this thread.
  class Span {
   public:
    Span(Tracer& t, const char* name, std::uint64_t id = 0);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer* t_;
    int index_ = -1;
    int prev_open_ = -1;
  };

  std::size_t recorded() const;
  std::uint64_t dropped() const;

  /// Self time per span name in ms: duration minus the union of the
  /// intervals its children cover, summed over spans of that name.
  std::map<std::string, double> self_ms() const;

  /// Write the spans as Chrome trace-event JSON (opens in Perfetto).
  /// `meta` lands in the file's "metadata" object.
  void write_chrome_json(const std::string& path,
                         const std::map<std::string, std::string>& meta) const;

 private:
  struct Rec {
    const char* name;
    std::uint64_t id;
    int parent;
    std::uint32_t tid;
    double t0_us;
    double t1_us;
  };

  int open(const char* name, std::uint64_t id, int parent);
  void close(int index);

  bool enabled_;
  std::size_t cap_;
  Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Rec> spans_;
  std::uint64_t dropped_ = 0;
};

// ---- helpers -----------------------------------------------------------------

/// Nearest-rank percentile (p in [0, 1]) of a copy of `xs`; 0 when empty.
double percentile(std::vector<double> xs, double p);
double median(std::vector<double> xs);
/// Throughput of consecutive groups of `group` operations (their work over
/// the time they took), median over the groups. A group holds its slow
/// outliers in full, so the result moves with the tail where the median
/// operation does not, while one disturbed group cannot move it. Fewer
/// than `group` operations form one group.
double median_group_rate(const std::vector<double>& op_s, double work_per_op,
                         std::size_t group);
/// Peak resident set of this process (VmHWM) since the start or the last
/// restart_peak_rss(), in MiB.
double peak_rss_mb();
/// Hands free heap memory back to the system (malloc_trim) and restarts
/// the peak resident set from the current one. Called once after set-up,
/// outside any timing: how much freed memory the allocator's per-thread
/// arenas keep after set-up's short-lived threads is left to chance (the
/// server's peak varied from 19 to 25 MiB on one input), and the peak of
/// the measured phase should not carry it.
void restart_peak_rss();

/// CPU time of the whole host so far (/proc/stat, all CPUs, in ticks):
/// the part the hypervisor gave to other guests ("steal") and the total.
/// Zeros when unreadable.
struct CpuTicks {
  double steal = 0;
  double total = 0;
};
CpuTicks cpu_ticks();
/// The share of CPU time stolen between two readings (0 when no tick
/// passed).
double steal_share(const CpuTicks& from, const CpuTicks& to);

/// The values of the operations measured while the hypervisor took the
/// least CPU time, in their order: those whose steal share is at most
/// max(25th percentile of the shares, 1%). On a shared virtual host the
/// steal share of a call explains most of its slowdown (a 0.3 s lk23 call
/// took 0.5 s at 10% steal), and it changes from second to second, so
/// every run has such operations; timing only those keeps neighbours'
/// load out of the gated figures.
std::vector<double> least_stolen(const std::vector<double>& values,
                                 const std::vector<double>& steal);

/// Host context recorded with every result: CPUs, topology, build,
/// seed, affinity mode.
void add_host_context(Result& r, const Args& a);

/// A seed for one input of a run, derived from the run's --seed.
std::uint64_t derive_seed(std::uint64_t run_seed, std::uint64_t stream);

// ---- end-to-end numbers of one measured phase ---------------------------------

/// The end-to-end metrics of one phase. A traced run measures an untraced
/// and a traced phase back to back; their difference is the tracing
/// overhead.
struct E2E {
  double setup_s = 0;
  double peak_rss_mb = 0;
  /// median_group_rate of the measured operations (the server: its
  /// saturation rate).
  double work_per_s = 0;
  double latency_p50_ms = 0;
};

void set_e2e(Result& r, const E2E& e);
/// trace.overhead.<metric> = (traced - untraced) / untraced.
void set_overheads(Result& r, const E2E& untraced, const E2E& traced);
/// Span counts and self times into `r`; the spans to
/// .bench_out/<workload>-seed<seed>[-tiny].trace.json.
void finish_trace(Result& r, const Args& a, const Tracer& tracer);

/// The runtime.* and affinity.bind_failures layer metrics from summed
/// ProgramStats; `iterations` (sweeps or frames) divides the per-iter ones.
void set_runtime_layers(Result& r, const orwl::rt::ProgramStats& s,
                        double iterations);
/// The metrics set_runtime_layers sets.
extern const std::vector<std::string> kProgramStatsLayers;

/// Median time of one in-process write cycle on a local rt::Location.
double measure_local_handoff_ns();

// ---- workloads -------------------------------------------------------------------

Result run_matmul_ring(const Args& a);
Result run_video_dataflow(const Args& a);
Result run_server_open_loop(const Args& a);
Result run_dist_shm(const Args& a);
Result run_dist_tcp(const Args& a);

}  // namespace perfbench
