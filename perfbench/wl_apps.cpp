// Two of the paper applications on the real runtime: matmul_ring and
// video_dataflow. One timed operation is one call of
// apps::*_orwl with AffinityMode::On on the detected host; its output is
// checked against the sequential reference outside the timed region.
#include <cmath>
#include <functional>
#include <memory>
#include <stdexcept>
#include <thread>

#include "apps/matmul.hpp"
#include "apps/video.hpp"
#include "apps/workloads.hpp"
#include "bench.hpp"
#include "pool/thread_pool.hpp"
#include "server/server.hpp"
#include "sim/simulator.hpp"
#include "topo/detect.hpp"
#include "treematch/treematch.hpp"

namespace perfbench {

namespace {

using namespace orwl;
using Span = Tracer::Span;

/// matmul outputs match the sequential reference when
/// max|c - ref| <= kMatmulRelTol * max|ref| (summation order differs).
constexpr double kMatmulRelTol = 1e-10;

rt::ProgramOptions app_options(rt::AffinityMode mode) {
  rt::ProgramOptions o;
  o.affinity = mode;
  return o;
}

double ms_since(Clock::time_point t0) { return seconds_since(t0) * 1e3; }

/// One application as the benchmark drives it.
struct AppCase {
  std::string throughput_name;  ///< the workload's own name, e.g. "sweeps_per_s"
  std::string throughput_unit;
  std::size_t tasks = 0;        ///< ORWL compute tasks of one call
  double work_per_call = 0;     ///< sweeps, GFLOP or frames
  double iters_per_call = 0;    ///< divides the runtime counters
  bool has_stats = false;       ///< call() returns real ProgramStats
  std::function<void()> generate;                 ///< inputs from the seed
  std::function<tm::CommMatrix()> declare;        ///< apps::*_comm_matrix
  std::function<void()> prepare;                  ///< reset the inputs
  std::function<rt::ProgramStats(rt::AffinityMode)> call;
  std::function<void()> sequential;               ///< the reference
  std::function<bool()> verify;                   ///< last call vs reference
  std::function<void(pool::ThreadPool&)> forkjoin;
  std::function<sim::Workload()> sim_workload;
};

struct AppPhase {
  E2E e2e;
  std::vector<double> call_s;
  std::vector<double> call_steal;  ///< steal share during each call
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  rt::ProgramStats stats;  ///< summed over the measured calls
  std::vector<double> detect_ms, declare_ms, place_ms;
};

/// Run one call, verify it outside the timed region; returns the call's
/// seconds (and its steal share in `steal`), or a negative value when it
/// threw.
double timed_call(AppCase& c, Tracer& tr, std::uint64_t i,
                  rt::AffinityMode mode, std::uint64_t& failed,
                  rt::ProgramStats* stats, double& steal) {
  c.prepare();
  rt::ProgramStats st;
  const CpuTicks ticks0 = cpu_ticks();
  const auto t0 = Clock::now();
  try {
    Span s(tr, "apps.call", i);
    st = c.call(mode);
  } catch (const std::exception& e) {
    ++failed;
    std::fprintf(stderr, "call %llu threw: %s\n",
                 static_cast<unsigned long long>(i), e.what());
    return -1;
  }
  const double dt = seconds_since(t0);
  steal = steal_share(ticks0, cpu_ticks());
  bool ok = false;
  {
    Span v(tr, "apps.verify", i);
    ok = c.verify();
  }
  if (!ok) {
    ++failed;
    std::fprintf(stderr, "call %llu: output differs from the reference\n",
                 static_cast<unsigned long long>(i));
  }
  if (stats != nullptr) server::accumulate(*stats, st);
  return dt;
}

/// Set-up (repeated `reps` times, median reported), then calls until
/// `seconds` have passed.
AppPhase run_phase(AppCase& c, Tracer& tr, double seconds, int reps,
                   std::uint64_t min_calls) {
  AppPhase ph;
  std::vector<double> setup;
  for (int r = 0; r < reps; ++r) {
    Span s(tr, "setup", static_cast<std::uint64_t>(r));
    const auto t0 = Clock::now();
    auto t = Clock::now();
    const topo::Topology host = [&] {
      Span d(tr, "topo.detect", r);
      return topo::detect_host();
    }();
    ph.detect_ms.push_back(ms_since(t));
    {
      Span g(tr, "apps.generate", r);
      c.generate();
    }
    t = Clock::now();
    const tm::CommMatrix m = [&] {
      Span d(tr, "orwl.declare", r);
      return c.declare();
    }();
    ph.declare_ms.push_back(ms_since(t));
    t = Clock::now();
    {
      Span p(tr, "treematch.place", r);
      (void)tm::tree_match(host, m);
    }
    ph.place_ms.push_back(ms_since(t));
    {
      Span w(tr, "apps.warmup", r);
      c.prepare();
      (void)c.call(rt::AffinityMode::On);
    }
    setup.push_back(seconds_since(t0));
  }
  ph.e2e.setup_s = median(setup);
  restart_peak_rss();

  Span ms(tr, "measure");
  const auto end = Clock::now() + std::chrono::duration<double>(seconds);
  for (std::uint64_t i = 0; ph.attempted < min_calls || Clock::now() < end;
       ++i) {
    ++ph.attempted;
    double steal = 0;
    const double dt = timed_call(c, tr, i, rt::AffinityMode::On, ph.failed,
                                 &ph.stats, steal);
    // Peak memory after a fixed number of calls: how much freed memory
    // the allocator keeps depends on how many calls ran, which a
    // time-bounded phase leaves to the host's speed.
    if (ph.attempted == min_calls) ph.e2e.peak_rss_mb = peak_rss_mb();
    if (dt < 0) continue;
    ph.call_s.push_back(dt);
    ph.call_steal.push_back(steal);
  }
  const std::vector<double> kept = least_stolen(ph.call_s, ph.call_steal);
  ph.e2e.work_per_s = median_group_rate(kept, c.work_per_call, 4);
  ph.e2e.latency_p50_ms = median(kept) * 1e3;
  return ph;
}

void note_control_plane(Result& r, const AppCase& c, bool as_layer) {
  // A Program that is never run resolves the same control-plane sizes
  // the calls use (auto threads, auto shards on this topology).
  const rt::Program probe(c.tasks, app_options(rt::AffinityMode::On));
  const auto threads = static_cast<double>(probe.num_control_threads());
  const auto shards = static_cast<double>(probe.num_control_shards());
  r.note_value("runtime.control_threads", threads, "count");
  r.note_value("runtime.control_shards", shards, "count");
  if (as_layer) {
    r.set_layer("runtime.control_threads", threads, "count");
    r.set_layer("runtime.control_shards", shards, "count");
  }
}

Result run_app(const Args& a, AppCase& c) {
  Result r;
  add_host_context(r, a);
  Tracer off(false);
  Tracer on(a.trace);
  Tracer& tr = a.trace ? on : off;
  const int reps = a.tiny ? 1 : 3;
  // Peak memory is read after min_calls calls. On video_dataflow it grows
  // for about the first 15 calls, while freed frame buffers spread over
  // the allocator's per-thread arenas, and then levels off.
  const std::uint64_t min_calls = a.tiny ? 2 : 20;

  // The reference is verification only: outside set-up and the timing.
  c.generate();
  const auto ts = Clock::now();
  {
    Span s(tr, "apps.sequential");
    c.sequential();
  }
  const double seq_s = seconds_since(ts);

  if (!a.trace) {
    const AppPhase u = run_phase(c, off, a.seconds, reps, min_calls);
    set_e2e(r, u.e2e);
    r.attempted = u.attempted;
    r.failed = u.failed;
    r.note_value(c.throughput_name, u.e2e.work_per_s, c.throughput_unit);
    r.note_value("calls", static_cast<double>(u.call_s.size()), "count");
    r.note_value("calls_least_stolen",
                 static_cast<double>(
                     least_stolen(u.call_s, u.call_steal).size()),
                 "count");
    r.note_value("latency_p50_ms_all_calls", median(u.call_s) * 1e3, "ms");
    note_control_plane(r, c, false);
    return r;
  }

  const AppPhase u = run_phase(c, off, a.seconds / 2, reps, min_calls);
  const AppPhase t = run_phase(c, on, a.seconds / 2, reps, min_calls);
  set_overheads(r, u.e2e, t.e2e);
  r.attempted = u.attempted + t.attempted;
  r.failed = u.failed + t.failed;

  std::vector<double> detect = u.detect_ms, declare = u.declare_ms,
                      place = u.place_ms;
  detect.insert(detect.end(), t.detect_ms.begin(), t.detect_ms.end());
  declare.insert(declare.end(), t.declare_ms.begin(), t.declare_ms.end());
  place.insert(place.end(), t.place_ms.begin(), t.place_ms.end());
  r.set_layer("topo.detect_ms", median(detect), "ms");
  r.set_layer("orwl.declare_ms", median(declare), "ms");
  r.set_layer("treematch.place_ms", median(place), "ms");

  if (c.has_stats) {
    rt::ProgramStats stats = u.stats;
    server::accumulate(stats, t.stats);
    set_runtime_layers(r, stats,
                       c.iters_per_call *
                           static_cast<double>(u.call_s.size() + t.call_s.size()));
  } else {
    r.not_applicable(kProgramStatsLayers,
                     "this entry point returns no ProgramStats");
  }
  r.not_applicable({"server.", "dist."}, "no server or remote location here");
  note_control_plane(r, c, true);

  const double on_s = u.e2e.latency_p50_ms / 1e3;

  // Affinity off: the same calls without placement.
  {
    Span s(on, "affinity.off_runs");
    std::vector<double> off_s, off_steal;
    const auto end =
        Clock::now() + std::chrono::duration<double>(a.seconds / 4);
    for (std::uint64_t i = 0; off_s.size() < min_calls || Clock::now() < end;
         ++i) {
      ++r.attempted;
      double steal = 0;
      const double dt = timed_call(c, on, i, rt::AffinityMode::Off, r.failed,
                                   nullptr, steal);
      if (dt >= 0) {
        off_s.push_back(dt);
        off_steal.push_back(steal);
      }
      if (off_s.empty() && i > min_calls) break;
    }
    r.set_layer("affinity.speedup_vs_off",
                on_s > 0 ? median(least_stolen(off_s, off_steal)) / on_s : 0,
                "x");
  }

  r.set_layer("apps.sequential_s", seq_s, "s");
  r.set_layer("apps.parallel_efficiency",
              on_s > 0 ? seq_s / (on_s * static_cast<double>(c.tasks)) : 0,
              "fraction");

  // The fork-join baseline on the same input: a reference only.
  {
    pool::ThreadPool pool(
        std::min<std::size_t>(c.tasks, std::thread::hardware_concurrency()));
    std::vector<double> fj;
    for (int i = 0; i < (a.tiny ? 1 : 3); ++i) {
      c.prepare();
      const auto t0 = Clock::now();
      Span s(on, "pool.forkjoin", static_cast<std::uint64_t>(i));
      c.forkjoin(pool);
      fj.push_back(seconds_since(t0));
    }
    r.set_layer("pool.forkjoin_s", median(fj), "s");
  }

  // Simulator check: the model's prediction for this configuration on a
  // MachineModel of the detected host with default cost parameters.
  {
    Span s(on, "sim.simulate");
    sim::MachineModel model;
    model.name = "host";
    model.topology = topo::detect_host();
    const sim::Workload wl = c.sim_workload();
    const tm::Placement pl = tm::tree_match(model.topology, wl.comm);
    const double predicted =
        sim::simulate(model, wl, sim::BindSpec::bound(pl)).seconds;
    r.set_layer("sim.predicted_over_measured",
                on_s > 0 ? predicted / on_s : 0, "x");
    r.note_value("sim.predicted_s", predicted, "s");
    r.note_value("measured_call_s", on_s, "s");
  }

  {
    Span s(on, "runtime.local_handoff");
    r.set_layer("runtime.handoff_ns", measure_local_handoff_ns(), "ns");
  }
  finish_trace(r, a, on);
  return r;
}

}  // namespace

Result run_matmul_ring(const Args& a) {
  // dgemm-bound control workload: one large B-block hand-off per task per
  // phase, so the runtime does almost nothing.
  const std::size_t n = a.tiny ? 64 : 1024;
  const std::size_t tasks = 4;
  const std::uint64_t seed = derive_seed(a.seed, 2);

  auto p = std::make_shared<apps::MatmulProblem>();
  auto ref = std::make_shared<std::vector<double>>();
  AppCase c;
  c.throughput_name = "gflops";
  c.throughput_unit = "GFLOP/s";
  c.tasks = tasks;
  c.work_per_call = 2.0 * std::pow(static_cast<double>(n), 3) / 1e9;
  c.iters_per_call = static_cast<double>(tasks);  // ring phases
  c.has_stats = false;
  c.generate = [=] { *p = apps::MatmulProblem::generate(n, seed); };
  c.declare = [=] { return apps::matmul_comm_matrix(n, tasks); };
  c.prepare = [=] { std::fill(p->c.begin(), p->c.end(), 0.0); };
  c.call = [=](rt::AffinityMode mode) {
    apps::matmul_orwl(*p, tasks, app_options(mode));
    return rt::ProgramStats{};
  };
  c.sequential = [=] {
    apps::matmul_sequential(*p);
    *ref = p->c;
  };
  c.verify = [=] {
    double err = 0, scale = 0;
    for (std::size_t i = 0; i < ref->size(); ++i) {
      err = std::max(err, std::abs(p->c[i] - (*ref)[i]));
      scale = std::max(scale, std::abs((*ref)[i]));
    }
    return p->c.size() == ref->size() && err <= kMatmulRelTol * scale;
  };
  c.forkjoin = [=](pool::ThreadPool& pool) { apps::matmul_forkjoin(*p, pool); };
  c.sim_workload = [=] { return apps::matmul_orwl_workload(n, tasks); };
  Result r = run_app(a, c);
  r.note("matmul.verify max|c-ref| <= 1e-10 * max|ref|");
  return r;
}

Result run_video_dataflow(const Args& a) {
  // The pipeline with the smallest splits: a FIFO channel and reader
  // groups, more tasks than cores, so park/wake costs dominate.
  apps::VideoParams params;
  params.width = a.tiny ? 96 : 640;
  params.height = a.tiny ? 72 : 360;
  params.frames = a.tiny ? 3 : 24;
  params.gmm_splits = 2;
  params.dilates = 2;
  params.ccl_splits = 1;
  params.seed = derive_seed(a.seed, 3);

  auto out = std::make_shared<apps::VideoResult>();
  auto ref = std::make_shared<apps::VideoResult>();
  AppCase c;
  c.throughput_name = "fps";
  c.throughput_unit = "frames/s";
  c.tasks = params.num_tasks();
  c.work_per_call = static_cast<double>(params.frames);
  c.iters_per_call = static_cast<double>(params.frames);
  c.has_stats = true;
  c.generate = [] {};  // frames come from params.seed inside each call
  c.declare = [=] { return apps::video_comm_matrix(params); };
  c.prepare = [] {};
  c.call = [=](rt::AffinityMode mode) {
    rt::ProgramStats st;
    *out = apps::video_orwl(params, app_options(mode), &st);
    return st;
  };
  c.sequential = [=] { *ref = apps::video_sequential(params); };
  c.verify = [=] {
    return out->detections_per_frame == ref->detections_per_frame &&
           out->final_track_positions == ref->final_track_positions;
  };
  c.forkjoin = [=](pool::ThreadPool& pool) {
    *out = apps::video_forkjoin(params, pool);
  };
  c.sim_workload = [=] { return apps::video_orwl_workload(params); };
  return run_app(a, c);
}

}  // namespace perfbench
