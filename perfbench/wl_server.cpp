// server_open_loop: the host carved into two tenants (lk23 and video
// handlers, small requests), fed Poisson arrivals from
// server::make_open_loop_trace at about 15% of each tenant's
// saturation. The benchmark's own loop submits each request at its
// scheduled time, so generator lateness shows, and times every request
// from its scheduled arrival.
#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <memory>
#include <mutex>
#include <thread>

#include "apps/lk23.hpp"
#include "bench.hpp"
#include "server/driver.hpp"
#include "server/handlers.hpp"
#include "server/server.hpp"
#include "topo/detect.hpp"
#include "treematch/treematch.hpp"

namespace perfbench {

namespace {

using namespace orwl;
using Span = Tracer::Span;

/// The lk23 tenant's saturation is the median of this many bursts.
constexpr int kBursts = 9;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Request sizes and rates, fixed so every run offers the same load.
struct ServerShape {
  std::size_t lk23_n, lk23_iters;
  apps::VideoParams video;
  double lk23_rps, video_rps;  ///< about 15% of each tenant's saturation
  double saturation_rps_hint;  ///< sizes the saturation phase
};

ServerShape shape(const Args& a) {
  ServerShape s{};
  s.lk23_n = a.tiny ? 34 : 258;
  s.lk23_iters = a.tiny ? 2 : 8;
  s.video.width = a.tiny ? 96 : 160;
  s.video.height = a.tiny ? 72 : 120;
  // 8 frames puts a video request near an lk23 request's ~11 ms, so the
  // merged latency distribution has one mode and its median is steady.
  s.video.frames = a.tiny ? 1 : 8;
  s.video.gmm_splits = 1;
  s.video.dilates = 1;
  s.video.ccl_splits = 1;
  s.video.seed = derive_seed(a.seed, 4);
  // Alone on a 4-PU host the lk23 tenant saturates near 170 req/s and the
  // video tenant (4-frame requests) near 300 req/s. Both tenants share the host, whose speed
  // swings by up to 40% with neighbour load; at half (and at a third) of
  // those rates such a swing pushed the open loop into overload and p50
  // from 10 ms to 500 ms. Each lane offers about 15% of its solo
  // saturation, so a slowed host still keeps up.
  s.lk23_rps = a.tiny ? 20 : 25;
  s.video_rps = a.tiny ? 10 : 45;
  s.saturation_rps_hint = a.tiny ? 50 : 170;
  return s;
}

/// What the handler wrapper records for one tenant. Each tenant queue is
/// FIFO, so the k-th handler start belongs to the k-th accepted submit.
struct LaneRecorder {
  std::mutex mu;
  std::vector<Clock::time_point> starts;
  std::vector<double> service_ms;
  std::atomic<std::uint64_t> exceptions{0};

  void reset() {
    std::lock_guard<std::mutex> lk(mu);
    starts.clear();
    service_ms.clear();
  }
};

server::Handler wrap(server::Handler inner, LaneRecorder* rec, Tracer* tr,
                     std::uint64_t lane) {
  return [inner = std::move(inner), rec, tr, lane](
             const server::TenantEnv& env) {
    const auto t0 = Clock::now();
    std::uint64_t k = 0;
    {
      std::lock_guard<std::mutex> lk(rec->mu);
      k = rec->starts.size();
      rec->starts.push_back(t0);
    }
    Span s(*tr, "server.handler", (lane << 32) | k);
    const auto record = [&] {
      const double ms = ms_between(t0, Clock::now());
      std::lock_guard<std::mutex> lk(rec->mu);
      rec->service_ms.push_back(ms);
    };
    try {
      rt::ProgramStats st = inner(env);
      record();
      return st;
    } catch (...) {
      rec->exceptions.fetch_add(1);
      record();
      throw;
    }
  };
}

struct ServerPhase {
  E2E e2e;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<double> detect_ms, admit_ms, declare_ms, place_ms;
  std::vector<double> service_ms, queue_wait_ms;
  double late_ms_max = 0;
  double p99_ms = 0;  ///< not gated: its run-to-run spread is too wide
  std::size_t peak_workers = 0;
  double control_threads = 0, control_shards = 0;  ///< one lk23 request
  rt::ProgramStats lk23_runtime;
  std::uint64_t lk23_completed = 0;
  std::size_t accepted = 0;  ///< open-loop requests the server took
  std::size_t kept = 0;      ///< of them, those in least-stolen windows
};

/// Builds a server with both tenants admitted and warmed up.
struct Rig {
  topo::Topology host;
  std::unique_ptr<server::Server> server;
  server::TenantId lk23 = 0, video = 0;
};

void build_rig(Rig& rig, const ServerShape& sh, const Args& a,
               LaneRecorder (&rec)[2], Tracer& tr, ServerPhase& ph,
               int rep) {
  auto t = Clock::now();
  rig.host = [&] {
    Span d(tr, "topo.detect", rep);
    return topo::detect_host();
  }();
  ph.detect_ms.push_back(ms_between(t, Clock::now()));

  server::ServerOptions o;
  o.topology = &rig.host;
  o.bind_threads = true;
  o.base.affinity = rt::AffinityMode::On;
  rig.server = std::make_unique<server::Server>(o);

  const std::size_t half = std::max<std::size_t>(1, rig.host.num_pus() / 2);
  server::TenantSpec lk;
  lk.name = "lk23";
  lk.width_pus = half;
  lk.min_workers = 1;
  lk.max_workers = 2;
  lk.handler = wrap(server::make_lk23_handler(sh.lk23_n, sh.lk23_iters, 1,
                                              half, derive_seed(a.seed, 5)),
                    &rec[0], &tr, 0);
  server::TenantSpec vid;
  vid.name = "video";
  vid.width_pus = half;
  vid.min_workers = 1;
  vid.max_workers = 2;
  vid.handler = wrap(server::make_video_handler(sh.video), &rec[1], &tr, 1);

  t = Clock::now();
  {
    Span s(tr, "server.admit", rep);
    rig.lk23 = rig.server->admit(lk);
    rig.video = rig.server->admit(vid);
  }
  ph.admit_ms.push_back(ms_between(t, Clock::now()) / 2);

  // Declare + place as one lk23 request does, on the tenant's carve.
  t = Clock::now();
  const tm::CommMatrix m = [&] {
    Span d(tr, "orwl.declare", rep);
    return apps::lk23_ops_comm_matrix(sh.lk23_n, 1, half);
  }();
  ph.declare_ms.push_back(ms_between(t, Clock::now()));
  t = Clock::now();
  {
    Span p(tr, "treematch.place", rep);
    (void)tm::tree_match(rig.server->tenant_topology(rig.lk23), m);
  }
  ph.place_ms.push_back(ms_between(t, Clock::now()));

  Span w(tr, "server.warmup", rep);
  for (int i = 0; i < (a.tiny ? 2 : 8); ++i) {
    rig.server->submit(rig.lk23);
    rig.server->submit(rig.video);
  }
  rig.server->drain_all();
}

ServerPhase run_phase(const Args& a, const ServerShape& sh, Tracer& tr,
                      double seconds, int reps) {
  ServerPhase ph;
  // Declared before the rig: the handler wrappers point at them.
  LaneRecorder rec[2];
  Rig rig;
  std::vector<double> setup;
  for (int r = 0; r < reps; ++r) {
    rig.server.reset();
    Span s(tr, "setup", static_cast<std::uint64_t>(r));
    const auto t0 = Clock::now();
    build_rig(rig, sh, a, rec, tr, ph, r);
    setup.push_back(seconds_since(t0));
  }
  ph.e2e.setup_s = median(setup);
  {
    // A Program that is never run resolves the control-plane sizes an
    // lk23 request uses on its tenant's carve.
    rt::ProgramOptions po;
    po.affinity = rt::AffinityMode::On;
    po.topology = &rig.server->tenant_topology(rig.lk23);
    const rt::Program probe(rig.server->tenant_cpus(rig.lk23).count(), po);
    ph.control_threads = static_cast<double>(probe.num_control_threads());
    ph.control_shards = static_cast<double>(probe.num_control_shards());
  }
  restart_peak_rss();
  rec[0].reset();
  rec[1].reset();
  const std::uint64_t exceptions_before =
      rec[0].exceptions.load() + rec[1].exceptions.load();
  const auto base = rig.server->stats();

  // ---- open loop --------------------------------------------------------
  const double duration_ms = 0.7 * seconds * 1e3;
  const auto trace = server::make_open_loop_trace(
      {sh.lk23_rps, sh.video_rps}, duration_ms, derive_seed(a.seed, 6));
  const server::TenantId lanes[2] = {rig.lk23, rig.video};
  std::vector<double> latency(trace.size(), -1.0);
  std::vector<Clock::time_point> accepted_at[2];
  std::mutex mu;
  std::condition_variable cv;
  std::size_t completed = 0, accepted = 0, shed = 0;
  // The host's steal share per window of the open loop, read at the
  // first arrival past each window's end; a request counts in the window
  // of its scheduled arrival.
  constexpr double kWindowMs = 500;
  std::vector<CpuTicks> window_ticks = {cpu_ticks()};
  {
    Span ol(tr, "server.open_loop");
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < trace.size(); ++i) {
      const auto due =
          t0 + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double, std::milli>(trace[i].at_ms));
      std::this_thread::sleep_until(due);
      while (trace[i].at_ms >=
             kWindowMs * static_cast<double>(window_ticks.size())) {
        window_ticks.push_back(cpu_ticks());
      }
      ph.late_ms_max = std::max(ph.late_ms_max, ms_between(due, Clock::now()));
      const std::size_t lane = trace[i].lane;
      Span s(tr, "server.submit",
             (static_cast<std::uint64_t>(lane) << 32) |
                 accepted_at[lane].size());
      const bool ok = rig.server->submit(lanes[lane], [&, i, due] {
        latency[i] = ms_between(due, Clock::now());
        std::lock_guard<std::mutex> lk(mu);
        ++completed;
        cv.notify_one();
      });
      if (ok) {
        accepted_at[lane].push_back(due);
        ++accepted;
      } else {
        ++shed;
      }
    }
    std::unique_lock<std::mutex> lk(mu);
    cv.wait(lk, [&] { return completed == accepted; });
  }
  window_ticks.push_back(cpu_ticks());
  std::vector<double> done_ms, done_steal;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    if (latency[i] < 0) continue;
    const std::size_t w = std::min(
        static_cast<std::size_t>(trace[i].at_ms / kWindowMs),
        window_ticks.size() - 2);
    done_ms.push_back(latency[i]);
    done_steal.push_back(steal_share(window_ticks[w], window_ticks[w + 1]));
  }
  for (int lane = 0; lane < 2; ++lane) {
    std::lock_guard<std::mutex> lk(rec[lane].mu);
    const std::size_t n =
        std::min(rec[lane].starts.size(), accepted_at[lane].size());
    for (std::size_t k = 0; k < n; ++k) {
      ph.queue_wait_ms.push_back(
          ms_between(accepted_at[lane][k], rec[lane].starts[k]));
    }
    ph.service_ms.insert(ph.service_ms.end(), rec[lane].service_ms.begin(),
                         rec[lane].service_ms.end());
  }
  ph.accepted = accepted;

  // ---- saturation of the lk23 tenant -------------------------------------
  // Back-to-back bursts; the median burst rate resists a passing stall.
  const auto burst = static_cast<std::size_t>(
      std::max(5.0, sh.saturation_rps_hint * 0.3 * seconds / kBursts));
  std::vector<double> burst_rps, burst_steal;
  for (int b = 0; b < kBursts; ++b) {
    Span s(tr, "server.saturation", static_cast<std::uint64_t>(b));
    const CpuTicks ticks0 = cpu_ticks();
    burst_rps.push_back(
        server::measure_saturation_rps(*rig.server, rig.lk23, burst));
    burst_steal.push_back(steal_share(ticks0, cpu_ticks()));
  }
  const std::size_t sat_requests = burst * kBursts;
  const double sat_rps = median(least_stolen(burst_rps, burst_steal));
  ph.e2e.peak_rss_mb = peak_rss_mb();

  const auto after = rig.server->stats();
  std::uint64_t tenant_failed = 0;
  for (std::size_t i = 0; i < after.size(); ++i) {
    tenant_failed += after[i].failed - base[i].failed;
    ph.peak_workers = std::max(ph.peak_workers, after[i].peak_workers);
    if (after[i].id == rig.lk23) {
      ph.lk23_runtime = after[i].runtime;
      ph.lk23_completed = after[i].completed;
    }
  }
  const std::uint64_t exceptions =
      rec[0].exceptions.load() + rec[1].exceptions.load() - exceptions_before;
  ph.attempted = trace.size() + sat_requests;
  ph.failed = shed + std::max(tenant_failed, exceptions);
  if (ph.failed > 0) {
    std::fprintf(stderr, "server: %zu shed, %llu handler exceptions\n", shed,
                 static_cast<unsigned long long>(
                     std::max(tenant_failed, exceptions)));
  }

  ph.e2e.work_per_s = sat_rps;
  const std::vector<double> kept = least_stolen(done_ms, done_steal);
  ph.e2e.latency_p50_ms = percentile(kept, 0.5);
  ph.kept = kept.size();
  ph.p99_ms = percentile(done_ms, 0.99);
  {
    Span s(tr, "server.teardown");
    rig.server.reset();
  }
  return ph;
}

}  // namespace

Result run_server_open_loop(const Args& a) {
  Result r;
  add_host_context(r, a);
  const ServerShape sh = shape(a);
  const int reps = a.tiny ? 1 : 7;
  Tracer off(false);
  Tracer on(a.trace);
  r.note("server.rates lk23 " + std::to_string(sh.lk23_rps) + " req/s, video " +
         std::to_string(sh.video_rps) + " req/s (open loop, Poisson)");

  if (!a.trace) {
    const ServerPhase u = run_phase(a, sh, off, a.seconds, reps);
    set_e2e(r, u.e2e);
    r.attempted = u.attempted;
    r.failed = u.failed;
    r.note_value("p50_ms", u.e2e.latency_p50_ms, "ms");
    r.note_value("p99_ms", u.p99_ms, "ms");
    r.note_value("saturation_rps", u.e2e.work_per_s, "req/s");
    r.note_value("requests", static_cast<double>(u.accepted), "count");
    r.note_value("requests_least_stolen", static_cast<double>(u.kept),
                 "count");
    r.note_value("runtime.control_threads", u.control_threads, "count");
    r.note_value("runtime.control_shards", u.control_shards, "count");
    return r;
  }

  const ServerPhase u = run_phase(a, sh, off, a.seconds / 2, reps);
  const ServerPhase t = run_phase(a, sh, on, a.seconds / 2, reps);
  set_overheads(r, u.e2e, t.e2e);
  r.attempted = u.attempted + t.attempted;
  r.failed = u.failed + t.failed;

  const auto both = [](std::vector<double> x, const std::vector<double>& y) {
    x.insert(x.end(), y.begin(), y.end());
    return x;
  };
  r.set_layer("topo.detect_ms", median(both(u.detect_ms, t.detect_ms)), "ms");
  r.set_layer("orwl.declare_ms", median(both(u.declare_ms, t.declare_ms)),
              "ms");
  r.set_layer("treematch.place_ms", median(both(u.place_ms, t.place_ms)),
              "ms");
  r.set_layer("server.admit_ms", median(both(u.admit_ms, t.admit_ms)), "ms");
  r.set_layer("server.service_ms_p50", percentile(u.service_ms, 0.5), "ms");
  r.set_layer("server.service_ms_p99", percentile(u.service_ms, 0.99), "ms");
  r.set_layer("server.queue_wait_ms_p99", percentile(u.queue_wait_ms, 0.99),
              "ms");
  r.set_layer("server.peak_workers",
              static_cast<double>(std::max(u.peak_workers, t.peak_workers)),
              "count");
  r.set_layer("server.generator_late_ms_max",
              std::max(u.late_ms_max, t.late_ms_max), "ms");
  r.set_layer("server.latency_ms_p99", u.p99_ms, "ms");

  // Runtime counters: the lk23 tenant's rollup, per sweep.
  const rt::ProgramStats& s = u.lk23_runtime;
  const double iters =
      static_cast<double>(u.lk23_completed) * static_cast<double>(sh.lk23_iters);
  set_runtime_layers(r, s, iters);
  r.set_layer("runtime.control_threads", u.control_threads, "count");
  r.set_layer("runtime.control_shards", u.control_shards, "count");
  r.note("runtime.*: lk23 tenant rollup over the untraced phase, per sweep");
  r.not_applicable({"affinity.speedup_vs_off", "apps.", "pool.", "sim."},
                   "requests run inside the server, with no reference runs");
  r.not_applicable({"dist."}, "no remote location here");
  {
    Span h(on, "runtime.local_handoff");
    r.set_layer("runtime.handoff_ns", measure_local_handoff_ns(), "ns");
  }
  finish_trace(r, a, on);
  return r;
}

}  // namespace perfbench
