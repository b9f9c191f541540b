// Open-loop SLO bench of the multi-tenant server: a video tenant and an
// lk23 tenant co-resident on the smp20e7 fixture, each fed a
// deterministic Poisson request trace. Reports per-tenant latency
// percentiles (p50/p99/p999, measured from the *scheduled* arrival so
// overload queueing is charged, not hidden), offered vs completed
// throughput, a saturation ceiling, and the per-tenant ProgramStats
// rollups.
//
// CI's bench-smoke job runs this on a tiny trace and gates p99_ms with
// tools/bench_compare.py --max-latency; BENCH_micro_server.json is the
// committed dev snapshot starting the SLO trajectory.
#include <algorithm>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "server/driver.hpp"
#include "server/handlers.hpp"
#include "server/server.hpp"
#include "topo/machines.hpp"

namespace {

using namespace orwl;
using namespace orwl::server;

/// Small-but-real request bodies: one video request tracks 2 frames on
/// a 10-task pipeline, one lk23 request runs 2 sweeps on a 2x2 grid.
apps::VideoParams video_request() {
  apps::VideoParams p;
  p.width = 96;
  p.height = 72;
  p.frames = 2;
  p.gmm_splits = 2;
  p.dilates = 1;
  p.ccl_splits = 1;
  return p;
}

ServerOptions server_options(const topo::Topology* t) {
  ServerOptions o;
  o.topology = t;
  o.bind_threads = false;  // smp20e7 is a fixture: no real OS binding
  o.base.bind_threads = false;
  o.base.affinity = rt::AffinityMode::Off;
  o.base.acquire_timeout_ms = 60000;
  return o;
}

void annotate_lane(benchmark::State& state, const std::string& prefix,
                   const LaneResult& lane) {
  state.counters[prefix + "_p50_ms"] = lane.p50_ms;
  state.counters[prefix + "_p99_ms"] = lane.p99_ms;
  state.counters[prefix + "_p999_ms"] = lane.p999_ms;
  state.counters[prefix + "_offered"] = static_cast<double>(lane.offered);
  state.counters[prefix + "_completed"] =
      static_cast<double>(lane.completed);
  state.counters[prefix + "_shed"] = static_cast<double>(lane.shed);
  state.counters[prefix + "_offered_rps"] = lane.offered_rps;
  state.counters[prefix + "_completed_rps"] = lane.completed_rps;
}

void annotate_tenant_rollup(benchmark::State& state,
                            const TenantStats& st) {
  const std::string& p = st.name;
  state.counters[p + "_data_transfers"] =
      static_cast<double>(st.runtime.data_transfers);
  state.counters[p + "_futex_waits"] =
      static_cast<double>(st.runtime.futex_waits);
  state.counters[p + "_arena_bytes"] =
      static_cast<double>(st.runtime.arena_bytes);
  state.counters[p + "_arena_node_misses"] =
      static_cast<double>(st.runtime.arena_node_misses);
  state.counters[p + "_peak_workers"] =
      static_cast<double>(st.peak_workers);
}

/// Two tenants, open loop: the SLO scenario of the server harness.
void BM_server_two_tenant_open_loop(benchmark::State& state) {
  const topo::Topology machine = topo::make_smp20e7();
  const double duration_ms = static_cast<double>(state.range(0));

  double p99_worst = 0;
  for (auto _ : state) {
    Server server(server_options(&machine));

    TenantSpec video;
    video.name = "video";
    video.width_pus = 16;
    video.min_workers = 1;
    video.max_workers = 2;
    video.handler = make_video_handler(video_request());

    TenantSpec lk23;
    lk23.name = "lk23";
    lk23.width_pus = 8;
    lk23.min_workers = 1;
    lk23.max_workers = 2;
    lk23.handler = make_lk23_handler(/*n=*/34, /*iters=*/2, 2, 2);

    const std::vector<TenantId> lanes = {server.admit(video),
                                         server.admit(lk23)};

    // Offered load well under one request-service-time per arrival, so
    // the steady-state percentiles read service latency + light queueing.
    const auto trace =
        make_open_loop_trace({/*video rps=*/20.0, /*lk23 rps=*/60.0},
                             duration_ms, /*seed=*/42);
    const ReplayResult res = replay(server, lanes, trace);

    annotate_lane(state, "video", res.lanes[0]);
    annotate_lane(state, "lk23", res.lanes[1]);
    // The CI SLO gate reads the worst lane.
    p99_worst = std::max(res.lanes[0].p99_ms, res.lanes[1].p99_ms);
    state.counters["p99_ms"] = p99_worst;
    state.counters["wall_ms"] = res.wall_ms;

    // Saturation ceiling of the cheaper tenant (back-to-back submits).
    state.counters["saturation_rps"] =
        measure_saturation_rps(server, lanes[1], 32);

    double node_misses = 0;
    for (const TenantStats& st : server.stats()) {
      annotate_tenant_rollup(state, st);
      node_misses += static_cast<double>(st.runtime.arena_node_misses);
    }
    // All-tenant sum, so the standard --require-zero NUMA gate applies.
    state.counters["arena_node_misses"] = node_misses;
  }
}

BENCHMARK(BM_server_two_tenant_open_loop)
    ->Arg(300)   // smoke trace: ~6 video + ~18 lk23 requests
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

}  // namespace

ORWL_BENCH_MAIN()
