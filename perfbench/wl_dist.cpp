// dist_shm / dist_tcp: one home dist::Registry and one dist::Client in
// the same process, closed loop with one 8-byte write cycle outstanding
// at a time. The wire and the granter thread do nearly all the work.
#include <sched.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>

#include "bench.hpp"
#include "dist/registry.hpp"
#include "dist/remote.hpp"
#include "dist/shm_transport.hpp"
#include "dist/tcp_transport.hpp"
#include "runtime/handle.hpp"
#include "runtime/location.hpp"
#include "topo/detect.hpp"

namespace perfbench {

namespace {

using namespace orwl;
using Span = Tracer::Span;

constexpr std::size_t kPayload = 8;

/// Where the two sides of the hand-off run. Left to the scheduler, the
/// client and the home's threads shared a CPU in some processes and not
/// in others, and the cycle cost of a whole run sat in one of two modes
/// (about 22 or 32 us over shm). Pinning each side to its own PU fixes the
/// layout: the home's threads (granter, listener, connection readers)
/// start while the creating thread is pinned to `home` and inherit its
/// mask; the client's reader and the measuring thread run on `client`.
/// With one usable PU both sides share it.
struct SidePins {
  cpu_set_t original{};
  int client = -1, home = -1;

  SidePins() {
    if (sched_getaffinity(0, sizeof original, &original) != 0) return;
    for (int c = 0; c < CPU_SETSIZE && home < 0; ++c) {
      if (!CPU_ISSET(c, &original)) continue;
      (client < 0 ? client : home) = c;
    }
    if (home < 0) home = client;
  }
  ~SidePins() { sched_setaffinity(0, sizeof original, &original); }
  SidePins(const SidePins&) = delete;
  SidePins& operator=(const SidePins&) = delete;

  /// Pins the calling thread to one side's PU.
  void enter(int cpu) const {
    if (cpu < 0) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    sched_setaffinity(0, sizeof one, &one);
  }
};

/// One full ORWL write cycle: a one-shot write handle enqueued
/// standalone, acquired, the payload counter bumped, released.
void write_cycle(rt::Location& loc) {
  rt::Handle h;
  h.insert_standalone(loc, rt::AccessMode::Write);
  rt::Section sec(h);
  ++*sec.as<std::uint64_t>();
}

/// The home location, its registry serving one transport, and a client
/// attached to it.
struct DistRig {
  rt::Location loc{0, 0, 0};
  dist::Registry reg;
  std::unique_ptr<dist::Client> client;
  rt::Location* remote = nullptr;
  std::uint64_t cycles = 0;  ///< remote write cycles run on this rig

  DistRig() {
    loc.scale(kPayload);
    std::memset(loc.data(), 0, loc.size());
    reg.export_location("cell", &loc);
  }
  ~DistRig() {
    if (client) client->close();
    reg.stop();
  }
  DistRig(const DistRig&) = delete;
  DistRig& operator=(const DistRig&) = delete;

  /// The payload counter as the home sees it (a local read cycle).
  std::uint64_t home_counter() {
    rt::Handle h;
    h.insert_standalone(loc, rt::AccessMode::Read);
    rt::Section sec(h);
    std::uint64_t v = 0;
    std::memcpy(&v, sec.read_map().data(), sizeof v);
    return v;
  }
};

std::string serve(DistRig& rig, dist::DistMode mode, int rep) {
  if (mode == dist::DistMode::Shm) {
    auto t = std::make_unique<dist::ShmServerTransport>(
        "orwl-e2e-" + std::to_string(getpid()) + "-" + std::to_string(rep),
        /*ring_slots=*/1024);
    const std::string url = "orwl+shm://" + t->address() + "/cell";
    rig.reg.serve(std::move(t));
    return url;
  }
  auto t = std::make_unique<dist::TcpServerTransport>(/*port=*/0);
  const std::string url = "orwl://" + t->address() + "/cell";
  rig.reg.serve(std::move(t));
  return url;
}

struct DistPhase {
  E2E e2e;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<double> detect_ms, connect_ms;
  std::vector<double> acquire_us, release_us;
  double p99_us = 0;  ///< not gated: its run-to-run spread is too wide
  std::size_t kept = 0;  ///< cycles of the least-stolen windows
  std::uint64_t cycles = 0, grants_sent = 0, orphans = 0;
};

DistPhase run_phase(const Args& a, dist::DistMode mode, Tracer& tr,
                    double seconds, int reps, int rep_base) {
  DistPhase ph;
  const SidePins pins;
  std::vector<double> setup;
  // One timed set-up, up to the end of the first write cycle.
  const auto set_up = [&](int rep) {
    const auto id = static_cast<std::uint64_t>(rep);
    Span s(tr, "setup", id);
    const auto t0 = Clock::now();
    {
      Span d(tr, "topo.detect", id);
      (void)topo::detect_host();
    }
    ph.detect_ms.push_back(seconds_since(t0) * 1e3);
    pins.enter(pins.home);
    auto rig = std::make_unique<DistRig>();
    const std::string url = serve(*rig, mode, rep_base + rep);
    pins.enter(pins.client);
    const auto tc = Clock::now();
    {
      Span c(tr, "dist.connect", id);
      rig->client = dist::Client::connect(url);
      rig->remote = &rig->client->attach("cell");
    }
    ph.connect_ms.push_back(seconds_since(tc) * 1e3);
    write_cycle(*rig->remote);
    ++rig->cycles;
    setup.push_back(seconds_since(t0));
    return rig;
  };

  // The first rig is the one measured. The other set-ups are spread over
  // the measured phase, each on a rig of its own that is dropped at once:
  // run back to back, all set-ups of a run met the host in one state, and
  // their median sat at about 0.6 or 1.0 ms over tcp from run to run.
  const std::unique_ptr<DistRig> rig = set_up(0);
  int setups = 1;

  // Warm-up runs for a fixed time, not a fixed count, because the cycle
  // cost of a whole process sits in one of two modes (about 20 or 30 us
  // over shm) that change from run to run, which made a counted warm-up
  // bimodal.
  {
    Span w(tr, "dist.warmup");
    const auto tw = Clock::now();
    do {
      write_cycle(*rig->remote);
      ++rig->cycles;
    } while (seconds_since(tw) < (a.tiny ? 0.005 : 0.1));
  }
  // The measured cycles allocate nothing of the program's; what grows
  // after this point is the benchmark's own record of every cycle.
  ph.e2e.peak_rss_mb = peak_rss_mb();

  // Cycles are timed in windows of kWindow; the host's steal share of
  // each window is read between cycles and given to each of its cycles.
  constexpr std::size_t kWindow = 2000;
  std::vector<double> cycle_s, cycle_steal;
  cycle_s.reserve(1 << 20);
  CpuTicks window_ticks = cpu_ticks();
  const auto close_window = [&] {
    const CpuTicks now = cpu_ticks();
    cycle_steal.resize(cycle_s.size(), steal_share(window_ticks, now));
    window_ticks = now;
  };
  {
    Span ms(tr, "measure");
    const auto start = Clock::now();
    const auto end = start + std::chrono::duration<double>(seconds);
    const auto setup_every = std::chrono::duration<double>(seconds / reps);
    for (std::uint64_t i = 0; cycle_s.size() < 100 || Clock::now() < end;
         ++i) {
      if (cycle_s.size() - cycle_steal.size() == kWindow) close_window();
      if (setups < reps && Clock::now() >= start + setups * setup_every) {
        (void)set_up(setups++);
        continue;
      }
      const auto t0 = Clock::now();
      if (!tr.enabled()) {
        write_cycle(*rig->remote);
      } else {
        // Traced: the cycle split at the guard boundary, acquire (REQ ->
        // GRANT round trip) and release (DATA + RELEASE send).
        Span c(tr, "dist.cycle", i);
        rt::Handle h;
        h.insert_standalone(*rig->remote, rt::AccessMode::Write);
        std::optional<rt::Section> sec;
        {
          Span s(tr, "dist.acquire", i);
          sec.emplace(h);
        }
        const auto t1 = Clock::now();
        ++*sec->as<std::uint64_t>();
        const auto t2 = Clock::now();
        {
          Span s(tr, "dist.release", i);
          sec->release();
        }
        ph.acquire_us.push_back(
            std::chrono::duration<double, std::micro>(t1 - t0).count());
        ph.release_us.push_back(
            std::chrono::duration<double, std::micro>(Clock::now() - t2)
                .count());
      }
      cycle_s.push_back(seconds_since(t0));
    }
    close_window();
  }
  while (setups < reps) (void)set_up(setups++);
  ph.e2e.setup_s = median(setup);
  rig->cycles += cycle_s.size();
  const std::vector<double> kept = least_stolen(cycle_s, cycle_steal);
  ph.e2e.work_per_s = median_group_rate(kept, 1.0, 250);
  ph.e2e.latency_p50_ms = median(kept) * 1e3;
  ph.kept = kept.size();
  ph.p99_us = percentile(cycle_s, 0.99) * 1e6;
  ph.attempted = cycle_s.size();

  // Verification, outside the timing: the home's payload counter and the
  // registry's grant count both equal the cycles run; nothing orphaned.
  const std::uint64_t counter = rig->home_counter();
  const dist::Registry::Stats st = rig->reg.stats();
  ph.cycles = rig->cycles;
  ph.grants_sent = st.grants_sent;
  ph.orphans = st.orphans_reclaimed;
  if (counter != rig->cycles || st.grants_sent != rig->cycles ||
      st.orphans_reclaimed != 0) {
    ph.failed = 1;
    std::fprintf(stderr,
                 "dist: counter %llu, grants %llu, orphans %llu, cycles %llu\n",
                 static_cast<unsigned long long>(counter),
                 static_cast<unsigned long long>(st.grants_sent),
                 static_cast<unsigned long long>(st.orphans_reclaimed),
                 static_cast<unsigned long long>(rig->cycles));
  }
  return ph;
}

Result run_dist(const Args& a, dist::DistMode mode, const std::string& lane) {
  Result r;
  add_host_context(r, a);
  const int reps = a.tiny ? 1 : 31;
  Tracer off(false);
  Tracer on(a.trace);

  if (!a.trace) {
    const DistPhase u = run_phase(a, mode, off, a.seconds, reps, 0);
    set_e2e(r, u.e2e);
    r.attempted = u.attempted;
    r.failed = u.failed;
    r.note_value(lane + "_handoff_us_p50", u.e2e.latency_p50_ms * 1e3, "us");
    r.note_value(lane + "_handoff_us_p99", u.p99_us, "us");
    r.note_value("cycles_least_stolen", static_cast<double>(u.kept), "count");
    return r;
  }

  const DistPhase u = run_phase(a, mode, off, a.seconds / 2, reps, 0);
  const DistPhase t = run_phase(a, mode, on, a.seconds / 2, reps, reps);
  set_overheads(r, u.e2e, t.e2e);
  r.attempted = u.attempted + t.attempted;
  r.failed = u.failed + t.failed;

  std::vector<double> detect = u.detect_ms, connect = u.connect_ms;
  detect.insert(detect.end(), t.detect_ms.begin(), t.detect_ms.end());
  connect.insert(connect.end(), t.connect_ms.begin(), t.connect_ms.end());
  r.set_layer("topo.detect_ms", median(detect), "ms");
  r.set_layer("dist.connect_ms", median(connect), "ms");
  r.set_layer("dist.acquire_us_p50", median(t.acquire_us), "us");
  r.set_layer("dist.release_us_p50", median(t.release_us), "us");
  r.set_layer("dist.cycle_us_p99", u.p99_us, "us");
  r.set_layer("dist.cycles", static_cast<double>(u.cycles + t.cycles),
              "count");
  r.set_layer("dist.grants_sent",
              static_cast<double>(u.grants_sent + t.grants_sent), "count");
  r.set_layer("dist.orphans_reclaimed",
              static_cast<double>(u.orphans + t.orphans), "count");
  double handoff_ns = 0;
  {
    Span s(on, "runtime.local_handoff");
    handoff_ns = measure_local_handoff_ns();
  }
  r.set_layer("runtime.handoff_ns", handoff_ns, "ns");
  r.set_layer("dist.wire_overhead_x",
              handoff_ns > 0 ? u.e2e.latency_p50_ms * 1e6 / handoff_ns : 0,
              "x");
  std::vector<std::string> no_program = {
      "orwl.", "treematch.", "affinity.", "apps.", "pool.", "sim.", "server.",
      "runtime.control_threads", "runtime.control_shards"};
  for (const std::string& m : kProgramStatsLayers) {
    if (m.rfind("runtime.", 0) == 0) no_program.push_back(m);
  }
  r.not_applicable(no_program, "no Program is built or placed here");
  finish_trace(r, a, on);
  return r;
}

}  // namespace

double measure_local_handoff_ns() {
  rt::Location loc{0, 0, 0};
  loc.scale(kPayload);
  std::memset(loc.data(), 0, loc.size());
  constexpr int kBatch = 256;
  std::vector<double> per_cycle_ns;
  for (int b = 0; b < 200; ++b) {
    const auto t0 = Clock::now();
    for (int i = 0; i < kBatch; ++i) write_cycle(loc);
    per_cycle_ns.push_back(seconds_since(t0) * 1e9 / kBatch);
  }
  return median(per_cycle_ns);
}

Result run_dist_shm(const Args& a) {
  return run_dist(a, dist::DistMode::Shm, "shm");
}

Result run_dist_tcp(const Args& a) {
  return run_dist(a, dist::DistMode::Tcp, "tcp");
}

}  // namespace perfbench
