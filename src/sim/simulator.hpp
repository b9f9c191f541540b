// The analytic execution simulator.
//
// Given a machine model, a workload description (communication matrix +
// per-thread compute/memory characteristics, extracted from the real ORWL
// programs) and a placement scenario, the simulator derives execution
// time and the four hardware/software counters the paper reports in
// Tables II-IV: L3 misses, stalled cycles, context switches and CPU
// migrations.
//
// Modeling principles:
//  * L3 misses come from capacity (working set vs. the shared L3 of each
//    domain) plus coherence/transfer traffic whose service level depends
//    on where the communicating threads sit (same core / same L3 /
//    cross-NUMA) — so the *placement* changes the counters only through
//    this geometry, never through per-scenario constants.
//  * Stalled cycles = misses x miss penalty (the paper observes 10-14
//    cycles per miss).
//  * Per-iteration time is a bottleneck (roofline) composition of CPU
//    cycles, per-node DRAM bandwidth and per-node interconnect bandwidth;
//    pipeline execution overlaps them, fork-join pays barriers and
//    limited wavefront parallelism.
//  * The OS-scheduled scenarios sample epoch-wise placements following
//    the machine's scheduler family (NumaPack / EvenSpread) with seeded
//    jitter; migrations off the first-touch node turn private streams
//    into remote traffic.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/machine_model.hpp"
#include "treematch/comm_matrix.hpp"
#include "treematch/treematch.hpp"

namespace orwl::sim {

enum class ExecModel {
  OrwlPipeline,  ///< decentralized, lock-driven, overlapping
  ForkJoin,      ///< parallel regions with barriers (OpenMP/MKL shape)
  Sequential,
};

const char* to_string(ExecModel m) noexcept;

struct Workload {
  std::string name;
  std::size_t num_threads = 0;

  /// Bytes exchanged between thread pairs per iteration (from
  /// aff::comm_matrix_from_graph of the real program).
  tm::CommMatrix comm;

  std::vector<double> flops;         ///< per thread per iteration
  std::vector<double> stream_bytes;  ///< private streaming traffic/iter
  std::vector<double> shared_bytes;  ///< traffic to a shared region
                                     ///< first-touched on thread 0's node
  std::vector<double> wset_bytes;    ///< resident working set per thread

  double flops_per_cycle = 4.0;  ///< kernel roof per core (<= machine's)
  double iterations = 1.0;
  ExecModel exec = ExecModel::OrwlPipeline;

  /// Lock acquire+release (or barrier) events per thread per iteration;
  /// drives context switches.
  double sync_events_per_thread_iter = 4.0;

  /// Barriers per iteration (fork-join only).
  double barriers_per_iter = 1.0;

  /// Effective concurrency of a fork-join iteration (wavefront/Amdahl
  /// limit); defaults to num_threads when <= 0.
  double effective_parallelism = 0.0;

  /// Fraction of memory/interconnect time hidden under compute in
  /// fork-join execution (dense kernels prefetch well, barrier-ridden
  /// stencils do not). Pipeline execution always overlaps fully.
  double memory_overlap = 0.3;

  std::size_t control_threads = 0;
};

struct BindSpec {
  enum class Kind { Bound, OsScheduled };
  Kind kind = Kind::OsScheduled;
  tm::Placement placement;  ///< used when kind == Bound
  std::uint64_t seed = 42;

  static BindSpec bound(tm::Placement p) {
    BindSpec b;
    b.kind = Kind::Bound;
    b.placement = std::move(p);
    return b;
  }
  static BindSpec os_scheduled(std::uint64_t seed = 42) {
    BindSpec b;
    b.kind = Kind::OsScheduled;
    b.seed = seed;
    return b;
  }
};

/// The counters of Tables II-IV.
struct Counters {
  double l3_misses = 0;
  double stalled_cycles = 0;
  double context_switches = 0;
  double cpu_migrations = 0;
};

struct SimResult {
  double seconds = 0;
  Counters counters;
  double total_flops = 0;

  double gflops() const {
    return seconds > 0 ? total_flops / seconds / 1e9 : 0.0;
  }
};

/// Run the model. Throws std::invalid_argument on inconsistent inputs
/// (vector sizes vs. num_threads, empty workload, bound placement
/// smaller than the thread count).
SimResult simulate(const MachineModel& machine, const Workload& workload,
                   const BindSpec& bind);

}  // namespace orwl::sim
