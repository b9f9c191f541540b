// Performance models of the paper's two testbeds (Table I).
//
// The reproduction does not have access to the PlaFRIM machines; this
// module models them: the synthetic topology trees of topo/machines.hpp
// plus the cost parameters the analytic simulator needs (clock, cache
// penalties, per-node DRAM bandwidth, NUMAlink bandwidth, the OS
// scheduler family of the installed kernel). Parameter values are derived
// from Table I and from public microarchitecture data for the two Xeons;
// the paper-facing claims we reproduce are *shapes*, not absolute
// numbers.
#pragma once

#include <string>

#include "topo/topology.hpp"

namespace orwl::sim {

/// The scheduling family of the machine's Linux kernel, as observed by
/// the paper (Sec. VI-B1): "the system of the SMP12E5 (with Linux 3.10)
/// tries to reduce the number of used NUMA nodes by even using the
/// hyperthreads, while the scheduler of the SMP20E7 (Linux 2.6.32)
/// spreads threads evenly over the 20 NUMA nodes".
enum class OsPolicy {
  NumaPack,    ///< pack threads onto few nodes, hyperthreads first
  EvenSpread,  ///< spread threads round-robin over all NUMA nodes
};

const char* to_string(OsPolicy p) noexcept;

struct MachineModel {
  std::string name;
  topo::Topology topology;

  double clock_ghz = 2.6;

  /// "each cache miss leads to a loss of about 10 to 14 cycles" (Sec.
  /// VI-B1, Table II discussion).
  double miss_stall_cycles = 12.0;

  /// Per-line cost of communication served by the shared L3 (pipelined
  /// transfer, cheaper than a DRAM miss but not free).
  double l3_hit_cycles = 14.0;

  /// Cost of a line exchanged between hyperthread siblings (L1/L2 hit).
  double same_core_hit_cycles = 6.0;

  /// Local DRAM bandwidth of one NUMA node (GB/s).
  double dram_gbps_per_node = 13.0;

  /// NUMAlink bandwidth per node link (GB/s) — Table I.
  double interconnect_gbps = 6.5;

  /// Stall multiplier for lines served from a remote node's DRAM.
  double remote_dram_factor = 1.6;

  /// "On modern Linux systems a context switch has a cost of about
  /// 100 ns" (Sec. VI-B1).
  double ctx_switch_ns = 100.0;

  /// Per-thread throughput factor when both hyperthread siblings of a
  /// core run compute threads.
  double smt_throughput_factor = 0.58;

  OsPolicy os_policy = OsPolicy::NumaPack;

  /// Peak DGEMM-class flops per cycle per core (AVX FMA on E5, SSE on E7;
  /// calibrated against the paper's single-socket MKL points).
  double dense_flops_per_cycle = 4.6;

  /// SMP12E5: 12 NUMA x 8 cores x 2 HT, E5-4620 2.6 GHz, NUMAlink6,
  /// Linux 3.10 (packing scheduler).
  static MachineModel smp12e5();

  /// SMP20E7: 20 NUMA x 8 cores, E7-8837 2.66 GHz, NUMAlink5 15 GB/s,
  /// Linux 2.6.32 (spreading scheduler).
  static MachineModel smp20e7();
};

/// The same machine restricted to its first `nodes` NUMA nodes — Fig. 6
/// runs the video application "in a hardware restricted environment ...
/// only 4 sockets (30 cores)".
MachineModel restricted(const MachineModel& m, int nodes);

}  // namespace orwl::sim
