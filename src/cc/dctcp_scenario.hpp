// Congestion-control case study (paper §4.4, Fig. 6): DCTCP bulk transfers
// over a dumbbell with a 10G bottleneck, sweeping the ECN marking
// threshold, in three fidelity configurations:
//   protocol  — all four hosts in netsim (the common ns-3 methodology)
//   mixed     — one pair of detailed (gem5) hosts, one protocol pair
//   end2end   — all four hosts detailed (gem5 + NIC simulators)
// Host-internal behavior (stack costs, NIC serialization, CPU-queueing
// jitter) lengthens and jitters the effective RTT, so small marking
// thresholds hurt detailed hosts more — protocol-level simulation
// overestimates throughput, while mixed fidelity tracks end-to-end.
#pragma once

#include <string>

#include "hostsim/cpu.hpp"
#include "orch/instantiation.hpp"
#include "runtime/runner.hpp"

namespace splitsim::cc {

enum class DctcpMode { kProtocol, kMixed, kEndToEnd };

std::string to_string(DctcpMode m);

struct DctcpScenarioConfig {
  DctcpMode mode = DctcpMode::kEndToEnd;
  std::uint32_t marking_threshold_pkts = 65;  ///< K, the swept parameter

  int pairs = 2;  ///< paper: two hosts on each side of the bottleneck
  Bandwidth edge_bw = Bandwidth::gbps(10);
  Bandwidth bottleneck_bw = Bandwidth::gbps(10);
  SimTime edge_latency = from_us(5.0);
  SimTime bottleneck_latency = from_us(20.0);
  std::uint32_t queue_capacity_pkts = 600;

  /// Bulk transfers use segmentation-offload-like amortized stack costs.
  std::uint64_t tcp_send_instrs = 900;
  std::uint64_t tcp_recv_instrs = 1'200;
  /// NIC interrupt moderation on the detailed hosts (i40e default ITR).
  SimTime rx_intr_throttle = from_us(10.0);

  SimTime duration = from_ms(40.0);
  SimTime window_start = from_ms(10.0);

  /// Execution choices (run mode, pool workers, named partition strategy)
  /// and profiling, forwarded to the orch::Instantiation.
  orch::ExecSpec exec;
  orch::ProfileSpec profile;

  /// Deterministic fault-injection plan, forwarded to Instantiation::faults.
  orch::FaultSpec faults;

  /// Checkpoint/restart plan, forwarded to Instantiation::ckpt. The
  /// scenario stamps config_fp (when unset) from the family name and
  /// duration so a snapshot cannot resume a different workload.
  orch::CkptSpec ckpt;
};

struct DctcpScenarioResult {
  /// Mean per-flow goodput of the instrumented flows (Gbps): detailed
  /// flows where present, otherwise protocol flows.
  double measured_goodput_gbps = 0.0;
  double aggregate_goodput_gbps = 0.0;
  double detailed_goodput_gbps = 0.0;  ///< 0 when no detailed pair
  double protocol_goodput_gbps = 0.0;  ///< 0 when no protocol pair
  std::uint64_t bottleneck_ecn_marks = 0;
  std::uint64_t bottleneck_drops = 0;
  std::size_t components = 0;
  double wall_seconds = 0.0;
  runtime::EventDigest digest;  ///< cross-mode determinism digest of the run
};

DctcpScenarioResult run_dctcp_scenario(const DctcpScenarioConfig& cfg);

}  // namespace splitsim::cc
