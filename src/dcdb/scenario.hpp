// Scenario driver for the standalone commit-wait database family: two
// detailed DB replicas plus clients on a small datacenter fabric, with a
// *fixed* clock-uncertainty bound instead of a live clock-sync daemon.
// This isolates the commit-wait mechanism (paper §4.3's DB half): sweeping
// `clock_bound_us` reproduces the PTP-vs-NTP throughput/latency effect
// without simulating the clock protocols, and like every scenario family
// it builds an orch::System so partitioning, run modes, mixed fidelity,
// and profiling come from the Instantiation.
#pragma once

#include <vector>

#include "orch/instantiation.hpp"
#include "orch/verify.hpp"
#include "runtime/runner.hpp"
#include "util/stats.hpp"
#include "util/time.hpp"

namespace splitsim::dcdb {

struct DcdbScenarioConfig {
  // Topology scale (small datacenter; replicas in rack (0,0), clients
  // spread across the remaining racks).
  int n_agg = 2;
  int racks_per_agg = 2;
  int hosts_per_rack = 2;

  /// Fixed clock-uncertainty bound applied as commit-wait on every write
  /// (us). The paper's chrony-reported bounds are ~10-100s of us under NTP
  /// and single-digit us under PTP.
  double clock_bound_us = 50.0;

  /// Fixed local-clock offset of the replicas from true time (us): db0 runs
  /// +offset, db1 runs -offset. Default 0 = perfect clocks, so commit
  /// timestamps are externally consistent for any bound. Setting
  /// offset > clock_bound_us plants a *lying clock daemon*: the commit-wait
  /// no longer covers the actual error and the external-consistency
  /// invariant (mcheck) catches real-time-ordered writes with inverted
  /// commit timestamps.
  double server_clock_offset_us = 0.0;

  int db_clients = 2;
  int db_concurrency = 8;
  /// > 0: open-loop clients at this per-client op rate.
  double open_rate_per_client = 0.0;
  double zipf_theta = 2.0;
  std::uint64_t num_keys = 100;
  double write_fraction = 0.5;

  SimTime duration = from_ms(800.0);
  SimTime window_start = from_ms(200.0);

  /// Execution choices (run mode, pool workers, named partition strategy)
  /// and profiling, forwarded to the orch::Instantiation.
  orch::ExecSpec exec;
  orch::ProfileSpec profile;

  /// Deterministic fault-injection plan, forwarded to Instantiation::faults.
  orch::FaultSpec faults;

  /// Verification: when enabled, clients record OpRecord histories exposed
  /// in DcdbScenarioResult::ops (value_ts = server commit timestamp).
  orch::VerifySpec verify;

  /// Checkpoint/restart plan, forwarded to Instantiation::ckpt. The
  /// scenario stamps config_fp (when unset) from the family name and
  /// duration so a snapshot cannot resume a different workload.
  orch::CkptSpec ckpt;
};

struct DcdbScenarioResult {
  double write_throughput = 0.0;  ///< ops/s in window, all clients
  double read_throughput = 0.0;
  double write_latency_mean_us = 0.0;
  double write_latency_p99_us = 0.0;
  double read_latency_mean_us = 0.0;
  double mean_commit_wait_us = 0.0;
  std::uint64_t server_writes = 0;  ///< both replicas

  std::size_t components = 0;
  double wall_seconds = 0.0;
  runtime::EventDigest digest;  ///< cross-mode determinism digest of the run
  /// Client operation histories (empty unless cfg.verify.enabled), in
  /// client order.
  std::vector<orch::OpRecord> ops;
};

DcdbScenarioResult run_dcdb_scenario(const DcdbScenarioConfig& cfg);

}  // namespace splitsim::dcdb
