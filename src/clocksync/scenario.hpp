// Scenario driver for the clock-synchronization case study (paper §4.3):
// a datacenter topology full of protocol-level background hosts doing bulk
// transfers, plus detailed end hosts — a clock server (NTP server or PTP
// grandmaster), CockroachDB-like replicas running chrony (+ptp4l), and DB
// clients. Used by tests, examples, and the §4.3 bench.
#pragma once

#include <string>
#include <vector>

#include "orch/instantiation.hpp"
#include "orch/verify.hpp"
#include "runtime/runner.hpp"
#include "util/stats.hpp"
#include "util/time.hpp"

namespace splitsim::clocksync {

struct ClockSyncScenarioConfig {
  bool use_ptp = false;  ///< false: NTP; true: PTP (+TC switches, PHC refclock)

  // Topology scale; the paper's configuration is 4 aggs x 6 racks x 50
  // hosts = 1200 (tests use smaller instances).
  int n_agg = 2;
  int racks_per_agg = 2;
  int hosts_per_rack = 5;

  /// Fraction of background hosts participating in random-pair transfers.
  double bg_fraction = 1.0;
  double bg_rate_bps = 400e6;  ///< per background flow
  int db_clients = 4;
  bool run_db = true;
  int db_concurrency = 16;
  /// > 0: open-loop DB clients at this per-client op rate (fixed offered
  /// load, as in the paper's evaluation).
  double db_open_rate_per_client = 0.0;
  // `social`-style workload: read-mostly with skewed keys; hot-key write
  // locks make commit-wait the dominant serialization cost.
  double db_zipf_theta = 2.0;
  std::uint64_t db_num_keys = 100;
  double db_write_fraction = 0.5;

  SimTime ntp_poll = from_ms(200.0);
  SimTime ptp_sync_interval = from_ms(50.0);
  SimTime duration = from_sec(3.0);
  SimTime window_start = from_sec(1.5);

  std::uint64_t seed = 1;

  /// Execution choices (run mode, pool workers, named partition strategy)
  /// and profiling, forwarded to the orch::Instantiation.
  orch::ExecSpec exec;
  orch::ProfileSpec profile;

  /// Deterministic fault-injection plan, forwarded to Instantiation::faults.
  orch::FaultSpec faults;

  /// Verification: when enabled, DB clients record OpRecord histories
  /// exposed in ClockSyncScenarioResult::ops. Commit timestamps come from
  /// each replica's *disciplined system clock* (chrony-steered), so the
  /// external-consistency invariant checks the real commit-wait guarantee.
  orch::VerifySpec verify;

  /// Checkpoint/restart plan, forwarded to Instantiation::ckpt. The
  /// scenario stamps config_fp (when unset) from the family name and
  /// duration so a snapshot cannot resume a different workload.
  orch::CkptSpec ckpt;
};

struct ClockSyncScenarioResult {
  // Clock accuracy bound reported by chrony on the DB servers (us).
  double mean_bound_us = 0.0;
  double max_bound_us = 0.0;
  // Ground truth |system clock - true time| on the DB servers (us).
  double mean_true_offset_us = 0.0;
  double max_true_offset_us = 0.0;
  /// Fraction of samples where the reported bound covered the true offset.
  double bound_coverage = 0.0;

  // Database results.
  double write_throughput = 0.0;  ///< ops/s in window, all clients
  double read_throughput = 0.0;
  double write_latency_mean_us = 0.0;
  double write_latency_p99_us = 0.0;
  double read_latency_mean_us = 0.0;
  double mean_commit_wait_us = 0.0;

  std::size_t components = 0;
  std::size_t simulated_hosts = 0;
  double wall_seconds = 0.0;
  runtime::EventDigest digest;  ///< cross-mode determinism digest of the run
  /// DB client operation histories (empty unless cfg.verify.enabled), in
  /// client order; value_ts = replica commit timestamp (disciplined clock).
  std::vector<orch::OpRecord> ops;
};

ClockSyncScenarioResult run_clocksync_scenario(const ClockSyncScenarioConfig& cfg);

}  // namespace splitsim::clocksync
