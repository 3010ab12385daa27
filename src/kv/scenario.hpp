// End-to-end scenario driver for the in-network processing case study
// (paper §4.2): NetCache or Pegasus, at protocol-level, end-to-end, or
// mixed fidelity. Used by tests, examples, and the Fig. 4/5 benches.
#pragma once

#include <string>
#include <vector>

#include "hostsim/cpu.hpp"
#include "kv/apps.hpp"
#include "orch/instantiation.hpp"
#include "runtime/runner.hpp"
#include "util/stats.hpp"

namespace splitsim::kv {

enum class SystemKind { kNetCache, kPegasus };
enum class FidelityMode {
  kProtocol,  ///< everything in netsim (ns-3-level)
  kEndToEnd,  ///< every host detailed (host sim + NIC sim)
  kMixed,     ///< servers detailed, clients protocol-level
};

std::string to_string(SystemKind k);
std::string to_string(FidelityMode m);

struct ScenarioConfig {
  SystemKind system = SystemKind::kNetCache;
  FidelityMode mode = FidelityMode::kEndToEnd;

  int n_servers = 2;  ///< paper: two servers, three clients, one switch
  int n_clients = 3;
  /// In mixed mode, this many clients are *additionally* simulated in
  /// detail (paper Fig. 5 uses one qemu client among ns-3 clients).
  int detailed_clients = 0;

  double per_client_rate = 150e3;  ///< open-loop offered load (req/s/client)
  KvClientConfig client;           ///< zipf/write-mix template
  KvServerConfig server;
  hostsim::CpuModel host_model = hostsim::CpuModel::kQemu;

  Bandwidth link_bw = Bandwidth::gbps(10);
  SimTime link_latency = from_us(1.0);

  SimTime duration = from_ms(60.0);
  SimTime window_start = from_ms(15.0);

  /// Execution choices (run mode, pool workers, named partition strategy)
  /// and profiling, forwarded to the orch::Instantiation.
  orch::ExecSpec exec;
  orch::ProfileSpec profile;

  /// Deterministic fault-injection plan, forwarded to Instantiation::faults
  /// (empty = no faults; fault sweeps need no hand-built Instantiation).
  orch::FaultSpec faults;

  /// Verification: when enabled, clients record OpRecord histories exposed
  /// in ScenarioResult::ops (forwarded to Instantiation::verify).
  orch::VerifySpec verify;

  /// Checkpoint/restart plan, forwarded to Instantiation::ckpt. The
  /// scenario stamps config_fp (when unset) from the family name and
  /// duration so a snapshot cannot resume a different workload.
  orch::CkptSpec ckpt;
};

struct ScenarioResult {
  double throughput_ops = 0.0;   ///< completed ops/s in the window, all clients
  double read_ops = 0.0;
  double write_ops = 0.0;
  /// Latencies (us) split by client fidelity.
  Summary latency_protocol_clients;
  Summary latency_detailed_clients;
  std::vector<double> server_utilization;  ///< detailed servers only
  std::vector<std::uint64_t> server_requests;  ///< per-server ops served
  std::size_t components = 0;  ///< simulator instances ("cores" in the paper)
  double wall_seconds = 0.0;
  std::uint64_t switch_served = 0;
  runtime::EventDigest digest;  ///< cross-mode determinism digest of the run
  /// Client operation histories (empty unless cfg.verify.enabled), in
  /// client order — protocol clients first, then detailed clients.
  std::vector<orch::OpRecord> ops;
};

ScenarioResult run_kv_scenario(const ScenarioConfig& cfg);

}  // namespace splitsim::kv
