// Instantiation choices (paper §3.4.2): maps a System configuration onto
// concrete simulator choices — per-host fidelity (protocol-level netsim,
// qemu-fidelity, or gem5-fidelity detailed hosts with NIC simulators), a
// network partition strategy, execution-mode choices, and profiling —
// producing wired-up components inside a runtime::Simulation. The same
// System can be instantiated many different ways; that separation is the
// point.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "hostsim/endhost.hpp"
#include "netsim/topology.hpp"
#include "orch/fault.hpp"
#include "orch/system.hpp"
#include "orch/verify.hpp"
#include "profiler/profiler.hpp"

namespace splitsim::obs {
struct CkptSummary;
}

namespace splitsim::orch {

enum class HostFidelity {
  kProtocol,  ///< netsim application host ("ns-3 host")
  kQemu,      ///< detailed host, instruction-counting CPU
  kGem5,      ///< detailed host, timing CPU
};

std::string to_string(HostFidelity f);

/// Execution choices shared by every scenario family and bench: how the
/// instantiated simulation is scheduled onto the machine and how the
/// network is decomposed. Like fidelity, these are instantiation-time
/// decisions — the System being simulated is unaffected (application-level
/// results are identical across run modes and partition strategies).
struct ExecSpec {
  runtime::RunMode run_mode = runtime::RunMode::kCoscheduled;
  /// Worker count for RunMode::kPooled (0 = hardware concurrency).
  unsigned pool_workers = 0;
  /// Named network partition strategy applied to the derived topology
  /// ("s", "ac", "crN", "rs", "pn"; see orch/partition.hpp). Empty = one
  /// network process. Ignored when Instantiation::partitioner is set.
  /// "auto" calibrates candidate strategies with a short run and keeps
  /// the best (calibrate_partition) — scenario families resolve it before
  /// their real instantiation; instantiate_system also resolves it as a
  /// fallback for hand-assembled systems with pure app installers.
  std::string partition;
  /// Data path for the partition-cut channels (trunks, ".cut." channels,
  /// external-host links): "inproc" (heap rings, the default), "shm"
  /// (named shared-memory segments + futex parking) or "socket" (TCP
  /// trunks). A non-inproc transport forces RunMode::kThreaded — the
  /// cross-process-capable transports support only blocking channels.
  std::string transport = "inproc";
  /// Run each process group (orch/proc.hpp) as its own forked OS process,
  /// with the cut channels over `transport` ("inproc" is promoted to
  /// "shm"). The per-process digests merge to the single-process digest
  /// bit-identically.
  bool processes = false;
  /// Optional explicit group→process-rank assignment by group name (the
  /// first component of the group); groups sharing a rank merge into one
  /// process. Groups not mentioned keep their own process.
  std::map<std::string, int> process_of;
};

/// Profiler + observability knobs (paper §3.3 run record plus the obs
/// layer: tracing, metrics, progress). Every artifact a run produces — the run
/// record summary.json, `wtpg*.dot`, trace/metrics JSON — lands under
/// artifact_dir(), never the current directory.
struct ProfileSpec {
  /// When non-empty, every run writes its run record (summary.json,
  /// obs/summary.hpp) into this directory, and it becomes artifact_dir()
  /// for every other generated file. With the default (empty) spec a run
  /// writes no file.
  std::string log_dir;
  /// Cost model for projected-speed reporting (profiler::project_*).
  profiler::PerfModelConfig perf_model;

  // ---- observability (splitsim::obs) ----------------------------------
  /// Record a Chrome trace (obs/trace.hpp) and export it after the run.
  bool trace = false;
  /// Metrics snapshot period in wall milliseconds (0 = metrics off).
  std::uint64_t metrics_period_ms = 0;
  /// Live progress-line period in wall milliseconds (0 = progress off).
  std::uint64_t progress_period_ms = 0;
  /// Output paths; empty = artifact_dir()/trace.json, /metrics.json.
  std::string trace_out;
  std::string metrics_out;

  bool any_obs() const { return trace || metrics_period_ms != 0 || progress_period_ms != 0; }

  /// Directory all generated artifacts are routed through.
  std::string artifact_dir() const { return log_dir.empty() ? "splitsim-out" : log_dir; }
};

/// Checkpoint/restart choices (src/ckpt/). Checkpointing is a run-level
/// concern like profiling: it never changes simulated behavior, and a
/// snapshot taken under one ExecSpec may resume under a different one
/// (elastic re-instantiation; see ckpt/snapshot.hpp for the model).
struct CkptSpec {
  /// Snapshot period in simulated time (quantum-boundary grid). 0 disables
  /// periodic snapshots; a resume with 0 adopts the snapshot's own grid.
  SimTime every = 0;
  /// Snapshot directory. Empty = "<artifact_dir>/ckpt" when checkpointing
  /// is on.
  std::string dir;
  /// Keep only the newest N snapshots (0 = keep all).
  std::size_t keep_last = 0;
  /// Resume source: a snapshot file or a snapshot directory (the newest
  /// complete boundary is used). Empty = fresh run.
  std::string resume_from;
  /// Scenario configuration fingerprint stamped into snapshots and checked
  /// on resume (0 = unchecked). Scenario families fill this from their
  /// config so a snapshot cannot silently resume a different workload.
  std::uint64_t config_fp = 0;

  bool enabled() const { return every != 0 || !resume_from.empty(); }
};

/// Fingerprint helper for scenario families: folds the family name and the
/// run duration (the two things every scenario config pins) into a
/// CkptSpec::config_fp.
inline std::uint64_t ckpt_fingerprint(const std::string& family, SimTime duration) {
  std::uint64_t h = 1469598103934665603ull;
  for (char c : family) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h ^ (duration * 0x9E3779B97F4A7C15ull + 1);
}

struct Instantiation {
  HostFidelity default_fidelity = HostFidelity::kProtocol;
  std::map<std::string, HostFidelity> fidelity_overrides;

  /// Execution choices: run mode, pool workers, named partition strategy.
  ExecSpec exec;

  /// Profiler enablement for this instantiation.
  ProfileSpec profile;

  /// Deterministic fault-injection plan (orch/fault.hpp); empty = no
  /// faults, and runs are bit-identical to a spec-free instantiation.
  FaultSpec faults;

  /// Verification knobs (orch/verify.hpp): scenario families consult this
  /// to record client operation histories for invariant checking (mcheck).
  /// Recording never changes simulated behavior — digests are identical
  /// with it on or off.
  VerifySpec verify;

  /// Checkpoint/restart plan (src/ckpt/): periodic boundary snapshots
  /// and/or resuming from an earlier run's snapshot.
  CkptSpec ckpt;

  /// Explicit network partition: maps the derived topology to per-node
  /// partition ids; overrides exec.partition. Empty result or null
  /// function (with empty exec.partition) = one network process.
  std::function<std::vector<int>(const netsim::Topology&)> partitioner;

  /// Templates for detailed hosts/NICs (ip/seed/per-host specs filled per
  /// host; see HostSpec).
  hostsim::HostConfig host_template;
  nicsim::NicConfig nic_template;
  netsim::InstantiateOptions net_opts;

  HostFidelity fidelity_of(const std::string& host_name) const {
    auto it = fidelity_overrides.find(host_name);
    return it == fidelity_overrides.end() ? default_fidelity : it->second;
  }
};

struct InstantiatedHost {
  HostFidelity fidelity = HostFidelity::kProtocol;
  HostContext ctx;
  hostsim::EndHost endhost;  ///< set for detailed hosts
  /// Decomposed core complex (set when HostSpec::multicore was given and
  /// the host is detailed).
  hostsim::ParallelMulticore multicore;
};

struct Instantiated {
  netsim::Instance net;
  std::map<std::string, InstantiatedHost> hosts;

  /// Total simulator instances (the paper's "cores used" accounting).
  std::size_t component_count = 0;
};

/// Build all components for `sys` under the choices in `inst`. Applies the
/// named partition strategy (exec.partition) or the explicit partitioner,
/// installs PTP transparent clocks and switch apps, builds detailed
/// hosts/NICs (and decomposed multicore complexes) with per-host specs, and
/// enables profiling when requested.
Instantiated instantiate_system(runtime::Simulation& sim, const System& sys,
                                const Instantiation& inst);

/// Run an instantiated simulation under the execution choices in `inst`
/// (exec.run_mode + exec.pool_workers). Writes the run's artifacts as
/// run_profiled does. Thin wrapper over
/// Simulation::run so callers that go through the orchestration layer pick
/// up the knobs automatically.
runtime::RunStats run_instantiated(runtime::Simulation& sim, const Instantiation& inst,
                                   SimTime end);

/// Run `sim` under `exec` with the observability/profiling behavior of
/// `profile`: configures Simulation::set_obs from the ProfileSpec, applies
/// `faults` when given, runs, and writes every requested artifact
/// (trace.json, metrics.json, summary.json) into profile.artifact_dir().
/// This is the single run entry point shared by run_instantiated and the
/// hand-assembled benches.
///
/// On failure the SimulationError propagates, but the artifacts are written
/// first from the partial RunStats attached to it — a run that dies hours
/// in still leaves its profile on disk (summary.json records the outcome
/// and the error).
/// `ckpt`, when given and enabled, takes periodic boundary snapshots and/or
/// resumes from an earlier snapshot (loading it, verifying config
/// compatibility, replaying deterministically, and checking the replay
/// against the snapshot at its boundary — kCheckpoint on divergence). A
/// resume strips FaultSpec::throws: killer faults are one-shot, a resumed
/// run must get past the one that ended the first attempt.
runtime::RunStats run_profiled(runtime::Simulation& sim, const ProfileSpec& profile,
                               const ExecSpec& exec, SimTime end,
                               const FaultSpec* faults = nullptr,
                               const CkptSpec* ckpt = nullptr);

/// Write every artifact requested by `profile` (trace.json, metrics.json,
/// summary.json) into profile.artifact_dir() from `stats`. summary.json,
/// the run record, is written whenever profile.log_dir is set, obs is on
/// or `ckpt` is given. Shared by run_profiled's success and salvage paths
/// and by the multi-process children, each of which writes its own record
/// under proc-<rank>/ for the parent to read back (obs::read_run_stats).
/// `ckpt`, when given, is recorded in summary.json.
void write_run_artifacts(runtime::Simulation& sim, const ProfileSpec& profile,
                         const runtime::RunStats& stats,
                         const obs::CkptSummary* ckpt = nullptr);

// ---- partition auto-selection (ExecSpec::partition == "auto") -----------

/// One candidate's calibration outcome.
struct PartitionCandidate {
  std::string name;
  /// Projected simulation speed for coscheduled calibration runs
  /// (profiler::project_sim_speed — ranks strategies the way fig9 does),
  /// measured sim-seconds-per-wall-second otherwise. Higher is better.
  double score = 0.0;
  bool failed = false;  ///< candidate run threw (scored last)
};

struct PartitionCalibration {
  std::string chosen;
  SimTime quantum = 0;  ///< simulated time each candidate ran for
  std::vector<PartitionCandidate> candidates;
};

/// Run a short calibration quantum of `sys` under each of the strategies
/// s, ac, cr3, cr1 and rs and rank them. The quantum is `full_duration`/8
/// (the intended real-run length; at least 200 us, at most the whole run),
/// or 2 ms when `full_duration` is 0.
///
/// Each candidate gets a scratch Simulation via instantiate_system with
/// faults/verify/artifacts stripped (fault rules match channel names,
/// which change with the partition). Caveat: application installers run
/// once per candidate — callers whose installers capture external state
/// (the scenario families' client collectors) must clear that state after
/// calibration, before the real instantiation.
PartitionCalibration calibrate_partition(const System& sys, const Instantiation& inst,
                                         SimTime full_duration = 0);

/// calibrate_partition, reduced to the winning strategy name.
std::string resolve_auto_partition(const System& sys, const Instantiation& inst,
                                   SimTime full_duration = 0);

}  // namespace splitsim::orch
