#include "orch/instantiation.hpp"

#include <algorithm>
#include <atomic>
#include <memory>
#include <stdexcept>

#include <unistd.h>

#include "ckpt/collector.hpp"
#include "ckpt/snapshot.hpp"
#include "clocksync/ptp.hpp"
#include "hostsim/cpu.hpp"
#include "obs/metrics.hpp"
#include "obs/summary.hpp"
#include "obs/trace.hpp"
#include "orch/partition.hpp"
#include "orch/proc.hpp"

namespace splitsim::orch {

std::string to_string(HostFidelity f) {
  switch (f) {
    case HostFidelity::kProtocol:
      return "protocol";
    case HostFidelity::kQemu:
      return "qemu";
    case HostFidelity::kGem5:
      return "gem5";
  }
  return "?";
}

namespace {

/// Stable string hash for per-host deterministic seeds.
std::uint64_t name_seed(const std::string& name) {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a
  for (char c : name) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace

Instantiated instantiate_system(runtime::Simulation& sim, const System& sys,
                                const Instantiation& inst) {
  // 1. Derive the simulator-agnostic topology.
  netsim::Topology topo;
  std::vector<int> topo_id(sys.component_count(), -1);
  for (std::size_t id = 0; id < sys.component_count(); ++id) {
    if (sys.is_host(static_cast<int>(id))) {
      const HostSpec& h = sys.hosts()[static_cast<std::size_t>(
          sys.host_index(static_cast<int>(id)))];
      bool detailed = inst.fidelity_of(h.name) != HostFidelity::kProtocol;
      topo_id[id] = detailed ? topo.add_external_host(h.name, h.ip)
                             : topo.add_host(h.name, h.ip);
    } else {
      const SwitchSpec& s = sys.switches()[static_cast<std::size_t>(
          sys.switch_index(static_cast<int>(id)))];
      topo_id[id] = topo.add_switch(s.name);
    }
  }
  for (const auto& l : sys.links()) {
    topo.add_link(topo_id[static_cast<std::size_t>(l.a)],
                  topo_id[static_cast<std::size_t>(l.b)], l.spec.bw, l.spec.latency,
                  l.spec.queue);
  }

  // 2. Partition (explicit partitioner wins over the named strategy) and
  // instantiate the network.
  std::vector<int> partition;
  if (inst.partitioner) {
    partition = inst.partitioner(topo);
  } else if (inst.exec.partition == "auto") {
    // Fallback resolution for hand-assembled systems: each calibration
    // candidate re-runs the app installers, so this path is only safe when
    // installers are pure. Scenario families resolve "auto" themselves
    // (resolve_auto_partition) and reset their collector state before the
    // real instantiation.
    partition = partition_topology_by_name(topo, resolve_auto_partition(sys, inst));
  } else if (!inst.exec.partition.empty()) {
    partition = partition_topology_by_name(topo, inst.exec.partition);
  }
  Instantiated out;
  out.net = netsim::instantiate(sim, topo, partition, inst.net_opts);

  // 3. Configure switches. The transparent-clock app installs first so a
  // `configure` hook that sets its own app consciously replaces it.
  for (const auto& s : sys.switches()) {
    auto it = out.net.switches.find(s.name);
    if (it == out.net.switches.end()) {
      throw std::logic_error("instantiate_system: missing switch " + s.name);
    }
    if (s.ptp_transparent_clock) {
      it->second->set_app(std::make_unique<clocksync::PtpTransparentClockApp>());
    }
    if (s.configure) s.configure(*it->second);
  }

  // 4. Build detailed hosts; collect contexts.
  for (const auto& h : sys.hosts()) {
    InstantiatedHost ih;
    ih.fidelity = inst.fidelity_of(h.name);
    if (ih.fidelity == HostFidelity::kProtocol) {
      auto it = out.net.hosts.find(h.name);
      if (it == out.net.hosts.end()) {
        throw std::logic_error("instantiate_system: missing host " + h.name);
      }
      ih.ctx.protocol = it->second;
    } else {
      auto pit = out.net.external_ports.find(h.name);
      if (pit == out.net.external_ports.end()) {
        throw std::logic_error("instantiate_system: missing external port for " + h.name);
      }
      const std::uint64_t seed = h.seed ? *h.seed : name_seed(h.name);
      hostsim::HostConfig hc = inst.host_template;
      hc.cpu.model = ih.fidelity == HostFidelity::kGem5 ? hostsim::CpuModel::kGem5
                                                        : hostsim::CpuModel::kQemu;
      hc.seed = seed;
      if (h.clock) hc.clock = *h.clock;
      nicsim::NicConfig nc = inst.nic_template;
      nc.seed = seed ^ 0xA5A5;
      if (h.phc_clock) nc.phc_clock = *h.phc_clock;
      if (h.tune) h.tune(hc, nc);
      ih.endhost = hostsim::attach_end_host(sim, pit->second, hc, nc);
      ih.ctx.detailed = ih.endhost.host;
      ih.ctx.nic = ih.endhost.nic;
      if (h.multicore) {
        ih.multicore = hostsim::build_parallel_multicore(sim, *h.multicore, h.name);
      }
    }
    out.hosts.emplace(h.name, std::move(ih));
  }

  // 5. Run application installers.
  for (const auto& h : sys.hosts()) {
    if (h.apps) h.apps(out.hosts[h.name].ctx);
  }

  out.component_count = sim.components().size();
  return out;
}

runtime::RunStats run_instantiated(runtime::Simulation& sim, const Instantiation& inst,
                                   SimTime end) {
  return run_profiled(sim, inst.profile, inst.exec, end,
                      inst.faults.any() ? &inst.faults : nullptr,
                      inst.ckpt.enabled() ? &inst.ckpt : nullptr);
}

/// Artifact writing shared by the success and failure paths of
/// run_profiled (and by process-mode children). By the time this runs,
/// Simulation::run has already torn down global obs state (on both paths),
/// so the trace/metrics data is final and exportable.
void write_run_artifacts(runtime::Simulation& sim, const ProfileSpec& profile,
                         const runtime::RunStats& stats, const obs::CkptSummary* ckpt) {
  const std::string dir = profile.artifact_dir();
  if (profile.trace) {
    obs::write_chrome_trace(profile.trace_out.empty() ? dir + "/trace.json"
                                                      : profile.trace_out);
  }
  if (profile.metrics_period_ms != 0) {
    obs::write_metrics_json(
        profile.metrics_out.empty() ? dir + "/metrics.json" : profile.metrics_out,
        sim.metrics_series());
  }
  // A checkpointed run records its snapshot/restore outcome in the summary
  // even when no other obs is on: the resume tooling reads it back.
  if (!profile.log_dir.empty() || profile.any_obs() || ckpt != nullptr) {
    profiler::ProfileReport report = profiler::build_report(stats);
    obs::SummaryInputs in;
    in.stats = &stats;
    in.report = &report;
    const auto& series = sim.metrics_series();
    if (!series.empty()) in.metrics = &series.back();
    in.traced = profile.trace;
    in.ckpt = ckpt;
    obs::write_summary_json(dir + "/summary.json", in);
  }
}

namespace {

/// Resolve a CkptSpec against the run: load the resume snapshot, check
/// config compatibility and boundary-grid alignment, default the snapshot
/// directory. Throws SimulationError(kCheckpoint) on any incompatibility —
/// before the (possibly expensive) run starts.
struct ResolvedCkpt {
  CkptSpec spec;
  ckpt::Snapshot resume;
  bool resuming = false;
  bool active() const { return spec.every != 0; }
};

ResolvedCkpt resolve_ckpt(const CkptSpec& in, const ProfileSpec& profile, SimTime end) {
  ResolvedCkpt r;
  r.spec = in;
  if (!r.spec.resume_from.empty()) {
    r.resuming = true;
    r.resume = ckpt::load_resume(r.spec.resume_from);
    if (r.spec.config_fp != 0 && r.resume.config_fp != 0 &&
        r.spec.config_fp != r.resume.config_fp) {
      throw runtime::SimulationError(
          runtime::ErrorKind::kCheckpoint, "", 0,
          "snapshot '" + r.spec.resume_from +
              "' was taken from a different scenario configuration (config fingerprint " +
              std::to_string(r.resume.config_fp) + ", this run has " +
              std::to_string(r.spec.config_fp) + ")");
    }
    // Elastic resume may retune the checkpoint grid, but the grid must
    // still hit the snapshot's boundary — otherwise the replay would never
    // be verified against it.
    if (r.spec.every == 0) {
      r.spec.every = r.resume.every != 0 ? r.resume.every : r.resume.boundary;
    }
    if (r.spec.every == 0 || r.resume.boundary % r.spec.every != 0) {
      throw runtime::SimulationError(
          runtime::ErrorKind::kCheckpoint, "", r.resume.boundary,
          "checkpoint interval " + std::to_string(to_ns(r.spec.every)) +
              " ns does not hit the snapshot boundary of '" + r.spec.resume_from + "' at " +
              std::to_string(to_ns(r.resume.boundary)) + " ns");
    }
    if (r.resume.boundary >= end) {
      throw runtime::SimulationError(
          runtime::ErrorKind::kCheckpoint, "", r.resume.boundary,
          "snapshot boundary of '" + r.spec.resume_from + "' at " +
              std::to_string(to_ns(r.resume.boundary)) +
              " ns is at or past this run's end (" + std::to_string(to_ns(end)) + " ns)");
    }
  }
  if (r.active() && r.spec.dir.empty()) r.spec.dir = profile.artifact_dir() + "/ckpt";
  return r;
}

obs::CkptSummary make_ckpt_summary(const ResolvedCkpt& rc, const ckpt::Collector* c) {
  obs::CkptSummary s;
  s.enabled = true;
  s.dir = rc.spec.dir;
  if (c != nullptr) {
    s.snapshots_written = c->snapshots_written();
    s.last_boundary_ms = to_ms(c->last_boundary());
  }
  if (rc.resuming) {
    s.resumed = true;
    s.resume_boundary_ms = to_ms(rc.resume.boundary);
    s.resume_verified = c != nullptr && c->resume_verified();
  }
  return s;
}

}  // namespace

runtime::RunStats run_profiled(runtime::Simulation& sim, const ProfileSpec& profile,
                               const ExecSpec& exec, SimTime end, const FaultSpec* faults,
                               const CkptSpec* ckpt_spec) {
  // Checkpoint resolution runs first: a bad resume source or incompatible
  // config must fail before anything simulates.
  ResolvedCkpt rc;
  if (ckpt_spec != nullptr && ckpt_spec->enabled()) {
    rc = resolve_ckpt(*ckpt_spec, profile, end);
  }
  // Killer faults are one-shot: the throw that ended the first attempt must
  // not kill the resumed run too. Channel-fault and stall rules stay — they
  // shape (or deliberately don't shape) the deterministic stream the replay
  // has to reproduce.
  FaultSpec resumed_faults;
  if (rc.resuming && faults != nullptr && !faults->throws.empty()) {
    resumed_faults = *faults;
    resumed_faults.throws.clear();
    faults = resumed_faults.any() ? &resumed_faults : nullptr;
  }

  obs::ObsConfig oc;
  oc.trace = profile.trace;
  oc.metrics_period_ms = profile.metrics_period_ms;
  oc.progress_period_ms = profile.progress_period_ms;
  sim.set_obs(oc);
  if (faults != nullptr) apply_fault_spec(sim, *faults);

  // Process mode: fork one child per process group; faults were applied
  // above, so children inherit them identically. run_multiprocess itself
  // writes every merged artifact (trace shards merged into one Perfetto
  // trace, the fleet metrics series, the merged summary with per-process /
  // fleet / critical-path sections) on success and failure alike, so there
  // is nothing left to write here. A plan with one group has nothing to
  // split: it runs in-process threaded below, and like every process-mode
  // run it always writes its run record. Checkpointing then takes the
  // single-process form, which load_resume handles uniformly, so elastic
  // resume across process counts includes 1.
  runtime::RunMode run_mode = exec.run_mode;
  ProfileSpec artifacts = profile;
  if (exec.processes) {
    ProcessPlan plan = plan_processes(sim, exec);
    if (plan.groups.size() >= 2) {
      return run_multiprocess(sim, profile, exec, plan, end,
                              rc.active() ? &rc.spec : nullptr,
                              rc.resuming ? &rc.resume : nullptr);
    }
    run_mode = runtime::RunMode::kThreaded;
    artifacts.log_dir = profile.artifact_dir();
  } else if (exec.transport != "inproc") {
    // Single-process transport swap: the cut channels run over real shm
    // segments / localhost sockets while both ends stay here. This is the
    // digest-parity harness for the transport layer; it forces threaded
    // mode (cross-process transports only support blocking channels).
    static std::atomic<std::uint64_t> swap_seq{0};
    ProcessPlan plan = plan_processes(sim, exec);
    swap_transports_local(sim, plan, exec.transport,
                          "l" + std::to_string(::getpid()) + "." +
                              std::to_string(swap_seq.fetch_add(1)));
    run_mode = runtime::RunMode::kThreaded;
  }

  // Checkpoint collector: hooks every active component at the boundary
  // grid; on a resume it also verifies the replay when it crosses the
  // snapshot boundary (throwing kCheckpoint out of the run on divergence).
  ckpt::CollectorOptions co;
  co.every = rc.spec.every;
  co.end = end;
  co.dir = rc.spec.dir;
  co.keep_last = rc.spec.keep_last;
  co.config_fp = rc.spec.config_fp;
  co.resume = rc.resuming ? &rc.resume : nullptr;
  co.resume_path = rc.spec.resume_from;
  ckpt::ScopedCollector collector(sim, co);

  runtime::RunStats stats;
  try {
    stats = sim.run(end, run_mode, exec.pool_workers);
  } catch (const runtime::SimulationError& e) {
    // Failed run: salvage the partial stats attached to the error so the
    // profile of everything up to the failure still lands on disk.
    if (e.stats() != nullptr) {
      obs::CkptSummary cks;
      if (rc.active()) cks = make_ckpt_summary(rc, collector.get());
      write_run_artifacts(sim, artifacts, *e.stats(), rc.active() ? &cks : nullptr);
    }
    throw;
  }
  if (collector.get() != nullptr) collector.get()->require_resume_verified();

  obs::CkptSummary cks;
  if (rc.active()) cks = make_ckpt_summary(rc, collector.get());
  write_run_artifacts(sim, artifacts, stats, rc.active() ? &cks : nullptr);
  return stats;
}

// ---- partition auto-selection --------------------------------------------

namespace {

/// The strategies "auto" chooses among (orch/partition.hpp names).
const char* const kAutoCandidates[] = {"s", "ac", "cr3", "cr1", "rs"};

/// Calibration quantum: this fraction of the real run, at least kMinQuantum
/// (kNoDurationQuantum when the run length is unknown).
constexpr SimTime kQuantumDivisor = 8;
constexpr SimTime kMinQuantum = 200 * timeunit::us;
constexpr SimTime kNoDurationQuantum = 2 * timeunit::ms;

}  // namespace

PartitionCalibration calibrate_partition(const System& sys, const Instantiation& inst,
                                         SimTime full_duration) {
  SimTime q = kNoDurationQuantum;
  if (full_duration != 0) {
    q = std::min(std::max(full_duration / kQuantumDivisor, kMinQuantum), full_duration);
  }

  PartitionCalibration out;
  out.quantum = q;
  for (const char* cand : kAutoCandidates) {
    Instantiation trial = inst;
    trial.exec.partition = cand;
    // Calibration runs are throwaway: no artifacts, and no faults/verify —
    // fault rules match channel names, which change with the partition,
    // and apply_fault_spec fails loudly on unmatched rules.
    trial.faults = FaultSpec{};
    trial.verify = VerifySpec{};
    trial.profile = ProfileSpec{};
    trial.profile.perf_model = inst.profile.perf_model;

    PartitionCandidate pc;
    pc.name = cand;
    try {
      runtime::Simulation scratch;
      instantiate_system(scratch, sys, trial);
      runtime::RunStats st = scratch.run(q, trial.exec.run_mode, trial.exec.pool_workers);
      if (trial.exec.run_mode == runtime::RunMode::kCoscheduled) {
        // Coscheduled calibration measures per-component load, not real
        // parallelism — rank by projected speed on the cost model, exactly
        // how fig9 ranks strategies.
        profiler::ProfileReport rep = profiler::build_report(st);
        pc.score = profiler::project_sim_speed(rep, trial.profile.perf_model);
      } else {
        pc.score = st.wall_seconds > 0.0 ? to_sec(q) / st.wall_seconds : 0.0;
      }
    } catch (const runtime::SimulationError&) {
      pc.failed = true;  // e.g. a strategy inapplicable to this topology
    }
    out.candidates.push_back(std::move(pc));
  }

  const PartitionCandidate* best = nullptr;
  for (const auto& pc : out.candidates) {
    if (pc.failed) continue;
    if (best == nullptr || pc.score > best->score) best = &pc;
  }
  out.chosen = best != nullptr ? best->name : "s";
  return out;
}

std::string resolve_auto_partition(const System& sys, const Instantiation& inst,
                                   SimTime full_duration) {
  return calibrate_partition(sys, inst, full_duration).chosen;
}

}  // namespace splitsim::orch
