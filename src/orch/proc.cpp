#include "orch/proc.hpp"

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <numeric>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include "ckpt/collector.hpp"
#include "obs/control.hpp"
#include "obs/merge.hpp"
#include "obs/summary.hpp"
#include "obs/trace.hpp"
#include "runtime/procrunner.hpp"
#include "sync/digest.hpp"
#include "sync/shm.hpp"
#include "sync/socket.hpp"
#include "sync/trunk.hpp"
#include "util/cycles.hpp"

namespace splitsim::orch {

namespace {

/// Union-find over component indices.
class Dsu {
 public:
  explicit Dsu(std::size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }
  std::size_t find(std::size_t x) {
    while (parent_[x] != x) x = parent_[x] = parent_[parent_[x]];
    return x;
  }
  void unite(std::size_t a, std::size_t b) { parent_[find(a)] = find(b); }

 private:
  std::vector<std::size_t> parent_;
};

/// Map every channel end to its owning component index and its adapter.
struct EndOwners {
  std::unordered_map<const sync::ChannelEnd*, std::size_t> component;
  std::unordered_map<const sync::ChannelEnd*, sync::Adapter*> adapter;
};

EndOwners map_ends(runtime::Simulation& sim) {
  EndOwners out;
  const auto& comps = sim.components();
  for (std::size_t i = 0; i < comps.size(); ++i) {
    for (const auto& a : comps[i]->adapters()) {
      out.component[&a->end()] = i;
      out.adapter[&a->end()] = a.get();
    }
  }
  return out;
}

/// Fold of a trunk's sub-channel ids (0 for plain adapters) — both ends
/// must agree, which the cross-process handshake verifies.
std::uint64_t channel_map_hash(const EndOwners& owners, sync::Channel& ch) {
  for (const sync::ChannelEnd* e : {&ch.end_a(), &ch.end_b()}) {
    auto it = owners.adapter.find(e);
    if (it == owners.adapter.end()) continue;
    if (auto* trunk = dynamic_cast<sync::TrunkAdapter*>(it->second)) {
      std::vector<std::uint16_t> ids = trunk->subport_ids();
      if (ids.empty()) return 0;
      return sync::fnv1a(ids.data(), ids.size() * sizeof(std::uint16_t));
    }
  }
  return 0;
}

}  // namespace

bool is_cut_channel(const std::string& name) {
  return name.find(".trunk.") != std::string::npos ||
         name.find(".cut.") != std::string::npos || name.rfind("eth-", 0) == 0;
}

int ProcessPlan::group_of(const std::string& component) const {
  for (std::size_t g = 0; g < groups.size(); ++g) {
    const auto& c = groups[g].components;
    if (std::find(c.begin(), c.end(), component) != c.end()) return static_cast<int>(g);
  }
  return -1;
}

ProcessPlan plan_processes(runtime::Simulation& sim, const ExecSpec& exec) {
  const auto& comps = sim.components();
  EndOwners owners = map_ends(sim);
  Dsu dsu(comps.size());

  // Cluster: components joined by any non-cut channel share a process.
  for (auto& ch : sim.channels()) {
    if (is_cut_channel(ch->name())) continue;
    auto a = owners.component.find(&ch->end_a());
    auto b = owners.component.find(&ch->end_b());
    if (a == owners.component.end() || b == owners.component.end()) continue;
    dsu.unite(a->second, b->second);
  }

  // Natural groups, ordered by their first component in construction order
  // (stable across processes — every process builds the same simulation).
  std::vector<std::size_t> roots(comps.size());
  for (std::size_t i = 0; i < comps.size(); ++i) roots[i] = dsu.find(i);
  std::map<std::size_t, std::size_t> first_member;  // root -> first index
  for (std::size_t i = 0; i < comps.size(); ++i) first_member.emplace(roots[i], i);
  std::vector<std::pair<std::size_t, std::size_t>> ordered;  // (first, root)
  for (auto& [root, first] : first_member) ordered.emplace_back(first, root);
  std::sort(ordered.begin(), ordered.end());

  ProcessPlan plan;
  std::unordered_map<std::size_t, int> group_of_root;
  for (auto& [first, root] : ordered) {
    ProcessGroup g;
    g.name = comps[first]->name();
    group_of_root.emplace(root, static_cast<int>(plan.groups.size()));
    plan.groups.push_back(std::move(g));
  }
  for (std::size_t i = 0; i < comps.size(); ++i) {
    plan.groups[static_cast<std::size_t>(group_of_root[roots[i]])].components.push_back(
        comps[i]->name());
  }

  // Optional explicit merging: groups sharing an assigned rank fuse.
  if (!exec.process_of.empty()) {
    std::map<int, std::vector<std::size_t>> by_rank;  // rank -> old group ids
    int next_free = 0;
    for (const auto& [name, rank] : exec.process_of) {
      if (rank >= next_free) next_free = rank + 1;
    }
    for (std::size_t g = 0; g < plan.groups.size(); ++g) {
      auto it = exec.process_of.find(plan.groups[g].name);
      by_rank[it != exec.process_of.end() ? it->second : next_free++].push_back(g);
    }
    std::vector<ProcessGroup> merged;
    for (auto& [rank, olds] : by_rank) {
      ProcessGroup g;
      g.name = plan.groups[olds.front()].name;
      for (std::size_t o : olds) {
        for (auto& c : plan.groups[o].components) g.components.push_back(c);
      }
      merged.push_back(std::move(g));
    }
    plan.groups = std::move(merged);
  }

  // Cross channels: cut channels whose ends land in different groups.
  std::unordered_map<std::string, int> comp_group;
  for (std::size_t g = 0; g < plan.groups.size(); ++g) {
    for (auto& c : plan.groups[g].components) comp_group[c] = static_cast<int>(g);
  }
  for (auto& ch : sim.channels()) {
    auto a = owners.component.find(&ch->end_a());
    auto b = owners.component.find(&ch->end_b());
    if (a == owners.component.end() || b == owners.component.end()) continue;
    int ga = comp_group[comps[a->second]->name()];
    int gb = comp_group[comps[b->second]->name()];
    if (ga == gb) continue;
    if (!is_cut_channel(ch->name())) {
      throw std::logic_error("plan_processes: non-cut channel '" + ch->name() +
                             "' spans process groups '" + plan.groups[ga].name + "' and '" +
                             plan.groups[gb].name + "'");
    }
    PlannedCross pc;
    pc.channel = ch.get();
    pc.group_a = ga;
    pc.group_b = gb;
    pc.map_hash = channel_map_hash(owners, *ch);
    plan.cross.push_back(pc);
  }
  return plan;
}

void swap_transports_local(runtime::Simulation& sim, const ProcessPlan& plan,
                           const std::string& transport, const std::string& run_id) {
  (void)sim;
  for (const PlannedCross& pc : plan.cross) {
    sync::Channel& ch = *pc.channel;
    if (transport == "shm") {
      sync::ShmChannelParams p;
      p.shm_name = sync::shm_segment_name(run_id, ch.name());
      p.channel_name = ch.name();
      p.map_hash = pc.map_hash;
      p.latency = ch.config().latency;
      p.ring_capacity = ch.config().ring_capacity;
      p.create = true;
      p.local_side = -1;
      ch.set_transport(std::make_unique<sync::ShmChannelTransport>(p));
    } else if (transport == "socket") {
      std::uint16_t port = 0;
      int listen_fd = sync::tcp_listen_loopback(port);
      // connect() completes against the listen backlog without an accept,
      // so this single-threaded connect-then-accept cannot deadlock.
      int fd_b = sync::tcp_connect("127.0.0.1", port, 10'000, ch.name());
      int fd_a = sync::tcp_accept(listen_fd, 10'000, ch.name());
      ::close(listen_fd);
      sync::SocketChannelParams p;
      p.channel_name = ch.name();
      p.map_hash = pc.map_hash;
      p.latency = ch.config().latency;
      p.ring_capacity = ch.config().ring_capacity;
      p.fd[0] = fd_a;
      p.fd[1] = fd_b;
      ch.set_transport(std::make_unique<sync::SocketTransport>(p));
    } else {
      throw std::invalid_argument("swap_transports_local: unknown transport '" + transport +
                                  "' (expected \"shm\" or \"socket\")");
    }
    ch.transport().start();
  }
}

namespace {

/// A child's run record, written by run_child and read by the parent.
std::string record_path(const std::string& dir, std::size_t rank) {
  return dir + "/proc-" + std::to_string(rank) + "/summary.json";
}

/// Debug hook for the peer-death tests: SPLITSIM_DEBUG_KILL="<rank>:<sim_us>"
/// makes process-group `rank` die (hard _exit, no FIN) on the thread of its
/// first component once that component's simulated time passes <sim_us>:
/// a crashed peer at the same point of every run, without instrumenting
/// model code. It rides on the checkpoint boundary hook, so it is not
/// armed while checkpointing owns that hook.
struct DebugKill : runtime::CkptHook {
  void on_boundary(runtime::Component&, SimTime) override { _exit(42); }
};

void arm_debug_kill(runtime::Simulation& sim, const ProcessGroup& group, int rank) {
  const char* spec = std::getenv("SPLITSIM_DEBUG_KILL");
  if (spec == nullptr) return;
  int kill_rank = -1;
  double sim_us = 0.0;
  if (std::sscanf(spec, "%d:%lf", &kill_rank, &sim_us) != 2 || kill_rank != rank) return;
  static DebugKill kill;
  for (const auto& c : sim.components()) {
    if (c->name() == group.components.front()) c->set_ckpt_hook(&kill, from_us(sim_us));
  }
}

[[noreturn]] void run_child(runtime::Simulation& sim, const ProfileSpec& profile,
                            const ProcessPlan& plan, int rank, SimTime end,
                            const std::string& transport, const std::string& run_id,
                            const std::vector<int>& listen_fds,
                            const std::vector<std::uint16_t>& ports, int control_fd,
                            std::uint64_t trace_epoch, const CkptSpec* ckpt,
                            const ckpt::Snapshot* resume) {
  // Per-process artifact routing: everything this child writes lands
  // under <artifact_dir>/proc-<rank>/, including its run record
  // summary.json, which the parent reads back on every exit path.
  ProfileSpec child_profile = profile;
  child_profile.log_dir = profile.artifact_dir() + "/proc-" + std::to_string(rank);
  child_profile.trace_out.clear();
  child_profile.metrics_out.clear();
  runtime::RunStats rs;
  try {
    // Process-qualified trace shard: distinct pid + process_name metadata,
    // cycle clock re-based on the parent's pre-fork epoch so every shard
    // shares one time origin and the merged trace lines up exactly.
    if (profile.trace) {
      obs::set_trace_process(static_cast<std::uint32_t>(rank) + 1,
                             plan.groups[static_cast<std::size_t>(rank)].name);
      obs::set_trace_epoch(trace_epoch);
    }

    // Route this child's obs output onto the control trunk: progress ticks
    // and metric snapshots become frames for the parent's FleetAggregator
    // instead of lines on the inherited tty (only the parent prints).
    obs::ObsConfig oc;
    oc.trace = profile.trace;
    oc.metrics_period_ms = profile.metrics_period_ms;
    oc.progress_period_ms = profile.progress_period_ms;
    const auto urank = static_cast<std::uint32_t>(rank);
    oc.on_progress = [control_fd, urank](SimTime sim_now, double wall) {
      if (control_fd < 0) return;
      obs::ControlUpdate u;
      u.rank = urank;
      u.kind = obs::kCtrlProgress;
      u.sim_time = sim_now;
      u.wall_seconds = wall;
      obs::send_control_update(control_fd, u);
    };
    oc.on_snapshot = [control_fd, urank](SimTime sim_now, double wall,
                                         const obs::MetricsSnapshot& s) {
      if (control_fd < 0) return;
      obs::ControlUpdate u;
      u.rank = urank;
      u.kind = obs::kCtrlSnapshot;
      u.sim_time = sim_now;
      u.wall_seconds = wall;
      for (const auto& [name, value] : s.gauges) {
        if (name.rfind("trunk.", 0) == 0) u.values.emplace_back(name, value);
      }
      obs::send_control_update(control_fd, u);
    };
    sim.set_obs(oc);

    // Wire the cross channels. Connects run before accepts: a connect
    // against a peer's pre-created listen backlog completes without the
    // peer reaching accept(), so no ordering between children can deadlock.
    std::vector<int> side(plan.cross.size(), -1);
    std::vector<int> fds(plan.cross.size(), -1);
    for (std::size_t i = 0; i < plan.cross.size(); ++i) {
      const PlannedCross& pc = plan.cross[i];
      side[i] = pc.group_a == rank ? 0 : pc.group_b == rank ? 1 : -1;
    }
    if (transport == "socket") {
      for (std::size_t i = 0; i < plan.cross.size(); ++i) {
        if (side[i] == 1) {
          fds[i] = sync::tcp_connect("127.0.0.1", ports[i], 10'000,
                                     plan.cross[i].channel->name());
        }
      }
      for (std::size_t i = 0; i < plan.cross.size(); ++i) {
        if (side[i] == 0) {
          fds[i] = sync::tcp_accept(listen_fds[i], 10'000, plan.cross[i].channel->name());
        }
      }
      for (int fd : listen_fds) ::close(fd);
    }

    std::vector<runtime::CrossChannel> cross;
    for (std::size_t i = 0; i < plan.cross.size(); ++i) {
      if (side[i] == -1) continue;
      sync::Channel& ch = *plan.cross[i].channel;
      if (transport == "socket") {
        sync::SocketChannelParams p;
        p.channel_name = ch.name();
        p.map_hash = plan.cross[i].map_hash;
        p.latency = ch.config().latency;
        p.ring_capacity = ch.config().ring_capacity;
        p.fd[side[i]] = fds[i];
        ch.set_transport(std::make_unique<sync::SocketTransport>(p));
      } else {
        sync::ShmChannelParams p;
        p.shm_name = sync::shm_segment_name(run_id, ch.name());
        p.channel_name = ch.name();
        p.map_hash = plan.cross[i].map_hash;
        p.latency = ch.config().latency;
        p.ring_capacity = ch.config().ring_capacity;
        p.create = side[i] == 0;
        p.local_side = side[i];
        ch.set_transport(std::make_unique<sync::ShmChannelTransport>(p));
      }
      cross.push_back({&ch, side[i]});
    }

    const ProcessGroup& group = plan.groups[static_cast<std::size_t>(rank)];
    sim.set_active_components(group.components);

    // Per-rank checkpoint shards: this child snapshots only its own active
    // components; ckpt::load_resume (and the parent's post-run verify)
    // merges the ranks' shards back into one boundary snapshot. A child
    // never verifies a resume inline — each rank sees only a subset of the
    // components — so shard_rank >= 0 disables the collector's verify path.
    ckpt::CollectorOptions co;
    if (ckpt != nullptr) {
      co.every = ckpt->every;
      co.end = end;
      co.dir = ckpt->dir;
      co.keep_last = ckpt->keep_last;
      co.config_fp = ckpt->config_fp;
      co.shard_rank = rank;
      co.resume = resume;
      co.resume_path = ckpt->resume_from;
    }
    ckpt::ScopedCollector collector(sim, co);
    if (collector.get() == nullptr) arm_debug_kill(sim, group, rank);

    runtime::ProcessRunner runner(sim, std::move(cross));
    rs = runner.run(end);
  } catch (const runtime::SimulationError& e) {
    // A failed child still writes its artifacts, from the salvaged
    // partial stats when the run got that far.
    if (e.stats() != nullptr) rs = *e.stats();
    rs.record_error(e);
  } catch (const std::exception& e) {
    rs.record_error(runtime::SimulationError(runtime::ErrorKind::kTransport, "", 0, e.what()));
  } catch (...) {
    _exit(1);
  }
  try {
    write_run_artifacts(sim, child_profile, rs);
  } catch (...) {
    _exit(1);
  }
  _exit(rs.outcome == runtime::RunOutcome::kCompleted ? 0 : 1);
}

}  // namespace

namespace {

/// The parent's side of the distributed-observability tentpole, run on the
/// success AND failure paths: merge the per-process trace shards into one
/// Perfetto trace (cross-process flow arrows + critical-path track), write
/// the fleet metrics series, and write the ONE merged summary.json with
/// per-process, fleet, and critical-path sections.
/// Parent-side checkpoint record for the merged summary: the parent never
/// runs a collector itself, so it counts this run's rank-0 shard files to
/// report how many boundary snapshots landed on disk.
obs::CkptSummary parent_ckpt_summary(const CkptSpec& spec, const ckpt::Snapshot* resume,
                                     bool resume_verified) {
  obs::CkptSummary s;
  s.enabled = true;
  s.dir = spec.dir;
  std::error_code ec;
  std::filesystem::directory_iterator it(spec.dir, ec), it_end;
  for (; !ec && it != it_end; it.increment(ec)) {
    const std::string fn = it->path().filename().string();
    int rank = -1;
    unsigned long long seq = 0;
    if (std::sscanf(fn.c_str(), "shard-r%d-s%llu.ckpt", &rank, &seq) != 2 || rank != 0)
      continue;
    if (fn.size() < 5 || fn.compare(fn.size() - 5, 5, ".ckpt") != 0) continue;
    ++s.snapshots_written;
    s.last_boundary_ms = std::max(s.last_boundary_ms, to_ms(seq * spec.every));
  }
  if (resume != nullptr) {
    s.resumed = true;
    s.resume_boundary_ms = to_ms(resume->boundary);
    s.resume_verified = resume_verified;
  }
  return s;
}

void write_parent_artifacts(const ProfileSpec& profile, const runtime::RunStats& merged,
                            const std::vector<std::optional<runtime::RunStats>>& records,
                            const ProcessPlan& plan,
                            const std::vector<obs::MetricsSnapshot>& fleet_series,
                            SimTime end, const obs::CkptSummary* ckpt_summary) {
  const std::string dir = profile.artifact_dir();

  obs::MergeResult mres;
  bool have_merge = false;
  if (profile.trace) {
    std::vector<std::string> shards;
    for (std::size_t rank = 0; rank < plan.groups.size(); ++rank) {
      std::string p = dir + "/proc-" + std::to_string(rank) + "/trace.json";
      std::error_code ec;
      if (std::filesystem::exists(p, ec)) shards.push_back(std::move(p));
    }
    if (!shards.empty()) {
      try {
        mres = obs::merge_trace_shards(
            shards, profile.trace_out.empty() ? dir + "/trace.json" : profile.trace_out);
        have_merge = true;
      } catch (const std::exception& e) {
        std::fprintf(stderr, "splitsim: trace merge failed: %s\n", e.what());
      }
    }
  }
  if (profile.metrics_period_ms != 0) {
    obs::write_metrics_json(
        profile.metrics_out.empty() ? dir + "/metrics.json" : profile.metrics_out,
        fleet_series);
  }

  profiler::ProfileReport report = profiler::build_report(merged);
  obs::SummaryInputs in;
  in.stats = &merged;
  in.report = &report;
  if (!fleet_series.empty()) in.fleet = &fleet_series.back();
  std::vector<obs::ProcessSummary> procs;
  procs.reserve(records.size());
  for (const std::optional<runtime::RunStats>& r : records) {
    obs::ProcessSummary ps;
    ps.name = plan.groups[procs.size()].name;
    ps.outcome = r ? runtime::to_string(r->outcome) : "missing";
    if (r) {
      ps.digest = r->digest.value();
      ps.wall_seconds = r->wall_seconds;
      ps.sim_speed = r->wall_seconds > 0.0 ? to_sec(end) / r->wall_seconds : 0.0;
      // The process's cross channels are exactly its adapters over wire
      // transports (shm, socket); in-process channels carry none.
      for (const runtime::ComponentStats& c : r->components) {
        for (const runtime::AdapterStats& a : c.adapters) {
          if (!a.wire) continue;
          ps.trunk_rx_msgs += a.totals.rx_msgs;
          ps.wire += *a.wire;
        }
      }
    }
    procs.push_back(std::move(ps));
  }
  in.processes = &procs;
  if (have_merge) {
    in.merge = &mres;
    in.critical_path = &mres.critical_path;
  }
  in.ckpt = ckpt_summary;
  obs::write_summary_json(dir + "/summary.json", in);
}

}  // namespace

runtime::RunStats run_multiprocess(runtime::Simulation& sim, const ProfileSpec& profile,
                                   const ExecSpec& exec, const ProcessPlan& plan, SimTime end,
                                   const CkptSpec* ckpt, const ckpt::Snapshot* resume) {
  const std::string transport = exec.transport == "socket" ? "socket" : "shm";
  const std::string run_id = "p" + std::to_string(::getpid());
  const std::string dir = profile.artifact_dir();
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);

  // The manifest goes down before any child forks: ckpt::load_resume needs
  // the rank count to decide when a boundary's shard set is complete, and
  // it must exist even if the whole fleet is killed before the first
  // boundary lands.
  if (ckpt != nullptr) ckpt::write_manifest(ckpt->dir, plan.groups.size());

  // One cycle-clock epoch for every shard, captured pre-fork: children
  // share the machine TSC, so re-basing each child's tracer on this value
  // aligns all shards on one time origin (multi-machine runs would instead
  // calibrate at transport hello time — see SocketHello::hello_tsc).
  const std::uint64_t trace_epoch = profile.trace ? rdcycles() : 0;

  // Control trunk: one SEQPACKET socketpair per child when live output is
  // on. Children stream progress/metric frames to fd[1]; the parent's
  // FleetAggregator polls the fd[0] ends.
  const bool live = profile.metrics_period_ms != 0 || profile.progress_period_ms != 0;
  std::vector<std::array<int, 2>> ctrl(plan.groups.size(), {-1, -1});
  if (live) {
    for (auto& c : ctrl) {
      int fd[2];
      if (obs::control_socketpair(fd)) {
        c[0] = fd[0];
        c[1] = fd[1];
      }
    }
  }
  auto close_ctrl = [&ctrl] {
    for (auto& c : ctrl) {
      for (int& fd : c) {
        if (fd >= 0) ::close(fd);
        fd = -1;
      }
    }
  };

  // Socket trunks: create every listener in the parent, pre-fork, so a
  // connecting child never races listener creation.
  std::vector<int> listen_fds(plan.cross.size(), -1);
  std::vector<std::uint16_t> ports(plan.cross.size(), 0);
  if (transport == "socket") {
    for (std::size_t i = 0; i < plan.cross.size(); ++i) {
      listen_fds[i] = sync::tcp_listen_loopback(ports[i]);
    }
  }

  std::vector<pid_t> pids;
  pids.reserve(plan.groups.size());
  for (std::size_t rank = 0; rank < plan.groups.size(); ++rank) {
    // A record left by an earlier run in this directory must not stand in
    // for a child that dies before writing its own.
    std::filesystem::remove(record_path(dir, rank), ec);
    pid_t pid = ::fork();
    if (pid < 0) {
      for (pid_t p : pids) ::kill(p, SIGKILL);
      for (int fd : listen_fds) {
        if (fd >= 0) ::close(fd);
      }
      close_ctrl();
      throw runtime::SimulationError(runtime::ErrorKind::kTransport, "", 0,
                                     "fork failed for process group '" +
                                         plan.groups[rank].name + "'");
    }
    if (pid == 0) {
      // Keep only this child's control fd; close the parent ends and the
      // siblings' ends so the parent sees EOF when this child exits.
      int my_ctrl = -1;
      for (std::size_t j = 0; j < ctrl.size(); ++j) {
        if (ctrl[j][0] >= 0) ::close(ctrl[j][0]);
        if (j == rank) {
          my_ctrl = ctrl[j][1];
        } else if (ctrl[j][1] >= 0) {
          ::close(ctrl[j][1]);
        }
      }
      run_child(sim, profile, plan, static_cast<int>(rank), end, transport, run_id,
                listen_fds, ports, my_ctrl, trace_epoch, ckpt, resume);
    }
    pids.push_back(pid);
  }
  for (int fd : listen_fds) {
    if (fd >= 0) ::close(fd);
  }
  // Parent: hand the parent-end control fds to the aggregator (it owns and
  // closes them) and drop the child ends.
  obs::FleetAggregator aggregator;
  if (live) {
    std::vector<int> parent_fds;
    std::vector<std::string> names;
    parent_fds.reserve(ctrl.size());
    for (std::size_t g = 0; g < ctrl.size(); ++g) {
      parent_fds.push_back(ctrl[g][0]);
      ctrl[g][0] = -1;
      if (ctrl[g][1] >= 0) {
        ::close(ctrl[g][1]);
        ctrl[g][1] = -1;
      }
      names.push_back(plan.groups[g].name);
    }
    obs::FleetAggregator::Options ao;
    ao.progress_period_ms = profile.progress_period_ms;
    ao.metrics_period_ms = profile.metrics_period_ms;
    ao.sim_end = end;
    aggregator.start(std::move(parent_fds), std::move(names), ao);
  }

  // Reap children as they exit (not in rank order): a child that died must
  // leave the pid table promptly, or the survivors' shm peer-death probes
  // (kill(pid, 0)) would keep seeing the zombie and block on the dead
  // peer's FIN until the watchdog fires. Then merge reports — the
  // per-process digests fold into the whole-run digest because the fold is
  // commutative and each data message is counted exactly once (by its
  // receiving component's process).
  std::vector<int> status(pids.size(), -1);
  for (std::size_t reaped = 0; reaped < pids.size();) {
    int st = 0;
    pid_t done = -1;
    // waitpid returns -1/EINTR when a signal lands between child exits
    // (SIGCHLD itself, a profiler timer); that is a retry, not a reason to
    // abandon the reap loop with children still running. Bail only on real
    // errors (ECHILD: nothing left to wait for).
    do {
      done = ::waitpid(-1, &st, 0);
    } while (done < 0 && errno == EINTR);
    if (done < 0) break;
    for (std::size_t i = 0; i < pids.size(); ++i) {
      if (pids[i] == done) {
        status[i] = st;
        ++reaped;
        break;
      }
    }
  }

  aggregator.stop();
  std::vector<obs::MetricsSnapshot> fleet_series = aggregator.take_series();

  // Merge the children's run records: the digest folds, the slowest wall
  // time, and every component, so the merged profile and WTPG cover the
  // whole run.
  runtime::RunStats merged;
  merged.mode = runtime::RunMode::kThreaded;
  merged.sim_time = end;
  std::vector<std::optional<runtime::RunStats>> records(pids.size());
  int failed_rank = -1;
  for (std::size_t i = 0; i < pids.size(); ++i) {
    records[i] = obs::read_run_stats(record_path(dir, i));
    bool ok = WIFEXITED(status[i]) && WEXITSTATUS(status[i]) == 0;
    if (const std::optional<runtime::RunStats>& r = records[i]) {
      merged.digest.merge(r->digest);
      merged.wall_seconds = std::max(merged.wall_seconds, r->wall_seconds);
      merged.wall_cycles = std::max(merged.wall_cycles, r->wall_cycles);
      merged.components.insert(merged.components.end(), r->components.begin(),
                               r->components.end());
      ok = ok && r->outcome == runtime::RunOutcome::kCompleted;
    } else {
      ok = false;
    }
    if (!ok && failed_rank < 0) failed_rank = static_cast<int>(i);
  }

  obs::CkptSummary cks;
  const obs::CkptSummary* cksp = nullptr;
  if (failed_rank >= 0) {
    const std::optional<runtime::RunStats>& r = records[static_cast<std::size_t>(failed_rank)];
    const std::string where = "process group '" + plan.groups[failed_rank].name +
                              "' (rank " + std::to_string(failed_rank) + ")";
    runtime::SimulationError err = [&] {
      if (r && r->outcome == runtime::RunOutcome::kError) {
        return runtime::SimulationError(r->error_kind, r->error_component, r->error_sim_time,
                                        where + ": " + r->error_cause);
      }
      std::ostringstream os;
      os << where << " ";
      if (WIFSIGNALED(status[failed_rank])) {
        os << "killed by signal " << WTERMSIG(status[failed_rank]);
      } else if (WIFEXITED(status[failed_rank])) {
        os << "exited with status " << WEXITSTATUS(status[failed_rank]);
      } else {
        os << "did not run";
      }
      os << " without reporting results";
      return runtime::SimulationError(runtime::ErrorKind::kTransport, "", 0, os.str());
    }();
    merged.record_error(err);
    if (ckpt != nullptr) {
      cks = parent_ckpt_summary(*ckpt, resume, false);
      cksp = &cks;
    }
    write_parent_artifacts(profile, merged, records, plan, fleet_series, end, cksp);
    err.attach_stats(std::make_shared<const runtime::RunStats>(merged));
    throw err;
  }

  // Resumed run: the children could not verify the replay against the
  // loaded snapshot (each rank sees a subset of the components), so the
  // parent does it here — merge this run's shards at the resume boundary
  // and compare against the snapshot we resumed from. This is the
  // multi-process form of the inline verification the single-process
  // collector performs, and it is what makes resume *elastic* across
  // process counts: the merged shards are digest-comparable no matter how
  // the components were spread over ranks.
  bool resume_verified = false;
  if (ckpt != nullptr && resume != nullptr) {
    try {
      const std::uint64_t seq = resume->boundary / ckpt->every;
      std::vector<ckpt::Snapshot> shards;
      shards.reserve(plan.groups.size());
      for (std::size_t r = 0; r < plan.groups.size(); ++r) {
        shards.push_back(
            ckpt::load_snapshot(ckpt::shard_path(ckpt->dir, static_cast<int>(r), seq)));
      }
      ckpt::verify_resume(ckpt::merge_shards(shards), *resume, ckpt->resume_from);
      resume_verified = true;
    } catch (runtime::SimulationError& err) {
      merged.record_error(err);
      cks = parent_ckpt_summary(*ckpt, resume, false);
      cksp = &cks;
      write_parent_artifacts(profile, merged, records, plan, fleet_series, end, cksp);
      err.attach_stats(std::make_shared<const runtime::RunStats>(merged));
      throw;
    }
  }
  if (ckpt != nullptr) {
    cks = parent_ckpt_summary(*ckpt, resume, resume_verified);
    cksp = &cks;
  }
  write_parent_artifacts(profile, merged, records, plan, fleet_series, end, cksp);
  return merged;
}

}  // namespace splitsim::orch
