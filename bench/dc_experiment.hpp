// Shared setup for the Fig. 9 / Fig. 10 experiments: the background
// datacenter topology from §4.3 with a pair of detailed hosts (qemu- or
// gem5-fidelity, each with a NIC simulator) exchanging request/response
// traffic, partitioned by one of the s/ac/crN/rs strategies.
#pragma once

#include <string>

#include "hostsim/endhost.hpp"
#include "netsim/apps.hpp"
#include "netsim/topology.hpp"
#include "orch/instantiation.hpp"
#include "orch/partition.hpp"
#include "profiler/profiler.hpp"
#include "util/rng.hpp"

namespace benchdc {

using namespace splitsim;

inline orch::ExecSpec make_coscheduled_exec() {
  orch::ExecSpec e;
  e.run_mode = runtime::RunMode::kCoscheduled;
  return e;
}

struct DcExperimentConfig {
  int n_agg = 2;
  int racks_per_agg = 3;
  int hosts_per_rack = 8;
  std::string strategy = "s";
  hostsim::CpuModel host_model = hostsim::CpuModel::kQemu;
  double bg_fraction = 1.0;
  double bg_rate_bps = 400e6;
  /// Fraction of background flows that stay within their rack (typical DC
  /// locality); the rest pick random cross-rack destinations.
  double bg_local_fraction = 0.5;
  double pair_req_rate = 38e3;  ///< request/response rate between the hosts
  std::uint64_t req_instrs = 30'000;
  /// Per-instruction simulation cost of the detailed host pair. Full-system
  /// qemu is 10-100x slower than native; the Fig. 9/10 experiments use a
  /// heavier cost than the lighter application scenarios.
  double qemu_sim_cost = 0.7;
  SimTime duration = from_ms(30.0);
  /// Observability/profiling knobs (tracing, metrics, progress, artifact
  /// directory); defaults leave everything off.
  orch::ProfileSpec profile;
  /// Execution choices for the run itself (fig9/fig10 default to the
  /// load-measurement coscheduled mode; --run-mode overrides).
  orch::ExecSpec exec = make_coscheduled_exec();
};

struct DcExperimentResult {
  runtime::RunStats stats;
  profiler::ProfileReport report;
  int partitions = 0;
  std::size_t components = 0;  ///< = cores used, 1 per simulator instance
  double projected_sim_speed = 0.0;
};

inline DcExperimentResult run_dc_experiment(const DcExperimentConfig& cfg) {
  runtime::Simulation sim;
  netsim::Datacenter dc =
      netsim::make_datacenter(cfg.n_agg, cfg.racks_per_agg, cfg.hosts_per_rack);
  netsim::datacenter_add_external(dc, 0, 0, "hostA");
  netsim::datacenter_add_external(dc, cfg.n_agg - 1, 0, "hostB");
  auto part = orch::partition_by_name(dc, cfg.strategy);

  netsim::InstantiateOptions opts;
  opts.prefix = "net";
  auto inst = netsim::instantiate(
      sim, dc.topo, cfg.strategy == "s" ? std::vector<int>{} : part, opts);

  // Background traffic: pairs of protocol-level hosts; a configurable
  // fraction stays rack-local (DC locality), the rest crosses the fabric.
  Rng rng(0xDC, 3);
  std::vector<std::pair<netsim::HostNode*, netsim::HostNode*>> flows;
  for (int a = 0; a < cfg.n_agg; ++a) {
    for (int r = 0; r < cfg.racks_per_agg; ++r) {
      for (int h = 0; h + 1 < cfg.hosts_per_rack; h += 2) {
        auto name = [&](int slot) {
          return "h" + std::to_string(a) + "." + std::to_string(r) + "." + std::to_string(slot);
        };
        netsim::HostNode* src = inst.hosts[name(h)];
        netsim::HostNode* dst;
        if (rng.chance(cfg.bg_local_fraction)) {
          dst = inst.hosts[name(h + 1)];  // rack-local
        } else {
          int aa = static_cast<int>(rng.below(static_cast<std::uint64_t>(cfg.n_agg)));
          int rr = static_cast<int>(rng.below(static_cast<std::uint64_t>(cfg.racks_per_agg)));
          int hh = static_cast<int>(rng.below(static_cast<std::uint64_t>(cfg.hosts_per_rack)));
          std::string dname =
              "h" + std::to_string(aa) + "." + std::to_string(rr) + "." + std::to_string(hh);
          dst = inst.hosts[dname];
          if (dst == src) dst = inst.hosts[name(h + 1)];
        }
        if (rng.uniform() < cfg.bg_fraction) flows.emplace_back(src, dst);
      }
    }
  }
  std::uint16_t port = 9000;
  for (auto& [src, dst] : flows) {
    ++port;
    dst->add_app<netsim::UdpSinkApp>(port);
    src->add_app<netsim::OnOffUdpApp>(netsim::OnOffUdpApp::Config{
        .dst = dst->ip(),
        .dst_port = port,
        .src_port = port,
        .payload_bytes = 1400,
        .rate_bps = cfg.bg_rate_bps,
        .start_at = from_us(static_cast<double>(rng.below(500)))});
  }

  // The detailed host pair: request/response with per-request CPU work.
  hostsim::HostConfig hc;
  hc.cpu.model = cfg.host_model;
  hc.cpu.qemu_sim_cost = cfg.qemu_sim_cost;
  hc.seed = 11;
  auto a = hostsim::attach_end_host(sim, inst.external_ports["hostA"], hc);
  hc.seed = 22;
  auto b = hostsim::attach_end_host(sim, inst.external_ports["hostB"], hc);

  b.host->udp_bind(7, [host = b.host, instrs = cfg.req_instrs](const proto::Packet& p,
                                                               SimTime) {
    host->exec(instrs, [host, p] {
      proto::AppData d;
      host->udp_send(p.src_ip, p.src_port, 7, d, 256);
    });
  });
  a.host->udp_bind(9001, [](const proto::Packet&, SimTime) {});
  struct Sender {
    hostsim::HostComponent* host;
    proto::Ipv4Addr dst;
    SimTime interval;
    std::uint64_t instrs;
    void send() {
      host->exec(instrs / 4, [this] {
        proto::AppData d;
        host->udp_send(dst, 7, 9001, d, 64);
        host->kernel().schedule_in(interval, [this] { send(); });
      });
    }
  };
  auto sender = std::make_shared<Sender>();
  sender->host = a.host;
  sender->dst = b.host->ip();
  sender->interval = static_cast<SimTime>(timeunit::sec / cfg.pair_req_rate);
  sender->instrs = cfg.req_instrs;
  a.host->kernel().schedule_at(0, [sender] { sender->send(); });

  DcExperimentResult res;
  res.stats = orch::run_profiled(sim, cfg.profile, cfg.exec, cfg.duration);
  res.report = profiler::build_report(res.stats);
  res.partitions = orch::partition_count(part);
  res.components = sim.components().size();
  profiler::PerfModelConfig pm;
  res.projected_sim_speed = profiler::project_sim_speed(res.report, pm);
  return res;
}

}  // namespace benchdc
