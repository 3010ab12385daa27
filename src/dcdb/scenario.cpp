#include "dcdb/scenario.hpp"

#include <cmath>
#include <cstdint>
#include <vector>

#include "dcdb/dcdb.hpp"
#include "orch/builders.hpp"
#include "orch/system.hpp"

namespace splitsim::dcdb {

DcdbScenarioResult run_dcdb_scenario(const DcdbScenarioConfig& cfg) {
  runtime::Simulation sim;
  orch::System sys;
  orch::Instantiation inst;
  inst.exec = cfg.exec;
  inst.profile = cfg.profile;
  inst.faults = cfg.faults;
  inst.verify = cfg.verify;
  inst.ckpt = cfg.ckpt;
  if (inst.ckpt.enabled() && inst.ckpt.config_fp == 0) {
    inst.ckpt.config_fp = orch::ckpt_fingerprint("dcdb", cfg.duration);
  }

  orch::DatacenterSystemParams params;
  params.n_agg = cfg.n_agg;
  params.racks_per_agg = cfg.racks_per_agg;
  params.hosts_per_rack = cfg.hosts_per_rack;
  auto dcs = orch::add_datacenter(sys, params);

  std::vector<proto::Ipv4Addr> server_ips;
  for (int s = 0; s < 2; ++s) {
    server_ips.push_back(netsim::datacenter_host_ip(0, 0, cfg.hosts_per_rack + s));
  }

  std::vector<DbServerApp*> server_apps(2, nullptr);
  for (int s = 0; s < 2; ++s) {
    orch::HostSpec spec;
    spec.name = "db" + std::to_string(s);
    spec.seed = static_cast<std::uint64_t>(2000 + s);
    DbServerApp** slot = &server_apps[static_cast<std::size_t>(s)];
    const double bound_us = cfg.clock_bound_us;
    // db0 runs +offset, db1 -offset from true time (0 = perfect clocks).
    // SimTime is picoseconds, so us -> ps is 1e6.
    const std::int64_t off_ps =
        std::llround((s == 0 ? 1.0 : -1.0) * cfg.server_clock_offset_us * 1e6);
    spec.apps = [slot, s, server_ips, bound_us, off_ps](orch::HostContext& ctx) {
      DbServerApp::Config dbc;
      dbc.peer = server_ips[static_cast<std::size_t>(1 - s)];
      dbc.clock_bound_us = [bound_us](SimTime) { return bound_us; };
      if (off_ps != 0) {
        dbc.local_now = [off_ps](SimTime now) {
          auto shifted = static_cast<std::int64_t>(now) + off_ps;
          return shifted < 0 ? SimTime{0} : static_cast<SimTime>(shifted);
        };
      }
      *slot = &ctx.detailed->add_app<DbServerApp>(dbc);
    };
    orch::datacenter_attach_host(sys, dcs, params, 0, 0, std::move(spec));
    inst.fidelity_overrides["db" + std::to_string(s)] = orch::HostFidelity::kQemu;
  }

  std::vector<DbClientApp*> client_apps;
  for (int c = 0; c < cfg.db_clients; ++c) {
    int agg = c % cfg.n_agg;
    int rack = (c / cfg.n_agg + 1) % cfg.racks_per_agg;
    DbClientApp::Config cc;
    cc.servers = server_ips;
    cc.seed = static_cast<std::uint64_t>(3000 + c);
    cc.concurrency = cfg.db_concurrency;
    cc.open_rate_per_sec = cfg.open_rate_per_client;
    cc.zipf_theta = cfg.zipf_theta;
    cc.num_keys = cfg.num_keys;
    cc.write_fraction = cfg.write_fraction;
    cc.window_start = cfg.window_start;
    cc.window_end = cfg.duration;
    cc.record_ops = cfg.verify.enabled;
    cc.max_history = cfg.verify.max_history;
    cc.actor = static_cast<std::uint32_t>(c);
    orch::HostSpec spec;
    spec.name = "dbclient" + std::to_string(c);
    spec.seed = static_cast<std::uint64_t>(3000 + c);
    spec.apps = [cc, &client_apps](orch::HostContext& ctx) {
      client_apps.push_back(&ctx.detailed->add_app<DbClientApp>(cc));
    };
    orch::datacenter_attach_host(sys, dcs, params, agg, rack, std::move(spec));
    inst.fidelity_overrides["dbclient" + std::to_string(c)] = orch::HostFidelity::kQemu;
  }

  if (inst.exec.partition == "auto") {
    // Calibration instantiates the system once per candidate strategy; the
    // scratch installers push dead pointers into the collectors above, so
    // resolve first and reset them before the real instantiation.
    inst.exec.partition = orch::resolve_auto_partition(sys, inst, cfg.duration);
    client_apps.clear();
  }

  auto done = orch::instantiate_system(sim, sys, inst);
  auto stats = orch::run_instantiated(sim, inst, cfg.duration);

  DcdbScenarioResult res;
  res.components = done.component_count;
  res.wall_seconds = stats.wall_seconds;
  res.digest = stats.digest;

  double win_s = to_sec(cfg.duration - cfg.window_start);
  std::uint64_t wr = 0, rd = 0;
  Summary wlat, rlat;
  for (auto* c : client_apps) {
    wr += c->window_writes();
    rd += c->window_reads();
    for (double v : c->write_latency_us().samples()) wlat.add(v);
    for (double v : c->read_latency_us().samples()) rlat.add(v);
  }
  res.write_throughput = wr / win_s;
  res.read_throughput = rd / win_s;
  res.write_latency_mean_us = wlat.mean();
  res.write_latency_p99_us = wlat.percentile(99.0);
  res.read_latency_mean_us = rlat.mean();
  Summary cw;
  for (auto* s : server_apps) {
    if (s != nullptr) {
      res.server_writes += s->writes();
      for (double v : s->commit_wait_us().samples()) cw.add(v);
    }
  }
  res.mean_commit_wait_us = cw.mean();
  if (cfg.verify.enabled) {
    for (auto* c : client_apps) {
      res.ops.insert(res.ops.end(), c->ops().begin(), c->ops().end());
    }
  }
  return res;
}

}  // namespace splitsim::dcdb
