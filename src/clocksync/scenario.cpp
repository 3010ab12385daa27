#include "clocksync/scenario.hpp"

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "clocksync/ntp.hpp"
#include "clocksync/ptp.hpp"
#include "dcdb/dcdb.hpp"
#include "netsim/apps.hpp"
#include "orch/builders.hpp"
#include "orch/system.hpp"

namespace splitsim::clocksync {

ClockSyncScenarioResult run_clocksync_scenario(const ClockSyncScenarioConfig& cfg) {
  runtime::Simulation sim;
  orch::System sys;
  orch::Instantiation inst;
  inst.exec = cfg.exec;
  inst.profile = cfg.profile;
  inst.faults = cfg.faults;
  inst.verify = cfg.verify;
  inst.ckpt = cfg.ckpt;
  if (inst.ckpt.enabled() && inst.ckpt.config_fp == 0) {
    inst.ckpt.config_fp = orch::ckpt_fingerprint("clocksync", cfg.duration);
  }

  orch::DatacenterSystemParams params;
  params.n_agg = cfg.n_agg;
  params.racks_per_agg = cfg.racks_per_agg;
  params.hosts_per_rack = cfg.hosts_per_rack;
  // PTP: transparent clocks in every switch.
  params.ptp_transparent_clocks = cfg.use_ptp;

  // Background traffic: randomized host pairs performing bulk transfers.
  // Pairing is decided at System-build time over the (sorted) background
  // host names — the same deterministic shuffle the pre-orch driver applied
  // to the instantiated nodes.
  std::vector<std::string> bg;
  std::unordered_map<std::string, proto::Ipv4Addr> bg_ip;
  for (int a = 0; a < cfg.n_agg; ++a) {
    for (int r = 0; r < cfg.racks_per_agg; ++r) {
      for (int h = 0; h < cfg.hosts_per_rack; ++h) {
        std::string name =
            "h" + std::to_string(a) + "." + std::to_string(r) + "." + std::to_string(h);
        bg_ip[name] = netsim::datacenter_host_ip(a, r, h);
        bg.push_back(std::move(name));
      }
    }
  }
  std::sort(bg.begin(), bg.end());
  Rng rng(0xB6, cfg.seed);
  for (std::size_t i = bg.size(); i > 1; --i) {  // deterministic shuffle
    std::swap(bg[i - 1], bg[rng.below(i)]);
  }
  std::size_t pairs = static_cast<std::size_t>(
      static_cast<double>(bg.size()) / 2.0 * cfg.bg_fraction);
  struct BgRole {
    bool sink = false;
    netsim::OnOffUdpApp::Config onoff;  ///< set when a source
    bool source = false;
  };
  std::unordered_map<std::string, BgRole> bg_roles;
  for (std::size_t i = 0; i < pairs; ++i) {
    const std::string& src = bg[2 * i];
    const std::string& dst = bg[2 * i + 1];
    bg_roles[dst].sink = true;
    BgRole& role = bg_roles[src];
    role.source = true;
    role.onoff = netsim::OnOffUdpApp::Config{
        .dst = bg_ip[dst],
        .dst_port = 9000,
        .src_port = 9000,
        .payload_bytes = 1400,
        .rate_bps = cfg.bg_rate_bps,
        .start_at = from_us(static_cast<double>(rng.below(1000))),
        .on_period = from_ms(1.0),
        .off_period = from_ms(1.0)};
  }

  auto dcs = orch::add_datacenter(
      sys, params, [&bg_roles](int, int, int, orch::HostSpec spec) {
        auto it = bg_roles.find(spec.name);
        if (it != bg_roles.end()) {
          BgRole role = it->second;
          spec.apps = [role](orch::HostContext& ctx) {
            if (role.sink) ctx.protocol->add_app<netsim::UdpSinkApp>(9000);
            if (role.source) ctx.protocol->add_app<netsim::OnOffUdpApp>(role.onoff);
          };
        }
        return spec;
      });

  // Detailed end hosts: both DB replicas in rack (0,0) (fast in-rack
  // replication); the clock server in the farthest rack, so NTP exchanges
  // cross the whole fabric; clients spread across racks.
  proto::Ipv4Addr clock_ip =
      netsim::datacenter_host_ip(cfg.n_agg - 1, cfg.racks_per_agg - 1, cfg.hosts_per_rack);
  std::vector<proto::Ipv4Addr> server_ips;
  for (int s = 0; s < 2; ++s) {
    server_ips.push_back(netsim::datacenter_host_ip(0, 0, cfg.hosts_per_rack + s));
  }

  // DB servers, with chrony (+ptp4l under PTP). Result-extraction pointers
  // are filled in by the per-host installers.
  struct DbServer {
    NtpClientApp* ntp = nullptr;
    PtpClientApp* ptp = nullptr;
    PhcRefclockApp* refclock = nullptr;
    dcdb::DbServerApp* db = nullptr;
  };
  std::vector<DbServer> servers(2);

  // Clock server (NTP server or PTP grandmaster): its system clock (NTP)
  // or PHC (PTP) is the perfect reference.
  {
    orch::HostSpec spec;
    spec.name = "clocksrv";
    spec.seed = 1000;
    spec.tune = [](hostsim::HostConfig&, nicsim::NicConfig& nc) { nc.seed = 1000; };
    ClockConfig perfect;
    perfect.perfect = true;
    if (cfg.use_ptp) {
      spec.phc_clock = perfect;  // grandmaster PHC = reference
    } else {
      spec.clock = perfect;  // NTP server system clock = reference
    }
    spec.apps = [&cfg, server_ips](orch::HostContext& ctx) {
      if (cfg.use_ptp) {
        PtpGmApp::Config gmc;
        gmc.clients = server_ips;
        gmc.sync_interval = cfg.ptp_sync_interval;
        ctx.detailed->add_app<PtpGmApp>(gmc);
      } else {
        ctx.detailed->add_app<NtpServerApp>();
      }
    };
    orch::datacenter_attach_host(sys, dcs, params, cfg.n_agg - 1, cfg.racks_per_agg - 1,
                                 std::move(spec));
    inst.fidelity_overrides["clocksrv"] = orch::HostFidelity::kQemu;
  }

  for (int s = 0; s < 2; ++s) {
    orch::HostSpec spec;
    spec.name = "db" + std::to_string(s);
    spec.seed = static_cast<std::uint64_t>(2000 + s);
    spec.tune = [s](hostsim::HostConfig&, nicsim::NicConfig& nc) {
      nc.seed = static_cast<std::uint64_t>(2000 + s);
    };
    DbServer* self = &servers[static_cast<std::size_t>(s)];
    spec.apps = [&cfg, self, s, clock_ip, server_ips](orch::HostContext& ctx) {
      auto* host = ctx.detailed;
      if (cfg.use_ptp) {
        PtpClientApp::Config pc;
        pc.gm = clock_ip;
        pc.window_start = cfg.window_start;
        self->ptp = &host->add_app<PtpClientApp>(pc);
        self->ptp->set_phc_for_validation(&ctx.nic->phc());
        PhcRefclockApp::Config rc;
        rc.poll_interval = cfg.ptp_sync_interval;
        rc.window_start = cfg.window_start;
        self->refclock = &host->add_app<PhcRefclockApp>(rc);
        self->refclock->set_ptp(self->ptp);
      } else {
        NtpClientApp::Config nc2;
        nc2.server = clock_ip;
        nc2.poll_interval = cfg.ntp_poll;
        nc2.window_start = cfg.window_start;
        self->ntp = &host->add_app<NtpClientApp>(nc2);
      }
      if (cfg.run_db) {
        dcdb::DbServerApp::Config dbc;
        dbc.peer = server_ips[static_cast<std::size_t>(1 - s)];
        dbc.clock_bound_us = [self](SimTime now) {
          if (self->ntp != nullptr) return self->ntp->bound_us(now);
          if (self->refclock != nullptr) return self->refclock->bound_us(now);
          return 0.0;
        };
        // Commit timestamps from the disciplined system clock: external
        // consistency holds only while the daemon-reported bound above
        // covers this clock's true error.
        dbc.local_now = [host](SimTime) { return host->clock_now(); };
        self->db = &host->add_app<dcdb::DbServerApp>(dbc);
      }
    };
    orch::datacenter_attach_host(sys, dcs, params, 0, 0, std::move(spec));
    inst.fidelity_overrides["db" + std::to_string(s)] = orch::HostFidelity::kQemu;
  }

  // DB clients.
  std::vector<dcdb::DbClientApp*> db_clients;
  for (int c = 0; c < cfg.db_clients; ++c) {
    int agg = c % cfg.n_agg;
    int rack = (c / cfg.n_agg + 1) % cfg.racks_per_agg;
    orch::HostSpec spec;
    spec.name = "dbclient" + std::to_string(c);
    spec.seed = static_cast<std::uint64_t>(3000 + c);
    spec.tune = [](hostsim::HostConfig&, nicsim::NicConfig& nc) { nc.seed = 1; };
    if (cfg.run_db) {
      dcdb::DbClientApp::Config cc;
      cc.servers = server_ips;
      cc.seed = static_cast<std::uint64_t>(3000 + c);
      cc.concurrency = cfg.db_concurrency;
      cc.open_rate_per_sec = cfg.db_open_rate_per_client;
      cc.zipf_theta = cfg.db_zipf_theta;
      cc.num_keys = cfg.db_num_keys;
      cc.write_fraction = cfg.db_write_fraction;
      cc.window_start = cfg.window_start;
      cc.window_end = cfg.duration;
      cc.record_ops = cfg.verify.enabled;
      cc.max_history = cfg.verify.max_history;
      cc.actor = static_cast<std::uint32_t>(c);
      // DB writes should start only after clocks have roughly converged.
      cc.start_at = cfg.window_start / 2;
      spec.apps = [cc, &db_clients](orch::HostContext& ctx) {
        db_clients.push_back(&ctx.detailed->add_app<dcdb::DbClientApp>(cc));
      };
    }
    orch::datacenter_attach_host(sys, dcs, params, agg, rack, std::move(spec));
    inst.fidelity_overrides["dbclient" + std::to_string(c)] = orch::HostFidelity::kQemu;
  }

  if (inst.exec.partition == "auto") {
    // Calibration instantiates the system once per candidate strategy; the
    // scratch installers push dead pointers into the collectors above, so
    // resolve first and reset them before the real instantiation.
    inst.exec.partition = orch::resolve_auto_partition(sys, inst, cfg.duration);
    db_clients.clear();
  }

  auto done = orch::instantiate_system(sim, sys, inst);
  auto stats = orch::run_instantiated(sim, inst, cfg.duration);

  ClockSyncScenarioResult res;
  res.components = done.component_count;
  res.simulated_hosts = done.net.hosts.size() + 3 + static_cast<std::size_t>(cfg.db_clients);
  res.wall_seconds = stats.wall_seconds;
  res.digest = stats.digest;

  Summary bounds, truth;
  std::uint64_t covered = 0, total = 0;
  for (auto& s : servers) {
    const Summary* b = nullptr;
    const Summary* t = nullptr;
    if (s.ntp != nullptr) {
      b = &s.ntp->bound_samples_us();
      t = &s.ntp->true_abs_offset_us();
    } else if (s.refclock != nullptr) {
      b = &s.refclock->bound_samples_us();
      t = &s.refclock->true_abs_offset_us();
    }
    if (b == nullptr) continue;
    for (std::size_t i = 0; i < b->count(); ++i) {
      bounds.add(b->samples()[i]);
      if (i < t->count()) {
        truth.add(t->samples()[i]);
        ++total;
        if (t->samples()[i] <= b->samples()[i]) ++covered;
      }
    }
  }
  res.mean_bound_us = bounds.mean();
  res.max_bound_us = bounds.max();
  res.mean_true_offset_us = truth.mean();
  res.max_true_offset_us = truth.max();
  res.bound_coverage = total > 0 ? static_cast<double>(covered) / total : 0.0;

  if (cfg.run_db) {
    double win_s = to_sec(cfg.duration - cfg.window_start);
    std::uint64_t wr = 0, rd = 0;
    Summary wlat, rlat;
    for (auto* c : db_clients) {
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
    for (auto& s : servers) {
      if (s.db != nullptr) {
        for (double v : s.db->commit_wait_us().samples()) cw.add(v);
      }
    }
    res.mean_commit_wait_us = cw.mean();
    if (cfg.verify.enabled) {
      for (auto* c : db_clients) {
        res.ops.insert(res.ops.end(), c->ops().begin(), c->ops().end());
      }
    }
  }
  return res;
}

}  // namespace splitsim::clocksync
