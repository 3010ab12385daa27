#include "kv/scenario.hpp"

#include <algorithm>

#include "kv/netcache.hpp"
#include "kv/pegasus.hpp"
#include "orch/system.hpp"

namespace splitsim::kv {

std::string to_string(SystemKind k) {
  return k == SystemKind::kNetCache ? "NetCache" : "Pegasus";
}

std::string to_string(FidelityMode m) {
  switch (m) {
    case FidelityMode::kProtocol:
      return "protocol(ns3)";
    case FidelityMode::kEndToEnd:
      return "end-to-end";
    case FidelityMode::kMixed:
      return "mixed-fidelity";
  }
  return "?";
}

ScenarioResult run_kv_scenario(const ScenarioConfig& cfg) {
  runtime::Simulation sim;
  orch::System sys;
  orch::Instantiation inst;
  inst.exec = cfg.exec;
  inst.profile = cfg.profile;
  inst.faults = cfg.faults;
  inst.verify = cfg.verify;
  inst.ckpt = cfg.ckpt;
  if (inst.ckpt.enabled() && inst.ckpt.config_fp == 0) {
    inst.ckpt.config_fp = orch::ckpt_fingerprint("kv", cfg.duration);
  }

  bool servers_detailed = cfg.mode != FidelityMode::kProtocol;
  bool clients_detailed = cfg.mode == FidelityMode::kEndToEnd;
  orch::HostFidelity detailed_fid = cfg.host_model == hostsim::CpuModel::kGem5
                                        ? orch::HostFidelity::kGem5
                                        : orch::HostFidelity::kQemu;

  // The VIP must route somewhere so switch-app replies and (rewritten)
  // requests can be forwarded; the switch app rewrites real requests before
  // routing, and reply packets go to client IPs, which are already routed.
  std::vector<proto::Ipv4Addr> server_ips;
  for (int s = 0; s < cfg.n_servers; ++s) {
    server_ips.push_back(proto::ip(10, 0, 1, static_cast<unsigned>(s + 1)));
  }

  // Application pointers collected by the installers for result extraction.
  std::vector<HostKvServerApp*> host_server_apps(
      static_cast<std::size_t>(cfg.n_servers), nullptr);
  std::vector<NetKvServerApp*> net_server_apps(static_cast<std::size_t>(cfg.n_servers),
                                               nullptr);
  std::vector<KvClientAppT<netsim::HostNode, netsim::App>*> proto_clients;
  std::vector<KvClientAppT<hostsim::HostComponent, hostsim::HostApp>*> det_clients;

  int sw = sys.add_switch({.name = "tor",
                           .configure = [&cfg, server_ips](netsim::SwitchNode& tor) {
                             if (cfg.system == SystemKind::kNetCache) {
                               NetCacheConfig nc;
                               nc.servers = server_ips;
                               tor.set_app(std::make_unique<NetCacheSwitchApp>(nc));
                             } else {
                               PegasusConfig pg;
                               pg.servers = server_ips;
                               tor.set_app(std::make_unique<PegasusSwitchApp>(pg));
                             }
                           }});

  orch::LinkSpec link{.bw = cfg.link_bw, .latency = cfg.link_latency};
  for (int s = 0; s < cfg.n_servers; ++s) {
    std::string name = "server" + std::to_string(s);
    orch::HostSpec spec;
    spec.name = name;
    spec.ip = server_ips[static_cast<std::size_t>(s)];
    spec.seed = static_cast<std::uint64_t>(100 + s);
    spec.apps = [&cfg, &host_server_apps, &net_server_apps, s](orch::HostContext& ctx) {
      if (ctx.is_detailed()) {
        host_server_apps[static_cast<std::size_t>(s)] =
            &ctx.detailed->add_app<HostKvServerApp>(cfg.server);
      } else {
        net_server_apps[static_cast<std::size_t>(s)] =
            &ctx.protocol->add_app<NetKvServerApp>(cfg.server);
      }
    };
    int node = sys.add_host(std::move(spec));
    sys.add_link(node, sw, link);
    if (servers_detailed) inst.fidelity_overrides[name] = detailed_fid;
  }

  for (int c = 0; c < cfg.n_clients; ++c) {
    std::string name = "client" + std::to_string(c);
    bool detailed =
        clients_detailed || (cfg.mode == FidelityMode::kMixed && c < cfg.detailed_clients);
    KvClientConfig cc = cfg.client;
    cc.local_port = static_cast<std::uint16_t>(9001 + c);
    cc.open_rate_per_sec = cfg.per_client_rate;
    cc.seed = static_cast<std::uint64_t>(200 + c);
    cc.window_start = cfg.window_start;
    cc.window_end = cfg.duration;
    cc.record_ops = cfg.verify.enabled;
    cc.max_history = cfg.verify.max_history;
    cc.actor = static_cast<std::uint32_t>(c);
    orch::HostSpec spec;
    spec.name = name;
    spec.ip = proto::ip(10, 0, 2, static_cast<unsigned>(c + 1));
    spec.seed = static_cast<std::uint64_t>(300 + c);
    spec.apps = [cc, &proto_clients, &det_clients](orch::HostContext& ctx) {
      if (ctx.is_detailed()) {
        det_clients.push_back(&ctx.detailed->add_app<HostKvClientApp>(cc));
      } else {
        proto_clients.push_back(&ctx.protocol->add_app<NetKvClientApp>(cc));
      }
    };
    int node = sys.add_host(std::move(spec));
    sys.add_link(node, sw, link);
    if (detailed) inst.fidelity_overrides[name] = detailed_fid;
  }

  if (inst.exec.partition == "auto") {
    // Calibration instantiates the system once per candidate strategy; the
    // scratch installers push dead pointers into the collectors above, so
    // resolve first and reset them before the real instantiation.
    inst.exec.partition = orch::resolve_auto_partition(sys, inst, cfg.duration);
    std::fill(host_server_apps.begin(), host_server_apps.end(), nullptr);
    std::fill(net_server_apps.begin(), net_server_apps.end(), nullptr);
    proto_clients.clear();
    det_clients.clear();
  }

  auto done = orch::instantiate_system(sim, sys, inst);
  auto stats = orch::run_instantiated(sim, inst, cfg.duration);

  ScenarioResult res;
  res.components = done.component_count;
  res.wall_seconds = stats.wall_seconds;
  res.digest = stats.digest;
  double win_s = to_sec(cfg.duration - cfg.window_start);
  std::uint64_t ops = 0, reads = 0, writes = 0;
  for (auto* c : proto_clients) {
    ops += c->window_ops();
    reads += c->window_reads();
    writes += c->window_writes();
    res.switch_served += c->switch_served();
    for (double v : c->latency_us().samples()) res.latency_protocol_clients.add(v);
  }
  for (auto* c : det_clients) {
    ops += c->window_ops();
    reads += c->window_reads();
    writes += c->window_writes();
    res.switch_served += c->switch_served();
    for (double v : c->latency_us().samples()) res.latency_detailed_clients.add(v);
  }
  if (cfg.verify.enabled) {
    for (auto* c : proto_clients) {
      res.ops.insert(res.ops.end(), c->ops().begin(), c->ops().end());
    }
    for (auto* c : det_clients) {
      res.ops.insert(res.ops.end(), c->ops().begin(), c->ops().end());
    }
  }
  res.throughput_ops = ops / win_s;
  res.read_ops = reads / win_s;
  res.write_ops = writes / win_s;
  for (int s = 0; s < cfg.n_servers; ++s) {
    auto& ih = done.hosts["server" + std::to_string(s)];
    if (ih.ctx.is_detailed()) {
      res.server_utilization.push_back(ih.ctx.detailed->cpu().utilization(cfg.duration));
    }
  }
  for (auto* s : host_server_apps) {
    if (s != nullptr) res.server_requests.push_back(s->reads() + s->writes());
  }
  for (auto* s : net_server_apps) {
    if (s != nullptr) res.server_requests.push_back(s->reads() + s->writes());
  }
  return res;
}

}  // namespace splitsim::kv
