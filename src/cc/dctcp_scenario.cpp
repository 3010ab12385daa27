#include "cc/dctcp_scenario.hpp"

#include "hostsim/apps.hpp"
#include "netsim/apps.hpp"
#include "orch/system.hpp"

namespace splitsim::cc {

std::string to_string(DctcpMode m) {
  switch (m) {
    case DctcpMode::kProtocol:
      return "protocol(ns3)";
    case DctcpMode::kMixed:
      return "mixed-fidelity";
    case DctcpMode::kEndToEnd:
      return "end-to-end";
  }
  return "?";
}

DctcpScenarioResult run_dctcp_scenario(const DctcpScenarioConfig& cfg) {
  runtime::Simulation sim;
  orch::System sys;
  orch::Instantiation inst;
  inst.exec = cfg.exec;
  inst.profile = cfg.profile;
  inst.faults = cfg.faults;
  inst.ckpt = cfg.ckpt;
  if (inst.ckpt.enabled() && inst.ckpt.config_fp == 0) {
    inst.ckpt.config_fp = orch::ckpt_fingerprint("dctcp", cfg.duration);
  }

  int external_pairs = cfg.mode == DctcpMode::kEndToEnd ? cfg.pairs
                       : cfg.mode == DctcpMode::kMixed  ? 1
                                                        : 0;

  proto::TcpConfig tcp;
  tcp.cc = proto::CcAlgo::kDctcp;

  std::vector<netsim::TcpSinkApp*> proto_sinks;
  std::vector<hostsim::HostTcpSinkApp*> det_sinks;

  // Dumbbell: the bottleneck link is added first so device 0 on swL is the
  // bottleneck (its queue carries the ECN-marking stats below). ECN marking
  // only on the bottleneck queue; edge queues stay default drop-tail, which
  // is fine: they never congest (standard DCTCP switch configuration).
  netsim::QueueConfig bq;
  bq.capacity_pkts = cfg.queue_capacity_pkts;
  bq.ecn_enabled = true;
  bq.ecn_threshold_pkts = cfg.marking_threshold_pkts;
  int swl = sys.add_switch({.name = "swL"});
  int swr = sys.add_switch({.name = "swR"});
  sys.add_link(swl, swr,
               {.bw = cfg.bottleneck_bw, .latency = cfg.bottleneck_latency, .queue = bq});

  orch::LinkSpec edge{.bw = cfg.edge_bw, .latency = cfg.edge_latency};
  for (int i = 0; i < cfg.pairs; ++i) {
    bool detailed = i < external_pairs;
    std::string ln = "hL" + std::to_string(i);
    std::string rn = "hR" + std::to_string(i);
    proto::Ipv4Addr rip = proto::ip(10, 2, 0, static_cast<unsigned>(i + 1));

    orch::HostSpec snd;
    snd.name = ln;
    snd.ip = proto::ip(10, 1, 0, static_cast<unsigned>(i + 1));
    snd.seed = static_cast<std::uint64_t>(100 + i);
    snd.apps = [tcp, rip, i](orch::HostContext& ctx) {
      if (ctx.is_detailed()) {
        ctx.detailed->add_app<hostsim::HostBulkSenderApp>(hostsim::HostBulkSenderApp::Config{
            .dst = rip, .dst_port = 5001, .tcp = tcp, .start_at = from_us(10.0 * i)});
      } else {
        ctx.protocol->add_app<netsim::BulkSenderApp>(netsim::BulkSenderApp::Config{
            .dst = rip, .dst_port = 5001, .tcp = tcp, .start_at = from_us(10.0 * i)});
      }
    };

    orch::HostSpec rcv;
    rcv.name = rn;
    rcv.ip = rip;
    rcv.seed = static_cast<std::uint64_t>(200 + i);
    rcv.apps = [&cfg, tcp, &proto_sinks, &det_sinks](orch::HostContext& ctx) {
      if (ctx.is_detailed()) {
        det_sinks.push_back(&ctx.detailed->add_app<hostsim::HostTcpSinkApp>(
            hostsim::HostTcpSinkApp::Config{.port = 5001,
                                            .tcp = tcp,
                                            .window_start = cfg.window_start,
                                            .window_end = cfg.duration}));
      } else {
        proto_sinks.push_back(&ctx.protocol->add_app<netsim::TcpSinkApp>(
            netsim::TcpSinkApp::Config{.port = 5001,
                                       .tcp = tcp,
                                       .window_start = cfg.window_start,
                                       .window_end = cfg.duration}));
      }
    };

    if (detailed) {
      inst.fidelity_overrides[ln] = orch::HostFidelity::kGem5;
      inst.fidelity_overrides[rn] = orch::HostFidelity::kGem5;
      // Bulk transfers use segmentation-offload-like amortized stack costs;
      // same seed scheme the pre-orch driver used for host and NIC.
      auto tune = [&cfg](hostsim::HostConfig& hc, nicsim::NicConfig& nc) {
        hc.os.tcp_send_instrs = cfg.tcp_send_instrs;
        hc.os.tcp_recv_instrs = cfg.tcp_recv_instrs;
        nc.rx_intr_throttle = cfg.rx_intr_throttle;
        nc.seed = hc.seed;
      };
      snd.tune = tune;
      rcv.tune = tune;
    }

    int lh = sys.add_host(std::move(snd));
    int rh = sys.add_host(std::move(rcv));
    sys.add_link(lh, swl, edge);
    sys.add_link(rh, swr, edge);
  }

  if (inst.exec.partition == "auto") {
    // Calibration instantiates the system once per candidate strategy; the
    // scratch installers push dead pointers into the collectors above, so
    // resolve first and reset them before the real instantiation.
    inst.exec.partition = orch::resolve_auto_partition(sys, inst, cfg.duration);
    proto_sinks.clear();
    det_sinks.clear();
  }

  auto done = orch::instantiate_system(sim, sys, inst);
  auto stats = orch::run_instantiated(sim, inst, cfg.duration);

  DctcpScenarioResult res;
  res.components = done.component_count;
  res.wall_seconds = stats.wall_seconds;
  res.digest = stats.digest;
  double det_total = 0.0, proto_total = 0.0;
  for (auto* s : det_sinks) det_total += s->window_goodput_bps();
  for (auto* s : proto_sinks) proto_total += s->window_goodput_bps();
  res.aggregate_goodput_gbps = (det_total + proto_total) / 1e9;
  if (!det_sinks.empty()) {
    res.detailed_goodput_gbps = det_total / 1e9 / static_cast<double>(det_sinks.size());
  }
  if (!proto_sinks.empty()) {
    res.protocol_goodput_gbps = proto_total / 1e9 / static_cast<double>(proto_sinks.size());
  }
  res.measured_goodput_gbps =
      det_sinks.empty() ? res.protocol_goodput_gbps : res.detailed_goodput_gbps;

  // Bottleneck statistics: left switch, device 0 is the bottleneck link.
  auto* swl_node = done.net.switches.at("swL");
  res.bottleneck_ecn_marks = swl_node->dev(0).queue().ecn_marks();
  res.bottleneck_drops = swl_node->dev(0).queue().drops();
  return res;
}

}  // namespace splitsim::cc
