// Scenario benchmark binary: the host cost of simulating four paper
// scenarios, coscheduled on one thread.
//
//   scenbench --workload W --seed N --seconds S --trace 0|1 --out DIR
//
// One repetition assembles the workload's orch::System, instantiates it
// (orch::instantiate_system), runs its fixed simulated span
// (orch::run_instantiated) and collects its simulated outputs; each phase
// is timed with this file's own steady_clock. Repetitions continue until S
// seconds of wall time are used. With --trace 1 one more repetition runs
// with ProfileSpec::trace on (trace.json lands in DIR), and the kv/dctcp
// workloads are re-run once through their public scenario entry point to
// prove that the assembly below reproduces it bit for bit.
//
// The last line of stdout is one JSON object holding every repetition's
// phase times, RunStats-derived counts and cycle sums, digest and outputs;
// run.py turns it into metrics and checks it against the references.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "cc/dctcp_scenario.hpp"
#include "hostsim/apps.hpp"
#include "kv/apps.hpp"
#include "kv/pegasus.hpp"
#include "kv/scenario.hpp"
#include "netsim/apps.hpp"
#include "obs/json.hpp"
#include "orch/builders.hpp"
#include "orch/instantiation.hpp"
#include "runtime/error.hpp"
#include "util/cycles.hpp"
#include "util/rng.hpp"

using namespace splitsim;

namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double>(t1 - t0).count();
}

// ---- JSON output ----------------------------------------------------------

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string num(std::uint64_t v) { return std::to_string(v); }

std::string str(const std::string& s) { return "\"" + obs::json_escape(s) + "\""; }

/// Insertion-ordered JSON object writer.
class Obj {
 public:
  Obj& add(const std::string& k, const std::string& raw) {
    body_ += (body_.empty() ? "" : ",") + str(k) + ":" + raw;
    return *this;
  }
  std::string done() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

// ---- workloads --------------------------------------------------------------

/// Exact simulated outputs of one repetition, compared bit for bit across
/// repetitions and against the recorded reference.
using Outputs = std::map<std::string, double>;

class Scenario {
 public:
  virtual ~Scenario() = default;
  /// Describe the simulated system and how to instantiate it.
  virtual void assemble(orch::System& sys, orch::Instantiation& inst) = 0;
  virtual Outputs collect(orch::Instantiated& done) = 0;
  virtual SimTime span() const = 0;
};

/// The paper's §4.3 datacenter (4 aggs x 6 racks x 50 protocol hosts) with a
/// qemu host pair exchanging request/response traffic (the bench_fig9 --full
/// shape). 25% of the 600 rack slot pairs carry a 400 Mb/s UDP flow, exactly
/// half of them rack-local; the seed picks the pairs, the cross-rack
/// destinations, the flow start offsets and the detailed hosts' seeds.
class FabricScenario : public Scenario {
 public:
  FabricScenario(std::string partition, std::uint64_t seed)
      : partition_(std::move(partition)), seed_(seed) {}

  SimTime span() const override { return from_ms(kSpanMs); }

  void assemble(orch::System& sys, orch::Instantiation& inst) override {
    orch::DatacenterSystemParams p;
    p.n_agg = kAgg;
    p.racks_per_agg = kRacks;
    p.hosts_per_rack = kHosts;

    Rng rng(seed_, 3);
    std::vector<int> pairs;  // flat (agg, rack, even slot) index
    for (int i = 0; i < kAgg * kRacks * (kHosts / 2); ++i) pairs.push_back(i);
    for (std::size_t i = pairs.size() - 1; i > 0; --i) {
      std::swap(pairs[i], pairs[rng.below(i + 1)]);
    }
    const int n_flows = static_cast<int>(pairs.size()) / 4;
    std::map<std::string, std::vector<std::function<void(netsim::HostNode&)>>> apps;
    for (int f = 0; f < n_flows; ++f) {
      const int pr = pairs[static_cast<std::size_t>(f)];
      const int a = pr / (kRacks * (kHosts / 2));
      const int r = pr / (kHosts / 2) % kRacks;
      const int h = pr % (kHosts / 2) * 2;
      int da = a, dr = r, dh = h + 1;  // rack-local for the first half
      if (f >= n_flows / 2) {
        da = static_cast<int>(rng.below(kAgg));
        dr = static_cast<int>(rng.below(kRacks));
        dh = static_cast<int>(rng.below(kHosts));
        if (da == a && dr == r && dh == h) dh = h + 1;
      }
      const auto port = static_cast<std::uint16_t>(9001 + f);
      const SimTime start = from_us(static_cast<double>(rng.below(500)));
      const proto::Ipv4Addr dst_ip = netsim::datacenter_host_ip(da, dr, dh);
      apps[host_name(da, dr, dh)].push_back([this, port](netsim::HostNode& n) {
        sinks_.push_back(&n.add_app<netsim::UdpSinkApp>(port));
      });
      apps[host_name(a, r, h)].push_back([this, port, start, dst_ip](netsim::HostNode& n) {
        sources_.push_back(&n.add_app<netsim::OnOffUdpApp>(
            netsim::OnOffUdpApp::Config{.dst = dst_ip,
                                        .dst_port = port,
                                        .src_port = port,
                                        .payload_bytes = 1400,
                                        .rate_bps = 400e6,
                                        .start_at = start}));
      });
    }
    auto dcs = orch::add_datacenter(
        sys, p, [&apps](int, int, int, orch::HostSpec spec) {
          auto it = apps.find(spec.name);
          if (it != apps.end()) {
            spec.apps = [fns = it->second](orch::HostContext& ctx) {
              for (const auto& fn : fns) fn(*ctx.protocol);
            };
          }
          return spec;
        });

    // The detailed pair: hostA sends 64 B requests at 38k/s to hostB, which
    // answers each after 30k instructions of work.
    dst_ = netsim::datacenter_host_ip(kAgg - 1, 0, kHosts);
    orch::HostSpec a;
    a.name = "hostA";
    a.seed = rng.next();
    a.apps = [this](orch::HostContext& ctx) {
      host_a_ = ctx.detailed;
      host_a_->udp_bind(9001, [this](const proto::Packet&, SimTime) { ++replies_; });
      host_a_->kernel().schedule_at(0, [this] { send_request(); });
    };
    orch::HostSpec b;
    b.name = "hostB";
    b.ip = dst_;
    b.seed = rng.next();
    b.apps = [](orch::HostContext& ctx) {
      hostsim::HostComponent* host = ctx.detailed;
      host->udp_bind(7, [host](const proto::Packet& pkt, SimTime) {
        host->exec(kReqInstrs, [host, pkt] {
          proto::AppData d;
          host->udp_send(pkt.src_ip, pkt.src_port, 7, d, 256);
        });
      });
    };
    orch::datacenter_attach_host(sys, dcs, p, 0, 0, std::move(a));
    orch::datacenter_attach_host(sys, dcs, p, kAgg - 1, 0, std::move(b));

    inst.fidelity_overrides["hostA"] = orch::HostFidelity::kQemu;
    inst.fidelity_overrides["hostB"] = orch::HostFidelity::kQemu;
    inst.host_template.cpu.qemu_sim_cost = 0.7;  // the Fig. 9/10 host cost
    inst.exec.partition = partition_;
  }

  Outputs collect(orch::Instantiated&) override {
    Outputs o;
    double sink_pkts = 0, sink_bytes = 0, sent = 0;
    for (auto* s : sinks_) {
      sink_pkts += static_cast<double>(s->packets());
      sink_bytes += static_cast<double>(s->bytes());
    }
    for (auto* s : sources_) sent += static_cast<double>(s->packets_sent());
    o["flows"] = static_cast<double>(sources_.size());
    o["bg_sent_pkts"] = sent;
    o["bg_delivered_pkts"] = sink_pkts;
    o["bg_delivered_bytes"] = sink_bytes;
    o["pair_requests"] = static_cast<double>(requests_);
    o["pair_replies"] = static_cast<double>(replies_);
    return o;
  }

 private:
  static constexpr int kAgg = 4, kRacks = 6, kHosts = 50;
  // Short spans give many repetitions per run (see README.md, Timing noise).
  static constexpr double kSpanMs = 3.0;
  static constexpr std::uint64_t kReqInstrs = 30'000;

  static std::string host_name(int a, int r, int h) {
    return "h" + std::to_string(a) + "." + std::to_string(r) + "." + std::to_string(h);
  }

  void send_request() {
    host_a_->exec(kReqInstrs / 4, [this] {
      proto::AppData d;
      host_a_->udp_send(dst_, 7, 9001, d, 64);
      ++requests_;
      host_a_->kernel().schedule_in(static_cast<SimTime>(timeunit::sec / 38e3),
                                    [this] { send_request(); });
    });
  }

  std::string partition_;
  std::uint64_t seed_;
  std::vector<netsim::UdpSinkApp*> sinks_;
  std::vector<netsim::OnOffUdpApp*> sources_;
  hostsim::HostComponent* host_a_ = nullptr;
  proto::Ipv4Addr dst_ = 0;
  std::uint64_t requests_ = 0, replies_ = 0;
};

/// Pegasus at end-to-end fidelity: 2 servers + 3 open-loop zipf clients, all
/// qemu hosts with NIC simulators, behind one switch. Mirrors
/// kv::run_kv_scenario exactly (its seeds are fixed inside the scenario, so
/// the benchmark seed does not reach this workload); the traced run checks
/// the mirror against the public entry point.
class KvScenario : public Scenario {
 public:
  static kv::ScenarioConfig config() {
    kv::ScenarioConfig cfg;
    cfg.system = kv::SystemKind::kPegasus;
    cfg.mode = kv::FidelityMode::kEndToEnd;
    cfg.duration = from_ms(5.0);
    cfg.window_start = from_ms(1.0);
    return cfg;
  }

  SimTime span() const override { return cfg_.duration; }

  void assemble(orch::System& sys, orch::Instantiation& inst) override {
    std::vector<proto::Ipv4Addr> server_ips;
    for (int s = 0; s < cfg_.n_servers; ++s) {
      server_ips.push_back(proto::ip(10, 0, 1, static_cast<unsigned>(s + 1)));
    }
    int sw = sys.add_switch({.name = "tor", .configure = [server_ips](netsim::SwitchNode& tor) {
                               kv::PegasusConfig pg;
                               pg.servers = server_ips;
                               tor.set_app(std::make_unique<kv::PegasusSwitchApp>(pg));
                             }});
    orch::LinkSpec link{.bw = cfg_.link_bw, .latency = cfg_.link_latency, .queue = {}};
    for (int s = 0; s < cfg_.n_servers; ++s) {
      orch::HostSpec spec;
      spec.name = "server" + std::to_string(s);
      spec.ip = server_ips[static_cast<std::size_t>(s)];
      spec.seed = static_cast<std::uint64_t>(100 + s);
      spec.apps = [this](orch::HostContext& ctx) {
        servers_.push_back(&ctx.detailed->add_app<kv::HostKvServerApp>(cfg_.server));
      };
      inst.fidelity_overrides[spec.name] = orch::HostFidelity::kQemu;
      sys.add_link(sys.add_host(std::move(spec)), sw, link);
    }
    for (int c = 0; c < cfg_.n_clients; ++c) {
      kv::KvClientConfig cc = cfg_.client;
      cc.local_port = static_cast<std::uint16_t>(9001 + c);
      cc.open_rate_per_sec = cfg_.per_client_rate;
      cc.seed = static_cast<std::uint64_t>(200 + c);
      cc.window_start = cfg_.window_start;
      cc.window_end = cfg_.duration;
      cc.actor = static_cast<std::uint32_t>(c);
      orch::HostSpec spec;
      spec.name = "client" + std::to_string(c);
      spec.ip = proto::ip(10, 0, 2, static_cast<unsigned>(c + 1));
      spec.seed = static_cast<std::uint64_t>(300 + c);
      spec.apps = [this, cc](orch::HostContext& ctx) {
        clients_.push_back(&ctx.detailed->add_app<kv::HostKvClientApp>(cc));
      };
      inst.fidelity_overrides[spec.name] = orch::HostFidelity::kQemu;
      sys.add_link(sys.add_host(std::move(spec)), sw, link);
    }
  }

  Outputs collect(orch::Instantiated&) override {
    Outputs o;
    double ops = 0, reads = 0, writes = 0, lat = 0, served = 0, srv = 0;
    for (auto* c : clients_) {
      ops += static_cast<double>(c->window_ops());
      reads += static_cast<double>(c->window_reads());
      writes += static_cast<double>(c->window_writes());
      lat += static_cast<double>(c->latency_us().count());
      served += static_cast<double>(c->switch_served());
    }
    for (auto* s : servers_) srv += static_cast<double>(s->reads() + s->writes());
    o["window_ops"] = ops;
    o["window_reads"] = reads;
    o["window_writes"] = writes;
    o["latency_samples"] = lat;
    o["switch_served"] = served;
    o["server_requests"] = srv;
    return o;
  }

 private:
  kv::ScenarioConfig cfg_ = config();
  std::vector<kv::HostKvServerApp*> servers_;
  std::vector<kv::HostKvClientApp*> clients_;
};

/// Fig. 6 DCTCP at end-to-end fidelity with marking threshold K=20: two
/// gem5 sender/receiver pairs with NIC simulators across a 10G dumbbell,
/// closed-loop TCP bulk flows. Mirrors cc::run_dctcp_scenario exactly (its
/// seeds are fixed inside the scenario; the benchmark seed does not reach
/// this workload); the traced run checks the mirror against it.
class DctcpScenario : public Scenario {
 public:
  static cc::DctcpScenarioConfig config() {
    cc::DctcpScenarioConfig cfg;
    cfg.mode = cc::DctcpMode::kEndToEnd;
    cfg.marking_threshold_pkts = 20;
    cfg.duration = from_ms(4.0);
    cfg.window_start = from_ms(1.0);
    return cfg;
  }

  SimTime span() const override { return cfg_.duration; }

  void assemble(orch::System& sys, orch::Instantiation& inst) override {
    proto::TcpConfig tcp;
    tcp.cc = proto::CcAlgo::kDctcp;
    netsim::QueueConfig bq;
    bq.capacity_pkts = cfg_.queue_capacity_pkts;
    bq.ecn_enabled = true;
    bq.ecn_threshold_pkts = cfg_.marking_threshold_pkts;
    // The bottleneck link goes first so device 0 on swL carries its queue.
    int swl = sys.add_switch({.name = "swL", .configure = {}});
    int swr = sys.add_switch({.name = "swR", .configure = {}});
    sys.add_link(swl, swr,
                 {.bw = cfg_.bottleneck_bw, .latency = cfg_.bottleneck_latency, .queue = bq});
    orch::LinkSpec edge{.bw = cfg_.edge_bw, .latency = cfg_.edge_latency, .queue = {}};
    const cc::DctcpScenarioConfig c = cfg_;
    auto tune = [c](hostsim::HostConfig& hc, nicsim::NicConfig& nc) {
      hc.os.tcp_send_instrs = c.tcp_send_instrs;
      hc.os.tcp_recv_instrs = c.tcp_recv_instrs;
      nc.rx_intr_throttle = c.rx_intr_throttle;
      nc.seed = hc.seed;
    };
    for (int i = 0; i < cfg_.pairs; ++i) {
      const proto::Ipv4Addr rip = proto::ip(10, 2, 0, static_cast<unsigned>(i + 1));
      orch::HostSpec snd;
      snd.name = "hL" + std::to_string(i);
      snd.ip = proto::ip(10, 1, 0, static_cast<unsigned>(i + 1));
      snd.seed = static_cast<std::uint64_t>(100 + i);
      snd.apps = [tcp, rip, i](orch::HostContext& ctx) {
        ctx.detailed->add_app<hostsim::HostBulkSenderApp>(hostsim::HostBulkSenderApp::Config{
            .dst = rip, .dst_port = 5001, .tcp = tcp, .start_at = from_us(10.0 * i)});
      };
      snd.tune = tune;
      orch::HostSpec rcv;
      rcv.name = "hR" + std::to_string(i);
      rcv.ip = rip;
      rcv.seed = static_cast<std::uint64_t>(200 + i);
      rcv.apps = [this, tcp](orch::HostContext& ctx) {
        sinks_.push_back(&ctx.detailed->add_app<hostsim::HostTcpSinkApp>(
            hostsim::HostTcpSinkApp::Config{.port = 5001,
                                            .tcp = tcp,
                                            .window_start = cfg_.window_start,
                                            .window_end = cfg_.duration}));
      };
      rcv.tune = tune;
      inst.fidelity_overrides[snd.name] = orch::HostFidelity::kGem5;
      inst.fidelity_overrides[rcv.name] = orch::HostFidelity::kGem5;
      int lh = sys.add_host(std::move(snd));
      int rh = sys.add_host(std::move(rcv));
      sys.add_link(lh, swl, edge);
      sys.add_link(rh, swr, edge);
    }
  }

  Outputs collect(orch::Instantiated& done) override {
    Outputs o;
    double goodput = 0, bytes = 0;
    for (auto* s : sinks_) {
      goodput += s->window_goodput_bps();
      bytes += static_cast<double>(s->total_bytes());
    }
    auto& q = done.net.switches.at("swL")->dev(0).queue();
    o["goodput_bps"] = goodput;
    o["delivered_bytes"] = bytes;
    o["ecn_marks"] = static_cast<double>(q.ecn_marks());
    o["drops"] = static_cast<double>(q.drops());
    return o;
  }

 private:
  cc::DctcpScenarioConfig cfg_ = config();
  std::vector<hostsim::HostTcpSinkApp*> sinks_;
};

std::unique_ptr<Scenario> make_scenario(const std::string& workload, std::uint64_t seed) {
  if (workload == "fabric_1p") return std::make_unique<FabricScenario>("s", seed);
  if (workload == "fabric_rs") return std::make_unique<FabricScenario>("rs", seed);
  if (workload == "kv_e2e") return std::make_unique<KvScenario>();
  if (workload == "dctcp_e2e") return std::make_unique<DctcpScenario>();
  throw std::invalid_argument("unknown workload '" + workload + "'");
}

/// The public scenario entry point this workload mirrors ("" if none).
std::string public_digest(const std::string& workload) {
  sync::EventDigest d;
  if (workload == "kv_e2e") {
    d = kv::run_kv_scenario(KvScenario::config()).digest;
  } else if (workload == "dctcp_e2e") {
    d = cc::run_dctcp_scenario(DctcpScenario::config()).digest;
  } else {
    return "";
  }
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, d.value());
  return buf;
}

// ---- one repetition ---------------------------------------------------------

/// Layer of a component, by the names the orch layer gives them.
std::string layer_of(const std::string& component) {
  if (component.rfind("net", 0) == 0) return "netsim";
  if (component.rfind("host.", 0) == 0) return "hostsim";
  if (component.rfind("nic.", 0) == 0) return "nicsim";
  return "other";
}

struct Span {
  std::string name;
  double start_s, dur_s;
  int rep;
};

class Recorder {
 public:
  explicit Recorder(Clock::time_point origin) : origin_(origin) {}
  void add(const std::string& name, Clock::time_point t0, Clock::time_point t1, int rep) {
    spans_.push_back({name, since(origin_, t0), since(t0, t1), rep});
  }
  std::string json() const {
    std::string out = "[";
    for (const auto& s : spans_) {
      if (out.size() > 1) out += ",";
      out += Obj()
                 .add("name", str(s.name))
                 .add("start_s", num(s.start_s))
                 .add("dur_s", num(s.dur_s))
                 .add("rep", std::to_string(s.rep))
                 .done();
    }
    return out + "]";
  }

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  /// Coscheduled for every benchmark run; pooled and threaded only serve to
  /// reproduce the cross-mode failures that keep them out (see README.md).
  runtime::RunMode mode = runtime::RunMode::kCoscheduled;
  unsigned workers = 0;
};

/// Runs one repetition and returns its JSON report.
std::string run_rep(const Options& opt, const orch::ProfileSpec& profile, int rep,
                    Recorder& rec) {
  const auto t0 = Clock::now();
  auto scen = make_scenario(opt.workload, opt.seed);
  runtime::Simulation sim;
  orch::System sys;
  orch::Instantiation inst;
  scen->assemble(sys, inst);
  inst.exec.run_mode = opt.mode;
  inst.exec.pool_workers = opt.workers;
  inst.profile = profile;
  const auto t1 = Clock::now();
  orch::Instantiated done = orch::instantiate_system(sim, sys, inst);
  const auto t2 = Clock::now();

  Obj r;
  runtime::RunStats stats;
  Outputs outputs;
  bool ok = true;
  try {
    stats = orch::run_instantiated(sim, inst, scen->span());
  } catch (const runtime::SimulationError& e) {
    ok = false;
    r.add("error", str(e.what()));
    if (e.stats() != nullptr) stats = *e.stats();
  }
  const auto t3 = Clock::now();
  if (ok) outputs = scen->collect(done);
  const auto t4 = Clock::now();
  rec.add("workload", t0, t4, rep);
  rec.add("build", t0, t2, rep);
  rec.add("run", t2, t3, rep);
  rec.add("collect", t3, t4, rep);

  std::uint64_t events = 0, batches = 0, busy = 0, busy_max = 0;
  std::uint64_t data = 0, syncs = 0, stalls = 0, tx_cyc = 0, rx_cyc = 0;
  std::map<std::string, std::uint64_t> layer_busy, layer_events;
  for (const auto& c : stats.components) {
    events += c.events;
    batches += c.batches;
    busy += c.busy_cycles;
    busy_max = std::max(busy_max, c.busy_cycles);
    layer_busy[layer_of(c.name)] += c.busy_cycles;
    layer_events[layer_of(c.name)] += c.events;
    for (const auto& a : c.adapters) {
      data += a.totals.tx_msgs;
      syncs += a.totals.tx_syncs;
      stalls += a.totals.backpressure_stalls;
      tx_cyc += a.totals.tx_cycles;
      rx_cyc += a.totals.rx_cycles;
    }
  }
  Obj counts, cycles, outs;
  counts.add("components", num(static_cast<std::uint64_t>(sim.components().size())))
      .add("channels", num(static_cast<std::uint64_t>(sim.channels().size())))
      .add("events", num(events))
      .add("batches", num(batches))
      .add("data_msgs", num(data))
      .add("sync_msgs", num(syncs))
      .add("backpressure_stalls", num(stalls));
  for (const char* l : {"netsim", "hostsim", "nicsim"}) {
    counts.add(std::string(l) + "_events", num(layer_events[l]));
    cycles.add(std::string(l) + "_busy", num(layer_busy[l]));
  }
  cycles.add("busy", num(busy))
      .add("busy_max", num(busy_max))
      .add("sync_tx", num(tx_cyc))
      .add("sync_rx", num(rx_cyc));
  for (const auto& [k, v] : outputs) outs.add(k, num(v));
  char digest[24];
  std::snprintf(digest, sizeof(digest), "%016" PRIx64, stats.digest.value());

  return r.add("rep", std::to_string(rep))
      .add("ok", ok ? "true" : "false")
      .add("traced", profile.trace ? "true" : "false")
      .add("assemble_s", num(since(t0, t1)))
      .add("instantiate_s", num(since(t1, t2)))
      .add("run_s", num(since(t2, t3)))
      .add("collect_s", num(since(t3, t4)))
      .add("stats_wall_s", num(stats.wall_seconds))
      .add("digest", str(digest))
      .add("digest_count", num(stats.digest.count))
      .add("counts", counts.done())
      .add("cycles", cycles.done())
      .add("outputs", outs.done())
      .done();
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) args[argv[i]] = argv[i + 1];
  for (const char* k : {"--workload", "--seed", "--seconds", "--trace", "--out"}) {
    if (args.count(k) == 0) {
      std::fprintf(stderr,
                   "usage: scenbench --workload W --seed N --seconds S --trace 0|1 --out DIR"
                   " [--run-mode coscheduled|pooled|threaded] [--workers N]\n");
      return 2;
    }
  }
  Options opt;
  opt.workload = args["--workload"];
  opt.seed = std::strtoull(args["--seed"].c_str(), nullptr, 10);
  const double budget = std::atof(args["--seconds"].c_str());
  const bool trace = args["--trace"] == "1";
  const std::string out_dir = args["--out"];
  const std::string mode = args.count("--run-mode") ? args["--run-mode"] : "coscheduled";
  if (mode == "pooled") {
    opt.mode = runtime::RunMode::kPooled;
  } else if (mode == "threaded") {
    opt.mode = runtime::RunMode::kThreaded;
  } else if (mode != "coscheduled") {
    std::fprintf(stderr, "scenbench: unknown --run-mode %s\n", mode.c_str());
    return 2;
  }
  opt.workers = static_cast<unsigned>(std::atoi(args["--workers"].c_str()));

  const auto origin = Clock::now();
  Recorder rec(origin);
  std::vector<std::string> reps;
  try {
    // At least three untraced repetitions, then as many as fit the budget
    // at the pace of the slowest one so far.
    double slowest = 0;
    while (reps.size() < 3 || since(origin, Clock::now()) + slowest <= budget) {
      const auto t0 = Clock::now();
      reps.push_back(run_rep(opt, {}, static_cast<int>(reps.size()), rec));
      slowest = std::max(slowest, since(t0, Clock::now()));
    }
    std::string pub;
    if (trace) {
      // The first cycles_per_second() call of this process happens inside
      // this run (it sleeps ~20 ms when obs is on), so it is charged to the
      // traced run time and shows in the trace overhead.
      orch::ProfileSpec p;
      p.trace = true;
      p.log_dir = out_dir;
      reps.push_back(run_rep(opt, p, static_cast<int>(reps.size()), rec));
      pub = public_digest(opt.workload);
    }
    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    std::string rep_json = "[";
    for (const auto& r : reps) rep_json += (rep_json.size() > 1 ? "," : "") + r;
    rep_json += "]";
    std::printf("%s\n", Obj()
                            .add("workload", str(opt.workload))
                            .add("seed", num(opt.seed))
                            .add("peak_rss_kb", num(static_cast<std::uint64_t>(ru.ru_maxrss)))
                            .add("cycles_per_second", num(cycles_per_second()))
                            .add("public_digest", str(pub))
                            .add("reps", rep_json)
                            .add("spans", rec.json())
                            .done()
                            .c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "scenbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
