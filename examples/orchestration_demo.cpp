// Example: the configuration & orchestration abstraction (paper §3.4).
//
// Builds ONE system configuration — a small leaf-spine network with a
// request/response workload — and instantiates it three different ways
// without touching the system description:
//   1. everything protocol-level, single network process
//   2. mixed fidelity: the server detailed (qemu), clients protocol-level
//   3. mixed fidelity + the network decomposed into two partitions
//   4. mixed fidelity + a *named* partition strategy and execution spec
//      (threaded run mode, profiler enabled) via run_instantiated
//
//   $ ./orchestration_demo
#include <cstdio>

#include "netsim/apps.hpp"
#include "orch/instantiation.hpp"
#include "util/table.hpp"

using namespace splitsim;
using namespace splitsim::orch;

namespace {

struct Counters {
  int replies = 0;
};

/// The simulated system: 2 leaf switches, 1 spine, a server, 4 clients.
/// Applications are attached through fidelity-agnostic installers.
System build_system(Counters& counters) {
  System sys;
  int spine = sys.add_switch({.name = "spine", .configure = nullptr});
  int leaf0 = sys.add_switch({.name = "leaf0", .configure = nullptr});
  int leaf1 = sys.add_switch({.name = "leaf1", .configure = nullptr});
  sys.add_link(leaf0, spine, {.bw = Bandwidth::gbps(40), .latency = from_us(1.0), .queue = {}});
  sys.add_link(leaf1, spine, {.bw = Bandwidth::gbps(40), .latency = from_us(1.0), .queue = {}});

  HostSpec server;
  server.name = "server";
  server.ip = proto::ip(10, 0, 0, 1);
  server.apps = [](HostContext& ctx) {
    // The same logic at either fidelity; on a detailed host each request
    // costs CPU work.
    if (ctx.is_detailed()) {
      auto* h = ctx.detailed;
      h->udp_bind(7, [h](const proto::Packet& p, SimTime) {
        h->exec(20'000, [h, p] {
          proto::AppData d;
          h->udp_send(p.src_ip, p.src_port, 7, d, 256);
        });
      });
    } else {
      auto* h = ctx.protocol;
      h->udp_bind(7, [h](const proto::Packet& p, SimTime) {
        proto::AppData d;
        h->udp_send(p.src_ip, p.src_port, 7, d, 256);
      });
    }
  };
  int srv = sys.add_host(server);
  sys.add_link(srv, leaf0, {});

  for (int c = 0; c < 4; ++c) {
    HostSpec client;
    client.name = "client" + std::to_string(c);
    client.ip = proto::ip(10, 0, 1, static_cast<unsigned>(c + 1));
    client.apps = [&counters](HostContext& ctx) {
      auto* h = ctx.protocol;  // clients stay protocol-level in this demo
      if (h == nullptr) return;
      h->udp_bind(9001, [&counters](const proto::Packet&, SimTime) { ++counters.replies; });
      // 10k requests/s for the whole run. The loop is a self-rescheduling
      // value: each firing schedules a fresh copy, so no state outlives the
      // event that owns it.
      struct Loop {
        netsim::HostNode* host;
        void operator()() {
          proto::AppData d;
          host->udp_send(proto::ip(10, 0, 0, 1), 7, 9001, d, 64);
          host->kernel().schedule_in(from_us(100.0), *this);
        }
      };
      h->kernel().schedule_at(0, Loop{h});
    };
    int id = sys.add_host(client);
    sys.add_link(id, leaf1, {});
  }
  return sys;
}

}  // namespace

int main() {
  Table t({"instantiation", "sim instances", "replies", "wall (s)"});

  // 1. All protocol-level.
  {
    Counters c;
    System sys = build_system(c);
    Instantiation inst;  // defaults: protocol fidelity, single net process
    runtime::Simulation sim;
    auto done = instantiate_system(sim, sys, inst);
    auto stats = sim.run(from_ms(10.0), runtime::RunMode::kCoscheduled);
    t.add_row({"all protocol-level", std::to_string(done.component_count),
               std::to_string(c.replies), Table::num(stats.wall_seconds, 3)});
  }

  // 2. Server detailed (qemu), same system object rebuilt.
  {
    Counters c;
    System sys = build_system(c);
    Instantiation inst;
    inst.fidelity_overrides["server"] = HostFidelity::kQemu;
    runtime::Simulation sim;
    auto done = instantiate_system(sim, sys, inst);
    auto stats = sim.run(from_ms(10.0), runtime::RunMode::kCoscheduled);
    t.add_row({"server=qemu, clients protocol", std::to_string(done.component_count),
               std::to_string(c.replies), Table::num(stats.wall_seconds, 3)});
  }

  // 3. Same, plus the network decomposed at the leaf boundary.
  {
    Counters c;
    System sys = build_system(c);
    Instantiation inst;
    inst.fidelity_overrides["server"] = HostFidelity::kQemu;
    inst.partitioner = [](const netsim::Topology& topo) {
      std::vector<int> part(topo.nodes().size(), 0);
      for (std::size_t i = 0; i < topo.nodes().size(); ++i) {
        const auto& n = topo.nodes()[i];
        if (n.name == "leaf1" || n.name.rfind("client", 0) == 0) part[i] = 1;
      }
      return part;
    };
    runtime::Simulation sim;
    auto done = instantiate_system(sim, sys, inst);
    std::printf("wiring manifest of the third instantiation:\n%s\n",
                sim.describe().c_str());
    auto stats = sim.run(from_ms(10.0), runtime::RunMode::kCoscheduled);
    t.add_row({"server=qemu, net split in 2", std::to_string(done.component_count),
               std::to_string(c.replies), Table::num(stats.wall_seconds, 3)});
  }

  // 4. Named strategy + execution spec: no hand-written partitioner. "rs"
  //    groups each access switch with its hosts and isolates the spine;
  //    the run mode and worker count ride along in the Instantiation, so
  //    run_instantiated needs no extra arguments.
  {
    Counters c;
    System sys = build_system(c);
    Instantiation inst;
    inst.fidelity_overrides["server"] = HostFidelity::kQemu;
    inst.exec.partition = "rs";
    inst.exec.run_mode = runtime::RunMode::kThreaded;
    runtime::Simulation sim;
    auto done = instantiate_system(sim, sys, inst);
    auto stats = run_instantiated(sim, inst, from_ms(10.0));
    t.add_row({"server=qemu, partition=rs, threaded", std::to_string(done.component_count),
               std::to_string(c.replies), Table::num(stats.wall_seconds, 3)});
  }

  std::printf("%s", t.to_string().c_str());
  std::printf("\nOne system description, four simulation instantiations — the paper's\n"
              "separation of system configuration from implementation choices.\n");
  return 0;
}
