#include <gtest/gtest.h>

#include "netsim/apps.hpp"
#include "netsim/native_parallel.hpp"
#include "orch/instantiation.hpp"
#include "orch/partition.hpp"

using namespace splitsim;
using namespace splitsim::orch;
using runtime::RunMode;
using runtime::Simulation;

namespace {

/// A small client/server system used across instantiation tests: one switch,
/// a server, and two clients; the server echoes UDP datagrams.
System make_client_server_system(int* replies) {
  System sys;
  int sw = sys.add_switch({.name = "sw", .configure = nullptr});
  HostSpec server;
  server.name = "server";
  server.ip = proto::ip(10, 0, 0, 1);
  server.apps = [](HostContext& ctx) {
    if (ctx.is_detailed()) {
      ctx.detailed->udp_bind(7, [host = ctx.detailed](const proto::Packet& p, SimTime) {
        host->udp_send(p.src_ip, p.src_port, 7, p.app);
      });
    } else {
      ctx.protocol->add_app<netsim::UdpEchoApp>(7);
    }
  };
  int srv = sys.add_host(server);

  for (int c = 0; c < 2; ++c) {
    HostSpec client;
    client.name = "client" + std::to_string(c);
    client.ip = proto::ip(10, 0, 0, static_cast<unsigned>(10 + c));
    client.apps = [replies](HostContext& ctx) {
      if (ctx.is_detailed()) {
        ctx.detailed->udp_bind(9001, [replies](const proto::Packet&, SimTime) { ++*replies; });
        HostContext copy = ctx;
        ctx.detailed->kernel().schedule_at(from_us(5.0), [copy]() mutable {
          proto::AppData d;
          d.store(1);
          copy.detailed->udp_send(proto::ip(10, 0, 0, 1), 7, 9001, d);
        });
      } else {
        ctx.protocol->udp_bind(9001, [replies](const proto::Packet&, SimTime) { ++*replies; });
        HostContext copy = ctx;
        ctx.protocol->kernel().schedule_at(from_us(5.0), [copy]() mutable {
          proto::AppData d;
          d.store(1);
          copy.protocol->udp_send(proto::ip(10, 0, 0, 1), 7, 9001, d);
        });
      }
    };
    sys.add_host(client);
  }
  // Component ids: switch 0, server 1, clients 2 and 3.
  sys.add_link(srv, sw, {});
  sys.add_link(2, sw, {});
  sys.add_link(3, sw, {});
  return sys;
}

}  // namespace

class OrchFidelity : public ::testing::TestWithParam<HostFidelity> {};

INSTANTIATE_TEST_SUITE_P(Fidelities, OrchFidelity,
                         ::testing::Values(HostFidelity::kProtocol, HostFidelity::kQemu,
                                           HostFidelity::kGem5),
                         [](const auto& info) { return to_string(info.param); });

TEST_P(OrchFidelity, SameSystemRunsAtAnyFidelity) {
  // The paper's separation: one system configuration, several instantiation
  // choices — without touching the system description.
  int replies = 0;
  System sys = make_client_server_system(&replies);
  Instantiation inst;
  inst.default_fidelity = GetParam();
  Simulation sim;
  auto done = instantiate_system(sim, sys, inst);
  sim.run(from_ms(1.0), RunMode::kCoscheduled);
  EXPECT_EQ(replies, 2);
  std::size_t expected =
      GetParam() == HostFidelity::kProtocol ? 1u : 1u + 3u * 2u;  // net + (host+nic)*3
  EXPECT_EQ(done.component_count, expected);
}

TEST(OrchTest, MixedFidelityPerHostOverrides) {
  int replies = 0;
  System sys = make_client_server_system(&replies);
  Instantiation inst;
  inst.default_fidelity = HostFidelity::kProtocol;
  inst.fidelity_overrides["server"] = HostFidelity::kQemu;
  Simulation sim;
  auto done = instantiate_system(sim, sys, inst);
  EXPECT_TRUE(done.hosts["server"].ctx.is_detailed());
  EXPECT_FALSE(done.hosts["client0"].ctx.is_detailed());
  sim.run(from_ms(1.0), RunMode::kCoscheduled);
  EXPECT_EQ(replies, 2);
  EXPECT_EQ(done.component_count, 3u);  // net + server host + server nic
}

TEST(OrchTest, PartitionerSplitsNetwork) {
  int replies = 0;
  System sys = make_client_server_system(&replies);
  // Add a second switch so there is something to cut.
  // (Rebuild: server-sw0, clients on sw1, sw0-sw1 trunk.)
  System sys2;
  int sw0 = sys2.add_switch({.name = "sw0", .configure = nullptr});
  int sw1 = sys2.add_switch({.name = "sw1", .configure = nullptr});
  sys2.add_link(sw0, sw1, {});
  HostSpec server = sys.hosts()[0];
  HostSpec c0 = sys.hosts()[1];
  HostSpec c1 = sys.hosts()[2];
  int srv = sys2.add_host(server);
  int h0 = sys2.add_host(c0);
  int h1 = sys2.add_host(c1);
  sys2.add_link(srv, sw0, {});
  sys2.add_link(h0, sw1, {});
  sys2.add_link(h1, sw1, {});

  Instantiation inst;
  inst.partitioner = [](const netsim::Topology& topo) {
    // sw0 side = 0; sw1 side = 1 (hosts follow their switch).
    std::vector<int> part(topo.nodes().size(), 0);
    for (std::size_t i = 0; i < topo.nodes().size(); ++i) {
      const auto& n = topo.nodes()[i];
      if (n.name == "sw1" || n.name == "client0" || n.name == "client1") part[i] = 1;
    }
    return part;
  };
  Simulation sim;
  auto done = instantiate_system(sim, sys2, inst);
  EXPECT_EQ(done.net.nets.size(), 2u);
  sim.run(from_ms(1.0), RunMode::kCoscheduled);
  EXPECT_EQ(replies, 2);
}

TEST(PartitionTest, StrategiesProduceExpectedCounts) {
  netsim::Datacenter dc = netsim::make_datacenter(4, 6, 5);
  EXPECT_EQ(partition_count(partition_s(dc)), 1);
  EXPECT_EQ(partition_count(partition_ac(dc)), 5);    // 4 agg blocks + core
  EXPECT_EQ(partition_count(partition_cr(dc, 3)), 9); // 24/3 racks + switches
  EXPECT_EQ(partition_count(partition_cr(dc, 1)), 25);
  EXPECT_EQ(partition_count(partition_rs(dc)), 29);   // 24 racks + 4 agg + core
}

TEST(PartitionTest, ByNameMatchesDirect) {
  netsim::Datacenter dc = netsim::make_datacenter(2, 2, 3);
  EXPECT_EQ(partition_by_name(dc, "s"), partition_s(dc));
  EXPECT_EQ(partition_by_name(dc, "ac"), partition_ac(dc));
  EXPECT_EQ(partition_by_name(dc, "cr2"), partition_cr(dc, 2));
  EXPECT_EQ(partition_by_name(dc, "rs"), partition_rs(dc));
  EXPECT_THROW(partition_by_name(dc, "bogus"), std::invalid_argument);
}

TEST(PartitionTest, RackNodesStayTogether) {
  netsim::Datacenter dc = netsim::make_datacenter(2, 3, 4);
  auto part = partition_rs(dc);
  for (std::size_t a = 0; a < dc.tors.size(); ++a) {
    for (std::size_t r = 0; r < dc.tors[a].size(); ++r) {
      int p = part[static_cast<std::size_t>(dc.tors[a][r])];
      for (int h : dc.hosts[a][r]) {
        EXPECT_EQ(part[static_cast<std::size_t>(h)], p);
      }
    }
  }
}

TEST(PartitionTest, PartitionedDatacenterStillDelivers) {
  // Behavior invariance: running the same traffic under different partition
  // strategies produces the same deliveries.
  auto run = [](const std::string& strategy) {
    Simulation sim;
    netsim::Datacenter dc = netsim::make_datacenter(2, 2, 3);
    auto part = partition_by_name(dc, strategy);
    auto inst = netsim::instantiate(sim, dc.topo, strategy == "s" ? std::vector<int>{} : part);
    auto* src = inst.hosts["h0.0.0"];
    auto* dst = inst.hosts["h1.1.2"];
    auto& sink = dst->add_app<netsim::UdpSinkApp>(7);
    for (int i = 0; i < 10; ++i) {
      src->kernel().schedule_at(from_us(10.0 * (i + 1)), [src] {
        proto::AppData d;
        src->udp_send(netsim::datacenter_host_ip(1, 1, 2), 7, 1, d, 400);
      });
    }
    sim.run(from_ms(1.0), RunMode::kCoscheduled);
    return sink.packets();
  };
  EXPECT_EQ(run("s"), 10u);
  EXPECT_EQ(run("ac"), 10u);
  EXPECT_EQ(run("cr1"), 10u);
  EXPECT_EQ(run("rs"), 10u);
}

TEST(NativeParallelTest, BackendsPreserveBehavior) {
  auto run = [](netsim::ParallelBackend backend) {
    Simulation sim;
    netsim::FatTree ft = netsim::make_fattree(4, Bandwidth::gbps(10), Bandwidth::gbps(10),
                                              from_us(1.0));
    auto part = netsim::fattree_partition(ft, 4);
    auto inst = netsim::instantiate_parallel(sim, ft.topo, part, backend);
    proto::TcpConfig tcp;
    inst.hosts["h0.0.0"]->add_app<netsim::BulkSenderApp>(netsim::BulkSenderApp::Config{
        .dst = proto::ip(10, 3, 1, 3),
        .dst_port = 5001,
        .tcp = tcp,
        .start_at = 0,
        .bytes = 500'000});
    auto& sink = inst.hosts["h3.1.1"]->add_app<netsim::TcpSinkApp>(
        netsim::TcpSinkApp::Config{.port = 5001, .tcp = tcp});
    sim.run(from_ms(20.0), RunMode::kCoscheduled);
    return sink.total_bytes();
  };
  auto split = run(netsim::ParallelBackend::kSplitSim);
  EXPECT_EQ(split, 500'000u);
  EXPECT_EQ(run(netsim::ParallelBackend::kNs3Native), split);
  EXPECT_EQ(run(netsim::ParallelBackend::kOmnetNative), split);
}

TEST(NativeParallelTest, NativeBackendsBurnMoreCycles) {
  auto busy = [](netsim::ParallelBackend backend) {
    Simulation sim;
    netsim::FatTree ft = netsim::make_fattree(4, Bandwidth::gbps(10), Bandwidth::gbps(10),
                                              from_us(1.0));
    auto part = netsim::fattree_partition(ft, 4);
    netsim::instantiate_parallel(sim, ft.topo, part, backend);
    auto stats = sim.run(from_ms(5.0), RunMode::kCoscheduled);
    std::uint64_t total = 0;
    for (auto& c : stats.components) total += c.busy_cycles;
    return total;
  };
  auto split = busy(netsim::ParallelBackend::kSplitSim);
  EXPECT_GT(busy(netsim::ParallelBackend::kNs3Native), split);
  EXPECT_GT(busy(netsim::ParallelBackend::kOmnetNative), split);
}

// ---- partition auto-selection -------------------------------------------

namespace {

/// A fig9-shaped System (core + per-"agg" switches + rack hosts) with
/// stateless installers, so calibration can instantiate it repeatedly.
orch::System make_fabric_system(int aggs, int hosts_per_agg) {
  orch::System sys;
  int core = sys.add_switch({.name = "core", .configure = nullptr});
  int next_ip = 1;
  for (int a = 0; a < aggs; ++a) {
    int agg = sys.add_switch({.name = "agg" + std::to_string(a), .configure = nullptr});
    sys.add_link(agg, core, {});
    for (int h = 0; h < hosts_per_agg; ++h) {
      orch::HostSpec spec;
      spec.name = "h" + std::to_string(a) + "." + std::to_string(h);
      spec.ip = proto::ip(10, 0, 0, static_cast<unsigned>(next_ip++));
      // On/off traffic towards the next host in the *same* agg block;
      // every host also sinks. Intra-block traffic is what makes
      // decomposed partitions genuinely parallel — all-cross-block
      // traffic funnels through the core switch, an indivisible
      // bottleneck that legitimately ranks "s" first.
      unsigned peer = static_cast<unsigned>(a * hosts_per_agg + (h + 1) % hosts_per_agg + 1);
      spec.apps = [peer](orch::HostContext& ctx) {
        ctx.protocol->add_app<netsim::UdpSinkApp>(7);
        ctx.protocol->add_app<netsim::OnOffUdpApp>(
            netsim::OnOffUdpApp::Config{.dst = proto::ip(10, 0, 0, peer),
                                        .dst_port = 7,
                                        .src_port = 7,
                                        .payload_bytes = 1400,
                                        .rate_bps = 2e9});
      };
      int node = sys.add_host(spec);
      sys.add_link(node, agg, {});
    }
  }
  return sys;
}

}  // namespace

TEST(AdaptivePartitionTest, CalibrationPicksBestCandidate) {
  orch::System sys = make_fabric_system(3, 4);
  orch::Instantiation inst;
  auto cal = orch::calibrate_partition(sys, inst, from_ms(4.0));
  ASSERT_EQ(cal.candidates.size(), 5u);
  EXPECT_GT(cal.quantum, 0u);

  double best = -1.0;
  std::string best_name;
  for (const auto& c : cal.candidates) {
    if (!c.failed && c.score > best) {
      best = c.score;
      best_name = c.name;
    }
  }
  EXPECT_EQ(cal.chosen, best_name);
  // A three-block fabric decomposes well: single-process must not win.
  EXPECT_NE(cal.chosen, "s");
}

TEST(AdaptivePartitionTest, AutoPartitionInstantiates) {
  // Same 3-block fabric as above: smaller systems genuinely score close
  // to "s" (channel overhead eats the parallelism), making the split
  // assertion below meaningless.
  orch::System sys = make_fabric_system(3, 4);
  orch::Instantiation inst;
  inst.exec.partition = "auto";
  Simulation sim;
  auto done = orch::instantiate_system(sim, sys, inst);
  // "auto" resolved to a real strategy that split the network.
  EXPECT_GT(done.component_count, 1u);
  auto stats = orch::run_instantiated(sim, inst, from_ms(2.0));
  EXPECT_GT(stats.wall_seconds, 0.0);
}
