#include <gtest/gtest.h>

#include <stdexcept>
#include <utility>
#include <vector>

#include "netsim/apps.hpp"
#include "netsim/topology.hpp"
#include "proto/msg_types.hpp"
#include "runtime/runner.hpp"

using namespace splitsim;
using namespace splitsim::netsim;
using runtime::RunMode;
using runtime::Simulation;

TEST(QueueTest, DropTailRespectsCapacity) {
  DropTailQueue q({.capacity_pkts = 2});
  proto::Packet p;
  EXPECT_TRUE(q.enqueue(proto::Packet{p}));
  EXPECT_TRUE(q.enqueue(proto::Packet{p}));
  EXPECT_FALSE(q.enqueue(proto::Packet{p}));
  EXPECT_EQ(q.drops(), 1u);
  EXPECT_EQ(q.packets(), 2u);
}

TEST(QueueTest, EcnMarksAboveThreshold) {
  DropTailQueue q({.capacity_pkts = 100, .ecn_enabled = true, .ecn_threshold_pkts = 2});
  proto::Packet p;
  p.ecn_capable = true;
  q.enqueue(proto::Packet{p});
  q.enqueue(proto::Packet{p});
  q.enqueue(proto::Packet{p});  // queue length 2 at enqueue -> marked
  EXPECT_EQ(q.ecn_marks(), 1u);
  for (bool marked : {false, false, true}) {
    EXPECT_EQ(q.front().ecn_ce, marked);
    q.pop_front();
  }
}

TEST(QueueTest, NonEctNeverMarked) {
  DropTailQueue q({.capacity_pkts = 100, .ecn_enabled = true, .ecn_threshold_pkts = 0});
  proto::Packet p;
  p.ecn_capable = false;
  q.enqueue(proto::Packet{p});
  EXPECT_EQ(q.ecn_marks(), 0u);
  EXPECT_FALSE(q.front().ecn_ce);
}

TEST(QueueTest, FifoOrderAndByteAccounting) {
  DropTailQueue q;
  proto::Packet p;
  p.l4 = proto::L4Proto::kUdp;
  p.payload_len = 100;
  p.id = 1;
  q.enqueue(proto::Packet{p});
  p.id = 2;
  q.enqueue(proto::Packet{p});
  EXPECT_GT(q.bytes(), 0u);
  EXPECT_EQ(q.front().id, 1u);
  q.pop_front();
  EXPECT_EQ(q.front().id, 2u);
  q.pop_front();
  EXPECT_EQ(q.bytes(), 0u);
}

TEST(QueueTest, RedBelowMinNeverMarks) {
  QueueConfig cfg{.capacity_pkts = 1000};
  cfg.red_enabled = true;
  cfg.red_min_th = 50;
  cfg.red_max_th = 100;
  DropTailQueue q(cfg);
  proto::Packet p;
  p.ecn_capable = true;
  // Keep the queue short: enqueue/dequeue pairs, average stays ~0.
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(q.enqueue(proto::Packet{p}));
    q.pop_front();
  }
  EXPECT_EQ(q.ecn_marks(), 0u);
  EXPECT_EQ(q.drops(), 0u);
}

TEST(QueueTest, RedAboveMaxAlwaysMarksEct) {
  QueueConfig cfg{.capacity_pkts = 1000};
  cfg.red_enabled = true;
  cfg.red_min_th = 2;
  cfg.red_max_th = 5;
  cfg.red_weight = 1.0;  // average = instantaneous, for a deterministic test
  DropTailQueue q(cfg);
  proto::Packet p;
  p.ecn_capable = true;
  for (int i = 0; i < 20; ++i) ASSERT_TRUE(q.enqueue(proto::Packet{p}));
  // Every enqueue past queue length >= max_th must be marked.
  std::uint64_t marked = q.ecn_marks();
  EXPECT_GE(marked, 20u - 6u);
  // Drain and verify CE bits are on the tail packets.
  int ce = 0;
  for (; !q.empty(); q.pop_front()) {
    if (q.front().ecn_ce) ++ce;
  }
  EXPECT_EQ(static_cast<std::uint64_t>(ce), marked);
}

TEST(QueueTest, RedDropsNonEctInsteadOfMarking) {
  QueueConfig cfg{.capacity_pkts = 1000};
  cfg.red_enabled = true;
  cfg.red_min_th = 2;
  cfg.red_max_th = 5;
  cfg.red_weight = 1.0;
  DropTailQueue q(cfg);
  proto::Packet p;
  p.ecn_capable = false;
  for (int i = 0; i < 20; ++i) q.enqueue(proto::Packet{p});
  EXPECT_GT(q.drops(), 0u);
  EXPECT_EQ(q.ecn_marks(), 0u);
  EXPECT_LT(q.packets(), 20u);
}

TEST(QueueTest, RedMarkingFractionGrowsWithAverage) {
  // Between the thresholds the marking probability rises linearly; compare
  // the observed mark fraction at two sustained queue depths.
  auto mark_fraction = [](std::uint32_t depth) {
    QueueConfig cfg{.capacity_pkts = 1000};
    cfg.red_enabled = true;
    cfg.red_min_th = 10;
    cfg.red_max_th = 110;
    cfg.red_max_p = 0.5;
    cfg.red_weight = 1.0;
    DropTailQueue q(cfg);
    proto::Packet p;
    p.ecn_capable = true;
    // Fill to the target depth, then cycle enqueue/dequeue at that depth.
    for (std::uint32_t i = 0; i < depth; ++i) q.enqueue(proto::Packet{p});
    std::uint64_t before = q.ecn_marks();
    for (int i = 0; i < 4000; ++i) {
      q.enqueue(proto::Packet{p});
      q.pop_front();
    }
    return static_cast<double>(q.ecn_marks() - before) / 4000.0;
  };
  double low = mark_fraction(30);
  double high = mark_fraction(90);
  EXPECT_GT(high, low * 2);
}

TEST(QueueTest, PacketRingGrowsAcrossTheWrap) {
  PacketRing r;
  EXPECT_EQ(r.capacity(), 0u);  // nothing allocated until the first push
  std::uint64_t next_in = 1, next_out = 1;
  auto push = [&] {
    proto::Packet p;
    p.id = next_in++;
    r.push_back(p);
  };
  auto pop = [&] {
    ASSERT_EQ(r.front().id, next_out++);
    r.pop_front();
  };
  for (int i = 0; i < 3; ++i) push();
  EXPECT_EQ(r.capacity(), 4u);
  pop();
  pop();
  for (int i = 0; i < 3; ++i) push();  // contents now wrap past the buffer end
  EXPECT_EQ(r.capacity(), 4u);
  for (int i = 0; i < 5; ++i) push();  // grows twice while wrapped
  EXPECT_EQ(r.capacity(), 16u);
  EXPECT_EQ(r.size(), 9u);
  while (!r.empty()) pop();
  EXPECT_EQ(next_out, next_in);
}

namespace {

/// A node that records every packet it receives, with its arrival time.
class SinkNode : public Node {
 public:
  SinkNode(Network& net, std::string name) : Node(net, std::move(name)) {}
  void handle_packet(proto::Packet&& p, std::size_t) override {
    arrivals.emplace_back(p.id, now());
  }
  std::vector<std::pair<std::uint64_t, SimTime>> arrivals;
};

proto::Packet udp_frame(std::uint64_t id, bool ect = false) {
  proto::Packet p;
  p.l4 = proto::L4Proto::kUdp;
  p.payload_len = 1000;
  p.ecn_capable = ect;
  p.id = id;
  return p;
}

}  // namespace

TEST(DeviceTest, FramesArriveInOrderAtTxDonePlusLatency) {
  Network net("n");
  auto& a = net.add_node<SinkNode>("a");
  auto& b = net.add_node<SinkNode>("b");
  const Bandwidth bw = Bandwidth::gbps(10);
  const SimTime tx = bw.tx_time(udp_frame(0).link_bytes());
  const SimTime latency = 10 * tx;  // ~10 frames on the wire at once
  a.add_device(bw).connect_to(b.add_device(bw), latency);
  for (std::uint64_t i = 1; i <= 20; ++i) a.dev(0).enqueue(udp_frame(i));
  net.kernel().run_until(kSimTimeMax);
  ASSERT_EQ(b.arrivals.size(), 20u);
  for (std::uint64_t i = 1; i <= 20; ++i) {
    EXPECT_EQ(b.arrivals[i - 1].first, i);
    EXPECT_EQ(b.arrivals[i - 1].second, i * tx + latency) << "frame " << i;
  }
  EXPECT_EQ(a.dev(0).tx_packets(), 20u);
  EXPECT_EQ(b.dev(0).rx_packets(), 20u);
  // Frames are delivered from the sender's ring in place, so a node may
  // not be wired to itself.
  EXPECT_THROW(a.add_device(bw).connect_to(a.add_device(bw), latency), std::logic_error);
}

TEST(DeviceTest, CapacityAndEcnCountQueuedFramesOnly) {
  Network net("n");
  auto& a = net.add_node<SinkNode>("a");
  auto& b = net.add_node<SinkNode>("b");
  const Bandwidth bw = Bandwidth::gbps(10);
  const SimTime tx = bw.tx_time(udp_frame(0).link_bytes());
  Device& d = a.add_device(bw, {.capacity_pkts = 2, .ecn_enabled = true, .ecn_threshold_pkts = 1});
  d.connect_to(b.add_device(bw), 100 * tx);
  auto& k = net.kernel();
  // One frame per tx time: each finds the queue empty, however many of the
  // earlier frames are still on the wire.
  for (std::uint64_t i = 1; i <= 5; ++i) {
    d.enqueue(udp_frame(i, true));
    k.run_until(k.now() + tx);
  }
  EXPECT_EQ(d.queue().drops(), 0u);
  EXPECT_EQ(d.queue().ecn_marks(), 0u);
  // A burst at an idle transmitter: 6 goes on the wire, 7 finds 0 queued,
  // 8 finds 1 (>= K: marked), 9 finds 2 (capacity: dropped).
  for (std::uint64_t i = 6; i <= 9; ++i) d.enqueue(udp_frame(i, true));
  EXPECT_EQ(d.queue().packets(), 2u);
  EXPECT_EQ(d.queue().ecn_marks(), 1u);
  EXPECT_EQ(d.queue().drops(), 1u);
  EXPECT_EQ(d.pending_wait(k.now()), tx + bw.tx_time(2 * udp_frame(0).wire_bytes()));
  k.run_until(kSimTimeMax);
  ASSERT_EQ(b.arrivals.size(), 8u);
  EXPECT_EQ(b.arrivals.back().first, 8u);
}

TEST(DeviceTest, ExternalDeviceHandsEachFrameOutOnceInOrder) {
  Network net("n");
  auto& a = net.add_node<SinkNode>("a");
  const Bandwidth bw = Bandwidth::gbps(10);
  const SimTime tx = bw.tx_time(udp_frame(0).link_bytes());
  Device& d = a.add_device(bw);
  std::vector<std::pair<std::uint64_t, SimTime>> sent;
  d.connect_external([&](const proto::Packet& p, SimTime now) { sent.emplace_back(p.id, now); });
  for (std::uint64_t i = 1; i <= 5; ++i) d.enqueue(udp_frame(i));
  net.kernel().run_until(kSimTimeMax);
  ASSERT_EQ(sent.size(), 5u);
  for (std::uint64_t i = 1; i <= 5; ++i) {
    EXPECT_EQ(sent[i - 1].first, i);
    EXPECT_EQ(sent[i - 1].second, i * tx);
  }
}

namespace {

/// host A -- switch -- host B with a UDP echo on B.
struct EchoFixture {
  Simulation sim;
  HostNode* a = nullptr;
  HostNode* b = nullptr;

  EchoFixture() {
    Topology topo;
    int ha = topo.add_host("a", proto::ip(10, 0, 0, 1));
    int hb = topo.add_host("b", proto::ip(10, 0, 0, 2));
    int sw = topo.add_switch("sw");
    topo.add_link(ha, sw, Bandwidth::gbps(10), from_us(1.0));
    topo.add_link(hb, sw, Bandwidth::gbps(10), from_us(1.0));
    auto inst = instantiate(sim, topo);
    a = inst.hosts["a"];
    b = inst.hosts["b"];
    b->add_app<UdpEchoApp>(7);
  }
};

}  // namespace

TEST(NetsimTest, UdpEchoRoundTrip) {
  EchoFixture f;
  SimTime reply_at = 0;
  int replies = 0;
  f.a->add_app<UdpSinkApp>(7000);  // placeholder; we bind manually below

  // Bind a handler and send one datagram at t=1us.
  f.a->udp_bind(7001, [&](const proto::Packet&, SimTime t) {
    ++replies;
    reply_at = t;
  });
  f.a->kernel().schedule_at(from_us(1.0), [&] {
    proto::AppData d;
    d.store(42);
    f.a->udp_send(proto::ip(10, 0, 0, 2), 7, 7001, d);
  });

  f.sim.run(from_ms(1.0), RunMode::kCoscheduled);
  EXPECT_EQ(replies, 1);
  // 4 hops of 1 us propagation + 4 serializations (~51ns each for 64B at
  // 10G) -> a bit over 4 us after the 1 us send time.
  EXPECT_GT(reply_at, from_us(5.0));
  EXPECT_LT(reply_at, from_us(6.0));
}

TEST(NetsimTest, SwitchDropsUnroutable) {
  Simulation sim;
  Topology topo;
  int ha = topo.add_host("a", proto::ip(10, 0, 0, 1));
  int sw = topo.add_switch("sw");
  topo.add_link(ha, sw, Bandwidth::gbps(10), from_us(1.0));
  auto inst = instantiate(sim, topo);
  auto* host = inst.hosts["a"];
  auto* swn = inst.switches["sw"];
  host->kernel().schedule_at(0, [&] {
    proto::AppData d;
    host->udp_send(proto::ip(10, 9, 9, 9), 1, 1, d);  // no such destination
  });
  sim.run(from_us(100.0), RunMode::kCoscheduled);
  EXPECT_EQ(swn->unroutable_drops(), 1u);
}

TEST(NetsimTest, TtlExpiryDropsPacket) {
  EchoFixture f;
  int received = 0;
  f.b->udp_bind(9, [&](const proto::Packet&, SimTime) { ++received; });
  f.a->kernel().schedule_at(0, [&] {
    proto::Packet p;
    p.dst_ip = proto::ip(10, 0, 0, 2);
    p.l4 = proto::L4Proto::kUdp;
    p.dst_port = 9;
    p.ttl = 0;  // dies at the first switch
    f.a->ip_send(std::move(p));
  });
  f.sim.run(from_us(100.0), RunMode::kCoscheduled);
  EXPECT_EQ(received, 0);
}

TEST(NetsimTest, TcpBulkSaturatesBottleneck) {
  Simulation sim;
  QueueConfig bq{.capacity_pkts = 200};
  Dumbbell d = make_dumbbell(1, Bandwidth::gbps(10), Bandwidth::gbps(1), from_us(2.0),
                             from_us(10.0), bq);
  auto inst = instantiate(sim, d.topo);
  proto::TcpConfig tcp;
  inst.hosts["hL0"]->add_app<BulkSenderApp>(BulkSenderApp::Config{
      .dst = proto::ip(10, 2, 0, 1), .dst_port = 5001, .tcp = tcp, .start_at = 0});
  auto& sink = inst.hosts["hR0"]->add_app<TcpSinkApp>(TcpSinkApp::Config{
      .port = 5001, .tcp = tcp, .window_start = from_ms(20.0), .window_end = from_ms(50.0)});
  sim.run(from_ms(50.0), RunMode::kCoscheduled);
  double gbps = sink.window_goodput_bps() / 1e9;
  // Reno over a 1 Gbps bottleneck should get close to link rate.
  EXPECT_GT(gbps, 0.8);
  EXPECT_LT(gbps, 1.01);
}

TEST(NetsimTest, TwoFlowsShareBottleneckFairly) {
  Simulation sim;
  QueueConfig bq{.capacity_pkts = 200};
  Dumbbell d = make_dumbbell(2, Bandwidth::gbps(10), Bandwidth::gbps(1), from_us(2.0),
                             from_us(10.0), bq);
  auto inst = instantiate(sim, d.topo);
  proto::TcpConfig tcp;
  std::vector<TcpSinkApp*> sinks;
  for (int i = 0; i < 2; ++i) {
    inst.hosts["hL" + std::to_string(i)]->add_app<BulkSenderApp>(BulkSenderApp::Config{
        .dst = proto::ip(10, 2, 0, static_cast<unsigned>(i + 1)),
        .dst_port = 5001,
        .tcp = tcp,
        .start_at = 0});
    sinks.push_back(&inst.hosts["hR" + std::to_string(i)]->add_app<TcpSinkApp>(
        TcpSinkApp::Config{.port = 5001,
                           .tcp = tcp,
                           .window_start = from_ms(100.0),
                           .window_end = from_ms(300.0)}));
  }
  sim.run(from_ms(300.0), RunMode::kCoscheduled);
  double g0 = sinks[0]->window_goodput_bps() / 1e9;
  double g1 = sinks[1]->window_goodput_bps() / 1e9;
  EXPECT_GT(g0 + g1, 0.8);   // bottleneck well used
  EXPECT_LT(g0 + g1, 1.01);
  // Loose fairness bound: Reno flows over a shared drop-tail queue
  // synchronize and converge slowly.
  EXPECT_GT(std::min(g0, g1) / std::max(g0, g1), 0.25);
}

TEST(NetsimTest, DctcpKeepsQueueShort) {
  // DCTCP with a small marking threshold holds the bottleneck queue near K,
  // far below the drop-tail capacity Reno fills.
  auto run = [](proto::CcAlgo cc, bool ecn) {
    Simulation sim;
    QueueConfig bq{.capacity_pkts = 500, .ecn_enabled = ecn, .ecn_threshold_pkts = 20};
    Dumbbell d = make_dumbbell(1, Bandwidth::gbps(10), Bandwidth::gbps(1), from_us(2.0),
                               from_us(10.0), bq);
    auto inst = instantiate(sim, d.topo);
    proto::TcpConfig tcp;
    tcp.cc = cc;
    inst.hosts["hL0"]->add_app<BulkSenderApp>(BulkSenderApp::Config{
        .dst = proto::ip(10, 2, 0, 1), .dst_port = 5001, .tcp = tcp, .start_at = 0});
    auto& sink = inst.hosts["hR0"]->add_app<TcpSinkApp>(TcpSinkApp::Config{
        .port = 5001, .tcp = tcp, .window_start = from_ms(20.0), .window_end = from_ms(60.0)});
    // Track the max queue depth of the bottleneck device (left switch dev 0).
    auto* sw = inst.switches["swL"];
    auto& bottleneck = sw->dev(0);
    std::uint32_t max_q = 0;
    std::function<void()> probe = [&] {
      max_q = std::max(max_q, bottleneck.queue().packets());
      sw->kernel().schedule_in(from_us(50.0), probe);
    };
    sw->kernel().schedule_at(from_ms(10.0), probe);
    sim.run(from_ms(60.0), RunMode::kCoscheduled);
    return std::pair{sink.window_goodput_bps() / 1e9, max_q};
  };
  auto [dctcp_gbps, dctcp_q] = run(proto::CcAlgo::kDctcp, true);
  auto [reno_gbps, reno_q] = run(proto::CcAlgo::kReno, false);
  EXPECT_GT(dctcp_gbps, 0.8);
  EXPECT_GT(reno_gbps, 0.8);
  EXPECT_LT(dctcp_q, 60u);    // queue pinned near K=20
  EXPECT_GT(reno_q, 300u);    // Reno fills the buffer until loss
}

TEST(NetsimTest, PartitionedMatchesSingleProcess) {
  // The same fat-tree workload must produce identical application results
  // when the network is decomposed into SplitSim partitions.
  auto run = [](int nparts) {
    Simulation sim;
    FatTree ft = make_fattree(4, Bandwidth::gbps(10), Bandwidth::gbps(10), from_us(1.0));
    std::vector<int> parts =
        nparts <= 1 ? std::vector<int>{} : fattree_partition(ft, nparts);
    auto inst = instantiate(sim, ft.topo, parts);
    EXPECT_EQ(inst.nets.size(), static_cast<std::size_t>(std::max(1, nparts)));
    proto::TcpConfig tcp;
    // Cross-pod transfer: h0.0.0 -> h3.1.1 (10.3.1.3).
    inst.hosts["h0.0.0"]->add_app<BulkSenderApp>(BulkSenderApp::Config{
        .dst = proto::ip(10, 3, 1, 3),
        .dst_port = 5001,
        .tcp = tcp,
        .start_at = 0,
        .bytes = 2'000'000});
    auto& sink = inst.hosts["h3.1.1"]->add_app<TcpSinkApp>(
        TcpSinkApp::Config{.port = 5001, .tcp = tcp});
    sim.run(from_ms(30.0), RunMode::kCoscheduled);
    return sink.total_bytes();
  };
  std::uint64_t single = run(1);
  EXPECT_EQ(single, 2'000'000u);
  EXPECT_EQ(run(2), single);
  EXPECT_EQ(run(8), single);
}

TEST(NetsimTest, FatTreeAllPairsReachable) {
  Simulation sim;
  FatTree ft = make_fattree(4, Bandwidth::gbps(10), Bandwidth::gbps(10), from_us(1.0));
  ASSERT_EQ(ft.hosts.size(), 16u);  // (k/2)^2 * k = 16 for k=4
  auto inst = instantiate(sim, ft.topo);
  // Every host pings host 0; count echoes.
  auto* h0 = inst.hosts["h0.0.0"];
  int received = 0;
  h0->udp_bind(7, [&](const proto::Packet&, SimTime) { ++received; });
  int senders = 0;
  for (int h : ft.hosts) {
    const auto& spec = ft.topo.nodes()[h];
    if (spec.name == "h0.0.0") continue;
    auto* host = inst.hosts[spec.name];
    host->kernel().schedule_at(from_us(1.0), [host] {
      proto::AppData d;
      host->udp_send(proto::ip(10, 0, 0, 2), 7, 1234, d);
    });
    ++senders;
  }
  sim.run(from_ms(1.0), RunMode::kCoscheduled);
  EXPECT_EQ(received, senders);
}

TEST(NetsimTest, EcmpKeepsFlowOnOnePath) {
  // Deterministic flow hashing: TCP segments of one flow never reorder, so
  // a bulk transfer across the ECMP fabric completes with zero spurious
  // retransmissions (no reordering-induced dupacks).
  Simulation sim;
  FatTree ft = make_fattree(4, Bandwidth::gbps(10), Bandwidth::gbps(10), from_us(1.0));
  auto inst = instantiate(sim, ft.topo);
  proto::TcpConfig tcp;
  auto& sender = inst.hosts["h1.0.0"]->add_app<BulkSenderApp>(BulkSenderApp::Config{
      .dst = proto::ip(10, 2, 0, 2),
      .dst_port = 5001,
      .tcp = tcp,
      .start_at = 0,
      .bytes = 1'000'000});
  inst.hosts["h2.0.0"]->add_app<TcpSinkApp>(TcpSinkApp::Config{.port = 5001, .tcp = tcp});
  sim.run(from_ms(20.0), RunMode::kCoscheduled);
  ASSERT_NE(sender.connection(), nullptr);
  EXPECT_TRUE(sender.completed());
  EXPECT_EQ(sender.connection()->retransmits(), 0u);
}

TEST(NetsimTest, ExternalPortDeliversBothWays) {
  // An external host slot exposes a channel end; a raw adapter stands in
  // for the NIC simulator and must be able to talk to an internal host.
  Simulation sim;
  Topology topo;
  int hi = topo.add_host("inside", proto::ip(10, 0, 0, 1));
  int he = topo.add_external_host("outside", proto::ip(10, 0, 0, 2));
  int sw = topo.add_switch("sw");
  topo.add_link(hi, sw, Bandwidth::gbps(10), from_us(1.0));
  topo.add_link(he, sw, Bandwidth::gbps(10), from_us(1.0));
  auto inst = instantiate(sim, topo);
  ASSERT_EQ(inst.external_ports.count("outside"), 1u);
  auto& port = inst.external_ports["outside"];

  // Minimal "external host": replies to any packet it receives.
  class Stub : public runtime::Component {
   public:
    Stub(std::string name, sync::ChannelEnd& end) : Component(std::move(name)) {
      ad_ = &add_adapter("eth", end);
      ad_->set_handler([this](const sync::Message& m, SimTime rx) {
        auto p = m.as<proto::Packet>();
        ++received;
        proto::Packet reply;
        reply.src_ip = proto::ip(10, 0, 0, 2);
        reply.dst_ip = p.src_ip;
        reply.l4 = proto::L4Proto::kUdp;
        reply.src_port = p.dst_port;
        reply.dst_port = p.src_port;
        ad_->send(proto::kMsgEthPacket, reply, rx);
      });
    }
    int received = 0;

   private:
    sync::Adapter* ad_;
  };
  auto& stub = sim.add_component<Stub>("outside", *port.far_end);

  auto* inside = inst.hosts["inside"];
  int replies = 0;
  inside->udp_bind(5555, [&](const proto::Packet&, SimTime) { ++replies; });
  inside->kernel().schedule_at(0, [&] {
    proto::AppData d;
    inside->udp_send(proto::ip(10, 0, 0, 2), 99, 5555, d);
  });
  sim.run(from_ms(1.0), RunMode::kCoscheduled);
  EXPECT_EQ(stub.received, 1);
  EXPECT_EQ(replies, 1);
}

TEST(NetsimTest, DatacenterTopologyShape) {
  Datacenter dc = make_datacenter(4, 6, 50);
  int hosts = 0;
  for (const auto& n : dc.topo.nodes()) {
    if (n.kind == TopoNodeSpec::Kind::kHost) ++hosts;
  }
  EXPECT_EQ(hosts, 1200);
  EXPECT_EQ(dc.aggs.size(), 4u);
  EXPECT_EQ(dc.tors[0].size(), 6u);
  EXPECT_EQ(dc.hosts[0][0].size(), 50u);
  // 1 core + 4 agg + 24 tor switches.
  int switches = 0;
  for (const auto& n : dc.topo.nodes()) {
    if (n.is_switch()) ++switches;
  }
  EXPECT_EQ(switches, 29);
}

TEST(NetsimTest, DatacenterCrossRackTraffic) {
  Simulation sim;
  Datacenter dc = make_datacenter(2, 2, 3);
  auto inst = instantiate(sim, dc.topo);
  auto* src = inst.hosts["h0.0.0"];
  auto* dst = inst.hosts["h1.1.2"];
  int got = 0;
  dst->udp_bind(7, [&](const proto::Packet&, SimTime) { ++got; });
  src->kernel().schedule_at(0, [&] {
    proto::AppData d;
    src->udp_send(datacenter_host_ip(1, 1, 2), 7, 1, d);
  });
  sim.run(from_ms(1.0), RunMode::kCoscheduled);
  EXPECT_EQ(got, 1);
}

TEST(NetsimTest, OnOffUdpRate) {
  EchoFixture f;
  auto& src = f.a->add_app<OnOffUdpApp>(OnOffUdpApp::Config{
      .dst = proto::ip(10, 0, 0, 2),
      .dst_port = 9000,
      .src_port = 9001,
      .payload_bytes = 1000,
      .rate_bps = 80e6,  // 10k pkt/s at 1000B
      .start_at = 0});
  auto& sink = f.b->add_app<UdpSinkApp>(9000);
  f.sim.run(from_ms(10.0), RunMode::kCoscheduled);
  EXPECT_NEAR(static_cast<double>(src.packets_sent()), 100.0, 2.0);
  // The last datagram may still be in flight when the simulation ends.
  EXPECT_GE(sink.packets() + 2, src.packets_sent());
  EXPECT_LE(sink.packets(), src.packets_sent());
}

TEST(NetsimTest, MultiHomedHostIsNotTransit) {
  // Host m links s1 and s2, one hop shorter than the switch path
  // s1-s3-s4-s2. Hosts drop packets not addressed to them, so a-to-d
  // traffic must take the switch path.
  Simulation sim;
  Topology topo;
  int s1 = topo.add_switch("s1");
  int s2 = topo.add_switch("s2");
  int s3 = topo.add_switch("s3");
  int s4 = topo.add_switch("s4");
  int ha = topo.add_host("a", proto::ip(10, 0, 0, 1));
  int hd = topo.add_host("d", proto::ip(10, 0, 0, 2));
  int hm = topo.add_host("m", proto::ip(10, 0, 0, 3));
  auto bw = Bandwidth::gbps(10);
  topo.add_link(ha, s1, bw, from_us(1.0));
  topo.add_link(hd, s2, bw, from_us(1.0));
  topo.add_link(hm, s1, bw, from_us(1.0));
  topo.add_link(hm, s2, bw, from_us(1.0));
  topo.add_link(s1, s3, bw, from_us(1.0));
  topo.add_link(s3, s4, bw, from_us(1.0));
  topo.add_link(s4, s2, bw, from_us(1.0));
  auto inst = instantiate(sim, topo);
  auto* a = inst.hosts["a"];
  auto* m = inst.hosts["m"];
  int got = 0;
  inst.hosts["d"]->udp_bind(7, [&](const proto::Packet&, SimTime) { ++got; });
  a->kernel().schedule_at(0, [&] {
    proto::AppData d;
    a->udp_send(proto::ip(10, 0, 0, 2), 7, 1, d);
  });
  sim.run(from_ms(1.0), RunMode::kCoscheduled);
  EXPECT_EQ(got, 1);
  EXPECT_EQ(m->dev(0).rx_packets() + m->dev(1).rx_packets(), 0u);
}

TEST(NetsimTest, RepeatedIpRejected) {
  Simulation sim;
  Topology topo;
  int sw = topo.add_switch("sw");
  topo.add_link(topo.add_host("first", proto::ip(10, 0, 0, 7)), sw, Bandwidth::gbps(10), 1);
  topo.add_link(topo.add_external_host("second", proto::ip(10, 0, 0, 7)), sw,
                Bandwidth::gbps(10), 1);
  try {
    instantiate(sim, topo);
    FAIL() << "a repeated IP must be rejected";
  } catch (const std::invalid_argument& e) {
    std::string what = e.what();
    EXPECT_NE(what.find("first"), std::string::npos) << what;
    EXPECT_NE(what.find("second"), std::string::npos) << what;
    EXPECT_NE(what.find("10.0.0.7"), std::string::npos) << what;
  }
}

namespace {

/// The routing spec: per routable host, a BFS that expands the host and
/// then switches only (other hosts never forward). A switch's ECMP group is
/// its neighbours one hop closer, as device indices in adjacency order
/// (a switch's device index is its link's position in its adjacency).
std::vector<std::size_t> spec_routes(const Topology& topo, int sw, int dst) {
  const auto& nodes = topo.nodes();
  auto adj = topo.adjacency();
  std::vector<int> dist(nodes.size(), -1);
  std::vector<int> queue{dst};
  dist[dst] = 0;
  for (std::size_t qi = 0; qi < queue.size(); ++qi) {
    for (auto [li, peer] : adj[queue[qi]]) {
      if (nodes[peer].is_switch() && dist[peer] < 0) {
        dist[peer] = dist[queue[qi]] + 1;
        queue.push_back(peer);
      }
    }
  }
  std::vector<std::size_t> group;
  for (std::size_t i = 0; dist[sw] > 0 && i < adj[sw].size(); ++i) {
    if (dist[adj[sw][i].second] == dist[sw] - 1) group.push_back(i);
  }
  return group;
}

/// A switch with one host and no link to the rest of the topology.
void add_island(Topology& topo) {
  int sw = topo.add_switch("island");
  topo.add_link(topo.add_host("lonely", proto::ip(10, 99, 0, 1)), sw, Bandwidth::gbps(10), 1);
}

/// Every switch its own partition; hosts follow the switch they link to
/// (a rack split on the datacenter).
std::vector<int> switch_split(const Topology& topo) {
  const auto& nodes = topo.nodes();
  std::vector<int> part(nodes.size(), 0);
  int next = 0;
  for (std::size_t n = 0; n < nodes.size(); ++n) {
    if (nodes[n].is_switch()) part[n] = next++;
  }
  for (const auto& l : topo.links()) {
    if (!nodes[l.a].is_switch()) part[l.a] = part[l.b];
    if (!nodes[l.b].is_switch()) part[l.b] = part[l.a];
  }
  return part;
}

void expect_spec_routes(const Topology& topo) {
  const auto& nodes = topo.nodes();
  for (int split = 0; split < 3; ++split) {
    Simulation sim;
    InstantiateOptions opts;
    opts.use_trunks = split != 2;
    auto inst = instantiate(sim, topo, split == 0 ? std::vector<int>{} : switch_split(topo), opts);
    for (std::size_t s = 0; s < nodes.size(); ++s) {
      if (!nodes[s].is_switch()) continue;
      for (std::size_t h = 0; h < nodes.size(); ++h) {
        if (nodes[h].is_switch()) continue;
        auto got = inst.switches[nodes[s].name]->routes(nodes[h].ip);
        EXPECT_EQ(std::vector<std::size_t>(got.begin(), got.end()),
                  spec_routes(topo, static_cast<int>(s), static_cast<int>(h)))
            << "split " << split << ", switch " << nodes[s].name << ", host " << nodes[h].name;
      }
    }
  }
}

}  // namespace

TEST(NetsimTest, RoutesMatchPerHostBfs) {
  Datacenter dc = make_datacenter(2, 3, 4);
  datacenter_add_external(dc, 0, 1, "ext0");
  datacenter_add_external(dc, 1, 2, "ext1");
  add_island(dc.topo);
  expect_spec_routes(dc.topo);

  FatTree ft = make_fattree(4, Bandwidth::gbps(10), Bandwidth::gbps(10), from_us(1.0));
  add_island(ft.topo);
  expect_spec_routes(ft.topo);

  Dumbbell db = make_dumbbell(3, Bandwidth::gbps(10), Bandwidth::gbps(1), from_us(1.0),
                              from_us(5.0), {}, 1);
  add_island(db.topo);
  expect_spec_routes(db.topo);
}

TEST(NetsimTest, UnreachableIslandDropsAtItsSwitch) {
  Simulation sim;
  Datacenter dc = make_datacenter(1, 1, 2);
  add_island(dc.topo);
  auto inst = instantiate(sim, dc.topo);
  auto* island = inst.switches["island"];
  proto::Packet p;
  p.dst_ip = datacenter_host_ip(0, 0, 0);
  EXPECT_EQ(island->lookup(p), SIZE_MAX);
  p.dst_ip = proto::ip(10, 99, 0, 1);
  EXPECT_EQ(inst.switches["tor0.0"]->lookup(p), SIZE_MAX);
  auto* lonely = inst.hosts["lonely"];
  lonely->kernel().schedule_at(0, [&] {
    proto::AppData d;
    lonely->udp_send(datacenter_host_ip(0, 0, 0), 7, 1, d);
  });
  sim.run(from_us(100.0), RunMode::kCoscheduled);
  EXPECT_EQ(island->unroutable_drops(), 1u);
}
