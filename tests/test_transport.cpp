// Transport seam tests (paper §4: multi-process / multi-machine runs).
//
// Three layers are pinned down here:
//   * shm ring properties: the futex-parking SPSC rings inside a shared
//     segment behave exactly like heap rings (wrap-around FIFO, full-ring
//     backpressure, abort unblocking) — the property that lets two OS
//     processes share a channel without protocol changes.
//   * fail-loud handshakes: any identity mismatch (channel map, latency,
//     ring capacity, missing peer) raises a TransportError naming the
//     channel, and the runtime wraps transport failures into
//     SimulationError{kTransport} — never a silent hang or garbage decode.
//   * digest parity: swapping cut channels onto real shm segments or
//     localhost sockets — or forking one process per partition group —
//     reproduces the in-process threaded EventDigest bit-identically.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <optional>
#include <string>
#include <thread>
#include <unistd.h>
#include <utility>
#include <vector>

#include "clocksync/scenario.hpp"
#include "kv/scenario.hpp"
#include "mcheck/scenarios.hpp"
#include "netsim/apps.hpp"
#include "netsim/topology.hpp"
#include "obs/summary.hpp"
#include "orch/proc.hpp"
#include "proto/tcp.hpp"
#include "runtime/error.hpp"
#include "runtime/procrunner.hpp"
#include "runtime/runner.hpp"
#include "sync/channel.hpp"
#include "sync/shm.hpp"
#include "sync/socket.hpp"

using namespace splitsim;
using namespace splitsim::sync;

namespace {

/// Unique run id per test so concurrent ctest invocations never collide on
/// segment names.
std::string test_run_id() {
  static std::atomic<int> seq{0};
  return "t" + std::to_string(::getpid()) + "." + std::to_string(seq.fetch_add(1));
}

ShmChannelParams shm_params(const std::string& channel, std::size_t cap = 8) {
  ShmChannelParams p;
  p.channel_name = channel;
  p.shm_name = shm_segment_name(test_run_id(), channel);
  p.latency = 500;
  p.ring_capacity = cap;
  p.create = true;
  p.local_side = -1;
  return p;
}

Message data_msg(SimTime ts, std::uint64_t seq) {
  Message m;
  m.timestamp = ts;
  m.type = kUserTypeBase;
  m.store(seq);
  return m;
}

}  // namespace

// ---------------------------------------------------------------------------
// Shm ring properties
// ---------------------------------------------------------------------------

TEST(ShmRingTest, WrapAroundFifo) {
  // Many more messages than slots: head/tail wrap the 8-slot ring hundreds
  // of times, and FIFO order plus payload integrity must survive every wrap.
  Channel ch("t.cut.wrap");
  ch.set_transport(std::make_unique<ShmChannelTransport>(shm_params("t.cut.wrap")));
  ch.transport().start();

  std::uint64_t next = 0;
  SimTime ts = 1;
  for (int round = 0; round < 1000; ++round) {
    for (int i = 0; i < 3; ++i) ch.end_a().send(data_msg(ts++, next++));
    std::uint64_t expect = next - 3;
    std::size_t got = ch.end_b().drain_until(kSimTimeMax, [&](const Message& m) {
      EXPECT_EQ(m.as<std::uint64_t>(), expect++);
    });
    EXPECT_EQ(got, 3u);
  }
  ch.transport().stop();
}

TEST(ShmRingTest, FullRingBackpressureParksProducer) {
  // 4096 sends through an 8-slot ring: the producer thread must repeatedly
  // find the ring full and futex-park on the segment until the consumer
  // pops. Everything still arrives exactly once, in order.
  constexpr std::uint64_t kCount = 4096;
  Channel ch("t.cut.bp");
  ch.set_transport(std::make_unique<ShmChannelTransport>(shm_params("t.cut.bp")));
  ch.transport().start();

  std::thread producer([&] {
    for (std::uint64_t i = 0; i < kCount; ++i) {
      ch.end_a().send(data_msg(static_cast<SimTime>(i + 1), i));
    }
  });

  // Start draining only once the producer has found the ring full: a
  // consumer that keeps pace from the first send would never stall it.
  while (ch.end_a().tx_backpressure_stalls() == 0) std::this_thread::yield();
  std::uint64_t expect = 0;
  while (expect < kCount) {
    ch.end_b().drain_until(kSimTimeMax, [&](const Message& m) {
      EXPECT_EQ(m.as<std::uint64_t>(), expect++);
    });
  }
  producer.join();
  EXPECT_EQ(expect, kCount);
  // The 8-slot ring cannot absorb 4096 sends without stalling.
  EXPECT_GT(ch.end_a().tx_backpressure_stalls(), 0u);
  ch.transport().stop();
}

TEST(ShmRingTest, AbortUnblocksFullRingThenFinStillDelivers) {
  // The teardown-ordering contract: when the run aborts, a producer blocked
  // on a full shm ring must throw AbortedError (not wait forever for a
  // consumer that may be gone); after the consumer drains, the producer's
  // FIN still goes through so the peer's horizon opens for a clean unwind.
  Channel ch("t.cut.abort");
  ch.set_transport(std::make_unique<ShmChannelTransport>(shm_params("t.cut.abort")));
  ch.transport().start();
  std::atomic<bool> abort_flag{false};
  ch.set_abort_flag(&abort_flag);

  for (std::uint64_t i = 0; i < 8; ++i) {
    ch.end_a().send(data_msg(static_cast<SimTime>(i + 1), i));
  }
  abort_flag = true;
  EXPECT_THROW(ch.end_a().send(data_msg(100, 99)), AbortedError);

  // Survivor side drains the backlog without hanging…
  EXPECT_EQ(ch.end_b().discard_all(), 8u);
  EXPECT_FALSE(ch.end_b().fin_received());

  // …and the aborting producer can still FIN now that there is ring space
  // (FIN never waits behind the abort check unless the ring is full).
  Message fin;
  fin.type = static_cast<std::uint16_t>(MsgType::kFin);
  fin.timestamp = 200;
  ch.end_a().send(fin);
  ch.end_b().discard_all();
  EXPECT_TRUE(ch.end_b().fin_received());
  ch.transport().stop();
}

// ---------------------------------------------------------------------------
// Fail-loud handshakes
// ---------------------------------------------------------------------------

TEST(ShmHandshakeTest, ChannelMapMismatchNamesChannel) {
  ShmChannelParams creator = shm_params("kv.trunk.0-1", 64);
  creator.local_side = 0;
  creator.map_hash = 0x1111;
  ShmChannelTransport a(creator);

  ShmChannelParams opener = creator;
  opener.create = false;
  opener.local_side = 1;
  opener.map_hash = 0x2222;
  try {
    ShmChannelTransport b(opener);
    FAIL() << "mismatched map_hash must not handshake";
  } catch (const TransportError& e) {
    EXPECT_EQ(e.channel(), "kv.trunk.0-1");
    EXPECT_NE(std::string(e.what()).find("channel-map mismatch"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("kv.trunk.0-1"), std::string::npos) << e.what();
  }
  a.stop();
}

TEST(ShmHandshakeTest, LatencyMismatchNamesChannel) {
  ShmChannelParams creator = shm_params("eth-h0", 64);
  creator.local_side = 0;
  creator.latency = 1000;
  ShmChannelTransport a(creator);

  ShmChannelParams opener = creator;
  opener.create = false;
  opener.local_side = 1;
  opener.latency = 2000;
  try {
    ShmChannelTransport b(opener);
    FAIL() << "mismatched latency must not handshake";
  } catch (const TransportError& e) {
    EXPECT_NE(std::string(e.what()).find("latency mismatch"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("eth-h0"), std::string::npos) << e.what();
  }
  a.stop();
}

TEST(ShmHandshakeTest, RingCapacityMismatchFailsLoudly) {
  // A capacity disagreement changes the segment size, so the opener can
  // never even map it — it must time out with a diagnostic, not SIGBUS.
  ShmChannelParams creator = shm_params("t.cut.cap", 64);
  creator.local_side = 0;
  ShmChannelTransport a(creator);

  ShmChannelParams opener = creator;
  opener.create = false;
  opener.local_side = 1;
  opener.ring_capacity = 128;
  opener.open_timeout_ms = 300;
  try {
    ShmChannelTransport b(opener);
    FAIL() << "mismatched ring capacity must not handshake";
  } catch (const TransportError& e) {
    EXPECT_NE(std::string(e.what()).find("ring capacity mismatch"), std::string::npos)
        << e.what();
  }
  a.stop();
}

TEST(ShmHandshakeTest, MissingPeerTimesOut) {
  ShmChannelParams p = shm_params("t.cut.nopeer");
  p.create = false;
  p.local_side = 1;
  p.open_timeout_ms = 200;
  try {
    ShmChannelTransport t(p);
    FAIL() << "opening a never-created segment must time out";
  } catch (const TransportError& e) {
    EXPECT_NE(std::string(e.what()).find("peer never created segment"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("t.cut.nopeer"), std::string::npos) << e.what();
  }
}

TEST(SocketHandshakeTest, ChannelMapMismatchNamesChannel) {
  // Real loopback connection, two transports that disagree on the trunk's
  // subchannel map: both sides must reject the hello before any data frame.
  std::uint16_t port = 0;
  int lfd = tcp_listen_loopback(port);
  int cfd = tcp_connect("127.0.0.1", port, 2000, "kv.trunk.0-1");
  int afd = tcp_accept(lfd, 2000, "kv.trunk.0-1");
  ::close(lfd);

  SocketChannelParams pa;
  pa.channel_name = "kv.trunk.0-1";
  pa.map_hash = 0x1111;
  pa.fd[0] = afd;
  SocketTransport a(pa);

  SocketChannelParams pb;
  pb.channel_name = "kv.trunk.0-1";
  pb.map_hash = 0x2222;
  pb.fd[1] = cfd;
  SocketTransport b(pb);

  // start() writes all local hellos before reading, so two concurrent
  // starts cannot deadlock; both must throw on validation.
  std::exception_ptr ea, eb;
  std::thread ta([&] {
    try {
      a.start();
    } catch (...) {
      ea = std::current_exception();
    }
  });
  try {
    b.start();
  } catch (...) {
    eb = std::current_exception();
  }
  ta.join();

  for (std::exception_ptr ep : {ea, eb}) {
    ASSERT_TRUE(ep != nullptr) << "hello mismatch must throw on both sides";
    try {
      std::rethrow_exception(ep);
    } catch (const TransportError& e) {
      EXPECT_EQ(e.channel(), "kv.trunk.0-1");
      EXPECT_NE(std::string(e.what()).find("channel-map mismatch"), std::string::npos)
          << e.what();
    }
  }
  a.stop();
  b.stop();
}

TEST(SocketHandshakeTest, PeerDeathBecomesTypedSimulationError) {
  // The runtime contract for the satellite: a transport-layer failure must
  // surface as SimulationError{kTransport} naming the channel — here the
  // "peer" closes its socket before the handshake, exactly what a child
  // process dying at startup looks like.
  std::uint16_t port = 0;
  int lfd = tcp_listen_loopback(port);
  int cfd = tcp_connect("127.0.0.1", port, 2000, "eth-dead");
  int afd = tcp_accept(lfd, 2000, "eth-dead");
  ::close(lfd);
  ::close(cfd);  // peer dies before saying hello

  Channel ch("eth-dead");
  SocketChannelParams p;
  p.channel_name = "eth-dead";
  p.fd[0] = afd;
  p.handshake_timeout_ms = 2000;
  ch.set_transport(std::make_unique<SocketTransport>(std::move(p)));

  runtime::Simulation sim;
  runtime::ProcessRunner runner(sim, {{&ch, 0}});
  try {
    runner.run(from_ms(1.0));
    FAIL() << "handshake against a dead peer must fail";
  } catch (const runtime::SimulationError& e) {
    EXPECT_EQ(e.kind(), runtime::ErrorKind::kTransport);
    EXPECT_NE(std::string(e.what()).find("eth-dead"), std::string::npos) << e.what();
  }
}

// ---------------------------------------------------------------------------
// Process planning
// ---------------------------------------------------------------------------

TEST(ProcessPlanTest, CutChannelNaming) {
  EXPECT_TRUE(orch::is_cut_channel("net.trunk.0-1"));
  EXPECT_TRUE(orch::is_cut_channel("sw0.cut.sw1"));
  EXPECT_TRUE(orch::is_cut_channel("eth-server0"));
  EXPECT_FALSE(orch::is_cut_channel("pci-server0"));
  EXPECT_FALSE(orch::is_cut_channel("net-parallel"));
  EXPECT_FALSE(orch::is_cut_channel("seth-x"));  // "eth-" must be a prefix
}

TEST(ProcessPlanTest, DumbbellPerNodeGroupsAndMerge) {
  // Per-node partitioned dumbbell: six topology nodes, every inter-node
  // channel a trunk, so the planner must find six single-component groups
  // and only cut channels crossing them.
  runtime::Simulation sim;
  netsim::QueueConfig bq{.capacity_pkts = 100};
  netsim::Dumbbell d = netsim::make_dumbbell(2, Bandwidth::gbps(10), Bandwidth::gbps(1),
                                             from_us(2.0), from_us(10.0), bq);
  std::vector<int> parts(d.topo.nodes().size());
  for (std::size_t i = 0; i < parts.size(); ++i) parts[i] = static_cast<int>(i);
  netsim::instantiate(sim, d.topo, parts);

  orch::ExecSpec exec;
  orch::ProcessPlan plan = orch::plan_processes(sim, exec);
  ASSERT_EQ(plan.groups.size(), 6u);
  EXPECT_FALSE(plan.cross.empty());
  for (const auto& c : plan.cross) {
    EXPECT_TRUE(orch::is_cut_channel(c.channel->name())) << c.channel->name();
    EXPECT_NE(c.group_a, c.group_b);
  }
  for (const auto& g : plan.groups) {
    ASSERT_EQ(g.components.size(), 1u);
    EXPECT_EQ(plan.group_of(g.components[0]),
              static_cast<int>(&g - plan.groups.data()));
  }

  // exec.process_of merges named groups onto shared ranks: co-locating two
  // groups must drop the plan to five processes and keep their cross
  // channels internal.
  exec.process_of[plan.groups[0].name] = 0;
  exec.process_of[plan.groups[1].name] = 0;
  orch::ProcessPlan merged = orch::plan_processes(sim, exec);
  EXPECT_EQ(merged.groups.size(), 5u);
  int rank0 = merged.group_of(plan.groups[0].components[0]);
  EXPECT_EQ(rank0, merged.group_of(plan.groups[1].components[0]));
}

// ---------------------------------------------------------------------------
// Digest parity across transports and deployments
// ---------------------------------------------------------------------------

namespace {

EventDigest run_kv(const std::string& transport, bool processes, const std::string& tag) {
  kv::ScenarioConfig cfg = mcheck::kv_small_config();
  cfg.exec.run_mode = runtime::RunMode::kThreaded;
  cfg.exec.transport = transport;
  cfg.exec.processes = processes;
  cfg.profile.log_dir = "test-transport-out/" + tag;
  return kv::run_kv_scenario(cfg).digest;
}

EventDigest run_clocksync_ac(const std::string& transport, const std::string& tag) {
  clocksync::ClockSyncScenarioConfig cfg = mcheck::clocksync_small_config();
  cfg.exec.run_mode = runtime::RunMode::kThreaded;
  cfg.exec.partition = "ac";  // agg/core cut: trunked switch-switch channels
  cfg.exec.transport = transport;
  cfg.profile.log_dir = "test-transport-out/" + tag;
  return clocksync::run_clocksync_scenario(cfg).digest;
}

/// Every adapter's `wire` counts in a run record are its own: its SYNCs,
/// its data messages and one FIN, whatever else shares its transport.
/// `frame_bytes` != 0 also pins its bytes to that many per frame (shm: one
/// ring slot). Returns the number of wire adapters checked.
int expect_wire_counts_are_adapters_own(const std::string& summary_path,
                                        std::uint64_t frame_bytes) {
  std::optional<runtime::RunStats> st = obs::read_run_stats(summary_path);
  EXPECT_TRUE(st.has_value()) << summary_path;
  if (!st) return 0;
  int checked = 0;
  for (const runtime::ComponentStats& c : st->components) {
    for (const runtime::AdapterStats& a : c.adapters) {
      if (!a.wire) continue;
      ++checked;
      SCOPED_TRACE(c.name + "/" + a.adapter);
      EXPECT_EQ(a.wire->tx_syncs, a.totals.tx_syncs);
      EXPECT_EQ(a.wire->tx_datas, a.totals.tx_msgs);
      EXPECT_EQ(a.wire->tx_frames, a.totals.tx_syncs + a.totals.tx_msgs + 1);
      if (frame_bytes != 0) EXPECT_EQ(a.wire->tx_bytes, a.wire->tx_frames * frame_bytes);
    }
  }
  return checked;
}

}  // namespace

TEST(TransportParityTest, KvSmallLocalSwapMatchesInproc) {
  // Same scenario, same seeds; the cut channels run over real shm segments
  // and then real localhost sockets while both ends stay in this process.
  // The transport must be invisible in the results.
  EventDigest ref = run_kv("inproc", false, "kv-ref");
  ASSERT_GT(ref.count, 0u);
  EXPECT_EQ(run_kv("shm", false, "kv-shm"), ref);
  EXPECT_EQ(run_kv("socket", false, "kv-socket"), ref);
  // Both ends of each swapped channel live in this process, yet each
  // adapter's wire record counts only what that adapter sent.
  EXPECT_GE(expect_wire_counts_are_adapters_own("test-transport-out/kv-shm/summary.json",
                                                sizeof(Message)),
            4);
  EXPECT_GE(expect_wire_counts_are_adapters_own("test-transport-out/kv-socket/summary.json", 0),
            4);
}

TEST(TransportParityTest, KvSmallMultiProcessMatchesInproc) {
  // The real deployment: fork one process per group (mixed-fidelity kv
  // splits into three), run over shm then socket trunks, merge per-process
  // digests. The merged fold must equal the single-process digest exactly.
  EventDigest ref = run_kv("inproc", false, "kv-mp-ref");
  ASSERT_GT(ref.count, 0u);
  EXPECT_EQ(run_kv("shm", true, "kv-mp-shm"), ref);
  EXPECT_EQ(run_kv("socket", true, "kv-mp-socket"), ref);
}

TEST(TransportParityTest, ClockSyncPartitionedSwapMatchesInproc) {
  // Second scenario family, explicit "ac" partition: trunk channels carry
  // multiplexed subports over the swapped transports.
  EventDigest ref = run_clocksync_ac("inproc", "cs-ref");
  ASSERT_GT(ref.count, 0u);
  EXPECT_EQ(run_clocksync_ac("shm", "cs-shm"), ref);
  EXPECT_EQ(run_clocksync_ac("socket", "cs-socket"), ref);
}

// ---------------------------------------------------------------------------
// Drain and deadlock over a blocking transport
// ---------------------------------------------------------------------------

namespace {

/// Sends one data message every `gap` until `end`.
class Ticker : public runtime::Component {
 public:
  Ticker(std::string name, ChannelEnd& end, SimTime gap, SimTime stop)
      : Component(std::move(name)), gap_(gap), stop_(stop) {
    out_ = &add_adapter("out", end);
  }
  void init() override {
    kernel().schedule_at(0, [this] { tick(); });
  }

 private:
  void tick() {
    out_->send(kUserTypeBase, seq_++, kernel().now());
    if (kernel().now() + gap_ <= stop_) kernel().schedule_in(gap_, [this] { tick(); });
  }

  Adapter* out_;
  SimTime gap_;
  SimTime stop_;
  std::uint64_t seq_ = 0;
};

class Sink : public runtime::Component {
 public:
  Sink(std::string name, ChannelEnd& end) : Component(std::move(name)) {
    add_adapter("in", end).set_handler([this](const Message&, SimTime) { ++received; });
  }
  int received = 0;
};

}  // namespace

TEST(TransportDrainTest, FinishedConsumerDrainsBlockingRingUntilFin) {
  // The sink may finish as soon as the ticker's horizon passes the end,
  // i.e. once the ticker reaches end - latency. The ticker still sends 10
  // messages in that last latency window, all received after the end. Over
  // a 2-slot shm ring (a kBlocking channel) the ticker would block on the
  // third of them forever: the run only completes because the finished
  // sink keeps draining its ring until the ticker's FIN.
  static constexpr SimTime kEnd = 20'000;
  auto run = [](bool shm, runtime::RunMode mode) {
    runtime::Simulation sim;
    auto& ch = sim.add_channel("t.drain", {.latency = 500, .ring_capacity = 2});
    sim.add_component<Ticker>("ticker", ch.end_a(), 50, kEnd);
    auto& sink = sim.add_component<Sink>("sink", ch.end_b());
    if (shm) {
      ch.set_transport(std::make_unique<ShmChannelTransport>(shm_params("t.drain", 2)));
      ch.transport().start();
    }
    runtime::RunStats st = sim.run(kEnd, mode);
    if (shm) ch.transport().stop();
    return std::make_pair(st.digest, sink.received);
  };
  auto [ref, ref_received] = run(false, runtime::RunMode::kCoscheduled);
  ASSERT_GT(ref_received, 0);
  auto [got, got_received] = run(true, runtime::RunMode::kThreaded);
  EXPECT_EQ(got, ref);
  EXPECT_EQ(got_received, ref_received);
}

TEST(TransportDrainTest, UnfedBlockingChannelSurfacesAsDeadlock) {
  // A kBlocking channel is fed by another process, so its consumer waits
  // without parking (a remote wait) and the rescue scan cannot see it.
  // Here nothing ever feeds it: once every live component is parked or in
  // a remote wait and no bound grows for a watchdog window, the run must
  // fail as an attributed deadlock instead of waiting forever.
  runtime::Simulation sim;
  sim.set_watchdog_ms(100);
  auto& ch = sim.add_channel("t.unfed", {.latency = 500, .ring_capacity = 16});
  sim.add_component<Ticker>("lonely", ch.end_a(), 100, 400);
  // ch.end_b() belongs to no component: "lonely"'s horizon cannot advance.
  ch.set_transport(std::make_unique<ShmChannelTransport>(shm_params("t.unfed", 16)));
  ch.transport().start();
  try {
    sim.run(10'000, runtime::RunMode::kThreaded);
    FAIL() << "run() should have thrown";
  } catch (const runtime::SimulationError& e) {
    EXPECT_EQ(e.kind(), runtime::ErrorKind::kDeadlock);
    EXPECT_EQ(e.component(), "lonely");
    EXPECT_NE(std::string(e.what()).find("remote wait"), std::string::npos) << e.what();
    ASSERT_NE(e.stats(), nullptr);
    EXPECT_EQ(e.stats()->outcome, runtime::RunOutcome::kError);
  }
  ch.transport().stop();
}

// ---------------------------------------------------------------------------
// Peer death end to end
// ---------------------------------------------------------------------------

TEST(TransportFailureTest, PeerDeathAttributedAndArtifactsSalvaged) {
  // Kill rank 1 at 4 ms of its 8 ms simulated run (the debug hook children
  // arm from the environment), so the kill lands mid-run on any host
  // speed. The survivors must detect the death via the transport,
  // the parent must rethrow it as SimulationError{kTransport} with merged
  // partial stats attached, and the merged summary must still land on disk
  // (the teardown-ordering satellite).
  const std::string out = "test-transport-out/peer-death";
  ::setenv("SPLITSIM_DEBUG_KILL", "1:4000", 1);
  struct EnvGuard {
    ~EnvGuard() { ::unsetenv("SPLITSIM_DEBUG_KILL"); }
  } guard;

  kv::ScenarioConfig cfg = mcheck::kv_small_config();
  cfg.exec.run_mode = runtime::RunMode::kThreaded;
  cfg.exec.transport = "shm";
  cfg.exec.processes = true;
  cfg.profile.log_dir = out;
  try {
    kv::run_kv_scenario(cfg);
    FAIL() << "run must not complete after a child is killed";
  } catch (const runtime::SimulationError& e) {
    EXPECT_EQ(e.kind(), runtime::ErrorKind::kTransport);
    // Attribution: the first failing report wins, which is a *survivor*
    // whose transport observed the kill — the message must name its
    // process group and say the peer died before FIN.
    EXPECT_NE(std::string(e.what()).find("process group"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("died before FIN"), std::string::npos)
        << e.what();
    ASSERT_TRUE(e.stats() != nullptr);
  }
  EXPECT_TRUE(std::filesystem::exists(out + "/summary.json"));
}
