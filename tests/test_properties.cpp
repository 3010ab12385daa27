// Property-based tests: randomized/parameterized sweeps asserting the
// invariants the framework's correctness rests on.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "des/kernel.hpp"
#include "des/reference_kernel.hpp"
#include "netsim/apps.hpp"
#include "netsim/topology.hpp"
#include "orch/partition.hpp"
#include "proto/interval_set.hpp"
#include "proto/tcp.hpp"
#include "runtime/runner.hpp"
#include "util/rng.hpp"
#include "util/zipf.hpp"

using namespace splitsim;

// ---------------------------------------------------------------------------
// IntervalSet vs a reference model (std::set of covered points).
// ---------------------------------------------------------------------------

class IntervalSetProperty : public ::testing::TestWithParam<std::uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, IntervalSetProperty, ::testing::Range<std::uint64_t>(0, 8));

TEST_P(IntervalSetProperty, MatchesReferenceModel) {
  Rng rng(GetParam());
  proto::IntervalSet s;
  std::set<std::uint64_t> model;  // covered unit points in [0, 200)
  for (int step = 0; step < 200; ++step) {
    std::uint64_t a = rng.below(200);
    std::uint64_t b = a + 1 + rng.below(20);
    s.insert(a, b);
    for (std::uint64_t x = a; x < b && x < 220; ++x) model.insert(x);

    // contains() agrees with the model on random probes.
    for (int probe = 0; probe < 5; ++probe) {
      std::uint64_t x = rng.below(220);
      EXPECT_EQ(s.contains(x), model.count(x) > 0) << "x=" << x;
    }
    // contiguous_from agrees.
    std::uint64_t p = rng.below(220);
    std::uint64_t expect = p;
    while (model.count(expect) > 0) ++expect;
    EXPECT_EQ(s.contiguous_from(p), expect);
  }
  // covered_bytes over the whole range equals the model size.
  EXPECT_EQ(s.covered_bytes(0, 300), model.size());
  // Intervals are disjoint, sorted, non-adjacent.
  std::uint64_t prev_end = 0;
  bool first = true;
  for (auto [b, e] : s.intervals()) {
    EXPECT_LT(b, e);
    if (!first) {
      EXPECT_GT(b, prev_end);
    }
    prev_end = e;
    first = false;
  }
}

// ---------------------------------------------------------------------------
// Zipf distribution sanity across parameters.
// ---------------------------------------------------------------------------

class ZipfProperty : public ::testing::TestWithParam<std::tuple<std::uint64_t, double>> {};

INSTANTIATE_TEST_SUITE_P(Params, ZipfProperty,
                         ::testing::Combine(::testing::Values<std::uint64_t>(10, 100, 5000),
                                            ::testing::Values(0.5, 0.99, 1.4, 2.0)));

TEST_P(ZipfProperty, PmfMonotoneNormalizedAndSampled) {
  auto [n, theta] = GetParam();
  ZipfGenerator z(n, theta);
  double sum = 0.0;
  double prev = 1.0;
  for (std::uint64_t i = 0; i < n; ++i) {
    double p = z.pmf(i);
    EXPECT_LE(p, prev + 1e-12);
    prev = p;
    sum += p;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
  Rng rng(99);
  const int kSamples = 20000;
  int top = 0;
  for (int i = 0; i < kSamples; ++i) {
    if (z.sample(rng) == 0) ++top;
  }
  EXPECT_NEAR(static_cast<double>(top) / kSamples, z.pmf(0), 0.02);
}

// ---------------------------------------------------------------------------
// TCP delivers exactly the requested bytes under every (cc, loss) regime.
// ---------------------------------------------------------------------------

namespace {

class LossyWire : public proto::TcpEnv {
 public:
  LossyWire(double loss, std::uint64_t seed) : loss_(loss), rng_(seed) {}

  SimTime tcp_now() const override { return kernel_.now(); }
  void tcp_tx(proto::Packet&& p) override {
    if (p.payload_len > 0 && rng_.chance(loss_)) return;  // drop data segments
    proto::TcpConnection* dst = p.dst_port == 100 ? a_ : b_;
    kernel_.schedule_in(from_us(20.0), [dst, p] { dst->on_segment(p); });
  }
  std::uint64_t tcp_set_timer(SimTime at, std::function<void()> fn) override {
    return kernel_.schedule_at(at, std::move(fn));
  }
  void tcp_cancel_timer(std::uint64_t id) override { kernel_.cancel(id); }

  des::Kernel kernel_;
  proto::TcpConnection* a_ = nullptr;
  proto::TcpConnection* b_ = nullptr;

 private:
  double loss_;
  Rng rng_;
};

}  // namespace

class TcpDeliveryProperty
    : public ::testing::TestWithParam<std::tuple<proto::CcAlgo, double, std::uint64_t>> {};

INSTANTIATE_TEST_SUITE_P(
    Regimes, TcpDeliveryProperty,
    ::testing::Combine(::testing::Values(proto::CcAlgo::kReno, proto::CcAlgo::kDctcp,
                                         proto::CcAlgo::kCubic),
                       ::testing::Values(0.0, 0.01, 0.05), ::testing::Values<std::uint64_t>(1, 2)));

TEST_P(TcpDeliveryProperty, ExactInOrderDelivery) {
  auto [cc, loss, seed] = GetParam();
  proto::TcpConfig cfg;
  cfg.cc = cc;
  cfg.max_cwnd_segs = 128;
  LossyWire wire(loss, seed);
  proto::TcpConnection client(wire, cfg, proto::ip(10, 0, 0, 1), 100, proto::ip(10, 0, 0, 2),
                              200, false);
  proto::TcpConnection server(wire, cfg, proto::ip(10, 0, 0, 2), 200, proto::ip(10, 0, 0, 1),
                              100, true);
  wire.a_ = &client;
  wire.b_ = &server;
  server.open();

  const std::uint64_t kBytes = 300'000;
  std::uint64_t delivered = 0;
  bool complete = false;
  server.on_deliver = [&](std::uint64_t b) { delivered += b; };
  client.on_send_complete = [&] { complete = true; };
  client.app_send(kBytes);

  SimTime limit = from_sec(30.0);
  while (!wire.kernel_.empty() && wire.kernel_.next_time() <= limit && !complete) {
    wire.kernel_.run_next();
  }
  EXPECT_TRUE(complete);
  EXPECT_EQ(delivered, kBytes);
  EXPECT_EQ(server.bytes_delivered(), kBytes);
  EXPECT_EQ(client.bytes_acked(), kBytes);
}

// ---------------------------------------------------------------------------
// Channel-layer invariants under random traffic.
// ---------------------------------------------------------------------------

class ChannelProperty : public ::testing::TestWithParam<std::uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, ChannelProperty, ::testing::Range<std::uint64_t>(0, 6));

TEST_P(ChannelProperty, TimestampMonotoneFifoDelivery) {
  Rng rng(GetParam());
  sync::Channel ch("p", {.latency = 50, .ring_capacity = 16});
  ch.set_mode(sync::ChannelMode::kSpillSingleThread);
  SimTime t = 0;
  std::vector<std::uint64_t> sent_ids;
  std::vector<std::uint64_t> got_ids;
  SimTime last_rx_ts = 0;
  std::uint64_t id = 0;
  for (int step = 0; step < 500; ++step) {
    if (rng.chance(0.6)) {
      t += rng.below(40);
      sync::Message m;
      m.timestamp = t;
      m.type = rng.chance(0.3) ? static_cast<std::uint16_t>(sync::MsgType::kSync)
                               : sync::kUserTypeBase;
      if (!m.is_sync()) {
        m.store(++id);
        sent_ids.push_back(id);
      }
      ch.end_a().send(m);
      // Promise discipline: a sync at t promises nothing further arrives at
      // or before t, so any later data must lie strictly beyond it.
      if (m.is_sync()) ++t;
    } else {
      const sync::Message* m = ch.end_b().peek();
      if (m != nullptr) {
        EXPECT_GT(m->timestamp, last_rx_ts);  // strictly increasing
        last_rx_ts = m->timestamp;
        got_ids.push_back(m->as<std::uint64_t>());
        ch.end_b().consume();
      }
    }
    // The horizon never exceeds what was actually promised.
    EXPECT_LE(ch.end_b().last_recv(), ch.end_a().last_sent());
  }
  while (const sync::Message* m = ch.end_b().peek()) {
    got_ids.push_back(m->as<std::uint64_t>());
    ch.end_b().consume();
  }
  EXPECT_EQ(got_ids, sent_ids);  // FIFO, lossless
}

// ---------------------------------------------------------------------------
// Partitioning never changes simulated results (datacenter, random traffic).
// ---------------------------------------------------------------------------

class PartitionInvariance : public ::testing::TestWithParam<const char*> {};

INSTANTIATE_TEST_SUITE_P(Strategies, PartitionInvariance,
                         ::testing::Values("ac", "cr1", "cr2", "rs"));

TEST_P(PartitionInvariance, SameDeliveriesAsSingleProcess) {
  auto run = [](const char* strategy) {
    runtime::Simulation sim;
    netsim::Datacenter dc = netsim::make_datacenter(2, 2, 4);
    std::vector<int> part;
    if (std::string(strategy) != "s") part = orch::partition_by_name(dc, strategy);
    auto inst = netsim::instantiate(sim, dc.topo, part);
    // Deterministic random pairs, UDP at moderate rate.
    Rng rng(7);
    std::vector<netsim::HostNode*> hosts;
    for (auto& [n, h] : inst.hosts) hosts.push_back(h);
    std::sort(hosts.begin(), hosts.end(),
              [](auto* a, auto* b) { return a->name() < b->name(); });
    std::uint64_t total = 0;
    std::vector<netsim::UdpSinkApp*> sinks;
    for (std::size_t i = 0; i + 1 < hosts.size(); i += 2) {
      sinks.push_back(&hosts[i + 1]->add_app<netsim::UdpSinkApp>(9000));
      hosts[i]->add_app<netsim::OnOffUdpApp>(netsim::OnOffUdpApp::Config{
          .dst = hosts[i + 1]->ip(),
          .dst_port = 9000,
          .src_port = 9000,
          .payload_bytes = 800,
          .rate_bps = 50e6,
          .start_at = from_us(static_cast<double>(rng.below(100)))});
    }
    sim.run(from_ms(3.0), runtime::RunMode::kCoscheduled);
    for (auto* s : sinks) total += s->packets();
    return total;
  };
  static const std::uint64_t baseline = run("s");
  EXPECT_GT(baseline, 0u);
  EXPECT_EQ(run(GetParam()), baseline);
}

// ---------------------------------------------------------------------------
// Partition strategies: structural invariants across topology sizes.
// ---------------------------------------------------------------------------

class PartitionStructure : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

INSTANTIATE_TEST_SUITE_P(Sizes, PartitionStructure,
                         ::testing::Values(std::tuple{2, 2, 3}, std::tuple{3, 4, 5},
                                           std::tuple{4, 6, 10}));

TEST_P(PartitionStructure, EveryStrategyCoversAllNodesContiguously) {
  auto [aggs, racks, hosts] = GetParam();
  netsim::Datacenter dc = netsim::make_datacenter(aggs, racks, hosts);
  for (const char* strat : {"s", "ac", "cr2", "rs"}) {
    auto part = orch::partition_by_name(dc, strat);
    ASSERT_EQ(part.size(), dc.topo.nodes().size()) << strat;
    int n = orch::partition_count(part);
    std::vector<bool> used(static_cast<std::size_t>(n), false);
    for (int p : part) {
      ASSERT_GE(p, 0) << strat;
      ASSERT_LT(p, n) << strat;
      used[static_cast<std::size_t>(p)] = true;
    }
    for (bool u : used) EXPECT_TRUE(u) << strat << ": empty partition id";
    // Hosts always share their ToR's partition.
    for (std::size_t a = 0; a < dc.tors.size(); ++a) {
      for (std::size_t r = 0; r < dc.tors[a].size(); ++r) {
        int p = part[static_cast<std::size_t>(dc.tors[a][r])];
        for (int h : dc.hosts[a][r]) {
          EXPECT_EQ(part[static_cast<std::size_t>(h)], p) << strat;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// ECMP: flows spread across paths, each flow stays on one path.
// ---------------------------------------------------------------------------

TEST(EcmpProperty, FlowsSpreadButStayPinned) {
  netsim::FatTree ft = netsim::make_fattree(4, Bandwidth::gbps(10), Bandwidth::gbps(10),
                                            from_us(1.0));
  runtime::Simulation sim;
  auto inst = netsim::instantiate(sim, ft.topo);
  auto* edge = inst.switches["edge0.0"];
  // Many flows from one edge switch: the two agg uplinks should both carry
  // traffic, and repeated lookups for the same 5-tuple must be stable.
  std::map<std::size_t, int> port_use;
  for (int flow = 0; flow < 64; ++flow) {
    proto::Packet p;
    p.src_ip = proto::ip(10, 0, 0, 2);
    p.dst_ip = proto::ip(10, 3, 1, 3);
    p.src_port = static_cast<std::uint16_t>(10000 + flow);
    p.dst_port = 5001;
    std::size_t first = edge->lookup(p);
    for (int rep = 0; rep < 5; ++rep) EXPECT_EQ(edge->lookup(p), first);
    port_use[first]++;
  }
  EXPECT_GE(port_use.size(), 2u);  // both uplinks used
  for (auto& [port, count] : port_use) {
    EXPECT_GT(count, 10);  // roughly balanced
  }
}

// ---------------------------------------------------------------------------
// RNG statistical properties across seeds.
// ---------------------------------------------------------------------------

class RngProperty : public ::testing::TestWithParam<std::uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, RngProperty, ::testing::Range<std::uint64_t>(1, 5));

TEST_P(RngProperty, UniformMomentsAndIndependence) {
  Rng r(GetParam());
  const int n = 50000;
  double sum = 0, sq = 0;
  for (int i = 0; i < n; ++i) {
    double u = r.uniform();
    sum += u;
    sq += u * u;
  }
  EXPECT_NEAR(sum / n, 0.5, 0.01);
  EXPECT_NEAR(sq / n, 1.0 / 3.0, 0.01);
}

// ---------------------------------------------------------------------------
// DES kernel vs the reference kernel (des/reference_kernel.hpp), which is
// the executable ordering specification: a randomized stream of schedule /
// cancel / run_next / run_all_at operations — with deliberate timestamp ties
// and a mix of calendar-window and far-future horizons — must produce an
// identical execution order from both. Half the seeds also retune the bucket
// geometry mid-run (set_bucket_hint) to cover deferred window reshaping. A
// second stream keeps the calendar sparse — a few events scattered over
// many buckets, far-future events that force window rotations, and cancels
// of the head event that empty the head bucket — so the occupancy bitmap
// that finds the head bucket is checked against the same specification.
// ---------------------------------------------------------------------------

class KernelProperty : public ::testing::TestWithParam<std::uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, KernelProperty, ::testing::Range<std::uint64_t>(0, 8));

TEST_P(KernelProperty, MatchesReferenceKernelExecutionOrder) {
  Rng rng(GetParam() * 0x9E3779B9u + 1);
  des::Kernel k;
  des::ReferenceKernel ref;
  if (GetParam() % 2 == 1) k.set_bucket_hint(50'000);

  std::vector<std::uint64_t> k_log, ref_log;
  // Parallel handle pairs; stale entries are kept on purpose so cancels of
  // already-executed (or already-cancelled) events hit both kernels too.
  std::vector<std::pair<des::Kernel::EventId, des::ReferenceKernel::EventId>> handles;
  std::uint64_t tag = 0;

  for (int step = 0; step < 4000; ++step) {
    double p = rng.uniform();
    if (p < 0.55) {
      // Coarse 100 ps grid makes same-time ties common (FIFO tie-break
      // coverage); 1 in 8 goes far future (heap tier + later rotation).
      SimTime t = rng.chance(0.125) ? k.now() + 600'000 + 100 * rng.below(30'000)
                                    : k.now() + 100 * rng.below(300);
      std::uint64_t mytag = ++tag;
      auto ka = k.schedule_at(t, [&k_log, mytag] { k_log.push_back(mytag); });
      auto ra = ref.schedule_at(t, [&ref_log, mytag] { ref_log.push_back(mytag); });
      handles.emplace_back(ka, ra);
    } else if (p < 0.75) {
      if (!handles.empty()) {
        auto& h = handles[rng.below(handles.size())];
        k.cancel(h.first);
        ref.cancel(h.second);
      }
    } else if (p < 0.9) {
      ASSERT_EQ(k.next_time(), ref.next_time()) << "step " << step;
      if (!ref.empty()) {
        k.run_next();
        ref.run_next();
        ASSERT_EQ(k.now(), ref.now()) << "step " << step;
      }
    } else {
      SimTime nt = ref.next_time();
      ASSERT_EQ(k.next_time(), nt) << "step " << step;
      if (nt != kSimTimeMax) {
        k.run_all_at(nt);
        ref.run_all_at(nt);
      }
    }
    ASSERT_EQ(k_log.size(), ref_log.size()) << "step " << step;
  }
  while (!ref.empty()) {
    ASSERT_EQ(k.next_time(), ref.next_time());
    k.run_next();
    ref.run_next();
  }
  EXPECT_TRUE(k.empty());
  EXPECT_EQ(k_log, ref_log);
  EXPECT_EQ(k.events_executed(), ref.events_executed());
  EXPECT_EQ(k.live_events(), 0u);
}

TEST_P(KernelProperty, SparseCalendarAndHeadCancelsMatchReference) {
  Rng rng(GetParam() * 0x51ED27u + 7);
  des::Kernel k;
  des::ReferenceKernel ref;
  k.set_bucket_hint(50'000);
  const SimTime width = k.bucket_width();
  const SimTime window = 256 * width;

  std::vector<std::uint64_t> k_log, ref_log;
  // Pending events keyed (time, tag): tags grow in scheduling order, so the
  // map's first entry is the kernels' next event.
  using Key = std::pair<SimTime, std::uint64_t>;
  std::map<Key, std::pair<des::Kernel::EventId, des::ReferenceKernel::EventId>> pending;
  std::uint64_t tag = 0;
  std::uint64_t rotations = 0;

  for (int step = 0; step < 4000; ++step) {
    double p = rng.uniform();
    if (p < 0.4 || pending.empty()) {
      double q = rng.uniform();
      SimTime t;
      if (q < 0.5) {
        t = k.now() + rng.below(window);  // anywhere in the window
      } else if (q < 0.8) {
        t = k.now() + window + rng.below(6 * window);  // heap tier
      } else {
        t = k.now() + width * rng.below(4);  // ties near the clock
      }
      const Key key{t, ++tag};
      auto ka = k.schedule_at(t, [&k_log, &pending, key] {
        k_log.push_back(key.second);
        pending.erase(key);
      });
      auto ra = ref.schedule_at(t, [&ref_log, key] { ref_log.push_back(key.second); });
      pending.emplace(key, std::make_pair(ka, ra));
    } else if (p < 0.6) {
      // Cancel the head event: its bucket often empties.
      auto it = pending.begin();
      k.cancel(it->second.first);
      ref.cancel(it->second.second);
      pending.erase(it);
    } else {
      SimTime nt = ref.next_time();
      if (nt != kSimTimeMax && nt >= k.now() + window) ++rotations;
      ASSERT_EQ(k.next_time(), nt) << "step " << step;
      if (nt != kSimTimeMax) {
        k.run_next();
        ref.run_next();
        ASSERT_EQ(k.now(), ref.now()) << "step " << step;
      }
    }
    ASSERT_EQ(k_log, ref_log) << "step " << step;
    ASSERT_EQ(k.live_events(), pending.size()) << "step " << step;
  }
  while (!ref.empty()) {
    ASSERT_EQ(k.next_time(), ref.next_time());
    k.run_next();
    ref.run_next();
  }
  EXPECT_TRUE(k.empty());
  EXPECT_EQ(k_log, ref_log);
  EXPECT_GT(rotations, 10u) << "the stream must reach past the calendar window";
}

namespace {

/// A stream event that logs its tag and re-arms itself (tag + 1) a
/// tag-derived gap later until `end`: the same schedule on either kernel,
/// so the calendar never empties while a stream runs.
/// The reference kernel's spelling of Kernel::run_until.
void run_until(des::ReferenceKernel& ref, SimTime t) {
  while (!ref.empty() && ref.next_time() <= t) ref.run_next();
}

template <typename K>
void arm_stream(K& k, std::vector<std::uint64_t>& log, std::uint64_t tag, SimTime end) {
  const std::uint64_t h = (tag * 0x9E3779B97F4A7C15ull) >> 40;
  const SimTime gap = h % 7 == 0 ? 0 : 1 + h % 60'000;  // ~half the seed window, some ties
  k.schedule_at(k.now() + gap, [&k, &log, tag, end] {
    log.push_back(tag);
    if (k.now() < end) arm_stream(k, log, tag + 1, end);
  });
}

}  // namespace

// The window that follows the clock, against the same specification: each
// round starts from an empty queue and rebases it on a far event, inserts
// earlier events under it, then keeps streams running (the calendar never
// empties) beside timers 10-20 windows ahead, cancels in both tiers as the
// window slides, bucket-hint changes while events are pending, and
// run_until next to run_next / run_all_at.
TEST_P(KernelProperty, SlidingWindowMixMatchesReference) {
  Rng rng(GetParam() * 0xA24BAED4u + 3);
  des::Kernel k;
  des::ReferenceKernel ref;
  k.set_bucket_hint(50'000);
  const SimTime window = 256 * k.bucket_width();
  const SimTime hints[] = {5'000, 50'000, 500'000, 5'000'000};

  std::vector<std::uint64_t> k_log, ref_log;
  std::map<std::uint64_t, std::pair<des::Kernel::EventId, des::ReferenceKernel::EventId>> ids;
  std::uint64_t tag = 0;
  auto schedule = [&](SimTime t) {
    const std::uint64_t mytag = ++tag;
    ids[mytag] = {k.schedule_at(t, [&k_log, mytag] { k_log.push_back(mytag); }),
                  ref.schedule_at(t, [&ref_log, mytag] { ref_log.push_back(mytag); })};
  };
  auto check_head = [&](int step) {
    ASSERT_EQ(k.next_time(), ref.next_time()) << "step " << step;
  };

  for (int round = 0; round < 3; ++round) {
    ASSERT_TRUE(k.empty());
    // Empty-queue rebase on a far event, then earlier inserts below it.
    schedule(k.now() + window * (3 + rng.below(6)));
    for (std::uint64_t i = 0, n = 5 + rng.below(16); i < n; ++i) {
      schedule(k.now() + 100 * rng.below(3 * window / 100));
    }
    const SimTime end = k.now() + 400 * window;
    for (std::uint64_t s = 0; s < 6; ++s) {
      const std::uint64_t stream_tag = (round * 8 + s + 1) << 40;
      arm_stream(k, k_log, stream_tag, end);
      arm_stream(ref, ref_log, stream_tag, end);
    }
    for (int step = 0; step < 1500; ++step) {
      const double p = rng.uniform();
      if (p < 0.3) {
        schedule(k.now() + 100 * rng.below(window / 100));  // coarse grid: ties
      } else if (p < 0.4) {
        schedule(k.now() + window * (10 + rng.below(10)) + rng.below(window));
      } else if (p < 0.55) {
        if (!ids.empty()) {  // executed or cancelled handles stay: stale no-ops too
          auto it = ids.lower_bound(1 + rng.below(tag));
          if (it == ids.end()) it = ids.begin();
          k.cancel(it->second.first);
          ref.cancel(it->second.second);
        }
      } else if (p < 0.57) {
        k.set_bucket_hint(hints[rng.below(4)]);
      } else if (p < 0.75) {
        check_head(step);
        if (!ref.empty()) {
          k.run_next();
          ref.run_next();
        }
      } else if (p < 0.85) {
        const SimTime nt = ref.next_time();
        check_head(step);
        if (nt != kSimTimeMax) {
          k.run_all_at(nt);
          ref.run_all_at(nt);
        }
      } else {
        const SimTime limit = k.now() + rng.below(3 * window);
        k.run_until(limit);
        run_until(ref, limit);
      }
      ASSERT_EQ(k.now(), ref.now()) << "round " << round << " step " << step;
      ASSERT_EQ(k_log, ref_log) << "round " << round << " step " << step;
    }
    // Drain: the streams stop at `end`, the far timers run out.
    if (round % 2 == 0) {
      k.run_until(kSimTimeMax);
      run_until(ref, kSimTimeMax);
    } else {
      while (!ref.empty()) {
        ASSERT_EQ(k.next_time(), ref.next_time());
        k.run_next();
        ref.run_next();
      }
    }
    ASSERT_EQ(k_log, ref_log) << "round " << round;
    EXPECT_EQ(k.live_events(), 0u);
  }
  EXPECT_TRUE(k.empty());
  EXPECT_EQ(k.events_executed(), ref.events_executed());
  EXPECT_GT(k.heap_pushes(), 0u);
}
