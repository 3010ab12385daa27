// The coscheduled runner: heap scheduling must reproduce the linear
// global-minimum scan exactly (batches, digests, checkpoint boundaries,
// fault attribution), agree with the parallel modes on every simulated
// result, and keep its own overhead independent of the component count.
#include <gtest/gtest.h>

#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "obs/summary.hpp"
#include "runtime/runner.hpp"

using namespace splitsim;
using namespace splitsim::runtime;

namespace {

constexpr std::uint16_t kMsg = sync::kUserTypeBase + 7;

/// A component with any number of ports. Every `period` from `phase`
/// (period 0: never) it sends a fresh message on port 0. A message with
/// payload v arriving on port i is forwarded as v + 1 on port
/// (i + 1 + v) % ports, stamped `delay` after its arrival, unless
/// v % 4 == 3, so every message dies within three hops; a one-port node
/// reflects.
class Node : public Component {
 public:
  Node(std::string name, const std::vector<sync::ChannelEnd*>& ends, SimTime period = 0,
       SimTime phase = 0, SimTime delay = 0)
      : Component(std::move(name)), period_(period), phase_(phase), delay_(delay) {
    for (std::size_t i = 0; i < ends.size(); ++i) {
      ports_.push_back(&add_adapter("p" + std::to_string(i), *ends[i]));
      ports_.back()->set_handler([this, i](const sync::Message& m, SimTime rx) {
        int v = m.as<int>();
        if (v % 4 == 3) return;
        ports_[(i + 1 + static_cast<std::size_t>(v)) % ports_.size()]->send(kMsg, v + 1,
                                                                           rx + delay_);
      });
    }
  }

  void init() override {
    if (period_ != 0) kernel().schedule_at(phase_, [this] { tick(); });
  }

 private:
  void tick() {
    ports_[0]->send(kMsg, 4 * seq_++, kernel().now());
    kernel().schedule_in(period_, [this] { tick(); });
  }

  std::vector<sync::Adapter*> ports_;
  SimTime period_;
  SimTime phase_;
  SimTime delay_;
  int seq_ = 0;
};

/// The two fast leaves (1 and 7): link latency, send period, and how far
/// into the future they stamp their replies.
struct FastLeaf {
  double latency_ns;
  double period_ns;
  double delay_ns;
};
/// Replies stamped 5 us ahead push the fast leaves' keys far out: the
/// hub's data to them then lowers their keys below the second-smallest key
/// its run segment started from, the one re-key that changes which
/// component runs next. (With every send stamped at the sender's current
/// time that cannot happen: each batch then runs at the global minimum.)
constexpr FastLeaf kRekeyBelowSecond{50, 700, 5000};
/// Leaf 7's SYNC due time passes the end while the hub still owes it a
/// message due at 39.959 us: finishing a component on its own next > end
/// drops that message.
constexpr FastLeaf kDueJustBeforeEnd{100, 250, 450};

/// Hub with twelve leaves plus a three-node chain tail behind port 12.
/// Latencies differ per leaf; six leaves share latency, period and phase,
/// so their messages tie at the hub.
void build_asymmetric(Simulation& sim, FastLeaf fast) {
  constexpr int kLeaves = 12;
  const double latency_ns[6] = {300, fast.latency_ns, 300, 550, 800, 300};
  const double period_ns[6] = {1000, fast.period_ns, 1000, 1300, 2100, 1000};
  std::vector<sync::ChannelEnd*> hub_ends;
  for (int i = 0; i < kLeaves; ++i) {
    const int k = i % 6;
    auto& ch = sim.add_channel("leaf" + std::to_string(i), {.latency = from_ns(latency_ns[k])});
    hub_ends.push_back(&ch.end_a());
    const bool tied = k == 0 || k == 2 || k == 5;
    sim.add_component<Node>("leaf" + std::to_string(i), std::vector{&ch.end_b()},
                            from_ns(period_ns[k]), tied ? 0 : from_ns(37.0 * i),
                            k == 1 ? from_ns(fast.delay_ns) : 0);
  }
  auto& c1 = sim.add_channel("tail1", {.latency = from_ns(700.0)});
  auto& c2 = sim.add_channel("tail2", {.latency = from_ns(250.0)});
  auto& c3 = sim.add_channel("tail3", {.latency = from_ns(400.0), .sync_interval = from_ns(150.0)});
  hub_ends.push_back(&c1.end_a());
  sim.add_component<Node>("hub", hub_ends);
  sim.add_component<Node>("t1", std::vector{&c1.end_b(), &c2.end_a()});
  sim.add_component<Node>("t2", std::vector{&c2.end_b(), &c3.end_a()});
  sim.add_component<Node>("t3", std::vector{&c3.end_b()}, from_ns(900.0), from_ns(450.0));
}

/// Records every checkpoint boundary with the component's digest at that
/// point, which conservative synchronization makes final.
class BoundaryLog : public CkptHook {
 public:
  void on_boundary(Component& c, SimTime b) override {
    std::lock_guard<std::mutex> l(mu_);
    rows_.emplace(std::make_pair(c.name(), b), c.digest().value());
  }
  std::map<std::pair<std::string, SimTime>, std::uint64_t> rows() const { return rows_; }

 private:
  std::mutex mu_;
  std::map<std::pair<std::string, SimTime>, std::uint64_t> rows_;
};

struct Outcome {
  EventDigest digest;
  std::map<std::string, std::uint64_t> batches;
  std::map<std::string, std::uint64_t> events;
  std::map<std::pair<std::string, SimTime>, std::uint64_t> boundaries;
  std::string error_component;  ///< "" when the run completed
  SimTime error_sim_time = 0;

  void collect(const Simulation& sim) {
    for (auto& c : sim.components()) {
      digest.merge(c->digest());
      batches[c->name()] = c->batches();
      events[c->name()] = c->kernel().events_executed();
    }
  }
};

constexpr SimTime kEnd = 40 * timeunit::us;
constexpr SimTime kCkptEvery = 3 * timeunit::us;

void arm(Simulation& sim, BoundaryLog& log, SimTime throw_at) {
  for (auto& c : sim.components()) {
    c->set_ckpt_hook(&log, kCkptEvery, kCkptEvery);
    if (throw_at != 0 && c->name() == "t2") c->inject_throw_at(throw_at, "injected");
  }
}

/// Simulation::run in `mode`, with checkpoint hooks and an optional fault.
Outcome run_mode(RunMode mode, unsigned workers, SimTime throw_at = 0,
                 FastLeaf fast = kRekeyBelowSecond) {
  Simulation sim;
  build_asymmetric(sim, fast);
  BoundaryLog log;
  arm(sim, log, throw_at);
  Outcome o;
  try {
    sim.run(kEnd, mode, workers);
  } catch (const SimulationError& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kModelError);
    EXPECT_NE(e.cause().find("injected"), std::string::npos);
    o.error_component = e.component();
    o.error_sim_time = e.sim_time();
  }
  o.collect(sim);
  o.boundaries = log.rows();
  return o;
}

/// The coscheduled order by linear scan: poll every component, run the
/// earliest (first in order on ties) until it passes the second-earliest
/// next action or blocks, and finish everyone once the earliest passes the
/// end. The heap runner must reproduce this exactly.
Outcome run_scan(SimTime throw_at = 0) {
  Simulation sim;
  build_asymmetric(sim, kRekeyBelowSecond);
  for (auto& ch : sim.channels()) ch->set_mode(sync::ChannelMode::kSpillSingleThread);
  BoundaryLog log;
  arm(sim, log, throw_at);
  std::vector<Component*> comps;
  for (auto& c : sim.components()) {
    comps.push_back(c.get());
    c->prepare(kEnd);
  }
  Outcome o;
  Component* running = nullptr;
  try {
    for (;;) {
      Component* best = nullptr;
      Poll best_p;
      SimTime second = kSimTimeMax;
      for (Component* c : comps) {
        Poll p = c->poll();
        if (p.next < best_p.next) {
          second = best_p.next;
          best_p = p;
          best = c;
        } else if (p.next < second) {
          second = p.next;
        }
      }
      if (best == nullptr || best_p.next > kEnd) break;
      EXPECT_LE(best_p.next, best_p.bound) << best->name();
      if (best_p.next > best_p.bound) break;
      running = best;
      for (Poll p = best_p;;) {
        best->advance(p);
        p = best->poll();
        if (p.next > second || p.next > kEnd || p.next > p.bound) break;
      }
    }
    for (Component* c : comps) {
      running = c;
      c->finish();
    }
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("injected"), std::string::npos);
    o.error_component = running->name();
    o.error_sim_time = running->now();
  }
  o.collect(sim);
  o.boundaries = log.rows();
  return o;
}

std::uint64_t total_batches(const RunStats& rs) {
  std::uint64_t b = 0;
  for (const auto& c : rs.components) b += c.batches;
  return b;
}

}  // namespace

TEST(CoschedHeap, MatchesLinearScanOnAsymmetricTopology) {
  Outcome scan = run_scan();
  Outcome heap = run_mode(RunMode::kCoscheduled, 0);
  EXPECT_TRUE(scan.error_component.empty());
  EXPECT_TRUE(heap.error_component.empty());
  EXPECT_GT(heap.batches["hub"], 100u);
  EXPECT_GT(heap.events["t3"], 10u);
  EXPECT_EQ(heap.digest, scan.digest);
  EXPECT_EQ(heap.batches, scan.batches);
  EXPECT_EQ(heap.events, scan.events);
  EXPECT_EQ(heap.boundaries, scan.boundaries);
  // Every component saw every boundary before the end.
  EXPECT_EQ(heap.boundaries.size(), 16u * ((kEnd - 1) / kCkptEvery));
}

TEST(CoschedHeap, MatchesPooledAndThreadedOnAsymmetricTopology) {
  Outcome heap = run_mode(RunMode::kCoscheduled, 0);
  for (auto [mode, workers] : {std::pair{RunMode::kPooled, 2u}, std::pair{RunMode::kThreaded, 0u}}) {
    Outcome other = run_mode(mode, workers);
    const std::string what = to_string(mode);
    EXPECT_TRUE(other.error_component.empty()) << what;
    EXPECT_EQ(heap.digest, other.digest) << what;
    EXPECT_EQ(heap.batches, other.batches) << what;
    EXPECT_EQ(heap.events, other.events) << what;
    EXPECT_EQ(heap.boundaries, other.boundaries) << what;
  }
}

TEST(CoschedHeap, NoMessageDueByTheEndIsDropped) {
  Outcome heap = run_mode(RunMode::kCoscheduled, 0, 0, kDueJustBeforeEnd);
  for (auto [mode, workers] : {std::pair{RunMode::kPooled, 2u}, std::pair{RunMode::kThreaded, 0u}}) {
    Outcome other = run_mode(mode, workers, 0, kDueJustBeforeEnd);
    const std::string what = to_string(mode);
    EXPECT_EQ(heap.digest, other.digest) << what;
    EXPECT_EQ(heap.batches, other.batches) << what;
  }
}

TEST(CoschedHeap, InjectedThrowAttributedLikeLinearScan) {
  const SimTime at = 17 * timeunit::us + 123;
  Outcome scan = run_scan(at);
  Outcome heap = run_mode(RunMode::kCoscheduled, 0, at);
  EXPECT_EQ(heap.error_component, "t2");
  EXPECT_EQ(heap.error_component, scan.error_component);
  EXPECT_EQ(heap.error_sim_time, scan.error_sim_time);
  EXPECT_LT(heap.error_sim_time, at);
  EXPECT_EQ(heap.batches, scan.batches);
  EXPECT_EQ(heap.boundaries, scan.boundaries);
  // The failing component left a snapshot point for every boundary before
  // the fault, and none after it.
  for (SimTime b = kCkptEvery; b < kEnd; b += kCkptEvery) {
    EXPECT_EQ(heap.boundaries.count({"t2", b}), b < at ? 1u : 0u) << b;
  }
}

TEST(CoschedHeap, PollsPerBatchIndependentOfComponentCount) {
  // A 64-leaf star: a linear scan polls all 65 components per run
  // segment; the heap polls the one that runs plus the peers it sent to.
  auto polls_per_batch = [](int leaves) {
    Simulation sim;
    std::vector<sync::ChannelEnd*> hub_ends;
    for (int i = 0; i < leaves; ++i) {
      auto& ch = sim.add_channel("l" + std::to_string(i), {.latency = from_ns(500.0)});
      hub_ends.push_back(&ch.end_a());
      sim.add_component<Node>("leaf" + std::to_string(i), std::vector{&ch.end_b()},
                              from_ns(1000.0), from_ns(13.0 * i));
    }
    sim.add_component<Node>("hub", hub_ends);
    RunStats rs = sim.run(50 * timeunit::us, RunMode::kCoscheduled);
    EXPECT_GT(total_batches(rs), 0u);
    return static_cast<double>(rs.sched_polls) / static_cast<double>(total_batches(rs));
  };
  const double star4 = polls_per_batch(4);
  const double star64 = polls_per_batch(64);
  EXPECT_LT(star64, 3.0);
  EXPECT_LT(star64, star4 * 1.5);
}

TEST(CoschedHeap, SchedStatsOnlyInCoscheduledRuns) {
  for (RunMode mode : {RunMode::kCoscheduled, RunMode::kPooled}) {
    Simulation sim;
    build_asymmetric(sim, kRekeyBelowSecond);
    RunStats rs = sim.run(5 * timeunit::us, mode, 2);
    if (mode == RunMode::kCoscheduled) {
      EXPECT_GT(rs.sched_polls, total_batches(rs));
      EXPECT_GT(rs.sched_cycles, 0u);
      obs::SummaryInputs in;
      in.stats = &rs;
      const std::string json = obs::summary_json(in);
      EXPECT_NE(json.find("\"sched_polls\":" + std::to_string(rs.sched_polls)), std::string::npos);
      EXPECT_NE(json.find("\"sched_cycles\":" + std::to_string(rs.sched_cycles)),
                std::string::npos);
    } else {
      EXPECT_EQ(rs.sched_polls, 0u);
      EXPECT_EQ(rs.sched_cycles, 0u);
    }
  }
}

TEST(FinishCheck, PendingDataDueByEndIsASyncViolation) {
  sync::Channel ch("wire", {.latency = 500});
  Component c("victim");
  c.add_adapter("in", ch.end_a());
  c.prepare(2000);
  // A peer message sent at 1000 ps is due at 1500 ps <= end: finishing now
  // would drop it.
  sync::Message m;
  m.timestamp = 1000;
  m.type = kMsg;
  ch.end_b().send(m);
  try {
    c.finish();
    FAIL() << "finish() accepted a pending message due by the end";
  } catch (const sync::SyncViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("'wire'"), std::string::npos) << what;
    EXPECT_NE(what.find("1500 ps"), std::string::npos) << what;
    EXPECT_NE(what.find("end 2000 ps"), std::string::npos) << what;
    SimulationError se = to_simulation_error(std::current_exception(), c.name(), c.now());
    EXPECT_EQ(se.kind(), ErrorKind::kSyncViolation);
    EXPECT_EQ(se.component(), "victim");
  }
  EXPECT_FALSE(c.finished());
}

TEST(FinishCheck, MessageDueAfterEndIsFine) {
  sync::Channel ch("wire", {.latency = 500});
  Component c("late");
  c.add_adapter("in", ch.end_a());
  c.prepare(2000);
  sync::Message m;
  m.timestamp = 1600;  // due at 2100 ps, after the end
  m.type = kMsg;
  ch.end_b().send(m);
  c.finish();
  EXPECT_TRUE(c.finished());
}
