// Failure-path tests: every class of failure — model exception, sync
// deadlock, hang — must surface as an attributed SimulationError in every
// run mode, never as a hang or a terminate. Also covers the deterministic
// fault-injection machinery (orch/fault.hpp) and the guarantee that a
// failed run leaves no global observability state behind.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "dcdb/scenario.hpp"
#include "netsim/apps.hpp"
#include "obs/trace.hpp"
#include "orch/fault.hpp"
#include "orch/instantiation.hpp"
#include "runtime/runner.hpp"

using namespace splitsim;
using namespace splitsim::runtime;

namespace {

constexpr std::uint16_t kDataType = sync::kUserTypeBase + 1;

/// Sends `count` messages at a fixed simulated interval, no reply expected.
class Streamer : public Component {
 public:
  Streamer(std::string name, sync::ChannelEnd& end, int count, SimTime interval)
      : Component(std::move(name)), count_(count), interval_(interval) {
    adapter_ = &add_adapter("out", end);
  }

  void init() override {
    kernel().schedule_at(0, [this] { send_next(); });
  }

 private:
  void send_next() {
    adapter_->send(kDataType, sent_++, kernel().now());
    if (sent_ < count_) kernel().schedule_in(interval_, [this] { send_next(); });
  }

  sync::Adapter* adapter_;
  int count_;
  SimTime interval_;
  int sent_ = 0;
};

/// Counts received messages.
class Counter : public Component {
 public:
  Counter(std::string name, sync::ChannelEnd& end) : Component(std::move(name)) {
    add_adapter("in", end).set_handler(
        [this](const sync::Message&, SimTime) { ++received; });
  }

  int received = 0;
};

/// Sends one data message stamped `stamp` from an event at `at`. With
/// `stamp` below a periodic SYNC this end already emitted, the message
/// breaks the promise that SYNC made.
class Backdater : public Component {
 public:
  Backdater(std::string name, sync::ChannelEnd& end, SimTime at, SimTime stamp)
      : Component(std::move(name)), at_(at), stamp_(stamp) {
    adapter_ = &add_adapter("out", end);
  }

  void init() override {
    kernel().schedule_at(at_, [this] { adapter_->send(kDataType, 0, stamp_); });
  }

 private:
  sync::Adapter* adapter_;
  SimTime at_;
  SimTime stamp_;
};

/// A component whose only adapter's peer end is never attached: its horizon
/// never advances, so it blocks shortly after start. (The classic
/// sync_interval > latency misconfiguration cannot deadlock here —
/// ChannelConfig::effective_sync_interval clamps it — so an unattached peer
/// is the canonical deadlock rig.)
struct StreamPair {
  Streamer* src = nullptr;
  Counter* dst = nullptr;
};

StreamPair build_stream(Simulation& sim, int count = 200) {
  auto& ch = sim.add_channel("stream", {.latency = 500});
  StreamPair p;
  p.src = &sim.add_component<Streamer>("src", ch.end_a(), count, 100);
  p.dst = &sim.add_component<Counter>("dst", ch.end_b());
  return p;
}

}  // namespace

class FaultModes : public ::testing::TestWithParam<RunMode> {};

INSTANTIATE_TEST_SUITE_P(Modes, FaultModes,
                         ::testing::Values(RunMode::kCoscheduled, RunMode::kThreaded,
                                           RunMode::kPooled),
                         [](const auto& info) {
                           switch (info.param) {
                             case RunMode::kThreaded:
                               return "Threaded";
                             case RunMode::kPooled:
                               return "Pooled";
                             default:
                               return "Coscheduled";
                           }
                         });

TEST_P(FaultModes, ModelExceptionSurfacesAsSimulationError) {
  Simulation sim;
  sim.set_watchdog_ms(2000);  // must not be what fires: the error path is
  StreamPair p = build_stream(sim);
  p.dst->inject_throw_at(from_ns(5), "boom");

  try {
    sim.run(from_us(1.0), GetParam());
    FAIL() << "run() should have thrown";
  } catch (const SimulationError& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kModelError);
    EXPECT_EQ(e.component(), "dst");
    // The throw fires before the batch at >= 5 ns executes, so the
    // component clock reads the previous batch's time.
    EXPECT_GT(e.sim_time(), from_ns(1));
    EXPECT_LT(e.sim_time(), from_us(1.0));
    EXPECT_NE(std::string(e.what()).find("boom"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("dst"), std::string::npos);
    // Partial stats of the aborted run ride on the error.
    ASSERT_NE(e.stats(), nullptr);
    EXPECT_EQ(e.stats()->outcome, RunOutcome::kError);
    EXPECT_EQ(e.stats()->error_component, "dst");
    EXPECT_EQ(e.stats()->components.size(), 2u);
  }
}

TEST_P(FaultModes, DeadlockSurfacesAsSimulationError) {
  Simulation sim;
  sim.set_watchdog_ms(100);  // must not matter: the rescue scan catches this
  auto& ch = sim.add_channel("half", {.latency = 500});
  sim.add_component<Streamer>("lonely", ch.end_a(), 50, 100);
  // ch.end_b() is never attached: "lonely"'s horizon cannot advance.

  try {
    sim.run(from_us(1.0), GetParam());
    FAIL() << "run() should have thrown";
  } catch (const SimulationError& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kDeadlock);
    EXPECT_EQ(e.component(), "lonely");
    EXPECT_NE(std::string(e.what()).find("deadlock"), std::string::npos);
    ASSERT_NE(e.stats(), nullptr);
    EXPECT_EQ(e.stats()->outcome, RunOutcome::kError);
  }
}

TEST_P(FaultModes, BackdatedDataSurfacesAsSyncViolation) {
  Simulation sim;
  sim.set_watchdog_ms(2000);  // must not be what fires
  auto& ch = sim.add_channel("backdated", {.latency = 500});
  // SYNCs go out every 500 ps, so by 2000 ps the wire has promised >= 1500 ps.
  sim.add_component<Backdater>("liar", ch.end_a(), 2000, 100);
  sim.add_component<Counter>("dst", ch.end_b());

  try {
    sim.run(5000, GetParam());
    FAIL() << "run() should have thrown";
  } catch (const SimulationError& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kSyncViolation) << e.what();
    EXPECT_EQ(e.component(), "liar");
    const std::string what = e.what();
    EXPECT_NE(what.find("synchronization violation"), std::string::npos) << what;
    EXPECT_NE(what.find("'backdated'"), std::string::npos) << what;
    // The promise value itself depends on null-message timing in the
    // parallel modes; the data timestamp does not.
    EXPECT_NE(what.find("data timestamp 100 ps is not above the last promise"),
              std::string::npos)
        << what;
    ASSERT_NE(e.stats(), nullptr);
    EXPECT_EQ(e.stats()->outcome, RunOutcome::kError);
    EXPECT_EQ(e.stats()->error_component, "liar");
  }
}

TEST_P(FaultModes, EmptyFaultSpecLeavesDigestUnchanged) {
  auto digest_of = [this](bool with_spec) {
    Simulation sim;
    StreamPair p = build_stream(sim);
    (void)p;
    if (with_spec) orch::apply_fault_spec(sim, orch::FaultSpec{});
    return sim.run(from_us(1.0), GetParam()).digest.value();
  };
  EXPECT_EQ(digest_of(false), digest_of(true));
}

TEST_P(FaultModes, SeededChannelFaultsAreDeterministic) {
  auto faulted = [this] {
    Simulation sim;
    StreamPair p = build_stream(sim);
    orch::FaultSpec spec;
    spec.seed = 7;
    spec.channels.push_back(
        {"stream", {.drop_prob = 0.2, .dup_prob = 0.1, .delay_prob = 0.1, .delay = 200}});
    orch::apply_fault_spec(sim, spec);
    RunStats st = sim.run(from_us(1.0), GetParam());
    const auto* inj = sim.components().front()->adapters().front()->fault_injector();
    EXPECT_NE(inj, nullptr);
    EXPECT_GT(inj->counters().dropped, 0u);
    return std::make_pair(st.digest.value(), p.dst->received);
  };
  auto [d1, n1] = faulted();
  auto [d2, n2] = faulted();
  EXPECT_EQ(d1, d2) << "same seed must replay bit-identically";
  EXPECT_EQ(n1, n2);

  Simulation clean;
  StreamPair p = build_stream(clean);
  RunStats st = clean.run(from_us(1.0), GetParam());
  EXPECT_NE(st.digest.value(), d1) << "drops must actually change delivery";
  EXPECT_GT(p.dst->received, n1);
}

TEST(Faults, SeededChannelFaultsMatchAcrossModes) {
  auto digest_of = [](RunMode mode) {
    Simulation sim;
    build_stream(sim);
    orch::FaultSpec spec;
    spec.seed = 11;
    spec.channels.push_back(
        {"", {.drop_prob = 0.15, .dup_prob = 0.1, .delay_prob = 0.2, .delay = 300}});
    orch::apply_fault_spec(sim, spec);
    return sim.run(from_us(1.0), mode).digest.value();
  };
  std::uint64_t cos = digest_of(RunMode::kCoscheduled);
  EXPECT_EQ(cos, digest_of(RunMode::kThreaded));
  EXPECT_EQ(cos, digest_of(RunMode::kPooled));
}

TEST_P(FaultModes, StallIsDigestNeutral) {
  auto run_once = [this](bool stall) {
    Simulation sim;
    StreamPair p = build_stream(sim);
    if (stall) p.dst->inject_stall(from_ns(3), 64);
    RunStats st = sim.run(from_us(1.0), GetParam());
    return std::make_pair(st.digest.value(), p.dst->received);
  };
  auto [clean_d, clean_n] = run_once(false);
  auto [stall_d, stall_n] = run_once(true);
  EXPECT_EQ(clean_d, stall_d) << "a stall is a performance fault, not a behavior fault";
  EXPECT_EQ(clean_n, stall_n);
}

TEST(Faults, PooledStalledRunTripsSlowProgressWatchdog) {
  // A stalled component keeps getting scheduled (it is runnable — the
  // rescue scan for "nothing runnable" never fires) while simulation time
  // stops advancing. The pooled slow-progress watchdog must convert that
  // limp into an attributed error instead of spinning until the wall-clock
  // test timeout.
  Simulation sim;
  sim.set_watchdog_ms(100);
  StreamPair p = build_stream(sim);
  p.dst->inject_stall(from_ns(5), 2'000'000'000ULL);  // effectively forever

  try {
    sim.run(from_us(1.0), RunMode::kPooled);
    FAIL() << "watchdog should have fired";
  } catch (const SimulationError& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kDeadlock);
    EXPECT_FALSE(e.component().empty()) << "watchdog must attribute the stall";
    EXPECT_NE(std::string(e.what()).find("watchdog"), std::string::npos);
    ASSERT_NE(e.stats(), nullptr);
    EXPECT_EQ(e.stats()->outcome, RunOutcome::kError);
  }
}

TEST(Faults, TrunkFaultRulesReplayAcrossPartitionStrategies) {
  // Satellite of the mcheck work: fault rules that match trunk adapters
  // (the multiplexed cut channels of a partitioned network) must replay
  // bit-identically in every run mode under each partition strategy, and
  // must actually perturb the run.
  auto digest_of = [](const std::string& strategy, bool faulted, RunMode mode) {
    dcdb::DcdbScenarioConfig cfg;
    cfg.duration = from_ms(40.0);
    cfg.window_start = from_ms(10.0);
    cfg.db_clients = 2;
    cfg.db_concurrency = 4;
    cfg.exec.partition = strategy;
    cfg.exec.run_mode = mode;
    if (faulted) {
      cfg.faults.seed = 3;
      cfg.faults.channels.push_back(
          {".trunk.", {.drop_prob = 0.05, .dup_prob = 0.02, .delay_prob = 0.3,
                       .delay = from_us(5.0)}});
    }
    return dcdb::run_dcdb_scenario(cfg).digest.value();
  };

  for (const std::string& strategy : {std::string("ac"), std::string("rs")}) {
    std::uint64_t clean = digest_of(strategy, false, RunMode::kCoscheduled);
    std::uint64_t faulted = digest_of(strategy, true, RunMode::kCoscheduled);
    EXPECT_NE(clean, faulted) << strategy << ": trunk faults must perturb the run";
    EXPECT_EQ(faulted, digest_of(strategy, true, RunMode::kThreaded))
        << strategy << ": threaded replay drifted";
    EXPECT_EQ(faulted, digest_of(strategy, true, RunMode::kPooled))
        << strategy << ": pooled replay drifted";
  }
}

TEST(Faults, SpecMatchingNothingFailsLoudly) {
  Simulation sim;
  build_stream(sim);
  orch::FaultSpec spec;
  spec.channels.push_back({"no-such-channel", {.drop_prob = 0.5}});
  EXPECT_THROW(orch::apply_fault_spec(sim, spec), std::invalid_argument);

  orch::FaultSpec spec2;
  spec2.throws.push_back({"no-such-component", from_ns(1), "x"});
  EXPECT_THROW(orch::apply_fault_spec(sim, spec2), std::invalid_argument);
}

TEST(Faults, ThrowingRunLeavesObsStateClean) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "splitsim_fault_obs";
  fs::remove_all(dir);

  orch::ProfileSpec prof;
  prof.log_dir = (dir / "failing").string();
  prof.trace = true;
  orch::ExecSpec exec;
  exec.run_mode = RunMode::kCoscheduled;

  {
    Simulation sim;
    StreamPair p = build_stream(sim);
    p.dst->inject_throw_at(from_ns(5), "boom");
    EXPECT_THROW(orch::run_profiled(sim, prof, exec, from_us(1.0)), SimulationError);
  }
  // The throw path must tear tracing down like the success path does.
  EXPECT_FALSE(obs::tracing_enabled());

  // The failing run's artifacts were still written, and the summary
  // records the outcome and the failing component.
  std::ifstream in(dir / "failing" / "summary.json");
  ASSERT_TRUE(in.good());
  std::stringstream ss;
  ss << in.rdbuf();
  EXPECT_NE(ss.str().find("\"outcome\":\"error\""), std::string::npos);
  EXPECT_NE(ss.str().find("\"error_component\":\"dst\""), std::string::npos);

  // A subsequent clean traced run in the same process works and its digest
  // matches an untraced clean run: no leaked state from the failure.
  Simulation plain;
  build_stream(plain);
  std::uint64_t want = plain.run(from_us(1.0), RunMode::kCoscheduled).digest.value();

  orch::ProfileSpec prof2;
  prof2.log_dir = (dir / "clean").string();
  prof2.trace = true;
  Simulation sim2;
  build_stream(sim2);
  RunStats st = orch::run_profiled(sim2, prof2, exec, from_us(1.0));
  EXPECT_EQ(st.outcome, RunOutcome::kCompleted);
  EXPECT_EQ(st.digest.value(), want);
  EXPECT_FALSE(obs::tracing_enabled());
  EXPECT_TRUE(fs::exists(dir / "clean" / "trace.json"));

  fs::remove_all(dir);
}

TEST(Faults, InstantiationCarriesFaultSpec) {
  // End to end through the orchestration layer: a throw rule on the netsim
  // component set via Instantiation::faults surfaces as a SimulationError
  // from run_instantiated.
  orch::System sys;
  int sw = sys.add_switch({.name = "sw0", .configure = nullptr});
  orch::HostSpec h0;
  h0.name = "h0";
  h0.ip = proto::ip(10, 0, 0, 1);
  h0.apps = [](orch::HostContext& ctx) {
    netsim::OnOffUdpApp::Config cfg;
    cfg.dst = proto::ip(10, 0, 0, 2);
    ctx.protocol->add_app<netsim::OnOffUdpApp>(cfg);
  };
  orch::HostSpec h1;
  h1.name = "h1";
  h1.ip = proto::ip(10, 0, 0, 2);
  h1.apps = [](orch::HostContext& ctx) { ctx.protocol->add_app<netsim::UdpSinkApp>(9000); };
  int a = sys.add_host(h0);
  int b = sys.add_host(h1);
  sys.add_link(a, sw, {});
  sys.add_link(b, sw, {});

  orch::Instantiation inst;
  inst.exec.run_mode = RunMode::kCoscheduled;
  inst.faults.throws.push_back({"net", from_us(10.0), "injected net fault"});

  Simulation sim;
  orch::instantiate_system(sim, sys, inst);
  try {
    orch::run_instantiated(sim, inst, from_ms(1.0));
    FAIL() << "fault should have fired";
  } catch (const SimulationError& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kModelError);
    EXPECT_EQ(e.component(), "net");
    EXPECT_NE(std::string(e.what()).find("injected net fault"), std::string::npos);
  }
}
