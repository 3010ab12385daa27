// Tests for the run record: summary.json written by obs::summary_json and
// read back by obs::read_run_stats (paper §3.3: simulators log their
// counters, and the profiler post-processor parses the logs after the run).
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>

#include "obs/summary.hpp"
#include "profiler/profiler.hpp"
#include "runtime/runner.hpp"

using namespace splitsim;
using namespace splitsim::runtime;

namespace {

constexpr std::uint16_t kPing = sync::kUserTypeBase + 1;

class Echo : public Component {
 public:
  Echo(std::string name, sync::ChannelEnd& end) : Component(std::move(name)) {
    ad_ = &add_adapter("link", end);
    ad_->set_handler([this](const sync::Message& m, SimTime rx) {
      ++received;
      ad_->send(m.type, m.as<int>(), rx);
    });
  }
  int received = 0;

 private:
  sync::Adapter* ad_;
};

class Caller : public Component {
 public:
  Caller(std::string name, sync::ChannelEnd& end, int count)
      : Component(std::move(name)), total_(count) {
    ad_ = &add_adapter("link", end);
    ad_->set_handler([this](const sync::Message&, SimTime rx) {
      rtts.push_back(rx - last_sent_);
      if (static_cast<int>(rtts.size()) < total_) send_next(rx);
    });
  }
  void init() override {
    kernel().schedule_at(0, [this] { send_next(0); });
  }
  std::vector<SimTime> rtts;

 private:
  void send_next(SimTime now) {
    last_sent_ = now;
    ad_->send(kPing, 7, now);
  }
  sync::Adapter* ad_;
  SimTime last_sent_ = 0;
  int total_;
};

std::string record_dir() {
  std::string dir = ::testing::TempDir() + "/run-record";
  std::filesystem::create_directories(dir);
  return dir;
}

/// Write `stats` as a run record and read it back.
RunStats round_trip(const RunStats& stats, const std::string& name) {
  const std::string path = record_dir() + "/" + name + ".json";
  obs::SummaryInputs in;
  in.stats = &stats;
  obs::write_summary_json(path, in);
  std::optional<RunStats> back = obs::read_run_stats(path);
  EXPECT_TRUE(back.has_value());
  return back.value_or(RunStats{});
}

void expect_same_counters(const sync::ProfCounters& a, const sync::ProfCounters& b) {
  EXPECT_EQ(a.sync_wait_cycles, b.sync_wait_cycles);
  EXPECT_EQ(a.tx_cycles, b.tx_cycles);
  EXPECT_EQ(a.rx_cycles, b.rx_cycles);
  EXPECT_EQ(a.tx_msgs, b.tx_msgs);
  EXPECT_EQ(a.rx_msgs, b.rx_msgs);
  EXPECT_EQ(a.tx_syncs, b.tx_syncs);
  EXPECT_EQ(a.tx_nulls, b.tx_nulls);
  EXPECT_EQ(a.backpressure_stalls, b.backpressure_stalls);
}

/// Every RunStats field the multi-process parent or build_report reads.
void expect_same_stats(const RunStats& a, const RunStats& b) {
  EXPECT_EQ(a.mode, b.mode);
  EXPECT_EQ(a.sim_time, b.sim_time);
  EXPECT_EQ(a.wall_seconds, b.wall_seconds);
  EXPECT_EQ(a.wall_cycles, b.wall_cycles);
  EXPECT_TRUE(a.digest == b.digest);
  EXPECT_EQ(a.outcome, b.outcome);
  EXPECT_EQ(a.error, b.error);
  EXPECT_EQ(a.error_kind, b.error_kind);
  EXPECT_EQ(a.error_cause, b.error_cause);
  EXPECT_EQ(a.error_component, b.error_component);
  EXPECT_EQ(a.error_sim_time, b.error_sim_time);
  EXPECT_EQ(a.sched_polls, b.sched_polls);
  EXPECT_EQ(a.sched_segments, b.sched_segments);
  EXPECT_EQ(a.sched_cycles, b.sched_cycles);
  ASSERT_EQ(a.pooled_workers.size(), b.pooled_workers.size());
  for (std::size_t i = 0; i < a.pooled_workers.size(); ++i) {
    const PooledWorkerStats& wa = a.pooled_workers[i];
    const PooledWorkerStats& wb = b.pooled_workers[i];
    EXPECT_EQ(wa.quanta, wb.quanta);
    EXPECT_EQ(wa.busy_cycles, wb.busy_cycles);
    EXPECT_EQ(wa.sched_parks, wb.sched_parks);
    EXPECT_EQ(wa.sched_park_cycles, wb.sched_park_cycles);
  }
  ASSERT_EQ(a.components.size(), b.components.size());
  for (std::size_t i = 0; i < a.components.size(); ++i) {
    const ComponentStats& ca = a.components[i];
    const ComponentStats& cb = b.components[i];
    EXPECT_EQ(ca.name, cb.name);
    EXPECT_EQ(ca.events, cb.events);
    EXPECT_EQ(ca.batches, cb.batches);
    EXPECT_EQ(ca.sync_only_batches, cb.sync_only_batches);
    EXPECT_EQ(ca.busy_cycles, cb.busy_cycles);
    EXPECT_EQ(ca.wall_cycles, cb.wall_cycles);
    ASSERT_EQ(ca.adapters.size(), cb.adapters.size());
    for (std::size_t j = 0; j < ca.adapters.size(); ++j) {
      const AdapterStats& aa = ca.adapters[j];
      const AdapterStats& ab = cb.adapters[j];
      EXPECT_EQ(aa.adapter, ab.adapter);
      EXPECT_EQ(aa.component, ab.component);
      EXPECT_EQ(aa.peer_component, ab.peer_component);
      expect_same_counters(aa.totals, ab.totals);
      ASSERT_EQ(aa.wire.has_value(), ab.wire.has_value());
      if (aa.wire) {
        EXPECT_EQ(aa.wire->tx_frames, ab.wire->tx_frames);
        EXPECT_EQ(aa.wire->tx_bytes, ab.wire->tx_bytes);
        EXPECT_EQ(aa.wire->tx_syncs, ab.wire->tx_syncs);
        EXPECT_EQ(aa.wire->tx_datas, ab.wire->tx_datas);
        EXPECT_EQ(aa.wire->futex_parks, ab.wire->futex_parks);
        EXPECT_EQ(aa.wire->futex_wakes, ab.wire->futex_wakes);
      }
    }
  }
}

void expect_same_report(const profiler::ProfileReport& a, const profiler::ProfileReport& b) {
  EXPECT_EQ(a.mode, b.mode);
  EXPECT_EQ(a.sim_seconds, b.sim_seconds);
  EXPECT_EQ(a.wall_seconds, b.wall_seconds);
  EXPECT_EQ(a.sim_speed, b.sim_speed);
  ASSERT_EQ(a.components.size(), b.components.size());
  for (std::size_t i = 0; i < a.components.size(); ++i) {
    const profiler::ComponentReport& ca = a.components[i];
    const profiler::ComponentReport& cb = b.components[i];
    EXPECT_EQ(ca.name, cb.name);
    EXPECT_EQ(ca.busy_cycles, cb.busy_cycles);
    EXPECT_EQ(ca.wall_cycles, cb.wall_cycles);
    EXPECT_EQ(ca.events, cb.events);
    EXPECT_EQ(ca.efficiency, cb.efficiency);
    EXPECT_EQ(ca.waiting_fraction, cb.waiting_fraction);
    EXPECT_EQ(ca.load_cycles_per_simsec, cb.load_cycles_per_simsec);
    ASSERT_EQ(ca.adapters.size(), cb.adapters.size());
    for (std::size_t j = 0; j < ca.adapters.size(); ++j) {
      EXPECT_EQ(ca.adapters[j].adapter, cb.adapters[j].adapter);
      EXPECT_EQ(ca.adapters[j].peer_component, cb.adapters[j].peer_component);
      EXPECT_EQ(ca.adapters[j].wait_fraction, cb.adapters[j].wait_fraction);
      expect_same_counters(ca.adapters[j].counters, cb.adapters[j].counters);
    }
  }
}

/// A record with every optional part filled and integers above 2^53.
RunStats synthetic_stats() {
  RunStats st;
  st.mode = RunMode::kThreaded;
  st.sim_time = from_ms(8.0);
  st.wall_seconds = 1.0 / 3.0;
  st.wall_cycles = (1ull << 62) + 7;
  st.digest.fold_xor = 0xdeadbeefcafe0123ull;
  st.digest.fold_sum = 0xfedcba9876543211ull;
  st.digest.count = (1ull << 53) + 1;
  st.sched_polls = (1ull << 57) + 13;
  st.sched_segments = (1ull << 56) + 11;
  st.sched_cycles = (1ull << 59) + 15;
  st.pooled_workers.push_back({1, (1ull << 56) + 17, 3, 4});
  st.pooled_workers.push_back({6, 7, 9, (1ull << 62) + 19});
  st.record_error(SimulationError(ErrorKind::kTransport, "server1", from_ms(5.0) + 3,
                                  "boom with \"quotes\"\nand a newline"));
  ComponentStats c;
  c.name = "server1";
  c.events = (1ull << 55) + 3;
  c.batches = 12;
  c.sync_only_batches = 6;
  c.busy_cycles = (1ull << 54) + 5;
  c.wall_cycles = (1ull << 63) + 9;
  AdapterStats a;
  a.adapter = "eth0";
  a.component = c.name;
  a.peer_component = "net";
  a.totals.sync_wait_cycles = (1ull << 60) + 11;
  a.totals.tx_msgs = 22;
  a.totals.rx_msgs = 33;
  a.totals.tx_syncs = (1ull << 54) + 21;
  a.totals.tx_nulls = (1ull << 53) + 23;
  a.totals.backpressure_stalls = 44;
  a.wire = sync::WireStats{55, 66, 77, 88, 99, (1ull << 58) + 1};
  c.adapters.push_back(a);
  a.adapter = "local";
  a.peer_component.clear();
  a.wire.reset();
  c.adapters.push_back(a);
  st.components.push_back(c);
  return st;
}

std::string read_text(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

}  // namespace

TEST(RunRecordTest, CoscheduledRunRoundTripsWithSameReport) {
  // Run a small simulation, write its run record, read it back, and check
  // the post-processor computes identical metrics from the file.
  Simulation sim;
  auto& ch = sim.add_channel("c", {.latency = from_us(1.0)});
  sim.add_component<Caller>("caller", ch.end_a(), 50);
  sim.add_component<Echo>("echo", ch.end_b());
  auto stats = sim.run(from_ms(2.0), RunMode::kCoscheduled);

  RunStats back = round_trip(stats, "cosched");
  expect_same_stats(stats, back);
  expect_same_report(profiler::build_report(stats), profiler::build_report(back));
}

TEST(RunRecordTest, ThreadedRunRoundTripsWithSameReport) {
  // Threaded reports divide measured wait cycles by each component's wall
  // cycles, so both must survive the round trip exactly.
  Simulation sim;
  auto& ch = sim.add_channel("c", {.latency = from_us(1.0)});
  sim.add_component<Caller>("caller", ch.end_a(), 2000);
  sim.add_component<Echo>("echo", ch.end_b());
  auto stats = sim.run(from_ms(4.0), RunMode::kThreaded);

  RunStats back = round_trip(stats, "threaded");
  expect_same_stats(stats, back);
  expect_same_report(profiler::build_report(stats), profiler::build_report(back));
}

TEST(RunRecordTest, LargeIntegersAndErrorFieldsRoundTripExactly) {
  RunStats st = synthetic_stats();
  RunStats back = round_trip(st, "synthetic");
  expect_same_stats(st, back);
  // The cause stays apart from the formatted what(), so a rebuilt error
  // is not prefixed twice.
  EXPECT_EQ(back.error_cause, "boom with \"quotes\"\nand a newline");
  EXPECT_EQ(back.error_kind, ErrorKind::kTransport);

  // The last ErrorKind passes the reader's range check.
  st.error_kind = ErrorKind::kSyncViolation;
  back = round_trip(st, "synthetic-last-kind");
  EXPECT_EQ(back.outcome, RunOutcome::kError);
  EXPECT_EQ(back.error_kind, ErrorKind::kSyncViolation);
}

TEST(RunRecordTest, MissingFileIsInvalid) {
  EXPECT_FALSE(obs::read_run_stats(record_dir() + "/never-written.json").has_value());
}

TEST(RunRecordTest, GarbledRecordsBecomeAttributedFailures) {
  RunStats st = synthetic_stats();
  round_trip(st, "garble-base");
  const std::string good = read_text(record_dir() + "/garble-base.json");
  ASSERT_NE(good.find("\"digest_xor\":\"0x"), std::string::npos);
  ASSERT_NE(good.find("\"error_kind\":2"), std::string::npos);

  auto replace = [&](const std::string& from, const std::string& to) {
    std::string s = good;
    s.replace(s.find(from), from.size(), to);
    return s;
  };
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"truncated", good.substr(0, good.size() / 2)},  // killed mid-write
      {"non-hex-digest", replace("\"digest_xor\":\"0x", "\"digest_xor\":\"0xzz")},
      {"bad-kind", replace("\"error_kind\":2", "\"error_kind\":99")},
      {"no-run", "{\"profile\":{\"sim_speed\":1}}\n"},
  };
  for (const auto& [name, body] : cases) {
    const std::string path = record_dir() + "/" + name + ".json";
    std::ofstream(path) << body;
    std::optional<RunStats> r;
    ASSERT_NO_THROW(r = obs::read_run_stats(path)) << name;
    ASSERT_TRUE(r.has_value()) << name;
    EXPECT_EQ(r->outcome, RunOutcome::kError) << name;
    EXPECT_EQ(r->error_kind, ErrorKind::kTransport) << name;
    EXPECT_EQ(r->error_cause.rfind("corrupt-report", 0), 0u) << name << ": " << r->error_cause;
    EXPECT_NE(r->error_cause.find(path), std::string::npos) << name << ": " << r->error_cause;
  }
}
