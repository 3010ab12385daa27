// Tests for the file-based profiler log workflow.
#include <gtest/gtest.h>

#include <filesystem>

#include "profiler/logfile.hpp"
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

}  // namespace

TEST(ProfileLogTest, RoundTripPreservesReport) {
  // Run a small simulation, write logs, re-read them, and verify the
  // post-processor computes identical metrics from the files.
  Simulation sim;
  auto& ch = sim.add_channel("c", {.latency = from_us(1.0)});
  sim.add_component<Caller>("caller", ch.end_a(), 50);
  sim.add_component<Echo>("echo", ch.end_b());
  sim.enable_profiling(10'000'000);
  auto stats = sim.run(from_ms(2.0), RunMode::kCoscheduled);

  std::string dir = ::testing::TempDir() + "/sslogs";
  std::filesystem::remove_all(dir);
  profiler::write_profile_logs(stats, dir);
  auto parsed = profiler::read_profile_logs(dir);

  EXPECT_EQ(parsed.mode, stats.mode);
  EXPECT_EQ(parsed.sim_time, stats.sim_time);
  ASSERT_EQ(parsed.components.size(), stats.components.size());

  auto orig = profiler::build_report(stats);
  auto redo = profiler::build_report(parsed);
  ASSERT_EQ(orig.components.size(), redo.components.size());
  for (const auto& oc : orig.components) {
    const auto* rc = redo.find(oc.name);
    ASSERT_NE(rc, nullptr) << oc.name;
    EXPECT_EQ(rc->busy_cycles, oc.busy_cycles);
    EXPECT_DOUBLE_EQ(rc->waiting_fraction, oc.waiting_fraction);
    ASSERT_EQ(rc->adapters.size(), oc.adapters.size());
    for (std::size_t i = 0; i < oc.adapters.size(); ++i) {
      EXPECT_EQ(rc->adapters[i].peer_component, oc.adapters[i].peer_component);
      EXPECT_EQ(rc->adapters[i].counters.tx_msgs, oc.adapters[i].counters.tx_msgs);
      EXPECT_EQ(rc->adapters[i].counters.sync_wait_cycles,
                oc.adapters[i].counters.sync_wait_cycles);
    }
  }
}

TEST(ProfileLogTest, SamplesSurviveRoundTrip) {
  Simulation sim;
  auto& ch = sim.add_channel("c", {.latency = from_us(1.0)});
  sim.add_component<Caller>("caller", ch.end_a(), 100);
  sim.add_component<Echo>("echo", ch.end_b());
  sim.enable_profiling(1'000);  // sample aggressively
  auto stats = sim.run(from_ms(2.0), RunMode::kCoscheduled);

  std::string dir = ::testing::TempDir() + "/sslogs2";
  std::filesystem::remove_all(dir);
  profiler::write_profile_logs(stats, dir);
  auto parsed = profiler::read_profile_logs(dir);
  for (const auto& cs : stats.components) {
    const runtime::ComponentStats* pc = nullptr;
    for (const auto& c : parsed.components) {
      if (c.name == cs.name) pc = &c;
    }
    ASSERT_NE(pc, nullptr);
    ASSERT_EQ(pc->samples.size(), cs.samples.size());
    for (std::size_t i = 0; i < cs.samples.size(); ++i) {
      EXPECT_EQ(pc->samples[i].tsc, cs.samples[i].tsc);
      EXPECT_EQ(pc->samples[i].sim_time, cs.samples[i].sim_time);
      ASSERT_EQ(pc->samples[i].adapters.size(), cs.samples[i].adapters.size());
    }
  }
}

TEST(ProfileLogTest, MissingDirThrows) {
  EXPECT_THROW(profiler::read_profile_logs("/nonexistent/sslogs"), std::exception);
}
