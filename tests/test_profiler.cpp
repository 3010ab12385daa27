#include <gtest/gtest.h>

#include <cmath>

#include "profiler/profiler.hpp"
#include "profiler/wtpg.hpp"
#include "runtime/runner.hpp"
#include "util/cycles.hpp"

using namespace splitsim;
using namespace splitsim::profiler;
using namespace splitsim::runtime;

namespace {

/// Charges a configurable amount of modeled host work per simulated
/// microsecond, so tests can construct components with known relative
/// loads. Virtual cycles are exact, unlike a spin loop under host load.
class Burner : public Component {
 public:
  Burner(std::string name, sync::ChannelEnd& end, int work)
      : Component(std::move(name)), work_(work) {
    add_adapter("link", end);
  }

  void init() override {
    kernel().schedule_at(0, [this] { step(); });
  }

 private:
  void step() {
    add_virtual_cycles(static_cast<std::uint64_t>(work_) * 20'000);
    kernel().schedule_in(from_us(1.0), [this] { step(); });
  }

  int work_;
};

RunStats make_synthetic_stats() {
  RunStats rs;
  rs.mode = RunMode::kCoscheduled;
  rs.sim_time = from_sec(1.0);
  rs.wall_seconds = 2.0;

  ComponentStats heavy;
  heavy.name = "heavy";
  heavy.busy_cycles = 1'000'000;
  AdapterStats ha;
  ha.adapter = "link";
  ha.component = "heavy";
  ha.peer_component = "light";
  ha.totals.tx_syncs = 100;
  heavy.adapters.push_back(ha);

  ComponentStats light;
  light.name = "light";
  light.busy_cycles = 250'000;
  AdapterStats la;
  la.adapter = "link";
  la.component = "light";
  la.peer_component = "heavy";
  la.totals.tx_syncs = 100;
  light.adapters.push_back(la);

  rs.components = {heavy, light};
  return rs;
}

}  // namespace

TEST(ProfilerTest, CyclesPerSecondPlausible) {
  double hz = cycles_per_second();
  EXPECT_GT(hz, 1e6);    // at least MHz-scale
  EXPECT_LT(hz, 1e11);   // below 100 GHz
}

TEST(ProfilerTest, CoscheduledWaitDerivedFromLoadImbalance) {
  auto rep = build_report(make_synthetic_stats());
  const ComponentReport* heavy = rep.find("heavy");
  const ComponentReport* light = rep.find("light");
  ASSERT_NE(heavy, nullptr);
  ASSERT_NE(light, nullptr);
  EXPECT_DOUBLE_EQ(heavy->waiting_fraction, 0.0);       // bottleneck never waits
  EXPECT_DOUBLE_EQ(light->waiting_fraction, 0.75);      // 1 - 0.25/1.0
  EXPECT_DOUBLE_EQ(heavy->efficiency, 1.0);
  EXPECT_DOUBLE_EQ(light->efficiency, 0.25);
  // Edge: light waits on heavy, not the other way around.
  EXPECT_DOUBLE_EQ(light->adapters[0].wait_fraction, 0.75);
  EXPECT_DOUBLE_EQ(heavy->adapters[0].wait_fraction, 0.0);
}

TEST(ProfilerTest, ThreadedWaitDividesTotalsByWallCycles) {
  RunStats rs = make_synthetic_stats();
  rs.mode = RunMode::kThreaded;
  for (auto& cs : rs.components) {
    cs.wall_cycles = 2'000'000;
    cs.adapters[0].totals.sync_wait_cycles = 500'000;
  }
  auto rep = build_report(rs);
  const ComponentReport* heavy = rep.find("heavy");
  ASSERT_NE(heavy, nullptr);
  EXPECT_DOUBLE_EQ(heavy->adapters[0].wait_fraction, 0.25);  // 500k of 2M wall
  EXPECT_DOUBLE_EQ(heavy->waiting_fraction, 0.25);
}

TEST(ProfilerTest, ProjectionUsesBottleneckWhenCoresAbound) {
  auto rep = build_report(make_synthetic_stats());
  PerfModelConfig cfg;
  cfg.cores = 48;
  cfg.cycles_per_sync = 0.0;
  cfg.cycles_per_data_msg = 0.0;
  double wall = project_wall_seconds(rep, cfg);
  EXPECT_NEAR(wall, 1'000'000.0 / cycles_per_second(), 1e-9);
}

TEST(ProfilerTest, ProjectionUsesTotalWhenCoresScarce) {
  auto rep = build_report(make_synthetic_stats());
  PerfModelConfig cfg;
  cfg.cores = 1;
  cfg.cycles_per_sync = 0.0;
  cfg.cycles_per_data_msg = 0.0;
  double wall = project_wall_seconds(rep, cfg);
  EXPECT_NEAR(wall, 1'250'000.0 / cycles_per_second(), 1e-9);
}

TEST(ProfilerTest, SyncCostRaisesProjectedTime) {
  auto rep = build_report(make_synthetic_stats());
  PerfModelConfig cheap{.cycles_per_sync = 0.0, .cycles_per_data_msg = 0.0, .cores = 48};
  PerfModelConfig costly{.cycles_per_sync = 10'000.0, .cycles_per_data_msg = 0.0, .cores = 48};
  EXPECT_GT(project_wall_seconds(rep, costly), project_wall_seconds(rep, cheap));
}

TEST(ProfilerTest, ProjectedSpeedInverseOfWall) {
  auto rep = build_report(make_synthetic_stats());
  PerfModelConfig cfg;
  double wall = project_wall_seconds(rep, cfg);
  EXPECT_NEAR(project_sim_speed(rep, cfg), rep.sim_seconds / wall, 1e-12);
}

TEST(ProfilerTest, EndToEndCoscheduledRun) {
  Simulation sim;
  auto& ch = sim.add_channel("c", {.latency = from_ns(500)});
  sim.add_component<Burner>("heavy", ch.end_a(), 40);
  sim.add_component<Burner>("light", ch.end_b(), 1);
  auto stats = sim.run(from_us(200.0), RunMode::kCoscheduled);
  auto rep = build_report(stats);

  const ComponentReport* heavy = rep.find("heavy");
  const ComponentReport* light = rep.find("light");
  ASSERT_NE(heavy, nullptr);
  ASSERT_NE(light, nullptr);
  EXPECT_GT(heavy->load_cycles_per_simsec, light->load_cycles_per_simsec);
  EXPECT_LT(heavy->waiting_fraction, 0.05);
  EXPECT_GT(light->waiting_fraction, 0.3);
}

TEST(WtpgTest, NodesColoredEdgesLabeled) {
  auto rep = build_report(make_synthetic_stats());
  DotGraph g = build_wtpg(rep, "test_wtpg");
  std::string dot = g.to_dot();
  EXPECT_NE(dot.find("\"heavy\""), std::string::npos);
  EXPECT_NE(dot.find("\"light\""), std::string::npos);
  EXPECT_NE(dot.find("\"light\" -> \"heavy\""), std::string::npos);
  // heavy is the bottleneck: pure red fill.
  EXPECT_NE(dot.find("#ff0040"), std::string::npos);
}

TEST(WtpgTest, TextRenderingNamesBottleneck) {
  auto rep = build_report(make_synthetic_stats());
  std::string txt = format_wtpg(rep);
  EXPECT_NE(txt.find("heavy"), std::string::npos);
  EXPECT_NE(txt.find("BOTTLENECK"), std::string::npos);
}

TEST(ProfilerTest, FormatReportMentionsComponents) {
  auto rep = build_report(make_synthetic_stats());
  std::string s = format_report(rep);
  EXPECT_NE(s.find("heavy"), std::string::npos);
  EXPECT_NE(s.find("sim speed"), std::string::npos);
}

namespace {

void expect_all_finite(const ProfileReport& rep) {
  EXPECT_TRUE(std::isfinite(rep.sim_speed));
  for (const auto& c : rep.components) {
    EXPECT_TRUE(std::isfinite(c.waiting_fraction)) << c.name;
    EXPECT_TRUE(std::isfinite(c.efficiency)) << c.name;
    EXPECT_TRUE(std::isfinite(c.load_cycles_per_simsec)) << c.name;
    for (const auto& a : c.adapters) {
      EXPECT_TRUE(std::isfinite(a.wait_fraction)) << c.name << "/" << a.adapter;
    }
  }
}

}  // namespace

TEST(ProfilerEdge, ZeroDurationRunStaysFinite) {
  // A run that simulated nothing (and took no measurable wall time) must not
  // divide by zero anywhere in the report.
  RunStats rs;
  rs.mode = RunMode::kCoscheduled;
  rs.sim_time = 0;
  rs.wall_seconds = 0.0;
  ComponentStats cs;
  cs.name = "idle";
  AdapterStats as;
  as.adapter = "link";
  as.component = "idle";
  cs.adapters.push_back(as);
  rs.components.push_back(cs);

  auto rep = build_report(rs);
  expect_all_finite(rep);
  EXPECT_DOUBLE_EQ(rep.sim_speed, 0.0);
  EXPECT_DOUBLE_EQ(rep.components[0].load_cycles_per_simsec, 0.0);
}

TEST(ProfilerEdge, ZeroWallCycleThreadedComponentStaysFinite) {
  // A component that never got scheduled (wall_cycles == 0) in a threaded
  // run: fractions must clamp, not blow up.
  RunStats rs;
  rs.mode = RunMode::kThreaded;
  rs.sim_time = from_ms(1.0);
  rs.wall_seconds = 0.5;
  ComponentStats cs;
  cs.name = "ghost";
  cs.busy_cycles = 0;
  cs.wall_cycles = 0;
  AdapterStats as;
  as.adapter = "link";
  as.component = "ghost";
  as.totals.sync_wait_cycles = 12345;  // waited but never measured a window
  cs.adapters.push_back(as);
  rs.components.push_back(cs);

  auto rep = build_report(rs);
  expect_all_finite(rep);
  const ComponentReport* ghost = rep.find("ghost");
  ASSERT_NE(ghost, nullptr);
  EXPECT_LE(ghost->waiting_fraction, 1.0);
  EXPECT_GE(ghost->efficiency, 0.0);
}

TEST(ProfilerTest, ThreadedRunMeasuresWaiting) {
  Simulation sim;
  auto& ch = sim.add_channel("c", {.latency = from_ns(500)});
  sim.add_component<Burner>("heavy", ch.end_a(), 40);
  sim.add_component<Burner>("light", ch.end_b(), 1);
  auto stats = sim.run(from_us(100.0), RunMode::kThreaded);
  auto rep = build_report(stats);
  const ComponentReport* light = rep.find("light");
  ASSERT_NE(light, nullptr);
  // The light component must have recorded real wait cycles.
  EXPECT_GT(light->adapters[0].counters.sync_wait_cycles, 0u);
}
