// Orch smoke matrix (paper §3.4): every scenario family × every named
// partition strategy × every run mode, on tiny instances.
//
// Two properties are checked beyond "it runs":
//  * partition invariance — routing is computed globally, so application-
//    level results are identical whichever strategy decomposed the network
//    (digests legitimately differ: cut links add channel messages);
//  * run-mode determinism — threaded/coscheduled/pooled execution of the
//    same partitioned instance produce identical digests.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cc/dctcp_scenario.hpp"
#include "clocksync/scenario.hpp"
#include "dcdb/scenario.hpp"
#include "kv/scenario.hpp"
#include "runtime/runner.hpp"

using namespace splitsim;
using namespace splitsim::runtime;

namespace {

const std::vector<std::string> kStrategies = {"s", "ac", "cr1", "rs", "pn"};
const std::vector<RunMode> kModes = {RunMode::kCoscheduled, RunMode::kThreaded,
                                     RunMode::kPooled};
/// Parallel legs that repeat: a promise race shows up in some interleavings
/// only, and every repetition must still match the coscheduled digest.
constexpr int kParallelRepeats = 4;

kv::ScenarioResult run_kv(const std::string& partition, RunMode mode) {
  kv::ScenarioConfig cfg;
  cfg.system = kv::SystemKind::kNetCache;
  cfg.mode = kv::FidelityMode::kMixed;
  cfg.per_client_rate = 80e3;
  cfg.duration = from_ms(6.0);
  cfg.window_start = from_ms(2.0);
  cfg.exec.partition = partition;
  cfg.exec.run_mode = mode;
  return kv::run_kv_scenario(cfg);
}

clocksync::ClockSyncScenarioResult run_clocksync(const std::string& partition,
                                                 RunMode mode) {
  clocksync::ClockSyncScenarioConfig cfg;
  cfg.n_agg = 2;
  cfg.racks_per_agg = 2;
  cfg.hosts_per_rack = 2;
  cfg.duration = from_ms(120.0);
  cfg.window_start = from_ms(60.0);
  cfg.ntp_poll = from_ms(40.0);
  cfg.db_clients = 1;
  cfg.db_concurrency = 2;
  cfg.db_open_rate_per_client = 10e3;
  cfg.bg_rate_bps = 50e6;
  cfg.seed = 5;
  cfg.exec.partition = partition;
  cfg.exec.run_mode = mode;
  return clocksync::run_clocksync_scenario(cfg);
}

cc::DctcpScenarioResult run_cc(const std::string& partition, RunMode mode) {
  cc::DctcpScenarioConfig cfg;
  cfg.mode = cc::DctcpMode::kMixed;
  cfg.marking_threshold_pkts = 40;
  cfg.duration = from_ms(10.0);
  cfg.window_start = from_ms(4.0);
  cfg.exec.partition = partition;
  cfg.exec.run_mode = mode;
  return cc::run_dctcp_scenario(cfg);
}

dcdb::DcdbScenarioResult run_dcdb(const std::string& partition, RunMode mode) {
  dcdb::DcdbScenarioConfig cfg;
  cfg.n_agg = 2;
  cfg.racks_per_agg = 2;
  cfg.hosts_per_rack = 1;
  cfg.db_clients = 2;
  cfg.db_concurrency = 4;
  cfg.clock_bound_us = 30.0;
  cfg.duration = from_ms(120.0);
  cfg.window_start = from_ms(40.0);
  cfg.exec.partition = partition;
  cfg.exec.run_mode = mode;
  return dcdb::run_dcdb_scenario(cfg);
}

}  // namespace

TEST(ScenarioMatrixTest, KvAllPartitionStrategies) {
  auto base = run_kv("s", RunMode::kCoscheduled);
  ASSERT_GT(base.throughput_ops, 0.0);
  ASSERT_GT(base.switch_served, 0u);
  for (const auto& strat : kStrategies) {
    if (strat == "s") continue;
    auto r = run_kv(strat, RunMode::kCoscheduled);
    EXPECT_DOUBLE_EQ(r.throughput_ops, base.throughput_ops) << strat;
    EXPECT_EQ(r.server_requests, base.server_requests) << strat;
    EXPECT_EQ(r.switch_served, base.switch_served) << strat;
    if (strat == "pn") {
      // kv's single-ToR network only decomposes under "pn": each protocol
      // client and the ToR become their own process.
      EXPECT_GT(r.components, base.components) << strat;
    }
  }
}

TEST(ScenarioMatrixTest, ClockSyncAllPartitionStrategies) {
  auto base = run_clocksync("s", RunMode::kCoscheduled);
  ASSERT_GT(base.write_throughput, 0.0);
  ASSERT_GT(base.bound_coverage, 0.0);
  for (const auto& strat : kStrategies) {
    if (strat == "s") continue;
    auto r = run_clocksync(strat, RunMode::kCoscheduled);
    EXPECT_DOUBLE_EQ(r.write_throughput, base.write_throughput) << strat;
    EXPECT_DOUBLE_EQ(r.mean_bound_us, base.mean_bound_us) << strat;
    EXPECT_DOUBLE_EQ(r.mean_true_offset_us, base.mean_true_offset_us) << strat;
    EXPECT_GT(r.components, base.components) << strat;
  }
}

TEST(ScenarioMatrixTest, CcAllPartitionStrategies) {
  auto base = run_cc("s", RunMode::kCoscheduled);
  ASSERT_GT(base.aggregate_goodput_gbps, 0.0);
  for (const auto& strat : kStrategies) {
    if (strat == "s") continue;
    auto r = run_cc(strat, RunMode::kCoscheduled);
    EXPECT_DOUBLE_EQ(r.aggregate_goodput_gbps, base.aggregate_goodput_gbps) << strat;
    EXPECT_EQ(r.bottleneck_ecn_marks, base.bottleneck_ecn_marks) << strat;
    EXPECT_EQ(r.bottleneck_drops, base.bottleneck_drops) << strat;
    // The dumbbell has no spine switches, but rs/pn (and ac, which degrades
    // to rs) still split it.
    if (strat != "cr1") {
      EXPECT_GT(r.components, base.components) << strat;
    }
  }
}

TEST(ScenarioMatrixTest, DcdbAllPartitionStrategies) {
  auto base = run_dcdb("s", RunMode::kCoscheduled);
  ASSERT_GT(base.write_throughput, 0.0);
  ASSERT_GT(base.server_writes, 0u);
  for (const auto& strat : kStrategies) {
    if (strat == "s") continue;
    auto r = run_dcdb(strat, RunMode::kCoscheduled);
    EXPECT_DOUBLE_EQ(r.write_throughput, base.write_throughput) << strat;
    EXPECT_DOUBLE_EQ(r.read_throughput, base.read_throughput) << strat;
    EXPECT_EQ(r.server_writes, base.server_writes) << strat;
    EXPECT_GT(r.components, base.components) << strat;
  }
}

TEST(ScenarioMatrixTest, KvAllRunModes) {
  auto base = run_kv("pn", RunMode::kCoscheduled);
  for (RunMode mode : {RunMode::kThreaded, RunMode::kPooled}) {
    for (int rep = 0; rep < kParallelRepeats; ++rep) {
      auto r = run_kv("pn", mode);
      EXPECT_EQ(r.digest, base.digest) << to_string(mode) << " repetition " << rep;
    }
  }
}

TEST(ScenarioMatrixTest, ClockSyncAllRunModes) {
  auto base = run_clocksync("ac", RunMode::kCoscheduled);
  for (RunMode mode : {RunMode::kThreaded, RunMode::kPooled}) {
    auto r = run_clocksync("ac", mode);
    EXPECT_EQ(r.digest, base.digest) << to_string(mode);
  }
}

TEST(ScenarioMatrixTest, CcAllRunModes) {
  auto base = run_cc("rs", RunMode::kCoscheduled);
  for (RunMode mode : {RunMode::kThreaded, RunMode::kPooled}) {
    for (int rep = 0; rep < kParallelRepeats; ++rep) {
      auto r = run_cc("rs", mode);
      EXPECT_EQ(r.digest, base.digest) << to_string(mode) << " repetition " << rep;
    }
  }
}

TEST(ScenarioMatrixTest, DcdbAllRunModes) {
  auto base = run_dcdb("rs", RunMode::kCoscheduled);
  for (RunMode mode : {RunMode::kThreaded, RunMode::kPooled}) {
    auto r = run_dcdb("rs", mode);
    EXPECT_EQ(r.digest, base.digest) << to_string(mode);
  }
}
