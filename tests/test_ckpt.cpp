// Checkpoint/restart tests (ISSUE 10): snapshot file round-trip and
// corruption rejection, checkpointed-run digest parity against the
// uninterrupted reference, elastic resume under different run modes /
// worker counts / partitions, fault-then-resume, divergence detection,
// plus crN partition-name validation.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "ckpt/snapshot.hpp"
#include "clocksync/scenario.hpp"
#include "kv/scenario.hpp"
#include "mcheck/scenarios.hpp"
#include "netsim/topology.hpp"
#include "orch/partition.hpp"
#include "orch/proc.hpp"
#include "runtime/error.hpp"

using namespace splitsim;
using runtime::ErrorKind;
using runtime::SimulationError;

namespace {

// Unique per-process scratch directories under the system temp dir; the
// suite shares one root so a re-run does not collide with a previous pid.
std::string scratch_dir(const std::string& tag) {
  static std::atomic<int> seq{0};
  auto p = std::filesystem::temp_directory_path() /
           ("splitsim-test-ckpt-" + std::to_string(::getpid())) /
           (tag + "-" + std::to_string(seq.fetch_add(1)));
  std::filesystem::create_directories(p);
  return p.string();
}

kv::ScenarioConfig kv_cfg(const std::string& log_dir) {
  kv::ScenarioConfig cfg = mcheck::kv_small_config();
  cfg.profile.log_dir = log_dir;
  return cfg;
}

// The uninterrupted reference digest every checkpointed / resumed kv run
// must reproduce bit-identically. Computed once.
const sync::EventDigest& kv_clean_digest() {
  static const sync::EventDigest d =
      kv::run_kv_scenario(kv_cfg(scratch_dir("kv-clean"))).digest;
  return d;
}

struct KvBaseline {
  std::string ckpt_dir;  ///< snapshots at boundaries 2, 4, 6 ms (seq 1..3)
  sync::EventDigest digest;
};

// One checkpointed kv-small run (every = 2 ms, duration 8 ms), shared by
// the parity / resume / divergence tests.
const KvBaseline& kv_baseline() {
  static const KvBaseline b = [] {
    KvBaseline r;
    std::string root = scratch_dir("kv-base");
    r.ckpt_dir = root + "/ckpt";
    kv::ScenarioConfig cfg = kv_cfg(root + "/log");
    cfg.ckpt.every = from_ms(2.0);
    cfg.ckpt.dir = r.ckpt_dir;
    r.digest = kv::run_kv_scenario(cfg).digest;
    return r;
  }();
  return b;
}

template <typename Fn>
void expect_ckpt_error(Fn&& fn, const std::string& must_mention) {
  try {
    fn();
    FAIL() << "expected SimulationError(kCheckpoint) mentioning '" << must_mention << "'";
  } catch (const SimulationError& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kCheckpoint) << e.what();
    EXPECT_NE(std::string(e.what()).find(must_mention), std::string::npos) << e.what();
  }
}

ckpt::Snapshot sample_snapshot() {
  ckpt::Snapshot s;
  s.config_fp = 77;
  s.every = from_ms(2.0);
  s.boundary = from_ms(6.0);
  s.end = from_ms(8.0);
  s.seq = 3;
  ckpt::ComponentShard c;
  c.name = "server0";
  c.events = 123;
  ckpt::AdapterShard core_adapter;
  core_adapter.channel = "eth-server0";
  core_adapter.partition_cut = false;
  core_adapter.digest.fold_xor = 0x1111;
  core_adapter.digest.fold_sum = 0x2222;
  core_adapter.digest.count = 9;
  core_adapter.inflight_fold = 0xabcd;
  core_adapter.inflight_count = 2;
  ckpt::AdapterShard cut_adapter;
  cut_adapter.channel = "net.cut.0";
  cut_adapter.partition_cut = true;
  cut_adapter.digest.fold_xor = 0x3333;
  cut_adapter.digest.fold_sum = 0x4444;
  cut_adapter.digest.count = 4;
  c.digest.merge(core_adapter.digest);
  c.digest.merge(cut_adapter.digest);
  c.core.merge(core_adapter.digest);
  c.adapters.push_back(core_adapter);
  c.adapters.push_back(cut_adapter);
  s.core.merge(c.core);
  s.full.merge(c.digest);
  s.components.push_back(c);
  return s;
}

}  // namespace

// ------------------------------------------------------- snapshot files ----

TEST(CkptSnapshot, SaveLoadRoundTrip) {
  const std::string path = scratch_dir("roundtrip") + "/snap.ckpt";
  ckpt::Snapshot s = sample_snapshot();
  ckpt::save_snapshot(s, path);
  ckpt::Snapshot g = ckpt::load_snapshot(path);

  EXPECT_EQ(g.config_fp, s.config_fp);
  EXPECT_EQ(g.every, s.every);
  EXPECT_EQ(g.boundary, s.boundary);
  EXPECT_EQ(g.end, s.end);
  EXPECT_EQ(g.seq, s.seq);
  EXPECT_TRUE(g.core == s.core);
  EXPECT_TRUE(g.full == s.full);
  EXPECT_EQ(g.layout_fp(), s.layout_fp());
  ASSERT_EQ(g.components.size(), 1u);
  EXPECT_EQ(g.components[0].name, "server0");
  EXPECT_EQ(g.components[0].events, 123u);
  ASSERT_EQ(g.components[0].adapters.size(), 2u);
  EXPECT_EQ(g.components[0].adapters[0].channel, "eth-server0");
  EXPECT_FALSE(g.components[0].adapters[0].partition_cut);
  EXPECT_EQ(g.components[0].adapters[0].inflight_fold, 0xabcdu);
  EXPECT_EQ(g.components[0].adapters[0].inflight_count, 2u);
  EXPECT_TRUE(g.components[0].adapters[1].partition_cut);
  EXPECT_TRUE(g.components[0].digest == s.components[0].digest);
  EXPECT_TRUE(g.components[0].core == s.components[0].core);
}

TEST(CkptSnapshot, RejectsMissingTruncatedAndCorruptFiles) {
  const std::string dir = scratch_dir("corrupt");

  expect_ckpt_error([&] { ckpt::load_snapshot(dir + "/nope.ckpt"); }, "nope.ckpt");

  const std::string bad_magic = dir + "/magic.ckpt";
  { std::ofstream(bad_magic) << "this is not a snapshot file"; }
  expect_ckpt_error([&] { ckpt::load_snapshot(bad_magic); }, "magic.ckpt");

  const std::string truncated = dir + "/trunc.ckpt";
  ckpt::save_snapshot(sample_snapshot(), truncated);
  std::filesystem::resize_file(truncated, std::filesystem::file_size(truncated) / 2);
  expect_ckpt_error([&] { ckpt::load_snapshot(truncated); }, "trunc.ckpt");

  // Flip one body byte: the header survives, the body hash must not.
  const std::string flipped = dir + "/flip.ckpt";
  ckpt::save_snapshot(sample_snapshot(), flipped);
  {
    std::fstream f(flipped, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(-1, std::ios::end);
    char c = 0;
    f.seekg(-1, std::ios::end);
    f.get(c);
    f.seekp(-1, std::ios::end);
    f.put(static_cast<char>(c ^ 0x5a));
  }
  expect_ckpt_error([&] { ckpt::load_snapshot(flipped); }, "flip.ckpt");

  // A directory with nothing usable in it.
  expect_ckpt_error([&] { ckpt::load_resume(dir + "/empty-missing"); }, "empty-missing");
}

TEST(CkptSnapshot, MergeShardsRecombinesRanks) {
  ckpt::Snapshot whole = sample_snapshot();
  ASSERT_EQ(whole.components.size(), 1u);

  // Split the component set across two rank shards and merge back.
  ckpt::Snapshot r0 = whole;
  ckpt::Snapshot r1 = whole;
  ckpt::ComponentShard other;
  other.name = "client0";
  other.events = 7;
  ckpt::AdapterShard a;
  a.channel = "eth-client0";
  a.digest.fold_xor = 0x9999;
  a.digest.fold_sum = 0x8888;
  a.digest.count = 3;
  other.digest.merge(a.digest);
  other.core.merge(a.digest);
  other.adapters.push_back(a);
  r1.components = {other};
  r1.core = other.core;
  r1.full = other.digest;

  ckpt::Snapshot merged = ckpt::merge_shards({r0, r1});
  EXPECT_EQ(merged.boundary, whole.boundary);
  EXPECT_EQ(merged.components.size(), 2u);
  sync::EventDigest want_full = whole.full;
  want_full.merge(other.digest);
  EXPECT_TRUE(merged.full == want_full);
  sync::EventDigest want_core = whole.core;
  want_core.merge(other.core);
  EXPECT_TRUE(merged.core == want_core);

  // Shards of different boundaries must not merge silently.
  r1.boundary = from_ms(4.0);
  r1.seq = 2;
  expect_ckpt_error([&] { ckpt::merge_shards({r0, r1}); }, "shard");
}

// --------------------------------------------- checkpointed-run parity ----

TEST(CkptRun, CheckpointingLeavesDigestUnchanged) {
  EXPECT_TRUE(kv_baseline().digest == kv_clean_digest());

  // Boundary grid: every 2 ms over an 8 ms run records boundaries strictly
  // inside the run — 2, 4, 6 ms (seq 1..3), never one at the end time.
  for (std::uint64_t seq = 1; seq <= 3; ++seq) {
    EXPECT_TRUE(std::filesystem::exists(ckpt::snapshot_path(kv_baseline().ckpt_dir, seq)))
        << "missing snapshot seq " << seq;
  }
  EXPECT_FALSE(std::filesystem::exists(ckpt::snapshot_path(kv_baseline().ckpt_dir, 4)));

  ckpt::Snapshot newest = ckpt::load_resume(kv_baseline().ckpt_dir);
  EXPECT_EQ(newest.boundary, from_ms(6.0));
  EXPECT_EQ(newest.every, from_ms(2.0));
  EXPECT_NE(newest.config_fp, 0u);
}

TEST(CkptRun, ResumeReproducesDigestAcrossRunModes) {
  // Threaded resume from the coscheduled baseline's snapshots.
  {
    kv::ScenarioConfig cfg = kv_cfg(scratch_dir("resume-threaded"));
    cfg.exec.run_mode = runtime::RunMode::kThreaded;
    cfg.ckpt.resume_from = kv_baseline().ckpt_dir;
    cfg.ckpt.dir = scratch_dir("resume-threaded-ckpt");
    EXPECT_TRUE(kv::run_kv_scenario(cfg).digest == kv_clean_digest());
  }
  // Pooled resume with an explicit worker count (elastic across workers).
  {
    kv::ScenarioConfig cfg = kv_cfg(scratch_dir("resume-pooled"));
    cfg.exec.run_mode = runtime::RunMode::kPooled;
    cfg.exec.pool_workers = 2;
    cfg.ckpt.resume_from = kv_baseline().ckpt_dir;
    cfg.ckpt.dir = scratch_dir("resume-pooled-ckpt");
    EXPECT_TRUE(kv::run_kv_scenario(cfg).digest == kv_clean_digest());
  }
}

TEST(CkptRun, FaultThenResumeFinishesWithCleanDigest) {
  const std::string root = scratch_dir("fault");
  const std::string ckpt_dir = root + "/ckpt";

  kv::ScenarioConfig cfg = kv_cfg(root + "/log");
  cfg.ckpt.every = from_ms(2.0);
  cfg.ckpt.dir = ckpt_dir;
  orch::ThrowFaultRule kill;
  kill.component = "host.server0";
  kill.at = from_ms(5.0);
  kill.message = "injected kill for ckpt test";
  cfg.faults.throws.push_back(kill);
  try {
    kv::run_kv_scenario(cfg);
    FAIL() << "injected fault should have ended the run";
  } catch (const SimulationError& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kModelError) << e.what();
  }

  // The kill at 5 ms leaves the 2 ms and 4 ms boundary snapshots behind.
  ckpt::Snapshot last = ckpt::load_resume(ckpt_dir);
  EXPECT_EQ(last.boundary, from_ms(4.0));

  // Resume with the same config — run_profiled strips the one-shot killer
  // fault — and finish with the uninterrupted digest.
  kv::ScenarioConfig again = kv_cfg(root + "/log-resume");
  again.faults = cfg.faults;
  again.ckpt.every = from_ms(2.0);
  again.ckpt.dir = root + "/ckpt-resume";
  again.ckpt.resume_from = ckpt_dir;
  EXPECT_TRUE(kv::run_kv_scenario(again).digest == kv_clean_digest());
}

TEST(CkptRun, ElasticResumeAcrossPartitionAndWorkers) {
  // Baseline: default (unpartitioned) coscheduled clocksync run with
  // checkpoints every 20 ms of a 60 ms run.
  clocksync::ClockSyncScenarioConfig base = mcheck::clocksync_small_config();
  base.duration = from_ms(60.0);
  base.window_start = from_ms(30.0);
  const std::string root = scratch_dir("elastic");
  base.profile.log_dir = root + "/log";
  base.ckpt.every = from_ms(20.0);
  base.ckpt.dir = root + "/ckpt";
  clocksync::run_clocksync_scenario(base);

  // Uninterrupted reference under the *resume* shape: network partitioned
  // ("ac"), pooled with 2 workers. Its digest differs from the baseline's
  // (cut channels add traffic) — it is what the elastic resume must match.
  clocksync::ClockSyncScenarioConfig part = mcheck::clocksync_small_config();
  part.duration = from_ms(60.0);
  part.window_start = from_ms(30.0);
  part.exec.partition = "ac";
  part.exec.run_mode = runtime::RunMode::kPooled;
  part.exec.pool_workers = 2;
  part.profile.log_dir = root + "/log-ref";
  const sync::EventDigest ref = clocksync::run_clocksync_scenario(part).digest;

  // Elastic resume: different partition AND run mode AND worker count than
  // the run that wrote the snapshots. Boundary verification falls back to
  // the partition-invariant core fold (layouts differ).
  part.profile.log_dir = root + "/log-resume";
  part.ckpt.resume_from = root + "/ckpt";
  part.ckpt.dir = root + "/ckpt-resume";
  EXPECT_TRUE(clocksync::run_clocksync_scenario(part).digest == ref);
}

TEST(CkptRun, TamperedSnapshotDivergenceIsDetected) {
  const std::string dir = scratch_dir("tamper");
  ckpt::Snapshot s = ckpt::load_snapshot(ckpt::snapshot_path(kv_baseline().ckpt_dir, 3));
  s.core.fold_xor ^= 1;  // one bit of recorded boundary state
  s.full.fold_xor ^= 1;
  const std::string tampered = dir + "/tampered.ckpt";
  ckpt::save_snapshot(s, tampered);

  kv::ScenarioConfig cfg = kv_cfg(dir + "/log");
  cfg.ckpt.resume_from = tampered;
  cfg.ckpt.dir = dir + "/ckpt";
  expect_ckpt_error([&] { kv::run_kv_scenario(cfg); }, "tampered.ckpt");
}

TEST(CkptRun, IncompatibleResumeIsRejectedBeforeRunning) {
  // Different duration => different scenario fingerprint.
  {
    kv::ScenarioConfig cfg = kv_cfg(scratch_dir("fp-mismatch"));
    cfg.duration = from_ms(4.0);
    cfg.ckpt.resume_from = kv_baseline().ckpt_dir;
    expect_ckpt_error([&] { kv::run_kv_scenario(cfg); }, "different scenario configuration");
  }
  // Matching fingerprint forced, but the newest boundary (6 ms) is past the
  // shortened run end.
  {
    kv::ScenarioConfig cfg = kv_cfg(scratch_dir("past-end"));
    cfg.duration = from_ms(4.0);
    cfg.ckpt.config_fp = orch::ckpt_fingerprint("kv", from_ms(8.0));
    cfg.ckpt.resume_from = kv_baseline().ckpt_dir;
    expect_ckpt_error([&] { kv::run_kv_scenario(cfg); }, "at or past");
  }
  // A grid that misses the snapshot boundary can never verify the replay.
  {
    kv::ScenarioConfig cfg = kv_cfg(scratch_dir("grid-miss"));
    cfg.ckpt.every = from_ms(5.0);
    cfg.ckpt.resume_from = kv_baseline().ckpt_dir;
    expect_ckpt_error([&] { kv::run_kv_scenario(cfg); }, "does not hit");
  }
}

// -------------------------------------------- crN name validation (S2) ----

TEST(PartitionNames, CrnParsingRejectsMalformedCounts) {
  netsim::Datacenter dc = netsim::make_datacenter(2, 2, 3);

  auto expect_unknown = [&](const std::string& name) {
    try {
      orch::partition_by_name(dc, name);
      FAIL() << "'" << name << "' should be an unknown strategy";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(name), std::string::npos) << e.what();
    }
    try {
      orch::partition_topology_by_name(dc.topo, name);
      FAIL() << "'" << name << "' should be an unknown strategy (topology)";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(name), std::string::npos) << e.what();
    }
  };

  expect_unknown("cr");         // no count at all
  expect_unknown("crx");        // non-numeric
  expect_unknown("cr0");        // zero racks per process
  expect_unknown("cr-1");       // negative
  expect_unknown("cr2x");       // trailing junk
  expect_unknown("cr1234567");  // absurd width, would overflow downstream

  // Well-formed names still resolve to the real strategy.
  EXPECT_EQ(orch::partition_by_name(dc, "cr2"), orch::partition_cr(dc, 2));
  EXPECT_GE(orch::partition_count(orch::partition_topology_by_name(dc.topo, "cr1")), 1);
}
