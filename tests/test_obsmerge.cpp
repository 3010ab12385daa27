// Distributed observability tests (trace sharding + merge, fleet metrics
// over the control trunk, critical-path analysis).
//
// Three layers are pinned down here:
//   * control frames: the SEQPACKET wire format round-trips and rejects
//     truncated/garbled input (children stream these best-effort, so a bad
//     frame must be droppable, never mis-decoded).
//   * shard merging: process-qualified shards fold into one Chrome trace
//     where flow ids pair across pids, pid collisions are remapped, shard
//     otherData sums, and blocked-wait attribution yields the limiting
//     chain of components per epoch.
//   * end to end: a real 2+-process kv run over shm and then socket trunks
//     leaves ONE merged Perfetto trace with at least one cross-process flow
//     arrow whose count matches the trunks' delivered-message count, plus
//     one merged summary with per-process, fleet, and critical-path
//     sections; an untraced run's merged run record lists every component
//     of the in-process run.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

#include "kv/scenario.hpp"
#include "mcheck/scenarios.hpp"
#include "obs/control.hpp"
#include "obs/jsonread.hpp"
#include "obs/merge.hpp"
#include "obs/summary.hpp"
#include "profiler/wtpg.hpp"

using namespace splitsim;

// ---------------------------------------------------------------------------
// Control frames
// ---------------------------------------------------------------------------

TEST(ControlFrameTest, RoundTrip) {
  obs::ControlUpdate u;
  u.rank = 3;
  u.kind = obs::kCtrlSnapshot;
  u.sim_time = from_ms(12.5);
  u.wall_seconds = 0.75;
  u.values.emplace_back("trunk.net0.trunk.0.tx_frames", 4096.0);
  u.values.emplace_back("trunk.net0.trunk.0.tx_bytes", 1048576.0);
  u.values.emplace_back("trunk.net0.trunk.0.futex_parks", 17.0);

  std::vector<std::uint8_t> frame = obs::encode_control_update(u);
  obs::ControlUpdate d;
  ASSERT_TRUE(obs::decode_control_update(frame.data(), frame.size(), d));
  EXPECT_EQ(d.rank, u.rank);
  EXPECT_EQ(d.kind, u.kind);
  EXPECT_EQ(d.sim_time, u.sim_time);
  EXPECT_DOUBLE_EQ(d.wall_seconds, u.wall_seconds);
  ASSERT_EQ(d.values.size(), u.values.size());
  for (std::size_t i = 0; i < u.values.size(); ++i) {
    EXPECT_EQ(d.values[i].first, u.values[i].first);
    EXPECT_DOUBLE_EQ(d.values[i].second, u.values[i].second);
  }
}

TEST(ControlFrameTest, EmptyProgressFrame) {
  obs::ControlUpdate u;
  u.rank = 0;
  u.kind = obs::kCtrlProgress;
  u.sim_time = 42;
  std::vector<std::uint8_t> frame = obs::encode_control_update(u);
  obs::ControlUpdate d;
  ASSERT_TRUE(obs::decode_control_update(frame.data(), frame.size(), d));
  EXPECT_EQ(d.kind, obs::kCtrlProgress);
  EXPECT_EQ(d.sim_time, 42u);
  EXPECT_TRUE(d.values.empty());
}

TEST(ControlFrameTest, RejectsTruncatedAndGarbled) {
  obs::ControlUpdate u;
  u.values.emplace_back("x", 1.0);
  std::vector<std::uint8_t> frame = obs::encode_control_update(u);
  obs::ControlUpdate d;
  // Every proper prefix must be rejected (SEQPACKET delivers whole frames,
  // but a half-written peer must not decode).
  for (std::size_t n = 0; n < frame.size(); ++n) {
    EXPECT_FALSE(obs::decode_control_update(frame.data(), n, d)) << "prefix " << n;
  }
  // Length field inconsistent with the datagram size.
  std::vector<std::uint8_t> bad = frame;
  bad[0] ^= 0xFF;
  EXPECT_FALSE(obs::decode_control_update(bad.data(), bad.size(), d));
}

TEST(ControlSocketTest, FramesSurviveTheSocketpair) {
  int fd[2];
  ASSERT_TRUE(obs::control_socketpair(fd));
  obs::ControlUpdate u;
  u.rank = 1;
  u.kind = obs::kCtrlSnapshot;
  u.sim_time = 7;
  u.values.emplace_back("trunk.a.tx_frames", 3.0);
  obs::send_control_update(fd[1], u);
  obs::send_control_update(fd[1], u);

  std::uint8_t buf[4096];
  for (int i = 0; i < 2; ++i) {
    ssize_t r = ::recv(fd[0], buf, sizeof(buf), 0);
    ASSERT_GT(r, 0);
    obs::ControlUpdate d;
    ASSERT_TRUE(obs::decode_control_update(buf, static_cast<std::size_t>(r), d));
    EXPECT_EQ(d.rank, 1u);
    ASSERT_EQ(d.values.size(), 1u);
    EXPECT_EQ(d.values[0].first, "trunk.a.tx_frames");
  }
  ::close(fd[0]);
  ::close(fd[1]);
}

// ---------------------------------------------------------------------------
// Shard merging
// ---------------------------------------------------------------------------

namespace {

std::string test_dir() {
  const std::string d = "test-obsmerge-out";
  std::error_code ec;
  std::filesystem::create_directories(d, ec);
  return d;
}

void write_file(const std::string& path, const std::string& body) {
  std::ofstream os(path, std::ios::trunc);
  os << body;
}

obs::JsonValue parse_file(const std::string& path) {
  std::ifstream is(path);
  std::string text((std::istreambuf_iterator<char>(is)), std::istreambuf_iterator<char>());
  obs::JsonValue v;
  std::string err;
  EXPECT_TRUE(obs::json_parse(text, v, err)) << path << ": " << err;
  return v;
}

/// Count array members of a top-level key (0 when absent/not an array).
const obs::JsonValue* find_event(const obs::JsonValue& doc,
                                 const std::string& ph, const std::string& name) {
  const obs::JsonValue* evs = doc.find("traceEvents");
  if (evs == nullptr) return nullptr;
  for (const obs::JsonValue& e : evs->array) {
    if (e.str("ph") == ph && e.str("name") == name) return &e;
  }
  return nullptr;
}

}  // namespace

TEST(TraceMergeTest, CrossProcessFlowsPairAndStatsSum) {
  const std::string dir = test_dir();
  // Shard pid 1: component A sends (flow begin id "f1"), waits on B.
  write_file(dir + "/shard1.json", R"({"otherData":{"recorded":3,"dropped":0},
"traceEvents":[
{"ph":"M","pid":1,"tid":1,"name":"thread_name","args":{"name":"A"}},
{"ph":"M","pid":1,"name":"process_name","args":{"name":"p0"}},
{"ph":"X","pid":1,"tid":1,"name":"component_run","ts":0,"dur":10},
{"ph":"s","pid":1,"tid":1,"name":"msg","cat":"channel","id":"f1","ts":5},
{"ph":"X","pid":1,"tid":1,"name":"sync_wait","ts":10,"dur":80,"args":{"wait_on":"B"}}
]})");
  // Shard pid 2: component B receives f1, waits on C; C never waits (busy).
  write_file(dir + "/shard2.json", R"({"otherData":{"recorded":4,"dropped":1},
"traceEvents":[
{"ph":"M","pid":2,"tid":1,"name":"thread_name","args":{"name":"B"}},
{"ph":"M","pid":2,"tid":2,"name":"thread_name","args":{"name":"C"}},
{"ph":"M","pid":2,"name":"process_name","args":{"name":"p1"}},
{"ph":"f","pid":2,"tid":1,"name":"msg","cat":"channel","id":"f1","bp":"e","ts":7},
{"ph":"X","pid":2,"tid":1,"name":"sync_wait","ts":20,"dur":60,"args":{"wait_on":"C"}},
{"ph":"X","pid":2,"tid":2,"name":"component_run","ts":0,"dur":100}
]})");

  const std::string out = dir + "/merged.json";
  obs::MergeOptions opts;
  opts.critical_path_epochs = 1;
  obs::MergeResult r =
      obs::merge_trace_shards({dir + "/shard1.json", dir + "/shard2.json"}, out, opts);

  EXPECT_EQ(r.shards, 2u);
  EXPECT_EQ(r.recorded, 7u);  // otherData sums across shards
  EXPECT_EQ(r.dropped, 1u);
  EXPECT_EQ(r.flow_pairs, 1u);
  EXPECT_EQ(r.cross_process_flow_pairs, 1u);

  // Critical path: A waited on B, B waited on C, C never waited -> C is the
  // limiter and the chain walks A -> B -> C.
  ASSERT_EQ(r.critical_path.epochs.size(), 1u);
  EXPECT_EQ(r.critical_path.limiter, "C");
  ASSERT_EQ(r.critical_path.epochs[0].chain.size(), 3u);
  EXPECT_EQ(r.critical_path.epochs[0].chain[0], "A");
  EXPECT_EQ(r.critical_path.epochs[0].chain[1], "B");
  EXPECT_EQ(r.critical_path.epochs[0].chain[2], "C");
  EXPECT_DOUBLE_EQ(r.critical_path.epochs[0].wait_us, 140.0);

  // The merged file is valid JSON, keeps both shards' metadata, and carries
  // the synthetic pid-0 critical-path track.
  obs::JsonValue merged = parse_file(out);
  const obs::JsonValue* other = merged.find("otherData");
  ASSERT_NE(other, nullptr);
  EXPECT_EQ(other->num("recorded"), 7.0);
  EXPECT_EQ(other->num("shards"), 2.0);
  const obs::JsonValue* cp = find_event(merged, "X", "C");
  ASSERT_NE(cp, nullptr);
  EXPECT_EQ(cp->num("pid", -1), 0.0);
  const obs::JsonValue* args = cp->find("args");
  ASSERT_NE(args, nullptr);
  EXPECT_EQ(args->str("chain"), "A -> B -> C");
}

TEST(TraceMergeTest, CollidingPidsAreRemapped) {
  const std::string dir = test_dir();
  // Two single-process shards, both pid 1 (no process qualification).
  for (int s = 0; s < 2; ++s) {
    write_file(dir + "/dup" + std::to_string(s) + ".json",
               R"({"otherData":{"recorded":1,"dropped":0},"traceEvents":[
{"ph":"M","pid":1,"tid":1,"name":"thread_name","args":{"name":"comp)" +
                   std::to_string(s) + R"("}},
{"ph":"X","pid":1,"tid":1,"name":"component_run","ts":0,"dur":5}
]})");
  }
  const std::string out = dir + "/dup-merged.json";
  obs::MergeResult r =
      obs::merge_trace_shards({dir + "/dup0.json", dir + "/dup1.json"}, out);
  EXPECT_EQ(r.shards, 2u);

  obs::JsonValue merged = parse_file(out);
  const obs::JsonValue* evs = merged.find("traceEvents");
  ASSERT_NE(evs, nullptr);
  std::set<int> pids;
  for (const obs::JsonValue& e : evs->array) {
    if (e.str("ph") == "X") pids.insert(static_cast<int>(e.num("pid")));
  }
  EXPECT_EQ(pids.size(), 2u) << "colliding shard pids must be remapped apart";
}

TEST(TraceMergeTest, UnreadableShardThrows) {
  EXPECT_THROW(obs::merge_trace_shards({"does-not-exist.json"}, "unused.json"),
               std::runtime_error);
  const std::string dir = test_dir();
  write_file(dir + "/bad.json", "{not json");
  EXPECT_THROW(obs::merge_trace_shards({dir + "/bad.json"}, dir + "/unused.json"),
               std::runtime_error);
}

// ---------------------------------------------------------------------------
// End to end: traced multi-process runs
// ---------------------------------------------------------------------------

namespace {

/// Run kv-small as forked process groups over `transport` with tracing +
/// fleet metrics on, then check the merged artifacts.
void check_traced_multiprocess(const std::string& transport) {
  const std::string out = "test-obsmerge-out/e2e-" + transport;
  std::error_code ec;
  std::filesystem::remove_all(out, ec);

  kv::ScenarioConfig cfg = mcheck::kv_small_config();
  cfg.exec.run_mode = runtime::RunMode::kThreaded;
  cfg.exec.transport = transport;
  cfg.exec.processes = true;
  cfg.profile.log_dir = out;
  cfg.profile.trace = true;
  cfg.profile.metrics_period_ms = 20;
  kv::run_kv_scenario(cfg);

  // One merged Perfetto trace in the artifact dir root.
  ASSERT_TRUE(std::filesystem::exists(out + "/trace.json"));
  obs::JsonValue trace = parse_file(out + "/trace.json");
  const obs::JsonValue* evs = trace.find("traceEvents");
  ASSERT_NE(evs, nullptr);
  ASSERT_FALSE(evs->array.empty());

  // The merged summary has per-process, fleet, trace-merge and
  // critical-path sections.
  ASSERT_TRUE(std::filesystem::exists(out + "/summary.json"));
  obs::JsonValue summary = parse_file(out + "/summary.json");
  const obs::JsonValue* procs = summary.find("processes");
  ASSERT_NE(procs, nullptr);
  ASSERT_GE(procs->array.size(), 2u);
  std::uint64_t delivered = 0;
  for (const obs::JsonValue& p : procs->array) {
    EXPECT_EQ(p.str("outcome"), "completed");
    EXPECT_FALSE(p.str("name").empty());
    delivered += static_cast<std::uint64_t>(p.num("trunk_rx_msgs"));
    EXPECT_GT(p.num("wire_tx_frames"), 0.0);
    EXPECT_GT(p.num("wire_tx_bytes"), 0.0);
  }
  EXPECT_GT(delivered, 0u);

  const obs::JsonValue* merge = summary.find("trace_merge");
  ASSERT_NE(merge, nullptr);
  EXPECT_GE(merge->num("shards"), 2.0);
  EXPECT_GE(merge->num("cross_process_flow_pairs"), 1.0);
  // Every data message delivered over a trunk is one cross-process flow
  // arrow in the merged trace (both sides traced; exact when no records
  // were dropped).
  if (merge->num("dropped") == 0.0) {
    EXPECT_EQ(static_cast<std::uint64_t>(merge->num("cross_process_flow_pairs")),
              delivered);
  }

  const obs::JsonValue* fleet = summary.find("fleet");
  ASSERT_NE(fleet, nullptr);
  const obs::JsonValue* gauges = fleet->find("gauges");
  ASSERT_NE(gauges, nullptr);
  EXPECT_NE(gauges->find("fleet.procs"), nullptr);

  const obs::JsonValue* cp = summary.find("critical_path");
  ASSERT_NE(cp, nullptr);
  EXPECT_NE(cp->find("epochs"), nullptr);

  // Fleet metrics series landed as the run's metrics.json.
  ASSERT_TRUE(std::filesystem::exists(out + "/metrics.json"));

  // Per-child artifacts are process-qualified under proc-<rank>/ (no CWD
  // litter, no collisions).
  EXPECT_TRUE(std::filesystem::exists(out + "/proc-0/trace.json"));
  EXPECT_TRUE(std::filesystem::exists(out + "/proc-1/trace.json"));

  // Wire counts are the adapters' own, and each merged row sums its
  // child's wire adapters (rows are in rank order).
  for (std::size_t rank = 0; rank < procs->array.size(); ++rank) {
    const std::string path = out + "/proc-" + std::to_string(rank) + "/summary.json";
    std::optional<runtime::RunStats> child = obs::read_run_stats(path);
    ASSERT_TRUE(child.has_value()) << path;
    sync::WireStats sum;
    for (const runtime::ComponentStats& c : child->components) {
      for (const runtime::AdapterStats& a : c.adapters) {
        if (!a.wire) continue;
        SCOPED_TRACE(c.name + "/" + a.adapter);
        EXPECT_EQ(a.wire->tx_syncs, a.totals.tx_syncs);
        EXPECT_EQ(a.wire->tx_datas, a.totals.tx_msgs);
        EXPECT_EQ(a.wire->tx_frames, a.totals.tx_syncs + a.totals.tx_msgs + 1);
        sum += *a.wire;
      }
    }
    const obs::JsonValue& row = procs->array[rank];
    EXPECT_GT(sum.tx_frames, 0u) << path;
    EXPECT_EQ(static_cast<std::uint64_t>(row.num("wire_tx_frames")), sum.tx_frames) << path;
    EXPECT_EQ(static_cast<std::uint64_t>(row.num("wire_tx_bytes")), sum.tx_bytes) << path;
    EXPECT_EQ(static_cast<std::uint64_t>(row.num("wire_tx_syncs")), sum.tx_syncs) << path;
    EXPECT_EQ(static_cast<std::uint64_t>(row.num("wire_tx_datas")), sum.tx_datas) << path;
  }
}

}  // namespace

TEST(DistributedObsTest, ShmRunMergesTraceAndFleetMetrics) {
  check_traced_multiprocess("shm");
}

TEST(DistributedObsTest, SocketRunMergesTraceAndFleetMetrics) {
  check_traced_multiprocess("socket");
}

// ---------------------------------------------------------------------------
// End to end: the merged run record of a multi-process run
// ---------------------------------------------------------------------------

namespace {

/// Component name -> its (adapter, peer) pairs.
using Layout = std::map<std::string, std::set<std::pair<std::string, std::string>>>;

Layout layout_of(const runtime::RunStats& st) {
  Layout out;
  for (const runtime::ComponentStats& c : st.components) {
    auto& pairs = out[c.name];
    for (const runtime::AdapterStats& a : c.adapters) pairs.emplace(a.adapter, a.peer_component);
  }
  return out;
}

/// Node ids and (from, to) edges of a DOT graph.
struct Graph {
  std::set<std::string> nodes;
  std::set<std::pair<std::string, std::string>> edges;
};

Graph wtpg_of(const runtime::RunStats& st) {
  Graph g;
  std::istringstream dot(profiler::build_wtpg(profiler::build_report(st)).to_dot());
  for (std::string line; std::getline(dot, line);) {
    if (line.rfind("  \"", 0) != 0) continue;
    const std::string head = line.substr(2, line.find(" [") - 2);
    const auto arrow = head.find(" -> ");
    if (arrow == std::string::npos) {
      g.nodes.insert(head);
    } else {
      g.edges.emplace(head.substr(0, arrow), head.substr(arrow + 4));
    }
  }
  return g;
}

}  // namespace

TEST(DistributedObsTest, ShmRunRecordListsEveryComponent) {
  // The parent merges its children's run records (proc-<rank>/summary.json),
  // so the merged record, the profile and the WTPG cover every component
  // of the run, exactly as the in-process threaded run lists them.
  const std::string out = "test-obsmerge-out/record";
  std::error_code ec;
  std::filesystem::remove_all(out, ec);

  kv::ScenarioConfig cfg = mcheck::kv_small_config();
  cfg.exec.run_mode = runtime::RunMode::kThreaded;
  cfg.profile.log_dir = out + "/inproc";
  const runtime::EventDigest ref = kv::run_kv_scenario(cfg).digest;
  cfg.exec.transport = "shm";
  cfg.exec.processes = true;
  cfg.profile.log_dir = out + "/shm";
  EXPECT_EQ(kv::run_kv_scenario(cfg).digest, ref);

  std::optional<runtime::RunStats> single = obs::read_run_stats(out + "/inproc/summary.json");
  std::optional<runtime::RunStats> merged = obs::read_run_stats(out + "/shm/summary.json");
  ASSERT_TRUE(single.has_value());
  ASSERT_TRUE(merged.has_value());
  EXPECT_EQ(merged->outcome, runtime::RunOutcome::kCompleted) << merged->error;
  EXPECT_TRUE(single->digest == ref);
  EXPECT_TRUE(merged->digest == ref);

  const Layout want = layout_of(*single);
  ASSERT_GE(want.size(), 3u);
  EXPECT_EQ(layout_of(*merged), want);

  const Graph g_single = wtpg_of(*single);
  const Graph g_merged = wtpg_of(*merged);
  EXPECT_EQ(g_merged.nodes, g_single.nodes);
  EXPECT_EQ(g_merged.edges, g_single.edges);
  EXPECT_EQ(g_merged.nodes.size(), want.size());

  // The summary's profile section covers every component too.
  obs::JsonValue summary = parse_file(out + "/shm/summary.json");
  const obs::JsonValue* profile = summary.find("profile");
  ASSERT_NE(profile, nullptr);
  std::set<std::string> profiled;
  for (const obs::JsonValue& c : profile->find("components")->array) {
    profiled.insert(c.str("name"));
  }
  std::set<std::string> names;
  for (const auto& [name, pairs] : want) names.insert(name);
  EXPECT_EQ(profiled, names);

  // Per-process wire counters come from the children's adapters.
  const obs::JsonValue* procs = summary.find("processes");
  ASSERT_NE(procs, nullptr);
  ASSERT_GE(procs->array.size(), 2u);
  std::uint64_t delivered = 0;
  for (const obs::JsonValue& p : procs->array) {
    EXPECT_EQ(p.str("outcome"), "completed");
    delivered += static_cast<std::uint64_t>(p.num("trunk_rx_msgs"));
    EXPECT_GT(p.num("wire_tx_frames"), 0.0);
    EXPECT_GT(p.num("wire_tx_bytes"), 0.0);
  }
  EXPECT_GT(delivered, 0u);

  // All groups on one rank: a one-process plan runs in-process and still
  // writes the same record.
  for (const obs::JsonValue& p : procs->array) cfg.exec.process_of[p.str("name")] = 0;
  cfg.profile.log_dir = out + "/one";
  EXPECT_EQ(kv::run_kv_scenario(cfg).digest, ref);
  std::optional<runtime::RunStats> one = obs::read_run_stats(out + "/one/summary.json");
  ASSERT_TRUE(one.has_value());
  EXPECT_TRUE(one->digest == ref);
  EXPECT_EQ(layout_of(*one), want);
  EXPECT_FALSE(std::filesystem::exists(out + "/one/proc-0"));
}
