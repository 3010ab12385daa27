#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <unistd.h>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/progress.hpp"
#include "obs/trace.hpp"
#include "runtime/runner.hpp"
#include "sync/shm.hpp"

using namespace splitsim;
using namespace splitsim::obs;

namespace {

// ---- minimal JSON parser (validation only) --------------------------------
//
// Small recursive-descent parser, strict enough to catch malformed exporter
// output: unbalanced structure, trailing commas, bad escapes, NaN/Inf.

struct Json {
  enum Kind { kNull, kBool, kNum, kStr, kArr, kObj } kind = kNull;
  bool b = false;
  double num = 0;
  std::string str;
  std::vector<Json> arr;
  std::map<std::string, Json> obj;

  const Json* find(const std::string& key) const {
    auto it = obj.find(key);
    return it == obj.end() ? nullptr : &it->second;
  }
  double num_at(const std::string& key) const {
    const Json* v = find(key);
    return v != nullptr && v->kind == kNum ? v->num : 0.0;
  }
  std::string str_at(const std::string& key) const {
    const Json* v = find(key);
    return v != nullptr && v->kind == kStr ? v->str : std::string();
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& s) : s_(s) {}

  bool parse(Json& out) {
    bool ok = value(out);
    skip_ws();
    return ok && pos_ == s_.size();
  }

 private:
  void skip_ws() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\n' || s_[pos_] == '\t' ||
                                s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool lit(const char* w, Json& out, Json::Kind k, bool bval) {
    std::size_t n = std::string(w).size();
    if (s_.compare(pos_, n, w) != 0) return false;
    pos_ += n;
    out.kind = k;
    out.b = bval;
    return true;
  }

  bool value(Json& out) {
    skip_ws();
    if (pos_ >= s_.size()) return false;
    char c = s_[pos_];
    if (c == '{') return object(out);
    if (c == '[') return array(out);
    if (c == '"') {
      out.kind = Json::kStr;
      return string(out.str);
    }
    if (c == 't') return lit("true", out, Json::kBool, true);
    if (c == 'f') return lit("false", out, Json::kBool, false);
    if (c == 'n') return lit("null", out, Json::kNull, false);
    return number(out);
  }

  bool string(std::string& out) {
    if (s_[pos_] != '"') return false;
    ++pos_;
    out.clear();
    while (pos_ < s_.size() && s_[pos_] != '"') {
      char c = s_[pos_++];
      if (c == '\\') {
        if (pos_ >= s_.size()) return false;
        char e = s_[pos_++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u': {
            if (pos_ + 4 > s_.size()) return false;
            for (int i = 0; i < 4; ++i) {
              if (std::isxdigit(static_cast<unsigned char>(s_[pos_ + i])) == 0) return false;
            }
            pos_ += 4;
            out += '?';  // value irrelevant for validation
            break;
          }
          default:
            return false;
        }
      } else {
        out += c;
      }
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }

  bool number(Json& out) {
    std::size_t start = pos_;
    if (pos_ < s_.size() && s_[pos_] == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E' || s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return false;
    out.kind = Json::kNum;
    out.num = std::atof(s_.substr(start, pos_ - start).c_str());
    return std::isfinite(out.num);
  }

  bool array(Json& out) {
    out.kind = Json::kArr;
    ++pos_;  // '['
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      Json v;
      if (!value(v)) return false;
      out.arr.push_back(std::move(v));
      skip_ws();
      if (pos_ >= s_.size()) return false;
      if (s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (s_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool object(Json& out) {
    out.kind = Json::kObj;
    ++pos_;  // '{'
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      std::string key;
      if (pos_ >= s_.size() || !string(key)) return false;
      skip_ws();
      if (pos_ >= s_.size() || s_[pos_] != ':') return false;
      ++pos_;
      Json v;
      if (!value(v)) return false;
      out.obj.emplace(std::move(key), std::move(v));
      skip_ws();
      if (pos_ >= s_.size()) return false;
      if (s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (s_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

Json parse_or_die(const std::string& s) {
  Json j;
  JsonParser p(s);
  EXPECT_TRUE(p.parse(j)) << "invalid JSON: " << s.substr(0, 400);
  return j;
}

// ---- ping/pong fixture (mirrors test_runtime.cpp) -------------------------

constexpr std::uint16_t kPingType = sync::kUserTypeBase + 1;

class Pinger : public runtime::Component {
 public:
  Pinger(std::string name, sync::ChannelEnd& end, int pings)
      : Component(std::move(name)), total_(pings) {
    adapter_ = &add_adapter("link", end);
    adapter_->set_handler([this](const sync::Message& m, SimTime rx) {
      ++pongs;
      (void)m;
      if (sent_ < total_) send_ping(rx);
    });
  }

  void init() override {
    kernel().schedule_at(0, [this] { send_ping(0); });
  }

  int pongs = 0;

 private:
  void send_ping(SimTime now) { adapter_->send(kPingType, sent_++, now); }

  sync::Adapter* adapter_;
  int total_;
  int sent_ = 0;
};

class Reflector : public runtime::Component {
 public:
  Reflector(std::string name, sync::ChannelEnd& end) : Component(std::move(name)) {
    adapter_ = &add_adapter("link", end);
    adapter_->set_handler([this](const sync::Message& m, SimTime rx) {
      ++reflected;
      adapter_->send(m.type, m.as<int>(), rx);
    });
  }

  int reflected = 0;

 private:
  sync::Adapter* adapter_;
};

}  // namespace

// ---- json helpers ---------------------------------------------------------

TEST(ObsJson, EscapesControlAndQuotes) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(json_escape(std::string("a\x01z")), "a\\u0001z");
}

TEST(ObsJson, NumbersNeverNonFinite) {
  EXPECT_EQ(json_num(std::nan("")), "0");
  EXPECT_EQ(json_num(INFINITY), "0");
  EXPECT_EQ(json_num(1.5), "1.5");
}

// ---- histogram bucket math ------------------------------------------------

TEST(ObsMetrics, HistogramBucketMathRoundTrips) {
  // Every bucket boundary maps back to its own bucket, and every value lies
  // inside [bucket_lo, bucket_hi] of the bucket it is assigned to.
  for (int i = 0; i < Histogram::kBuckets; ++i) {
    EXPECT_EQ(Histogram::bucket_of(Histogram::bucket_lo(i)), i) << "lo of bucket " << i;
    EXPECT_EQ(Histogram::bucket_of(Histogram::bucket_hi(i)), i) << "hi of bucket " << i;
    EXPECT_LE(Histogram::bucket_lo(i), Histogram::bucket_hi(i));
  }
  for (std::uint64_t v : {0ull, 1ull, 2ull, 3ull, 4ull, 7ull, 8ull, 1000ull, 65535ull,
                          65536ull, ~0ull, ~0ull >> 1}) {
    int b = Histogram::bucket_of(v);
    EXPECT_GE(v, Histogram::bucket_lo(b)) << v;
    EXPECT_LE(v, Histogram::bucket_hi(b)) << v;
  }

  Histogram h;
  h.observe(0);
  h.observe(1);
  h.observe(5);
  h.observe(5);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.bucket(Histogram::bucket_of(0)), 1u);
  EXPECT_EQ(h.bucket(Histogram::bucket_of(1)), 1u);
  EXPECT_EQ(h.bucket(Histogram::bucket_of(5)), 2u);
}

TEST(ObsMetrics, RegistrySnapshotAndPolls) {
  Registry reg;
  reg.counter("c").inc(3);
  reg.counter("c").inc();  // find-or-create returns the same instrument
  reg.gauge("g").set(2.5);
  reg.histogram("h").observe(9);
  reg.register_poll("p", [] { return 7.0; });
  reg.register_poll("p", [] { return 8.0; });  // replace, not duplicate

  MetricsSnapshot s = reg.snapshot(1.25);
  EXPECT_DOUBLE_EQ(s.wall_seconds, 1.25);
  EXPECT_DOUBLE_EQ(s.value("c"), 4.0);
  EXPECT_DOUBLE_EQ(s.value("g"), 2.5);
  EXPECT_DOUBLE_EQ(s.value("p"), 8.0);
  ASSERT_EQ(s.histograms.size(), 1u);
  EXPECT_EQ(s.histograms[0].name, "h");
  EXPECT_EQ(s.histograms[0].count, 1u);

  reg.clear();
  MetricsSnapshot empty = reg.snapshot();
  EXPECT_TRUE(empty.counters.empty());
  EXPECT_TRUE(empty.gauges.empty());
  EXPECT_TRUE(empty.histograms.empty());
}

TEST(ObsMetrics, SeriesJsonParses) {
  Registry reg;
  reg.counter("events").inc(42);
  reg.gauge("depth").set(3);
  reg.histogram("lat").observe(100);
  std::vector<MetricsSnapshot> series = {reg.snapshot(0.5), reg.snapshot(1.0)};
  Json j = parse_or_die(metrics_json(series));
  const Json* snaps = j.find("snapshots");
  ASSERT_NE(snaps, nullptr);
  ASSERT_EQ(snaps->arr.size(), 2u);
  EXPECT_DOUBLE_EQ(snaps->arr[0].num_at("wall_seconds"), 0.5);
  const Json* counters = snaps->arr[0].find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_DOUBLE_EQ(counters->num_at("events"), 42.0);
}

// ---- trace ring -----------------------------------------------------------

TEST(ObsTrace, DisabledPathRecordsNothing) {
  stop_tracing();
  ASSERT_FALSE(tracing_enabled());
  TraceStats before = trace_stats();
  record_instant(kNameProgress, 0, 123);
  record_span(kNameAdvance, 0, 123, 1, 2);
  record_flow(true, 0, 123, 42);
  TraceStats after = trace_stats();
  EXPECT_EQ(after.recorded, before.recorded);
}

TEST(ObsTrace, RingDropsOldestUnderOverflow) {
  start_tracing(64);
  std::uint32_t track = intern_name("overflow-test");
  const int kEvents = 200;
  for (int i = 0; i < kEvents; ++i) {
    record_instant(kNameProgress, track, static_cast<SimTime>(i),
                   static_cast<std::uint64_t>(i));
  }
  stop_tracing();

  TraceStats s = trace_stats();
  EXPECT_EQ(s.recorded, static_cast<std::uint64_t>(kEvents));
  EXPECT_EQ(s.retained, 64u);
  EXPECT_EQ(s.dropped, static_cast<std::uint64_t>(kEvents) - 64u);
  EXPECT_EQ(s.threads, 1u);

  // The exported trace holds exactly the newest 64 instants (drop-oldest:
  // the retained args are the high end of the sequence).
  Json j = parse_or_die(chrome_trace_json());
  const Json* events = j.find("traceEvents");
  ASSERT_NE(events, nullptr);
  std::vector<double> args;
  for (const Json& e : events->arr) {
    if (e.str_at("ph") == "i") args.push_back(e.find("args")->num_at("arg"));
  }
  ASSERT_EQ(args.size(), 64u);
  for (std::size_t i = 0; i < args.size(); ++i) {
    EXPECT_DOUBLE_EQ(args[i], static_cast<double>(kEvents - 64 + static_cast<int>(i)));
  }
}

TEST(ObsTrace, FlowIdDeterministicAndSpread) {
  EXPECT_EQ(flow_id(1, 2), flow_id(1, 2));
  std::set<std::uint64_t> ids;
  for (std::uint64_t ts = 0; ts < 1000; ++ts) ids.insert(flow_id(0xABCD, ts));
  EXPECT_EQ(ids.size(), 1000u);  // no collisions over a dense timestamp run
}

// ---- end-to-end: trace a 2-component run ----------------------------------

TEST(ObsTrace, ChromeExportPairedSpansAndFlowArrows) {
  constexpr int kPings = 10;
  runtime::Simulation sim;
  auto& ch = sim.add_channel("c", {.latency = 500});
  auto& pinger = sim.add_component<Pinger>("pinger", ch.end_a(), kPings);
  auto& refl = sim.add_component<Reflector>("reflector", ch.end_b());

  ObsConfig oc;
  oc.trace = true;
  sim.set_obs(oc);
  sim.run(from_us(1.0), runtime::RunMode::kCoscheduled);

  ASSERT_EQ(refl.reflected, kPings);
  ASSERT_EQ(pinger.pongs, kPings);
  EXPECT_FALSE(tracing_enabled());  // run() stops the trace at teardown

  Json j = parse_or_die(chrome_trace_json());
  const Json* events = j.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_FALSE(events->arr.empty());

  int spans = 0;
  std::set<std::string> track_names;
  std::multiset<std::string> flow_begin_ids, flow_end_ids;
  for (const Json& e : events->arr) {
    std::string ph = e.str_at("ph");
    ASSERT_FALSE(ph.empty());
    if (ph == "M") {
      track_names.insert(e.find("args")->str_at("name"));
      continue;
    }
    EXPECT_DOUBLE_EQ(e.num_at("pid"), 1.0);
    EXPECT_GE(e.num_at("ts"), 0.0);
    if (ph == "X") {
      ++spans;
      EXPECT_GE(e.num_at("dur"), 0.0);
      EXPECT_FALSE(e.str_at("name").empty());
    } else if (ph == "s") {
      flow_begin_ids.insert(e.str_at("id"));
    } else if (ph == "f") {
      flow_end_ids.insert(e.str_at("id"));
      EXPECT_EQ(e.str_at("bp"), "e");  // bind the arrow to the enclosing slice
    }
  }

  // Each component contributes a named track and at least one advance span.
  EXPECT_TRUE(track_names.count("pinger") == 1);
  EXPECT_TRUE(track_names.count("reflector") == 1);
  EXPECT_GT(spans, 0);

  // One flow arrow per delivered data message: kPings pings + kPings pongs,
  // begin/end ids pairing up exactly.
  EXPECT_EQ(flow_begin_ids.size(), static_cast<std::size_t>(2 * kPings));
  EXPECT_EQ(flow_end_ids.size(), static_cast<std::size_t>(2 * kPings));
  EXPECT_EQ(flow_begin_ids, flow_end_ids);
  // Ids are distinct per message (strictly increasing wire timestamps).
  EXPECT_EQ(std::set<std::string>(flow_begin_ids.begin(), flow_begin_ids.end()).size(),
            static_cast<std::size_t>(2 * kPings));
}

TEST(ObsTrace, ParallelRunsTraceFlowsAndPeerWaits) {
  // Threaded and pooled runs both run on the worker pool: flow arrows pair
  // up, and every blocked wait (spun or parked) is one sync_wait span whose
  // wait_on names the peer — the edge obs::merge's critical path walks.
  constexpr int kPings = 25;
  const std::map<std::string, std::string> peer_of = {{"pinger", "reflector"},
                                                      {"reflector", "pinger"}};
  // One pooled worker for two components: waits park without spinning.
  for (auto [mode, workers] : {std::pair{runtime::RunMode::kThreaded, 0u},
                               std::pair{runtime::RunMode::kPooled, 1u}}) {
    SCOPED_TRACE(runtime::to_string(mode));
    runtime::Simulation sim;
    auto& ch = sim.add_channel("c", {.latency = 700});
    sim.add_component<Pinger>("pinger", ch.end_a(), kPings);
    auto& refl = sim.add_component<Reflector>("reflector", ch.end_b());
    ObsConfig oc;
    oc.trace = true;
    sim.set_obs(oc);
    runtime::RunStats st = sim.run(from_us(10.0), mode, workers);
    ASSERT_EQ(refl.reflected, kPings);
    EXPECT_EQ(st.pooled_workers.size(), mode == runtime::RunMode::kThreaded ? 2u : 1u);

    Json j = parse_or_die(chrome_trace_json());
    std::map<double, std::string> track_name;
    for (const Json& e : j.find("traceEvents")->arr) {
      if (e.str_at("ph") == "M" && e.str_at("name") == "thread_name") {
        track_name[e.num_at("tid")] = e.find("args")->str_at("name");
      }
    }
    int begins = 0, ends = 0;
    std::map<std::string, int> waits;
    for (const Json& e : j.find("traceEvents")->arr) {
      const std::string ph = e.str_at("ph");
      if (ph == "s") ++begins;
      if (ph == "f") ++ends;
      if (ph != "X") continue;
      EXPECT_NE(e.str_at("name"), "parked");
      if (e.str_at("name") != "sync_wait") continue;
      const std::string waiter = track_name[e.num_at("tid")];
      EXPECT_EQ(e.find("args")->str_at("wait_on"), peer_of.at(waiter));
      ++waits[waiter];
    }
    EXPECT_EQ(begins, 2 * kPings);
    EXPECT_EQ(ends, 2 * kPings);
    EXPECT_GT(waits["pinger"], 0);
    EXPECT_GT(waits["reflector"], 0);
  }
}

// ---- live metrics + progress ----------------------------------------------

TEST(ObsLive, RunProducesFinalMetricsSnapshot) {
  runtime::Simulation sim;
  auto& ch = sim.add_channel("c", {.latency = 500});
  sim.add_component<Pinger>("pinger", ch.end_a(), 10);
  sim.add_component<Reflector>("reflector", ch.end_b());
  ObsConfig oc;
  oc.metrics_period_ms = 5;
  sim.set_obs(oc);
  sim.run(from_us(1.0), runtime::RunMode::kCoscheduled);

  const auto& series = sim.metrics_series();
  ASSERT_FALSE(series.empty());  // stop() snapshots even sub-period runs
  const MetricsSnapshot& last = series.back();
  EXPECT_GT(last.value("comp.pinger.events_executed"), 0.0);
  // The reflector only reacts to deliveries (no kernel events of its own);
  // its activity shows up as executed batches.
  EXPECT_GT(last.value("comp.reflector.batches"), 0.0);
  EXPECT_DOUBLE_EQ(last.value("comp.pinger.sim_ns"),
                   static_cast<double>(from_us(1.0)) / 1e3);
  // Channel occupancy polls exist (zero after the run has drained).
  bool has_chan_poll = false;
  for (const auto& [name, v] : last.gauges) {
    if (name.rfind("chan.c.", 0) == 0) has_chan_poll = true;
  }
  EXPECT_TRUE(has_chan_poll);
}

TEST(ObsLive, TrunkGaugesReadTheAdaptersOwnCounts) {
  // A threaded run over an in-process shm channel: the reporter polls the
  // trunk gauges every millisecond while both component threads send, and
  // the final values are the two adapters' own counts summed.
  runtime::Simulation sim;
  auto& ch = sim.add_channel("c", {.latency = 10 * timeunit::ns, .ring_capacity = 64});
  sim.add_component<Pinger>("pinger", ch.end_a(), 1000);
  sim.add_component<Reflector>("reflector", ch.end_b());
  sync::ShmChannelParams sp;
  sp.channel_name = "c";
  sp.shm_name = sync::shm_segment_name("obslive." + std::to_string(::getpid()), "c");
  sp.latency = ch.config().latency;
  sp.ring_capacity = ch.config().ring_capacity;
  sp.create = true;
  ch.set_transport(std::make_unique<sync::ShmChannelTransport>(sp));
  ch.transport().start();
  ObsConfig oc;
  oc.metrics_period_ms = 1;
  sim.set_obs(oc);
  const runtime::RunStats st = sim.run(from_us(200.0), runtime::RunMode::kThreaded);
  ch.transport().stop();

  std::uint64_t syncs = 0;
  std::uint64_t datas = 0;
  for (const runtime::ComponentStats& c : st.components) {
    for (const runtime::AdapterStats& a : c.adapters) {
      syncs += a.totals.tx_syncs;
      datas += a.totals.tx_msgs;
    }
  }
  ASSERT_GT(syncs, 0u);
  ASSERT_FALSE(sim.metrics_series().empty());
  const MetricsSnapshot& last = sim.metrics_series().back();
  EXPECT_EQ(last.value("trunk.c.tx_syncs"), static_cast<double>(syncs));
  EXPECT_EQ(last.value("trunk.c.tx_datas"), static_cast<double>(datas));
  EXPECT_EQ(last.value("trunk.c.tx_frames"), static_cast<double>(syncs + datas + 2));
}

TEST(ObsLive, ProgressReporterEmitsLinesAndSeries) {
  Registry reg;
  reg.counter("ticks").inc(5);
  std::vector<std::string> lines;
  std::mutex mu;
  ProgressConfig cfg;
  cfg.progress_period_ms = 1;
  cfg.metrics_period_ms = 1;
  cfg.sim_end = from_us(100.0);
  cfg.sim_now = [] { return from_us(50.0); };
  cfg.registry = &reg;
  cfg.sink = [&](const std::string& l) {
    std::lock_guard<std::mutex> g(mu);
    lines.push_back(l);
  };
  Reporter rep;
  rep.start(cfg);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  rep.stop();
  auto series = rep.take_series();
  ASSERT_FALSE(lines.empty());
  ASSERT_FALSE(series.empty());
  EXPECT_DOUBLE_EQ(series.back().value("ticks"), 5.0);
  // Line shape: sim time, percentage, wall, speed.
  EXPECT_NE(lines[0].find("[splitsim] sim"), std::string::npos);
  EXPECT_NE(lines[0].find("50.0%"), std::string::npos);
  EXPECT_NE(lines[0].find("x realtime"), std::string::npos);
}

TEST(ObsLive, FormatProgressHandlesZeroAndDone) {
  std::string z = format_progress(0, 0, 0.0);
  EXPECT_NE(z.find("sim 0ns"), std::string::npos);
  EXPECT_EQ(z.find("eta"), std::string::npos);  // no end, no speed -> no eta
  std::string done = format_progress(from_ms(10.0), from_ms(10.0), 2.0);
  EXPECT_NE(done.find("100.0%"), std::string::npos);
  EXPECT_EQ(done.find("eta"), std::string::npos);
  std::string mid = format_progress(from_ms(5.0), from_ms(10.0), 2.0);
  EXPECT_NE(mid.find("eta"), std::string::npos);
}
