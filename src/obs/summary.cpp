#include "obs/summary.hpp"

#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "obs/json.hpp"
#include "obs/jsonread.hpp"
#include "obs/trace.hpp"

namespace splitsim::obs {

namespace {

std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016llx", static_cast<unsigned long long>(v));
  return buf;
}

void append_counters(std::string& out, const sync::ProfCounters& c) {
  out += "{\"tx_msgs\":" + std::to_string(c.tx_msgs);
  out += ",\"rx_msgs\":" + std::to_string(c.rx_msgs);
  out += ",\"tx_syncs\":" + std::to_string(c.tx_syncs);
  out += ",\"tx_nulls\":" + std::to_string(c.tx_nulls);
  out += ",\"tx_cycles\":" + std::to_string(c.tx_cycles);
  out += ",\"rx_cycles\":" + std::to_string(c.rx_cycles);
  out += ",\"sync_wait_cycles\":" + std::to_string(c.sync_wait_cycles);
  out += ",\"backpressure_stalls\":" + std::to_string(c.backpressure_stalls);
  out += "}";
}

void append_wire(std::string& out, const sync::WireStats& w) {
  out += "\"tx_frames\":" + std::to_string(w.tx_frames);
  out += ",\"tx_bytes\":" + std::to_string(w.tx_bytes);
  out += ",\"tx_syncs\":" + std::to_string(w.tx_syncs);
  out += ",\"tx_datas\":" + std::to_string(w.tx_datas);
  out += ",\"futex_parks\":" + std::to_string(w.futex_parks);
  out += ",\"futex_wakes\":" + std::to_string(w.futex_wakes);
}

void append_snapshot(std::string& out, const MetricsSnapshot& s) {
  out += "{\"wall_seconds\":" + json_num(s.wall_seconds);
  out += ",\"counters\":{";
  bool first = true;
  for (const auto& [n, v] : s.counters) {
    if (!first) out += ",";
    first = false;
    out += "\"" + json_escape(n) + "\":" + json_num(v);
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [n, v] : s.gauges) {
    if (!first) out += ",";
    first = false;
    out += "\"" + json_escape(n) + "\":" + json_num(v);
  }
  out += "}}";
}

}  // namespace

std::string summary_json(const SummaryInputs& in) {
  std::string out = "{\n";

  if (in.stats != nullptr) {
    const runtime::RunStats& st = *in.stats;
    out += "\"run\":{";
    out += "\"mode\":\"" + runtime::to_string(st.mode) + "\"";
    out += ",\"sim_seconds\":" + json_num(st.sim_seconds());
    out += ",\"sim_ps\":" + std::to_string(st.sim_time);
    char wall[32];
    std::snprintf(wall, sizeof(wall), "%.17g", st.wall_seconds);
    out += ",\"wall_seconds\":" + std::string(wall);
    out += ",\"wall_cycles\":" + std::to_string(st.wall_cycles);
    out += ",\"sim_speed\":" + json_num(st.sim_speed());
    out += ",\"outcome\":\"" + runtime::to_string(st.outcome) + "\"";
    if (st.outcome != runtime::RunOutcome::kCompleted) {
      out += ",\"error\":\"" + json_escape(st.error) + "\"";
      out += ",\"error_kind\":" + std::to_string(static_cast<int>(st.error_kind));
      out += ",\"error_cause\":\"" + json_escape(st.error_cause) + "\"";
      out += ",\"error_component\":\"" + json_escape(st.error_component) + "\"";
      out += ",\"error_sim_ns\":" + std::to_string(to_ns(st.error_sim_time));
      out += ",\"error_sim_ps\":" + std::to_string(st.error_sim_time);
    }
    out += ",\"digest\":\"" + hex64(st.digest.value()) + "\"";
    out += ",\"digest_xor\":\"" + hex64(st.digest.fold_xor) + "\"";
    out += ",\"digest_sum\":\"" + hex64(st.digest.fold_sum) + "\"";
    out += ",\"digest_count\":" + std::to_string(st.digest.count);
    out += ",\"sched_polls\":" + std::to_string(st.sched_polls);
    out += ",\"sched_segments\":" + std::to_string(st.sched_segments);
    out += ",\"sched_cycles\":" + std::to_string(st.sched_cycles);
    if (!st.pooled_workers.empty()) {
      // Per-worker pooled scheduling stats: the load-imbalance view (empty
      // for coscheduled runs).
      out += ",\"workers\":[";
      bool firstw = true;
      for (const runtime::PooledWorkerStats& w : st.pooled_workers) {
        if (!firstw) out += ",";
        firstw = false;
        out += "{\"quanta\":" + std::to_string(w.quanta);
        out += ",\"busy_cycles\":" + std::to_string(w.busy_cycles);
        out += ",\"sched_parks\":" + std::to_string(w.sched_parks);
        out += ",\"sched_park_cycles\":" + std::to_string(w.sched_park_cycles);
        out += "}";
      }
      out += "]";
    }
    out += ",\"components\":[";
    bool firstc = true;
    for (const runtime::ComponentStats& c : st.components) {
      if (!firstc) out += ",";
      firstc = false;
      out += "\n{\"name\":\"" + json_escape(c.name) + "\"";
      out += ",\"events\":" + std::to_string(c.events);
      out += ",\"batches\":" + std::to_string(c.batches);
      out += ",\"sync_only_batches\":" + std::to_string(c.sync_only_batches);
      out += ",\"busy_cycles\":" + std::to_string(c.busy_cycles);
      out += ",\"wall_cycles\":" + std::to_string(c.wall_cycles);
      out += ",\"adapters\":[";
      bool firsta = true;
      for (const runtime::AdapterStats& a : c.adapters) {
        if (!firsta) out += ",";
        firsta = false;
        out += "{\"adapter\":\"" + json_escape(a.adapter) + "\"";
        out += ",\"peer\":\"" + json_escape(a.peer_component) + "\"";
        out += ",\"counters\":";
        append_counters(out, a.totals);
        if (a.wire) {
          out += ",\"wire\":{";
          append_wire(out, *a.wire);
          out += "}";
        }
        out += "}";
      }
      out += "]";
      out += "}";
    }
    out += "]}";
  }

  if (in.report != nullptr) {
    const profiler::ProfileReport& r = *in.report;
    if (out.size() > 2) out += ",\n";
    out += "\"profile\":{";
    out += "\"sim_speed\":" + json_num(r.sim_speed);
    out += ",\"components\":[";
    bool firstc = true;
    for (const profiler::ComponentReport& c : r.components) {
      if (!firstc) out += ",";
      firstc = false;
      out += "\n{\"name\":\"" + json_escape(c.name) + "\"";
      out += ",\"efficiency\":" + json_num(c.efficiency);
      out += ",\"waiting_fraction\":" + json_num(c.waiting_fraction);
      out += ",\"load_cycles_per_simsec\":" + json_num(c.load_cycles_per_simsec);
      out += ",\"adapters\":[";
      bool firsta = true;
      for (const profiler::AdapterReport& a : c.adapters) {
        if (!firsta) out += ",";
        firsta = false;
        out += "{\"adapter\":\"" + json_escape(a.adapter) + "\"";
        out += ",\"peer\":\"" + json_escape(a.peer_component) + "\"";
        out += ",\"wait_fraction\":" + json_num(a.wait_fraction);
        out += "}";
      }
      out += "]}";
    }
    out += "]}";
  }

  if (in.metrics != nullptr) {
    if (out.size() > 2) out += ",\n";
    out += "\"metrics\":";
    append_snapshot(out, *in.metrics);
  }

  if (in.processes != nullptr) {
    if (out.size() > 2) out += ",\n";
    out += "\"processes\":[";
    bool firstp = true;
    for (const ProcessSummary& p : *in.processes) {
      if (!firstp) out += ",";
      firstp = false;
      out += "\n{\"name\":\"" + json_escape(p.name) + "\"";
      out += ",\"outcome\":\"" + json_escape(p.outcome) + "\"";
      out += ",\"digest\":\"" + hex64(p.digest) + "\"";
      out += ",\"wall_seconds\":" + json_num(p.wall_seconds);
      out += ",\"sim_speed\":" + json_num(p.sim_speed);
      out += ",\"trunk_rx_msgs\":" + std::to_string(p.trunk_rx_msgs);
      out += ",\"wire_tx_frames\":" + std::to_string(p.wire.tx_frames);
      out += ",\"wire_tx_bytes\":" + std::to_string(p.wire.tx_bytes);
      out += ",\"wire_tx_syncs\":" + std::to_string(p.wire.tx_syncs);
      out += ",\"wire_tx_datas\":" + std::to_string(p.wire.tx_datas);
      out += ",\"futex_parks\":" + std::to_string(p.wire.futex_parks);
      out += ",\"futex_wakes\":" + std::to_string(p.wire.futex_wakes);
      out += "}";
    }
    out += "]";
  }

  if (in.fleet != nullptr) {
    if (out.size() > 2) out += ",\n";
    out += "\"fleet\":";
    append_snapshot(out, *in.fleet);
  }

  if (in.merge != nullptr) {
    if (out.size() > 2) out += ",\n";
    out += "\"trace_merge\":{";
    out += "\"shards\":" + std::to_string(in.merge->shards);
    out += ",\"events\":" + std::to_string(in.merge->events);
    out += ",\"recorded\":" + std::to_string(in.merge->recorded);
    out += ",\"dropped\":" + std::to_string(in.merge->dropped);
    out += ",\"flow_pairs\":" + std::to_string(in.merge->flow_pairs);
    out += ",\"cross_process_flow_pairs\":" +
           std::to_string(in.merge->cross_process_flow_pairs);
    out += "}";
  }

  if (in.critical_path != nullptr) {
    if (out.size() > 2) out += ",\n";
    out += "\"critical_path\":" + critical_path_json(*in.critical_path);
  }

  if (in.ckpt != nullptr) {
    const CkptSummary& ck = *in.ckpt;
    if (out.size() > 2) out += ",\n";
    out += "\"checkpoint\":{";
    out += std::string("\"enabled\":") + (ck.enabled ? "true" : "false");
    out += ",\"dir\":\"" + json_escape(ck.dir) + "\"";
    out += ",\"snapshots_written\":" + std::to_string(ck.snapshots_written);
    out += ",\"last_boundary_ms\":" + json_num(ck.last_boundary_ms);
    out += std::string(",\"resumed\":") + (ck.resumed ? "true" : "false");
    if (ck.resumed) {
      out += ",\"resume_boundary_ms\":" + json_num(ck.resume_boundary_ms);
      out += std::string(",\"resume_verified\":") + (ck.resume_verified ? "true" : "false");
    }
    out += "}";
  }

  if (in.traced) {
    const TraceStats ts = trace_stats();
    if (out.size() > 2) out += ",\n";
    out += "\"trace\":{";
    out += "\"recorded\":" + std::to_string(ts.recorded);
    out += ",\"retained\":" + std::to_string(ts.retained);
    out += ",\"dropped\":" + std::to_string(ts.dropped);
    out += ",\"threads\":" + std::to_string(ts.threads);
    out += "}";
  }

  out += "\n}\n";
  return out;
}

void write_summary_json(const std::string& path, const SummaryInputs& in) {
  std::filesystem::path p(path);
  if (p.has_parent_path()) {
    std::error_code ec;
    std::filesystem::create_directories(p.parent_path(), ec);
  }
  std::ofstream os(path);
  os << summary_json(in);
}

namespace {

// Field accessors for read_run_stats: each throws std::runtime_error naming
// the field when it is absent or mistyped.

const JsonValue& member(const JsonValue& o, const char* key) {
  const JsonValue* v = o.find(key);
  if (v == nullptr) throw std::runtime_error(std::string("missing '") + key + "'");
  return *v;
}

std::uint64_t read_u64(const JsonValue& o, const char* key) {
  std::uint64_t v = 0;
  if (!member(o, key).to_u64(v)) {
    throw std::runtime_error(std::string("'") + key + "' is not an unsigned integer");
  }
  return v;
}

std::uint64_t read_hex64(const JsonValue& o, const char* key) {
  const JsonValue& v = member(o, key);
  const std::string& s = v.string;
  if (!v.is_string() || s.size() < 3 || s.size() > 18 || s.compare(0, 2, "0x") != 0 ||
      s.find_first_not_of("0123456789abcdef", 2) != std::string::npos) {
    throw std::runtime_error(std::string("'") + key + "' is not a 0x-prefixed hex value");
  }
  return std::stoull(s.substr(2), nullptr, 16);
}

const std::string& read_str(const JsonValue& o, const char* key) {
  const JsonValue& v = member(o, key);
  if (!v.is_string()) throw std::runtime_error(std::string("'") + key + "' is not a string");
  return v.string;
}

const std::vector<JsonValue>& read_array(const JsonValue& o, const char* key) {
  const JsonValue& v = member(o, key);
  if (!v.is_array()) throw std::runtime_error(std::string("'") + key + "' is not an array");
  return v.array;
}

sync::ProfCounters read_counters(const JsonValue& o) {
  sync::ProfCounters c;
  c.tx_msgs = read_u64(o, "tx_msgs");
  c.rx_msgs = read_u64(o, "rx_msgs");
  c.tx_syncs = read_u64(o, "tx_syncs");
  c.tx_nulls = read_u64(o, "tx_nulls");
  c.tx_cycles = read_u64(o, "tx_cycles");
  c.rx_cycles = read_u64(o, "rx_cycles");
  c.sync_wait_cycles = read_u64(o, "sync_wait_cycles");
  c.backpressure_stalls = read_u64(o, "backpressure_stalls");
  return c;
}

sync::WireStats read_wire(const JsonValue& o) {
  return {read_u64(o, "tx_frames"),   read_u64(o, "tx_bytes"),
          read_u64(o, "tx_syncs"),    read_u64(o, "tx_datas"),
          read_u64(o, "futex_parks"), read_u64(o, "futex_wakes")};
}

runtime::RunStats parse_run(const JsonValue& run) {
  if (!run.is_object()) throw std::runtime_error("no 'run' object");
  runtime::RunStats rs;
  const std::string& mode = read_str(run, "mode");
  if (mode == "threaded") rs.mode = runtime::RunMode::kThreaded;
  else if (mode == "pooled") rs.mode = runtime::RunMode::kPooled;
  else if (mode == "coscheduled") rs.mode = runtime::RunMode::kCoscheduled;
  else throw std::runtime_error("unknown mode '" + mode + "'");
  rs.sim_time = read_u64(run, "sim_ps");
  rs.wall_seconds = run.num("wall_seconds");
  rs.wall_cycles = read_u64(run, "wall_cycles");
  rs.digest.fold_xor = read_hex64(run, "digest_xor");
  rs.digest.fold_sum = read_hex64(run, "digest_sum");
  rs.digest.count = read_u64(run, "digest_count");
  rs.sched_polls = read_u64(run, "sched_polls");
  rs.sched_segments = read_u64(run, "sched_segments");
  rs.sched_cycles = read_u64(run, "sched_cycles");
  if (const JsonValue* workers = run.find("workers")) {
    if (!workers->is_array()) throw std::runtime_error("'workers' is not an array");
    for (const JsonValue& w : workers->array) {
      rs.pooled_workers.push_back({read_u64(w, "quanta"), read_u64(w, "busy_cycles"),
                                   read_u64(w, "sched_parks"),
                                   read_u64(w, "sched_park_cycles")});
    }
  }
  const std::string& outcome = read_str(run, "outcome");
  if (outcome == "error") {
    rs.outcome = runtime::RunOutcome::kError;
    std::uint64_t kind = read_u64(run, "error_kind");
    if (kind > static_cast<std::uint64_t>(runtime::ErrorKind::kSyncViolation)) {
      throw std::runtime_error("error_kind " + std::to_string(kind) +
                               " is not a known ErrorKind");
    }
    rs.error_kind = static_cast<runtime::ErrorKind>(kind);
    rs.error = read_str(run, "error");
    rs.error_cause = read_str(run, "error_cause");
    rs.error_component = read_str(run, "error_component");
    rs.error_sim_time = read_u64(run, "error_sim_ps");
  } else if (outcome != "completed") {
    throw std::runtime_error("unknown outcome '" + outcome + "'");
  }
  for (const JsonValue& c : read_array(run, "components")) {
    runtime::ComponentStats cs;
    cs.name = read_str(c, "name");
    cs.events = read_u64(c, "events");
    cs.batches = read_u64(c, "batches");
    cs.sync_only_batches = read_u64(c, "sync_only_batches");
    cs.busy_cycles = read_u64(c, "busy_cycles");
    cs.wall_cycles = read_u64(c, "wall_cycles");
    for (const JsonValue& a : read_array(c, "adapters")) {
      runtime::AdapterStats as;
      as.adapter = read_str(a, "adapter");
      as.component = cs.name;
      as.peer_component = read_str(a, "peer");
      as.totals = read_counters(member(a, "counters"));
      if (const JsonValue* w = a.find("wire")) as.wire = read_wire(*w);
      cs.adapters.push_back(std::move(as));
    }
    rs.components.push_back(std::move(cs));
  }
  return rs;
}

}  // namespace

std::optional<runtime::RunStats> read_run_stats(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::ostringstream text;
  text << in.rdbuf();
  // A process killed mid-write leaves a truncated or garbled record. That
  // is a failure for the reader to attribute, never a reason to crash it.
  try {
    JsonValue doc;
    std::string err;
    if (!json_parse(text.str(), doc, err)) throw std::runtime_error(err);
    const JsonValue* run = doc.find("run");
    if (run == nullptr) throw std::runtime_error("no 'run' object");
    return parse_run(*run);
  } catch (const std::exception& e) {
    runtime::RunStats bad;
    bad.record_error(runtime::SimulationError(
        runtime::ErrorKind::kTransport, "", 0,
        "corrupt-report: unparsable run record '" + path + "': " + e.what()));
    return bad;
  }
}

}  // namespace splitsim::obs
