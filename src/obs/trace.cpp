#include "obs/trace.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <vector>

#include "obs/json.hpp"
#include "util/cycles.hpp"

namespace splitsim::obs {

namespace detail {
std::atomic<bool> g_trace_enabled{false};
}  // namespace detail

namespace {

struct ThreadRing {
  std::vector<TraceRecord> slots;  ///< power-of-two capacity, preallocated
  std::uint64_t head = 0;          ///< total records ever written (monotone)
};

/// Global recorder: owns every thread's ring. Rings are created under the
/// mutex (once per thread per trace) and then written lock-free by their
/// owning thread; export happens after the simulation's threads joined.
struct Recorder {
  std::mutex mu;
  std::vector<std::unique_ptr<ThreadRing>> rings;
  std::vector<std::string> names;  ///< intern table; index = id
  std::size_t capacity = std::size_t{1} << 16;
  std::uint64_t epoch_tsc = 0;       ///< rdcycles() at start_tracing
  std::uint64_t epoch_override = 0;  ///< nonzero: use as epoch_tsc instead
  std::uint64_t generation = 0;
  std::uint32_t process_pid = 1;  ///< Chrome-trace pid of this shard
  std::string process_name;       ///< process_name metadata (empty = omit)

  Recorder() { reset_names(); }

  void reset_names() {
    names.assign(kNameFirstDynamic, "?");
    names[0] = "?";
    names[kNameAdvance] = "advance";
    names[kNameSyncWait] = "sync_wait";
    names[kNameDeliver] = "deliver";
    names[kNameMsg] = "msg";
    names[kNameProgress] = "progress";
  }
};

Recorder& recorder() {
  static Recorder* r = new Recorder();  // leaked: usable during exit
  return *r;
}

struct ThreadSlot {
  ThreadRing* ring = nullptr;
  std::uint64_t generation = 0;
};
thread_local ThreadSlot t_slot;

ThreadRing* acquire_ring() {
  Recorder& r = recorder();
  std::lock_guard<std::mutex> g(r.mu);
  auto ring = std::make_unique<ThreadRing>();
  ring->slots.resize(r.capacity);
  ThreadRing* p = ring.get();
  r.rings.push_back(std::move(ring));
  t_slot.ring = p;
  t_slot.generation = r.generation;
  return p;
}

std::size_t round_pow2(std::size_t v) {
  std::size_t p = 2;
  while (p < v) p <<= 1;
  return p;
}

}  // namespace

namespace detail {

void record(const TraceRecord& rec) {
  Recorder& r = recorder();
  ThreadRing* ring = t_slot.ring;
  if (ring == nullptr || t_slot.generation != r.generation) ring = acquire_ring();
  ring->slots[ring->head & (ring->slots.size() - 1)] = rec;
  ++ring->head;
}

}  // namespace detail

void start_tracing(std::size_t ring_capacity) {
  Recorder& r = recorder();
  std::lock_guard<std::mutex> g(r.mu);
  r.rings.clear();  // invalidated via the generation bump below
  ++r.generation;
  r.capacity = round_pow2(ring_capacity < 16 ? 16 : ring_capacity);
  r.reset_names();
  r.epoch_tsc = r.epoch_override != 0 ? r.epoch_override : rdcycles();
  detail::g_trace_enabled.store(true, std::memory_order_release);
}

void set_trace_process(std::uint32_t pid, const std::string& name) {
  Recorder& r = recorder();
  std::lock_guard<std::mutex> g(r.mu);
  r.process_pid = pid == 0 ? 1 : pid;
  r.process_name = name;
}

void set_trace_epoch(std::uint64_t epoch_tsc) {
  Recorder& r = recorder();
  std::lock_guard<std::mutex> g(r.mu);
  r.epoch_override = epoch_tsc;
}

void stop_tracing() { detail::g_trace_enabled.store(false, std::memory_order_release); }

std::uint32_t intern_name(const std::string& name) {
  Recorder& r = recorder();
  std::lock_guard<std::mutex> g(r.mu);
  for (std::size_t i = 0; i < r.names.size(); ++i) {
    if (r.names[i] == name) return static_cast<std::uint32_t>(i);
  }
  r.names.push_back(name);
  return static_cast<std::uint32_t>(r.names.size() - 1);
}

std::string name_of(std::uint32_t id) {
  Recorder& r = recorder();
  std::lock_guard<std::mutex> g(r.mu);
  return id < r.names.size() ? r.names[id] : std::string("?");
}

TraceStats trace_stats() {
  Recorder& r = recorder();
  std::lock_guard<std::mutex> g(r.mu);
  TraceStats s;
  s.threads = r.rings.size();
  for (const auto& ring : r.rings) {
    s.recorded += ring->head;
    std::uint64_t kept = std::min<std::uint64_t>(ring->head, ring->slots.size());
    s.retained += kept;
    s.dropped += ring->head - kept;
  }
  return s;
}

std::string chrome_trace_json() {
  Recorder& r = recorder();
  std::lock_guard<std::mutex> g(r.mu);

  // Collect the retained window of every ring, oldest first, then order the
  // whole trace by begin time (Perfetto does not require sorted input, but
  // sorted output diffs and debugs better).
  std::vector<TraceRecord> recs;
  for (const auto& ring : r.rings) {
    std::uint64_t kept = std::min<std::uint64_t>(ring->head, ring->slots.size());
    std::uint64_t mask = ring->slots.size() - 1;
    for (std::uint64_t i = ring->head - kept; i < ring->head; ++i) {
      recs.push_back(ring->slots[i & mask]);
    }
  }
  std::stable_sort(recs.begin(), recs.end(),
                   [](const TraceRecord& a, const TraceRecord& b) { return a.t0 < b.t0; });

  const double cyc_per_us = cycles_per_second() / 1e6;
  auto us = [&](std::uint64_t tsc) {
    if (tsc <= r.epoch_tsc) return 0.0;
    return static_cast<double>(tsc - r.epoch_tsc) / cyc_per_us;
  };
  auto name_str = [&](std::uint32_t id) {
    return json_escape(id < r.names.size() ? r.names[id] : "?");
  };

  // Ring accounting goes into the export so consumers can tell a complete
  // trace from a drop-oldest-truncated one (unpaired flows are expected in
  // the latter).
  std::uint64_t recorded = 0, dropped = 0;
  for (const auto& ring : r.rings) {
    recorded += ring->head;
    std::uint64_t kept = std::min<std::uint64_t>(ring->head, ring->slots.size());
    dropped += ring->head - kept;
  }

  const unsigned pid = r.process_pid;
  std::string out;
  out.reserve(recs.size() * 96 + 4096);
  out += "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"recorded\":" +
         std::to_string(recorded) + ",\"dropped\":" + std::to_string(dropped) +
         ",\"pid\":" + std::to_string(pid) +
         ",\"process\":\"" + json_escape(r.process_name) + "\"},\"traceEvents\":[\n";

  bool first = true;
  char buf[320];
  if (!r.process_name.empty()) {
    std::snprintf(buf, sizeof(buf),
                  "{\"ph\":\"M\",\"pid\":%u,\"name\":\"process_name\","
                  "\"args\":{\"name\":\"%s\"}}",
                  pid, json_escape(r.process_name).c_str());
    out += buf;
    first = false;
  }

  // Track (thread) metadata: one per referenced track id, named after the
  // component the track was interned for.
  std::vector<std::uint32_t> tracks;
  for (const TraceRecord& rec : recs) tracks.push_back(rec.track);
  std::sort(tracks.begin(), tracks.end());
  tracks.erase(std::unique(tracks.begin(), tracks.end()), tracks.end());
  for (std::uint32_t t : tracks) {
    std::snprintf(buf, sizeof(buf),
                  "%s{\"ph\":\"M\",\"pid\":%u,\"tid\":%u,\"name\":\"thread_name\","
                  "\"args\":{\"name\":\"%s\"}}",
                  first ? "" : ",\n", pid, t, name_str(t).c_str());
    out += buf;
    first = false;
  }

  for (const TraceRecord& rec : recs) {
    const double sim_ns = static_cast<double>(rec.sim) / 1e3;
    switch (rec.kind) {
      case TraceKind::kSpan: {
        double ts = us(rec.t0);
        double dur = us(rec.t1) - ts;
        if (dur < 0) dur = 0;
        if (rec.name == kNameSyncWait && rec.arg != 0) {
          // Blocked-wait attribution: arg is the interned track id of the
          // limiting peer — the edge the critical-path pass walks.
          std::snprintf(buf, sizeof(buf),
                        "%s{\"ph\":\"X\",\"pid\":%u,\"tid\":%u,\"name\":\"%s\",\"ts\":%.3f,"
                        "\"dur\":%.3f,\"args\":{\"sim_ns\":%.3f,\"wait_on\":\"%s\"}}",
                        first ? "" : ",\n", pid, rec.track, name_str(rec.name).c_str(), ts,
                        dur, sim_ns,
                        name_str(static_cast<std::uint32_t>(rec.arg)).c_str());
        } else {
          std::snprintf(buf, sizeof(buf),
                        "%s{\"ph\":\"X\",\"pid\":%u,\"tid\":%u,\"name\":\"%s\",\"ts\":%.3f,"
                        "\"dur\":%.3f,\"args\":{\"sim_ns\":%.3f}}",
                        first ? "" : ",\n", pid, rec.track, name_str(rec.name).c_str(), ts,
                        dur, sim_ns);
        }
        break;
      }
      case TraceKind::kInstant:
        std::snprintf(buf, sizeof(buf),
                      "%s{\"ph\":\"i\",\"pid\":%u,\"tid\":%u,\"name\":\"%s\",\"ts\":%.3f,"
                      "\"s\":\"t\",\"args\":{\"sim_ns\":%.3f,\"arg\":%llu}}",
                      first ? "" : ",\n", pid, rec.track, name_str(rec.name).c_str(),
                      us(rec.t0), sim_ns, static_cast<unsigned long long>(rec.arg));
        break;
      case TraceKind::kCounter:
        std::snprintf(buf, sizeof(buf),
                      "%s{\"ph\":\"C\",\"pid\":%u,\"tid\":%u,\"name\":\"%s\",\"ts\":%.3f,"
                      "\"args\":{\"value\":%llu}}",
                      first ? "" : ",\n", pid, rec.track, name_str(rec.name).c_str(),
                      us(rec.t0), static_cast<unsigned long long>(rec.arg));
        break;
      case TraceKind::kFlowBegin:
      case TraceKind::kFlowEnd: {
        const bool begin = rec.kind == TraceKind::kFlowBegin;
        std::snprintf(buf, sizeof(buf),
                      "%s{\"ph\":\"%s\",%s\"pid\":%u,\"tid\":%u,\"cat\":\"channel\","
                      "\"name\":\"msg\",\"id\":\"0x%llx\",\"ts\":%.3f,"
                      "\"args\":{\"sim_ns\":%.3f}}",
                      first ? "" : ",\n", begin ? "s" : "f", begin ? "" : "\"bp\":\"e\",",
                      pid, rec.track, static_cast<unsigned long long>(rec.arg), us(rec.t0),
                      sim_ns);
        break;
      }
    }
    out += buf;
    first = false;
  }
  out += "\n]}\n";
  return out;
}

void write_chrome_trace(const std::string& path) {
  std::filesystem::path p(path);
  if (p.has_parent_path()) {
    std::error_code ec;
    std::filesystem::create_directories(p.parent_path(), ec);
  }
  std::ofstream os(path);
  os << chrome_trace_json();
}

}  // namespace splitsim::obs
