// Live event tracing for SplitSim runs (the "deep" pillar of the obs
// layer; see DESIGN.md "Observability").
//
// Design constraints, in order:
//  1. Disabled-path guarantee: when tracing is off, every record_* call is
//     one relaxed atomic load and a predicted-not-taken branch. No
//     allocation, no stores, no function call into the recorder.
//  2. Zero allocation on the hot path when enabled: records are fixed-size
//     PODs written into a preallocated per-thread ring buffer (lock-free —
//     each thread owns its ring exclusively; the registry of rings is only
//     locked on first use per thread and at export).
//  3. Bounded memory with drop-oldest semantics: when a ring wraps, the
//     oldest records are overwritten. A long run keeps the *tail* of the
//     story, which is what you want when diagnosing where it got stuck.
//
// Records are stamped with both wall cycles (rdcycles) and simulation time,
// and exported as Chrome trace-event JSON (open in Perfetto /
// ui.perfetto.dev, or chrome://tracing). Channel messages additionally emit
// flow begin/end pairs keyed by a (channel, wire-timestamp) hash, which
// both ends can compute independently — Perfetto renders them as arrows
// from the sending component's slice to the receiving one's.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "util/cycles.hpp"
#include "util/time.hpp"

namespace splitsim::obs {

// ---- record format --------------------------------------------------------

enum class TraceKind : std::uint16_t {
  kInstant = 0,    ///< point event at t0
  kSpan = 1,       ///< complete span [t0, t1] (Chrome "X" event)
  kFlowBegin = 2,  ///< message left a component (Chrome "s"), arg = flow id
  kFlowEnd = 3,    ///< message delivered (Chrome "f"), arg = flow id
  kCounter = 4,    ///< sampled counter value (Chrome "C"), arg = value
};

/// Fixed-size binary trace record (48 bytes). `track` selects the Perfetto
/// track (we use one per component simulator); `name` is an interned string
/// id; `sim` is the simulation time associated with the event.
struct TraceRecord {
  std::uint64_t t0 = 0;   ///< wall cycles (span begin / event time)
  std::uint64_t t1 = 0;   ///< wall cycles (span end; unused otherwise)
  std::uint64_t sim = 0;  ///< simulation time (ps)
  std::uint64_t arg = 0;  ///< flow id / user payload
  std::uint32_t name = 0;
  std::uint32_t track = 0;
  TraceKind kind = TraceKind::kInstant;
  std::uint16_t pad = 0;
};
static_assert(sizeof(TraceRecord) == 48, "trace records are fixed 48-byte binary");

/// Well-known interned span/event names (stable ids; intern_name() hands
/// out ids starting at kNameFirstDynamic).
enum : std::uint32_t {
  kNameAdvance = 1,   ///< one component batch (Component::advance)
  kNameSyncWait = 2,  ///< component blocked on a peer horizon (wait_on = peer)
  kNameDeliver = 4,   ///< adapter rx batch (deliver_all)
  kNameMsg = 5,       ///< channel data message (flow arrows)
  kNameProgress = 6,  ///< reporter progress tick
  kNameFirstDynamic = 16,
};

namespace detail {
extern std::atomic<bool> g_trace_enabled;
void record(const TraceRecord& r);
}  // namespace detail

/// True while a trace is being recorded. The ONLY check on disabled hot
/// paths — keep call sites shaped as `if (tracing_enabled()) { ... }`.
inline bool tracing_enabled() {
  return detail::g_trace_enabled.load(std::memory_order_relaxed);
}

/// Start recording into fresh per-thread rings of `ring_capacity` records
/// each (rounded up to a power of two). Resets any previous trace.
void start_tracing(std::size_t ring_capacity = std::size_t{1} << 16);

/// Qualify this process's trace shard: `pid` becomes the Chrome-trace pid of
/// every exported event (multi-process runs give each child a distinct rank-
/// derived pid), `name` the process_name metadata. Survives start_tracing();
/// defaults are pid 1 / no name (single-process traces are unchanged).
void set_trace_process(std::uint32_t pid, const std::string& name);

/// Override the wall-clock epoch used by the NEXT start_tracing() (0 resets
/// to "stamp rdcycles() at start"). run_multiprocess captures one rdcycles()
/// before forking and hands it to every child so all shards share a time
/// base exactly (forked children inherit the machine TSC); a cross-machine
/// launcher would instead derive per-host epochs from the transport hello
/// calibration exchange.
void set_trace_epoch(std::uint64_t epoch_tsc);

/// Stop recording. Recorded data stays available for export until the next
/// start_tracing().
void stop_tracing();

/// Intern `name`, returning a stable id usable as a record name or track.
/// Identical strings intern to the same id. Takes a lock — intern at setup
/// time, not on the hot path.
std::uint32_t intern_name(const std::string& name);

/// Name for an interned id ("?" if unknown).
std::string name_of(std::uint32_t id);

/// Flow id both channel ends can derive independently: sender hashes the
/// wire timestamp it just sent, receiver hashes the wire timestamp of the
/// message it delivers. Data timestamps are strictly increasing per
/// channel, so (channel, wire_ts) identifies one message.
inline std::uint64_t flow_id(std::uint64_t channel_hash, std::uint64_t wire_ts) {
  std::uint64_t x = channel_hash ^ (wire_ts + 0x9E3779B97F4A7C15ull);
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBull;
  x ^= x >> 31;
  return x;
}

// ---- recording (cheap no-ops while disabled) ------------------------------

inline void record_instant(std::uint32_t name, std::uint32_t track, SimTime sim,
                           std::uint64_t arg = 0) {
  if (!tracing_enabled()) return;
  std::uint64_t now = rdcycles();
  detail::record({now, now, sim, arg, name, track, TraceKind::kInstant, 0});
}

inline void record_span(std::uint32_t name, std::uint32_t track, SimTime sim,
                        std::uint64_t t0, std::uint64_t t1, std::uint64_t arg = 0) {
  if (!tracing_enabled()) return;
  detail::record({t0, t1, sim, arg, name, track, TraceKind::kSpan, 0});
}

inline void record_flow(bool begin, std::uint32_t track, SimTime sim, std::uint64_t id) {
  if (!tracing_enabled()) return;
  std::uint64_t now = rdcycles();
  detail::record({now, now, sim, id, kNameMsg, track,
                  begin ? TraceKind::kFlowBegin : TraceKind::kFlowEnd, 0});
}

/// Sampled counter value — exported as a Chrome "C" event so Perfetto draws
/// it as a counter track (trunk bytes/frames, futex parks, ...).
inline void record_counter(std::uint32_t name, std::uint32_t track, SimTime sim,
                           std::uint64_t value) {
  if (!tracing_enabled()) return;
  std::uint64_t now = rdcycles();
  detail::record({now, now, sim, value, name, track, TraceKind::kCounter, 0});
}

// ---- export ---------------------------------------------------------------

struct TraceStats {
  std::uint64_t recorded = 0;  ///< total records written (incl. overwritten)
  std::uint64_t retained = 0;  ///< records currently held in rings
  std::uint64_t dropped = 0;   ///< records lost to drop-oldest overwrite
  std::size_t threads = 0;     ///< per-thread rings in use
};
TraceStats trace_stats();

/// Render the whole trace as Chrome trace-event JSON (the
/// {"traceEvents": [...]} object form). Spans become complete "X" events,
/// instants "i", flows "s"/"f" pairs; each referenced track gets a
/// thread_name metadata record carrying the component name. Timestamps are
/// microseconds relative to start_tracing().
std::string chrome_trace_json();

/// Write chrome_trace_json() to `path`, creating parent directories.
void write_chrome_trace(const std::string& path);

}  // namespace splitsim::obs
