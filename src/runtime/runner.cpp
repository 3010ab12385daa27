#include "runtime/runner.hpp"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "runtime/pooled.hpp"
#include "sync/transport.hpp"
#include "util/cycles.hpp"

namespace splitsim::runtime {

std::string to_string(RunMode mode) {
  switch (mode) {
    case RunMode::kThreaded:
      return "threaded";
    case RunMode::kCoscheduled:
      return "coscheduled";
    case RunMode::kPooled:
      return "pooled";
  }
  return "?";
}

void RunStats::record_error(const SimulationError& e) {
  outcome = RunOutcome::kError;
  error = e.what();
  error_kind = e.kind();
  error_cause = e.cause();
  error_component = e.component();
  error_sim_time = e.sim_time();
}

std::string to_string(RunOutcome o) {
  switch (o) {
    case RunOutcome::kCompleted:
      return "completed";
    case RunOutcome::kError:
      return "error";
  }
  return "?";
}

namespace {

/// Runs `fn` at scope exit unless run_now() already did — exception-safe
/// teardown for state that must not outlive a failed run (global tracing,
/// the reporter thread, channel abort flags).
template <typename F>
class ScopeGuard {
 public:
  explicit ScopeGuard(F fn) : fn_(std::move(fn)) {}
  ~ScopeGuard() {
    if (armed_) fn_();
  }
  ScopeGuard(const ScopeGuard&) = delete;
  ScopeGuard& operator=(const ScopeGuard&) = delete;

  /// Run the teardown now (idempotent; the destructor becomes a no-op).
  void run_now() {
    if (armed_) {
      armed_ = false;
      fn_();
    }
  }

 private:
  F fn_;
  bool armed_ = true;
};

/// `ms` wall milliseconds in cycle units; 0 stays 0 without calibrating the
/// cycle clock (the first cycles_per_second() call sleeps ~20 ms).
std::uint64_t ms_to_cycles(std::uint64_t ms) {
  return ms == 0 ? 0
                 : static_cast<std::uint64_t>(cycles_per_second() * static_cast<double>(ms) / 1e3);
}

/// Indexed binary min-heap over the coscheduled runner's component slots,
/// ordered by (polls[slot].next, slot). The slot tie-break picks the first
/// of equal candidates in `active` order, as a linear scan would. Every
/// slot stays in the heap for the whole run; update() restores the order
/// after a slot's key moved in either direction.
class SlotHeap {
 public:
  explicit SlotHeap(const std::vector<Poll>& polls) : polls_(polls), pos_(polls.size()) {
    heap_.reserve(polls.size());
    for (std::uint32_t s = 0; s < polls.size(); ++s) {
      heap_.push_back(s);
      sift_up(s);
    }
  }

  bool empty() const { return heap_.empty(); }
  std::uint32_t top() const { return heap_[0]; }

  void update(std::uint32_t slot) {
    sift_up(pos_[slot]);
    sift_down(pos_[slot]);
  }

 private:
  SimTime key(std::uint32_t s) const { return polls_[s].next; }
  bool before(std::uint32_t a, std::uint32_t b) const {
    return key(a) < key(b) || (key(a) == key(b) && a < b);
  }
  void place(std::size_t i, std::uint32_t s) {
    heap_[i] = s;
    pos_[s] = static_cast<std::uint32_t>(i);
  }
  void sift_up(std::size_t i) {
    std::uint32_t s = heap_[i];
    for (; i > 0 && before(s, heap_[(i - 1) / 2]); i = (i - 1) / 2) place(i, heap_[(i - 1) / 2]);
    place(i, s);
  }
  void sift_down(std::size_t i) {
    std::uint32_t s = heap_[i];
    for (std::size_t c; (c = 2 * i + 1) < heap_.size(); i = c) {
      if (c + 1 < heap_.size() && before(heap_[c + 1], heap_[c])) ++c;
      if (!before(heap_[c], s)) break;
      place(i, heap_[c]);
    }
    place(i, s);
  }

  const std::vector<Poll>& polls_;
  std::vector<std::uint32_t> heap_;
  std::vector<std::uint32_t> pos_;
};

}  // namespace

sync::Channel& Simulation::add_channel(std::string name, sync::ChannelConfig cfg) {
  channels_.push_back(std::make_unique<sync::Channel>(std::move(name), cfg));
  // Blocking sends must observe the run's abort, or a producer whose
  // consumer died keeps waiting for ring space forever.
  channels_.back()->set_abort_flag(&abort_.flag());
  return *channels_.back();
}

void Simulation::set_active_components(std::vector<std::string> names) {
  active_names_ = std::move(names);
}

bool Simulation::component_active(const Component& c) const {
  if (active_names_.empty()) return true;
  return std::find(active_names_.begin(), active_names_.end(), c.name()) != active_names_.end();
}

void Simulation::fail_run(std::exception_ptr e) { abort_.fail(std::move(e)); }

std::string Simulation::describe() {
  resolve_peers({});
  std::ostringstream os;
  os << "simulation: " << components_.size() << " simulator instances, " << channels_.size()
     << " channels\n";
  for (auto& c : components_) {
    os << "  " << c->name();
    if (c->adapters().empty()) {
      os << " (no channels)\n";
      continue;
    }
    os << "\n";
    for (auto& a : c->adapters()) {
      os << "    " << a->name() << " -> "
         << (a->peer_component().empty() ? "(unattached)" : a->peer_component()) << " via "
         << a->end().channel_name() << " (latency " << to_us(a->config().latency) << " us)\n";
    }
  }
  return os.str();
}

PeerIndex Simulation::resolve_peers(const std::vector<Component*>& active) {
  // One end -> (owner, active slot) map names every adapter's peer and
  // indexes the active components' peers.
  std::unordered_map<const sync::ChannelEnd*, std::pair<Component*, std::uint32_t>> owner;
  for (auto& c : components_) {
    for (auto& a : c->adapters()) owner[&a->end()] = {c.get(), PeerIndex::kNoPeer};
  }
  for (std::uint32_t s = 0; s < active.size(); ++s) {
    for (auto& a : active[s]->adapters()) owner[&a->end()].second = s;
  }
  auto owner_of_peer = [&owner](sync::Adapter& a) {
    sync::Channel& ch = a.end().channel();
    auto it = owner.find(&ch.end_a() == &a.end() ? &ch.end_b() : &ch.end_a());
    return it != owner.end() ? &it->second : nullptr;
  };
  for (auto& c : components_) {
    for (auto& a : c->adapters()) {
      if (auto* o = owner_of_peer(*a)) a->set_peer_component(o->first->name());
    }
  }
  PeerIndex index;
  index.peers.resize(active.size());
  for (std::uint32_t s = 0; s < active.size(); ++s) {
    for (auto& a : active[s]->adapters()) {
      auto* o = owner_of_peer(*a);
      index.peers[s].push_back(o != nullptr ? o->second : PeerIndex::kNoPeer);
    }
  }
  return index;
}

RunStats Simulation::run(SimTime end, RunMode mode, unsigned workers) {
  // Cross-process transports keep their channels in kBlocking whatever is
  // asked here (Channel::set_mode).
  sync::ChannelMode cm = mode == RunMode::kCoscheduled ? sync::ChannelMode::kSpillSingleThread
                                                       : sync::ChannelMode::kSpillLocked;
  for (auto& ch : channels_) ch->set_mode(cm);

  // Process mode: the full system is constructed in every process (for
  // deterministic wiring), but only this process's partition group runs.
  std::vector<Component*> active;
  active.reserve(components_.size());
  for (auto& c : components_) {
    if (component_active(*c)) active.push_back(c.get());
  }
  const PeerIndex peers = resolve_peers(active);

  // ---- observability setup (all no-ops when obs_ is default) ----------
  metrics_series_.clear();
  counter_track_ids_.clear();
  pooled_workers_.clear();
  sched_polls_ = 0;
  sched_segments_ = 0;
  sched_cycles_ = 0;
  if (obs_.any()) {
    // Calibrate the cycle clock before component threads start: the first
    // cycles_per_second() call sleeps ~20ms.
    cycles_per_second();
  }
  if (obs_.trace) {
    obs::start_tracing();
    for (Component* c : active) {
      std::uint32_t track = obs::intern_name(c->name());
      c->set_trace_track(track);
      for (auto& a : c->adapters()) {
        a->set_trace_track(track);
        // Wait attribution: sync_wait spans name the peer they block on
        // (interned even for components active in another process — the
        // name is what the critical-path pass keys on).
        if (!a->peer_component().empty()) {
          a->set_peer_trace_track(obs::intern_name(a->peer_component()));
        }
      }
    }
  }
  const std::uint64_t publish_period_cycles = ms_to_cycles(obs_.metrics_period_ms);
  if (obs_.live()) {
    for (Component* c : active) c->enable_obs(metrics_, publish_period_cycles);
    for (auto& ch : channels_) {
      // Channel-side polls are evaluated on the reporter thread; every read
      // is atomic (ring head/tail, spill counts, stall counters).
      const std::string p = "chan." + ch->name() + ".";
      metrics_.register_poll(p + "a.rx_depth", [e = &ch->end_a()] {
        return static_cast<double>(e->rx_ring_depth() + e->rx_spill_depth());
      });
      metrics_.register_poll(p + "b.rx_depth", [e = &ch->end_b()] {
        return static_cast<double>(e->rx_ring_depth() + e->rx_spill_depth());
      });
      metrics_.register_poll(p + "a.tx_stalls", [e = &ch->end_a()] {
        return static_cast<double>(e->tx_backpressure_stalls());
      });
      metrics_.register_poll(p + "b.tx_stalls", [e = &ch->end_b()] {
        return static_cast<double>(e->tx_backpressure_stalls());
      });
      // Cross-process transports additionally expose wire-level counters:
      // the frames, bytes, SYNCs and data this process's adapters put on
      // the trunk, futex park/wake counts (shm), and the hello-time clock
      // skew (sockets).
      sync::WireCounters* w = ch->transport().wire_counters();
      if (w == nullptr) continue;
      const std::string t = "trunk." + ch->name() + ".";
      std::vector<const sync::Adapter*> local;
      for (Component* c : active) {
        for (auto& a : c->adapters()) {
          if (&a->end().channel() == ch.get()) local.push_back(a.get());
        }
      }
      auto sum = [local](std::uint64_t sync::WireStats::*field) {
        return [local, field] {
          std::uint64_t n = 0;
          for (const sync::Adapter* a : local) n += (*a->wire_stats()).*field;
          return static_cast<double>(n);
        };
      };
      metrics_.register_poll(t + "tx_frames", sum(&sync::WireStats::tx_frames));
      metrics_.register_poll(t + "tx_bytes", sum(&sync::WireStats::tx_bytes));
      metrics_.register_poll(t + "tx_syncs", sum(&sync::WireStats::tx_syncs));
      metrics_.register_poll(t + "tx_datas", sum(&sync::WireStats::tx_datas));
      metrics_.register_poll(t + "futex_parks", [w] {
        return static_cast<double>(w->futex_parks.load(std::memory_order_relaxed));
      });
      metrics_.register_poll(t + "futex_wakes", [w] {
        return static_cast<double>(w->futex_wakes.load(std::memory_order_relaxed));
      });
      metrics_.register_poll(t + "clock_skew_cycles", [w] {
        return static_cast<double>(w->clock_skew_cycles.load(std::memory_order_relaxed));
      });
    }
  }
  obs::Reporter reporter;
  if (obs_.live()) {
    obs::ProgressConfig pc;
    pc.progress_period_ms = obs_.progress_period_ms;
    pc.metrics_period_ms = obs_.metrics_period_ms;
    pc.sim_end = end;
    pc.registry = &metrics_;
    std::vector<Component*> comps = active;
    // Whole-run progress = the slowest component's published sim time.
    pc.sim_now = [comps = std::move(comps)]() {
      SimTime t = kSimTimeMax;
      for (Component* c : comps) t = std::min(t, c->live_sim_time());
      return comps.empty() ? SimTime{0} : t;
    };
    pc.on_progress = obs_.on_progress;
    // Snapshot hook: sample trunk gauges into Perfetto counter tracks when
    // tracing, then forward to any external consumer (the control channel of
    // a multi-process child). Runs on the reporter thread, outside its lock.
    const bool counter_tracks = obs_.trace;
    pc.on_snapshot = [this, counter_tracks](SimTime sim_now, double wall,
                                            const obs::MetricsSnapshot& snap) {
      if (counter_tracks && obs::tracing_enabled()) {
        for (const auto& [name, value] : snap.gauges) {
          if (name.rfind("trunk.", 0) != 0) continue;
          auto it = counter_track_ids_.find(name);
          if (it == counter_track_ids_.end()) {
            it = counter_track_ids_.emplace(name, obs::intern_name(name)).first;
          }
          obs::record_counter(it->second, it->second, sim_now,
                              value < 0 ? 0 : static_cast<std::uint64_t>(value));
        }
      }
      if (obs_.on_snapshot) obs_.on_snapshot(sim_now, wall, snap);
    };
    reporter.start(std::move(pc));
  }

  // Observability teardown must run on the throw path too: a failed run
  // that leaves global tracing enabled or the reporter thread alive would
  // corrupt every subsequent run in the process. The guard fires at scope
  // exit unless the normal path already ran it.
  ScopeGuard obs_teardown([this, &reporter, &active] {
    if (obs_.live()) {
      // Final publish from the control thread (component threads have
      // joined), then stop() takes the final snapshot from published state.
      for (Component* c : active) c->publish_obs_metrics();
    }
    if (reporter.running()) {
      reporter.stop();
      metrics_series_ = reporter.take_series();
    }
    if (obs_.trace) obs::stop_tracing();  // data stays exportable
  });

  // Outside the timed region: the first cycles_per_second() call sleeps.
  // Coscheduled runs do not need the watchdog and never calibrate here.
  PooledOptions opts;
  if (mode != RunMode::kCoscheduled) {
    // Threaded is the pool with one worker per component.
    opts.workers = mode == RunMode::kThreaded ? static_cast<unsigned>(active.size()) : workers;
    opts.watchdog_cycles = ms_to_cycles(watchdog_ms_);
  }

  auto wall_start = std::chrono::steady_clock::now();
  std::uint64_t cyc_start = rdcycles();

  std::exception_ptr run_error;
  try {
    for (Component* c : active) c->prepare(end);

    if (mode == RunMode::kCoscheduled) {
      run_coscheduled(active, peers, end);
    } else {
      // A failure fail_run() reported before the run started aborts it at
      // once; the slot is cleared for the next run on every exit path.
      ScopeGuard clear_abort([this] { abort_.reset(); });
      // Fills pooled_workers_ even when the run throws, so the partial
      // RunStats attached to the error still carry the imbalance view.
      run_pooled(active, peers, opts, abort_, pooled_workers_);
    }
  } catch (...) {
    run_error = std::current_exception();
  }

  std::uint64_t cyc_total = rdcycles() - cyc_start;
  double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count();

  obs_teardown.run_now();

  RunStats rs = collect_stats(mode, end, cyc_total, wall_seconds);
  if (run_error) {
    // Uniform failure contract: whatever escaped the run mode leaves here
    // as a SimulationError with the partial stats of the aborted run
    // attached, so hours of profile data survive the failure.
    SimulationError out = to_simulation_error(run_error);
    rs.record_error(out);
    out.attach_stats(std::make_shared<const RunStats>(rs));
    throw out;
  }
  return rs;
}

void Simulation::run_coscheduled(const std::vector<Component*>& active, const PeerIndex& peers,
                                 SimTime end) {
  // Each run segment starts at the component with the earliest next action,
  // the top of a min-heap keyed on Poll::next (see DESIGN.md, "Coscheduled
  // runner"); starting at the minimum guarantees liveness. The component
  // then keeps advancing until its next action passes its own safe bound
  // or the end. Conservative synchronization makes any safe order give the
  // same batches: each batch processes one whole instant, and a
  // component's instants come from its own events, the receive times of
  // its data and its own SYNC grid, none of which depends on which
  // component ran first. Only two things can move a key: the component
  // running, and data landing in its receive rings. So after each segment
  // the runner re-keys the component that ran and every peer whose channel
  // end shows new data sends.
  std::vector<Component*> slots;
  std::vector<std::uint32_t> slot_of(active.size(), PeerIndex::kNoPeer);
  for (std::uint32_t i = 0; i < active.size(); ++i) {
    if (active[i]->finished()) continue;
    slot_of[i] = static_cast<std::uint32_t>(slots.size());
    slots.push_back(active[i]);
  }
  const std::size_t n = slots.size();

  // links[first[s] .. first[s + 1]) are the channel ends slot s sends on
  // whose receiving end belongs to a slot, each with the data-send count
  // last seen.
  struct Link {
    const sync::ChannelEnd* end;
    std::uint32_t peer;
    std::uint64_t seen;
  };
  std::vector<Link> links;
  std::vector<std::size_t> first(n + 1);
  for (std::uint32_t i = 0; i < active.size(); ++i) {
    const std::uint32_t s = slot_of[i];
    if (s == PeerIndex::kNoPeer) continue;
    first[s] = links.size();
    const auto& adapters = active[i]->adapters();
    for (std::size_t k = 0; k < adapters.size(); ++k) {
      const std::uint32_t peer = peers.peers[i][k];
      if (peer == PeerIndex::kNoPeer || slot_of[peer] == PeerIndex::kNoPeer) continue;
      links.push_back({&adapters[k]->end(), slot_of[peer], adapters[k]->end().data_sends()});
    }
  }
  first[n] = links.size();

  std::uint64_t mark = rdcycles();
  std::vector<Poll> polls(n);
  for (std::uint32_t s = 0; s < n; ++s) polls[s] = slots[s]->poll();
  sched_polls_ += n;
  SlotHeap heap(polls);

  Component* running = nullptr;  // attribution for escaping model errors
  try {
    while (!heap.empty()) {
      const std::uint32_t s = heap.top();
      Component* c = slots[s];
      Poll p = polls[s];
      // Every key is past the end: no component runs again, so no message
      // can still be sent, and finishing everyone is safe.
      if (p.next > end) break;
      if (p.next > p.bound) {
        // The stored poll's bound may be stale (bounds only grow).
        p = c->poll();
        ++sched_polls_;
        if (p.next > p.bound) {
          // With sync_interval <= latency this cannot happen: the peer the
          // top waits on would have an earlier sync action.
          throw deadlock_error(*c, p, "coscheduled: no runnable component");
        }
      }
      running = c;
      ++sched_segments_;
      std::uint64_t b0 = rdcycles();
      sched_cycles_ += b0 - mark;
      for (;;) {
        c->advance(p);
        p = c->poll();
        ++sched_polls_;
        if (p.next > end || p.next > p.bound) break;
      }
      mark = rdcycles();
      c->add_busy_cycles(mark - b0);
      polls[s] = p;
      heap.update(s);
      for (std::size_t k = first[s]; k < first[s + 1]; ++k) {
        Link& l = links[k];
        const std::uint64_t sent = l.end->data_sends();
        if (sent == l.seen) continue;
        l.seen = sent;
        polls[l.peer] = slots[l.peer]->poll();
        ++sched_polls_;
        heap.update(l.peer);
      }
    }
    sched_cycles_ += rdcycles() - mark;
    for (Component* c : slots) {
      running = c;
      c->finish();
    }
  } catch (...) {
    throw to_simulation_error(std::current_exception(),
                              running != nullptr ? running->name() : "",
                              running != nullptr ? running->now() : 0);
  }
}

RunStats Simulation::collect_stats(RunMode mode, SimTime end, std::uint64_t wall_cycles,
                                   double wall_seconds) {
  RunStats rs;
  rs.mode = mode;
  rs.sim_time = end;
  rs.wall_cycles = wall_cycles;
  rs.wall_seconds = wall_seconds;
  rs.pooled_workers = pooled_workers_;
  rs.sched_polls = sched_polls_;
  rs.sched_segments = sched_segments_;
  rs.sched_cycles = sched_cycles_;
  rs.components.reserve(components_.size());
  for (auto& c : components_) {
    // Inactive components (process mode) never ran; folding their empty
    // digests would be harmless, but excluding them keeps per-component
    // tables honest about what this process executed.
    if (!component_active(*c)) continue;
    ComponentStats cs;
    cs.name = c->name();
    cs.busy_cycles = c->busy_cycles();
    cs.virtual_cycles = c->virtual_cycles();
    cs.wall_cycles = wall_cycles;
    cs.batches = c->batches();
    cs.sync_only_batches = c->sync_only_batches();
    cs.events = c->kernel().events_executed();
    cs.digest = c->digest();
    rs.digest.merge(cs.digest);
    for (auto& a : c->adapters()) {
      AdapterStats as;
      as.adapter = a->name();
      as.component = c->name();
      as.peer_component = a->peer_component();
      as.totals = a->counters();
      as.totals.backpressure_stalls = a->end().tx_backpressure_stalls();
      as.wire = a->wire_stats();
      cs.adapters.push_back(std::move(as));
    }
    rs.components.push_back(std::move(cs));
  }
  return rs;
}

}  // namespace splitsim::runtime
