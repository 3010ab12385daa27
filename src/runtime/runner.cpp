#include "runtime/runner.hpp"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <unordered_map>

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

}  // namespace

sync::Channel& Simulation::add_channel(std::string name, sync::ChannelConfig cfg) {
  channels_.push_back(std::make_unique<sync::Channel>(std::move(name), cfg));
  return *channels_.back();
}

void Simulation::enable_profiling(std::uint64_t sample_period_cycles) {
  profiling_ = true;
  sample_period_ = sample_period_cycles;
}

void Simulation::set_active_components(std::vector<std::string> names) {
  active_names_ = std::move(names);
}

bool Simulation::component_active(const Component& c) const {
  if (active_names_.empty()) return true;
  return std::find(active_names_.begin(), active_names_.end(), c.name()) != active_names_.end();
}

void Simulation::fail_run(std::exception_ptr e) {
  std::lock_guard<std::mutex> l(fail_mu_);
  if (live_shared_ != nullptr) {
    live_shared_->fail(std::move(e));
  } else if (!pending_failure_) {
    pending_failure_ = std::move(e);
  }
}

std::string Simulation::describe() {
  resolve_peers();
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

void Simulation::resolve_peers() {
  std::unordered_map<const sync::ChannelEnd*, Component*> owner;
  for (auto& c : components_) {
    for (auto& a : c->adapters()) owner[&a->end()] = c.get();
  }
  for (auto& c : components_) {
    for (auto& a : c->adapters()) {
      sync::Channel& ch = a->end().channel();
      const sync::ChannelEnd* other =
          (&ch.end_a() == &a->end()) ? &ch.end_b() : &ch.end_a();
      auto it = owner.find(other);
      if (it != owner.end()) a->set_peer_component(it->second->name());
    }
  }
}

RunStats Simulation::run(SimTime end, RunMode mode, unsigned workers) {
  sync::ChannelMode cm = mode == RunMode::kCoscheduled ? sync::ChannelMode::kSpillSingleThread
                         : mode == RunMode::kPooled    ? sync::ChannelMode::kSpillLocked
                                                       : sync::ChannelMode::kBlocking;
  for (auto& ch : channels_) ch->set_mode(cm);
  resolve_peers();

  // Process mode: the full system is constructed in every process (for
  // deterministic wiring), but only this process's partition group runs.
  std::vector<Component*> active;
  active.reserve(components_.size());
  for (auto& c : components_) {
    if (component_active(*c)) active.push_back(c.get());
  }

  // ---- observability setup (all no-ops when obs_ is default) ----------
  metrics_series_.clear();
  counter_track_ids_.clear();
  pooled_workers_.clear();
  if (obs_.any()) {
    // Calibrate the cycle clock before component threads start: the first
    // cycles_per_second() call sleeps ~20ms.
    cycles_per_second();
  }
  if (obs_.trace) {
    obs::start_tracing(obs_.trace_ring_capacity);
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
  std::uint64_t publish_period_cycles = 0;
  if (obs_.metrics_period_ms != 0) {
    publish_period_cycles = static_cast<std::uint64_t>(
        cycles_per_second() * static_cast<double>(obs_.metrics_period_ms) / 1e3);
  }
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
      // frames/bytes/syncs this process put on the trunk, futex park/wake
      // counts (shm), and the hello-time clock skew (sockets).
      if (sync::WireCounters* w = ch->transport().wire_counters()) {
        const std::string t = "trunk." + ch->name() + ".";
        metrics_.register_poll(t + "tx_frames", [w] {
          return static_cast<double>(w->tx_frames.load(std::memory_order_relaxed));
        });
        metrics_.register_poll(t + "tx_bytes", [w] {
          return static_cast<double>(w->tx_bytes.load(std::memory_order_relaxed));
        });
        metrics_.register_poll(t + "tx_syncs", [w] {
          return static_cast<double>(w->tx_syncs.load(std::memory_order_relaxed));
        });
        metrics_.register_poll(t + "tx_datas", [w] {
          return static_cast<double>(w->tx_datas.load(std::memory_order_relaxed));
        });
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

  auto wall_start = std::chrono::steady_clock::now();
  std::uint64_t cyc_start = rdcycles();

  std::exception_ptr run_error;
  try {
    for (Component* c : active) {
      if (profiling_) c->enable_sampling(sample_period_);
      c->prepare(end);
      if (profiling_) c->record_sample_now();
    }

    if (mode == RunMode::kThreaded) {
      ThreadedShared shared;
      shared.remaining.store(static_cast<int>(active.size()), std::memory_order_relaxed);
      // Expose the run to fail_run() (the process-mode monitor thread);
      // consume any failure injected before the run started.
      {
        std::lock_guard<std::mutex> l(fail_mu_);
        live_shared_ = &shared;
        if (pending_failure_) {
          shared.fail(std::move(pending_failure_));
          pending_failure_ = nullptr;
        }
      }
      ScopeGuard clear_live([this] {
        std::lock_guard<std::mutex> l(fail_mu_);
        live_shared_ = nullptr;
      });
      if (watchdog_ms_ != 0) {
        // Calibrated and cached; translate the window into cycle units once.
        shared.watchdog_cycles = static_cast<std::uint64_t>(
            cycles_per_second() * static_cast<double>(watchdog_ms_) / 1e3);
      }
      // Blocking sends must observe the abort flag, or a producer whose
      // consumer died keeps waiting for ring space forever. The flag is a
      // stack local: clear the channel pointers before leaving this scope.
      for (auto& ch : channels_) ch->set_abort_flag(&shared.abort);
      ScopeGuard clear_abort([this] {
        for (auto& ch : channels_) ch->set_abort_flag(nullptr);
      });
      std::vector<std::thread> threads;
      threads.reserve(active.size());
      for (Component* c : active) {
        threads.emplace_back([&shared, comp = c] {
          try {
            comp->run_thread(shared);
          } catch (const sync::AbortedError&) {
            // Secondary failure: this thread was unwound because the run is
            // already aborting. Never overwrites the original error.
          } catch (...) {
            shared.fail(std::make_exception_ptr(
                to_simulation_error(std::current_exception(), comp->name(), comp->now())));
          }
        });
      }
      for (auto& t : threads) t.join();
      if (std::exception_ptr err = shared.take_error()) std::rethrow_exception(err);
    } else if (mode == RunMode::kPooled) {
      std::vector<Component*> comps = active;
      PooledOptions opts;
      opts.workers = workers;
      if (watchdog_ms_ != 0) {
        // Same wall-clock window as the threaded watchdog, in cycle units.
        opts.watchdog_cycles = static_cast<std::uint64_t>(
            cycles_per_second() * static_cast<double>(watchdog_ms_) / 1e3);
      }
      opts.controller = pooled_controller_;
      if (pooled_controller_ != nullptr && pooled_epoch_ms_ != 0) {
        opts.epoch_cycles = static_cast<std::uint64_t>(
            cycles_per_second() * static_cast<double>(pooled_epoch_ms_) / 1e3);
      }
      // Live wait-time export (pooled.wait.chan.* / pooled.wait.comp.*)
      // whenever observability is on for this run.
      opts.metrics = obs_.live() ? &metrics_ : nullptr;
      // Fills pooled_workers_ even when the run throws, so the partial
      // RunStats attached to the error still carry the imbalance view.
      run_pooled(comps, opts, &pooled_workers_);
    } else {
      // Coscheduled: always advance the runnable component with the earliest
      // next action. Conservative synchronization makes any safe order
      // equivalent; picking the minimum guarantees liveness. To amortize the
      // selection scan, the chosen component keeps advancing until it passes
      // the second-earliest action time or blocks.
      Component* active_comp = nullptr;  // attribution for escaping model errors
      try {
        std::size_t unfinished = active.size();
        while (unfinished > 0) {
          Component* best = nullptr;
          Poll best_p;
          SimTime second_t = kSimTimeMax;
          for (Component* c : active) {
            if (c->finished()) continue;
            Poll p = c->poll();
            if (p.next > c->end_time()) {  // sound without the bound: see Poll::done
              active_comp = c;
              c->finish();
              --unfinished;
              continue;
            }
            if (p.next < best_p.next) {
              second_t = best_p.next;
              best_p = p;
              best = c;
            } else if (p.next < second_t) {
              second_t = p.next;
            }
          }
          if (unfinished == 0) break;
          if (best == nullptr) continue;  // finishing pass removed candidates
          // A peer that finished later in the scan may have unbounded best
          // with its FIN: re-poll before calling it blocked.
          if (best_p.next > best_p.bound) best_p = best->poll();
          if (best_p.next > best_p.bound) {
            // The earliest component is blocked; with sync_interval <= latency
            // this cannot happen (its peer would have an earlier sync action).
            throw deadlock_error(*best, best_p, "coscheduled: no runnable component");
          }
          active_comp = best;
          std::uint64_t b0 = rdcycles();
          for (Poll p = best_p;;) {
            best->advance(p);
            p = best->poll();
            if (p.next > second_t || p.next > best->end_time() || p.next > p.bound) break;
          }
          best->add_busy_cycles((rdcycles() - b0) + drain_virtual_cycles());
        }
      } catch (...) {
        throw to_simulation_error(std::current_exception(),
                                  active_comp != nullptr ? active_comp->name() : "",
                                  active_comp != nullptr ? active_comp->now() : 0);
      }
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
    rs.outcome = RunOutcome::kError;
    rs.error = out.what();
    rs.error_component = out.component();
    rs.error_sim_time = out.sim_time();
    out.attach_stats(std::make_shared<const RunStats>(rs));
    throw out;
  }
  return rs;
}

RunStats Simulation::collect_stats(RunMode mode, SimTime end, std::uint64_t wall_cycles,
                                   double wall_seconds) {
  RunStats rs;
  rs.mode = mode;
  rs.sim_time = end;
  rs.wall_cycles = wall_cycles;
  rs.wall_seconds = wall_seconds;
  rs.pooled_workers = pooled_workers_;
  rs.components.reserve(components_.size());
  for (auto& c : components_) {
    // Inactive components (process mode) never ran; folding their empty
    // digests would be harmless, but excluding them keeps per-component
    // tables honest about what this process executed.
    if (!component_active(*c)) continue;
    ComponentStats cs;
    cs.name = c->name();
    cs.busy_cycles = c->busy_cycles();
    cs.wall_cycles = c->wall_cycles() != 0 ? c->wall_cycles() : wall_cycles;
    cs.drain_cycles = c->drain_cycles();
    cs.batches = c->batches();
    cs.events = c->kernel().events_executed();
    cs.digest = c->digest();
    rs.digest.merge(cs.digest);
    cs.samples = c->samples();
    for (auto& a : c->adapters()) {
      AdapterStats as;
      as.adapter = a->name();
      as.component = c->name();
      as.peer_component = a->peer_component();
      as.totals = a->counters();
      as.totals.backpressure_stalls = a->end().tx_backpressure_stalls();
      as.channel_latency = a->config().latency;
      cs.adapters.push_back(std::move(as));
    }
    rs.components.push_back(std::move(cs));
  }
  return rs;
}

}  // namespace splitsim::runtime
