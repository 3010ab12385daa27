#include "runtime/pooled.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <exception>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "obs/metrics.hpp"
#include "runtime/error.hpp"
#include "util/cycles.hpp"

namespace splitsim::runtime {

namespace {

class PooledRunner {
 public:
  PooledRunner(const std::vector<Component*>& components, const PooledOptions& opts)
      : watchdog_cycles_(opts.watchdog_cycles),
        affinity_(opts.controller != nullptr),
        controller_(opts.controller),
        epoch_cycles_(opts.epoch_cycles) {
    slots_.reserve(components.size());
    for (Component* c : components) slots_.push_back(Slot{c});
    build_peer_index();
    live_ = slots_.size();

    unsigned hw = std::thread::hardware_concurrency();
    unsigned w = opts.workers != 0 ? opts.workers : (hw != 0 ? hw : 1);
    workers_ = std::max(1u, std::min<unsigned>(w, static_cast<unsigned>(slots_.size())));
    ws_.assign(workers_, PooledWorkerStats{});

    if (affinity_) wq_.resize(workers_);
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      slots_[i].home = static_cast<unsigned>(i % workers_);
      enqueue_locked(i);  // pre-run: no other thread exists yet
    }

    if (controller_ != nullptr && epoch_cycles_ == 0) {
      epoch_cycles_ = cycles_per_second() / 100;  // 10 ms default epoch
    }

    // Per-adapter bookkeeping for the epoch view and the live wait-time
    // export. The per-channel counter is shared by both ends (registry
    // find-or-create dedups the name), so it reads as total blocked-wait
    // attributed to that channel from either side.
    if (controller_ != nullptr || opts.metrics != nullptr) {
      for (std::size_t i = 0; i < slots_.size(); ++i) {
        for (auto& a : slots_[i].comp->adapters()) {
          AdapterInfo ai;
          ai.adapter = a.get();
          ai.slot = i;
          if (opts.metrics != nullptr) {
            ai.chan_wait = &opts.metrics->counter("pooled.wait.chan." + a->end().channel_name());
            ai.comp_wait = &opts.metrics->counter("pooled.wait.comp." + slots_[i].comp->name());
          }
          aindex_[ai.adapter] = ainfos_.size();
          ainfos_.push_back(ai);
        }
      }
    }
    epoch_start_ = rdcycles();
  }

  void run() {
    std::vector<std::thread> threads;
    threads.reserve(workers_);
    for (unsigned i = 0; i < workers_; ++i) {
      threads.emplace_back([this, i] { worker_entry(i); });
    }
    for (auto& t : threads) t.join();
    if (error_) std::rethrow_exception(error_);
  }

  /// Valid once run() has returned or thrown (all workers joined).
  const std::vector<PooledWorkerStats>& worker_stats() const { return ws_; }

 private:
  enum class St : std::uint8_t { kReady, kRunning, kBlocked, kFinished };

  struct Slot {
    Component* comp = nullptr;
    St state = St::kReady;
    /// Set when a peer progressed while this component was running; it is
    /// re-enqueued instead of parking so the wake is never lost.
    bool dirty = false;
    /// Home worker under affinity scheduling (epoch migrations retarget it).
    unsigned home = 0;
    std::vector<std::size_t> peers;
    /// Blocked-wait attribution for the profiler: the adapter that limited
    /// the safe bound when the component parked. `blocked_since` is the
    /// start of the not-yet-folded wait interval — epoch boundaries fold the
    /// accrued wait and advance it, while `park_t0` keeps the original park
    /// instant so the trace span covers the whole parked period. TSC deltas
    /// across workers are approximate, which is fine for profiling.
    sync::Adapter* wait_attr = nullptr;
    std::uint64_t blocked_since = 0;
    std::uint64_t park_t0 = 0;
    /// Per-epoch accumulators (reset at each controller boundary).
    std::uint64_t epoch_busy = 0;
    std::uint64_t epoch_wait = 0;
    /// Simulation time observed at the end of this slot's last quantum,
    /// written under the scheduler lock by the owning worker (so the
    /// watchdog never probes a component another thread is running).
    SimTime sim_time = 0;
  };

  /// Live wait-export and epoch-attribution state for one adapter. Counter
  /// pointers are null when no metrics registry was supplied.
  struct AdapterInfo {
    sync::Adapter* adapter = nullptr;
    std::size_t slot = 0;
    obs::Counter* chan_wait = nullptr;
    obs::Counter* comp_wait = nullptr;
    std::uint64_t epoch_wait = 0;
  };

  void build_peer_index() {
    std::unordered_map<const sync::ChannelEnd*, std::size_t> owner;
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      for (auto& a : slots_[i].comp->adapters()) owner[&a->end()] = i;
    }
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      for (auto& a : slots_[i].comp->adapters()) {
        sync::Channel& ch = a->end().channel();
        const sync::ChannelEnd* other =
            (&ch.end_a() == &a->end()) ? &ch.end_b() : &ch.end_a();
        auto it = owner.find(other);
        if (it == owner.end() || it->second == i) continue;
        auto& peers = slots_[i].peers;
        if (std::find(peers.begin(), peers.end(), it->second) == peers.end()) {
          peers.push_back(it->second);
        }
      }
    }
  }

  // ---- ready queue (global or per-worker affinity) ---------------------

  void enqueue_locked(std::size_t i) {
    if (affinity_) {
      wq_[slots_[i].home].push_back(i);
    } else {
      ready_.push_back(i);
    }
    ++queued_;
  }

  /// Pop the next runnable slot for worker `me`: own queue first, then steal
  /// from the worker with the longest backlog so no work ever strands on a
  /// busy worker's queue. Returns false when nothing is queued anywhere.
  bool pop_ready_locked(unsigned me, std::size_t& idx) {
    if (queued_ == 0) return false;
    if (!affinity_) {
      idx = ready_.front();
      ready_.pop_front();
      --queued_;
      return true;
    }
    if (!wq_[me].empty()) {
      idx = wq_[me].front();
      wq_[me].pop_front();
      --queued_;
      return true;
    }
    unsigned victim = workers_;
    std::size_t longest = 0;
    for (unsigned w = 0; w < workers_; ++w) {
      if (w == me || wq_[w].size() <= longest) continue;
      longest = wq_[w].size();
      victim = w;
    }
    if (victim == workers_) return false;
    idx = wq_[victim].front();
    wq_[victim].pop_front();
    --queued_;
    ++ws_[me].steals;
    return true;
  }

  void worker_entry(unsigned me) {
    try {
      worker_loop(me);
    } catch (...) {
      std::lock_guard<std::mutex> l(mu_);
      if (!error_) error_ = std::current_exception();
      abort_.store(true, std::memory_order_relaxed);
      cv_.notify_all();
    }
  }

  void worker_loop(unsigned me) {
    for (;;) {
      std::size_t idx;
      {
        std::unique_lock<std::mutex> l(mu_);
        for (;;) {
          if (abort_.load(std::memory_order_relaxed) || live_ == 0) return;
          if (pop_ready_locked(me, idx)) break;
          std::uint64_t w0 = rdcycles();
          cv_.wait(l);
          ws_[me].sched_park_cycles += rdcycles() - w0;
          ++ws_[me].sched_parks;
        }
        Slot& s = slots_[idx];
        s.state = St::kRunning;
        s.dirty = false;
        ++running_;
        if (s.wait_attr != nullptr) {
          std::uint64_t woke = rdcycles();
          fold_wait_locked(s, woke);
          if (obs::tracing_enabled()) {
            // Parked time shows as a span on the component's track even
            // though the recording thread (this worker) differs from the
            // one that parked it — records carry the track explicitly.
            obs::record_span(obs::kNameParked, s.comp->trace_track(),
                             s.comp->now(), s.park_t0, woke);
          }
          s.wait_attr = nullptr;
        }
      }

      Slot& s = slots_[idx];
      Component* c = s.comp;

      // Run a quantum of batches. Ownership is exclusive (state kRunning),
      // so no other worker touches this component's kernel or adapters.
      // Model exceptions escaping the component are attributed here, while
      // the failing component is still known.
      bool progressed = false;
      bool finished = false;
      bool runnable = false;
      std::uint64_t b0 = rdcycles();
      try {
        run_quantum(s, c, progressed, finished, runnable);
      } catch (...) {
        throw to_simulation_error(std::current_exception(), c->name(), c->now());
      }
      std::uint64_t qcycles = (rdcycles() - b0) + drain_virtual_cycles();
      c->add_busy_cycles(qcycles);
      if (abort_.load(std::memory_order_relaxed)) {
        return;  // another worker failed; drop out without re-queueing
      }

      SimTime sim_snap = c->now();  // still exclusive: state flips under the lock
      {
        std::lock_guard<std::mutex> l(mu_);
        --running_;
        ++ws_[me].quanta;
        ws_[me].busy_cycles += qcycles;
        s.epoch_busy += qcycles;
        s.sim_time = sim_snap;
        if (finished) {
          s.state = St::kFinished;
          if (--live_ == 0) cv_.notify_all();
        } else if (runnable || s.dirty) {
          s.state = St::kReady;
          s.dirty = false;
          s.wait_attr = nullptr;
          enqueue_locked(idx);
          cv_.notify_one();
        } else {
          s.state = St::kBlocked;
        }
        if (progressed) wake_peers_locked(s);
        if (controller_ != nullptr && live_ > 0) {
          std::uint64_t now2 = rdcycles();
          if (now2 - epoch_start_ >= epoch_cycles_) do_epoch_locked(now2);
        }
        if (live_ > 0 && running_ == 0 && queued_ == 0) rescue_scan_locked();
        if (watchdog_cycles_ != 0 && live_ > 0) watchdog_check_locked();
      }
    }
  }

  /// Fold the accrued blocked-wait interval of `s` into the profiler
  /// counters, the epoch accumulators, and the live metrics export, then
  /// advance the interval start. Only called under the scheduler lock while
  /// the slot is not running (kBlocked, or just popped from ready) — the
  /// adapter's plain counters race with no one: every ownership hand-off
  /// goes through mu_, which orders these writes before the next quantum.
  void fold_wait_locked(Slot& s, std::uint64_t now) {
    if (s.wait_attr == nullptr || now <= s.blocked_since) return;
    std::uint64_t delta = now - s.blocked_since;
    s.blocked_since = now;
    s.wait_attr->add_wait_cycles(delta);
    s.epoch_wait += delta;
    if (!ainfos_.empty()) {
      auto it = aindex_.find(s.wait_attr);
      if (it != aindex_.end()) {
        AdapterInfo& ai = ainfos_[it->second];
        ai.epoch_wait += delta;
        if (ai.chan_wait != nullptr) ai.chan_wait->inc(delta);
        if (ai.comp_wait != nullptr) ai.comp_wait->inc(delta);
      }
    }
  }

  /// Epoch boundary (under the scheduler lock): fold still-parked waits,
  /// snapshot per-slot busy/wait deltas and per-adapter wait attribution
  /// into the reusable epoch view, hand it to the controller, then apply
  /// the migrations it requested (home reassignment only — queued and
  /// running slots keep their current position and land on the new home at
  /// their next re-enqueue).
  void do_epoch_locked(std::uint64_t now) {
    for (auto& s : slots_) {
      if (s.state == St::kBlocked) fold_wait_locked(s, now);
    }
    epoch_.index = epoch_index_++;
    epoch_.wall_cycles = now - epoch_start_;
    epoch_.workers = workers_;
    epoch_.worker_stats = &ws_;
    epoch_.slots.clear();
    epoch_.waits.clear();
    epoch_.migrations.clear();
    for (auto& s : slots_) {
      PooledEpochSlot es;
      es.comp = s.comp;
      es.home = s.home;
      es.busy_cycles = s.epoch_busy;
      es.wait_cycles = s.epoch_wait;
      es.blocked = s.state == St::kBlocked;
      es.finished = s.state == St::kFinished;
      es.sim_time = s.sim_time;
      epoch_.slots.push_back(es);
      s.epoch_busy = 0;
      s.epoch_wait = 0;
    }
    for (auto& ai : ainfos_) {
      if (ai.epoch_wait == 0) continue;
      epoch_.waits.push_back(PooledEpochWait{slots_[ai.slot].comp, ai.adapter, ai.epoch_wait});
      ai.epoch_wait = 0;
    }
    epoch_start_ = now;
    controller_->on_epoch(epoch_);
    for (const auto& m : epoch_.migrations) {
      if (m.slot >= slots_.size() || m.to_worker >= workers_) continue;
      Slot& s = slots_[m.slot];
      if (s.home == m.to_worker || s.state == St::kFinished) continue;
      s.home = m.to_worker;
      ++ws_[m.to_worker].migrations_in;
    }
  }

  /// One scheduling quantum of `c`: advance up to kBatchQuantum batches,
  /// then classify the component as finished / runnable / blocked (parking
  /// it with wait attribution in the blocked case).
  void run_quantum(Slot& s, Component* c, bool& progressed, bool& finished, bool& runnable) {
    int batches = 0;
    bool promised = false;  // a promise round since the last batch
    for (Poll p = c->poll();; p = c->poll()) {
      // Another worker failed: stop mid-quantum instead of finishing a
      // potentially long quantum against dead peers.
      if (abort_.load(std::memory_order_relaxed)) return;
      if (p.done(c->end_time())) {
        c->finish();  // sends FINs: unbounds every peer's horizon
        finished = true;
        progressed = true;
        return;
      }
      if (p.next <= p.bound) {
        if (batches == kBatchQuantum) {
          runnable = true;  // quantum expired; round-robin back into the queue
          return;
        }
        c->advance(p);
        progressed = true;
        promised = false;
        ++batches;
        continue;
      }
      // Blocked: promise exactly the polled bound to all peers, then poll
      // once more (the promise moves next_sync_due, and peers may have sent
      // meanwhile). Still blocked: park. A peer that raises the bound later
      // wakes this component when its own quantum ends.
      if (promised || !c->send_nulls(p)) {
        s.wait_attr = p.limiter;
        s.blocked_since = s.park_t0 = rdcycles();
        return;
      }
      promised = true;
      progressed = true;
    }
  }

  void wake_peers_locked(const Slot& s) {
    for (std::size_t p : s.peers) {
      Slot& ps = slots_[p];
      if (ps.state == St::kBlocked) {
        ps.state = St::kReady;
        enqueue_locked(p);
        cv_.notify_one();
      } else if (ps.state == St::kRunning) {
        ps.dirty = true;
      }
    }
  }

  /// All live components are parked and nothing is queued: either a wake
  /// was lost (re-enqueue whoever is runnable) or the configuration cannot
  /// make progress — the same condition the coscheduled runner reports.
  /// Safe under the lock: every live component is kBlocked, so probing its
  /// adapters races with no one.
  void rescue_scan_locked() {
    bool woke = false;
    // Attribute a deadlock to the blocked component with the earliest
    // pending action — the one the whole simulation is waiting behind.
    Component* worst = nullptr;
    Poll worst_p;
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      Slot& s = slots_[i];
      if (s.state != St::kBlocked) continue;
      Component* c = s.comp;
      Poll p = c->poll();
      if (p.done(c->end_time()) || p.next <= p.bound) {
        s.state = St::kReady;
        enqueue_locked(i);
        cv_.notify_one();
        woke = true;
      } else if (worst == nullptr || p.next < worst_p.next) {
        worst = c;
        worst_p = p;
      }
    }
    if (woke) return;
    // Every live slot is parked here, so some slot is blocked.
    throw deadlock_error(*worst, worst_p, "pooled: no runnable component");
  }

  /// Slow-progress watchdog (see PooledOptions::watchdog_cycles): fires when
  /// the pool-wide minimum simulation time stalls for a full wall-clock
  /// window while quanta keep executing — a component stuck at one sim
  /// instant (stalled model, livelock) keeps the ready queue busy so the
  /// rescue scan above never runs, and the pool limps forever without this.
  void watchdog_check_locked() {
    SimTime min_t = kSimTimeMax;
    Slot* slowest = nullptr;
    for (auto& s : slots_) {
      if (s.state == St::kFinished) continue;
      if (slowest == nullptr || s.sim_time < min_t) {
        min_t = s.sim_time;
        slowest = &s;
      }
    }
    if (slowest == nullptr) return;
    std::uint64_t now = rdcycles();
    if (watchdog_since_ == 0 || min_t > watchdog_min_time_) {
      watchdog_min_time_ = min_t;
      watchdog_since_ = now;
      watchdog_quanta_ = 0;
      return;
    }
    // Require real scheduling churn before firing so a pool that is simply
    // parked (workers waiting, no quanta) never trips the watchdog.
    if (++watchdog_quanta_ < kWatchdogMinQuanta) return;
    if (now - watchdog_since_ < watchdog_cycles_) return;
    std::ostringstream os;
    os << "pooled: simulation time stalled at " << to_ns(min_t) << " ns for "
       << watchdog_quanta_ << " scheduling quanta; slowest component '"
       << slowest->comp->name()
       << "' is not advancing (stalled model or livelock — slow-progress watchdog)";
    throw SimulationError(ErrorKind::kDeadlock, slowest->comp->name(), min_t, os.str());
  }

  static constexpr std::uint64_t kWatchdogMinQuanta = 128;
  /// Max batches per scheduling quantum (fairness between components).
  static constexpr int kBatchQuantum = 1024;

  const std::uint64_t watchdog_cycles_;
  SimTime watchdog_min_time_ = 0;
  std::uint64_t watchdog_since_ = 0;
  std::uint64_t watchdog_quanta_ = 0;
  unsigned workers_ = 1;
  /// Per-worker affinity queues with work stealing. A controller needs
  /// stable homes to migrate between, so it turns them on.
  const bool affinity_;

  PooledController* const controller_;
  std::uint64_t epoch_cycles_;
  std::uint64_t epoch_start_ = 0;
  std::uint64_t epoch_index_ = 0;
  PooledEpoch epoch_;  ///< reused view; only touched in do_epoch_locked

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::size_t> ready_;            ///< global queue (non-affinity)
  std::vector<std::deque<std::size_t>> wq_;  ///< per-worker queues (affinity)
  std::size_t queued_ = 0;                   ///< total entries across queues
  std::vector<Slot> slots_;
  std::vector<PooledWorkerStats> ws_;
  std::vector<AdapterInfo> ainfos_;
  std::unordered_map<const sync::Adapter*, std::size_t> aindex_;
  std::size_t live_ = 0;
  std::size_t running_ = 0;
  /// Atomic so workers can poll it mid-quantum without taking the lock.
  std::atomic<bool> abort_{false};
  std::exception_ptr error_;
};

}  // namespace

void run_pooled(const std::vector<Component*>& components, const PooledOptions& opts,
                std::vector<PooledWorkerStats>* worker_stats_out) {
  if (components.empty()) {
    if (worker_stats_out != nullptr) worker_stats_out->clear();
    return;
  }
  PooledRunner runner(components, opts);
  // run() joins every worker before returning or rethrowing, so the stats
  // read is race-free on both paths — a failed run's imbalance is still
  // inspectable.
  try {
    runner.run();
  } catch (...) {
    if (worker_stats_out != nullptr) *worker_stats_out = runner.worker_stats();
    throw;
  }
  if (worker_stats_out != nullptr) *worker_stats_out = runner.worker_stats();
}

}  // namespace splitsim::runtime
