#include "runtime/pooled.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <exception>
#include <mutex>
#include <sstream>
#include <thread>

#include "runtime/error.hpp"
#include "sync/wait.hpp"
#include "util/cycles.hpp"

namespace splitsim::runtime {

namespace {

/// The one wait span: `c` waited on `limiter`'s peer from wall cycle t0 to
/// t1. Its wait_on argument is the edge obs::merge's critical path walks.
void trace_wait(const Component& c, const sync::Adapter& limiter, std::uint64_t t0,
                std::uint64_t t1) {
  if (obs::tracing_enabled()) {
    obs::record_span(obs::kNameSyncWait, c.trace_track(), c.now(), t0, t1,
                     limiter.peer_trace_track());
  }
}

class PooledRunner {
 public:
  PooledRunner(const std::vector<Component*>& components, const PeerIndex& peers,
               const PooledOptions& opts, RunAbort& abort)
      : watchdog_cycles_(opts.watchdog_cycles), abort_(abort) {
    slots_.resize(components.size());
    for (std::size_t i = 0; i < components.size(); ++i) {
      slots_[i].comp = components[i];
      auto& ps = slots_[i].peers;
      for (std::uint32_t p : peers.peers[i]) {
        if (p != PeerIndex::kNoPeer && p != i && std::find(ps.begin(), ps.end(), p) == ps.end()) {
          ps.push_back(p);
        }
      }
    }
    live_ = slots_.size();
    parked_ = std::vector<std::atomic<bool>>(slots_.size());

    unsigned hw = std::thread::hardware_concurrency();
    unsigned w = opts.workers != 0 ? opts.workers : (hw != 0 ? hw : 1);
    workers_ = std::max(1u, std::min<unsigned>(w, static_cast<unsigned>(slots_.size())));
    spin_ = workers_ == slots_.size();
    ws_.assign(workers_, PooledWorkerStats{});
    for (std::size_t i = 0; i < slots_.size(); ++i) ready_.push_back(i);
  }

  /// Run every worker to the end (or the abort); errors stay in abort_.
  void run(std::vector<PooledWorkerStats>& worker_stats) {
    std::vector<std::thread> threads;
    threads.reserve(workers_);
    for (unsigned i = 0; i < workers_; ++i) {
      threads.emplace_back([this, i] { worker_entry(i); });
    }
    for (auto& t : threads) t.join();
    worker_stats = ws_;
  }

 private:
  enum class St : std::uint8_t { kReady, kRunning, kBlocked, kFinished };

  struct Slot {
    Component* comp = nullptr;
    St state = St::kReady;
    /// Set when a peer progressed while this component was running; it is
    /// re-enqueued instead of parking so the wake is never lost.
    bool dirty = false;
    std::vector<std::size_t> peers;
    /// Blocked-wait attribution for the profiler: the adapter that limited
    /// the safe bound when a quantum ended blocked, and the instant the wait
    /// began (before any spin, so one span and one charge cover all of it).
    /// TSC deltas across workers are approximate, which is fine for
    /// profiling.
    sync::Adapter* wait_attr = nullptr;
    std::uint64_t wait_t0 = 0;
    /// Simulation time observed at the end of this slot's last quantum,
    /// written under the scheduler lock by the owning worker (so the
    /// watchdog never probes a component another thread is running), and
    /// the watchdog's state: the time last seen to advance, the wall cycle
    /// it did, and this slot's quanta since.
    SimTime sim_time = 0;
    SimTime watch_time = 0;
    std::uint64_t watch_since = 0;
    std::uint64_t watch_quanta = 0;
  };

  /// How one scheduling quantum ended (run_quantum). Neither finished nor
  /// runnable means blocked on `poll`.
  struct Quantum {
    bool progressed = false;  ///< ran a batch, promised a bound, or finished
    bool finished = false;
    bool runnable = false;  ///< quantum expired with work left
    Poll poll;
    bool remote = false;  ///< the limiter's channel is kBlocking (remote wait)
    std::uint64_t wait_t0 = 0;  ///< start of an unfinished spin (0: none)
    std::uint64_t wait_cycles = 0;  ///< spun inside the quantum: wait, not busy
  };

  void enqueue_locked(std::size_t i) {
    ready_.push_back(i);
    cv_.notify_one();
  }

  void worker_entry(unsigned me) {
    try {
      worker_loop(me);
    } catch (...) {
      abort_.fail(std::current_exception());
    }
    // Wake parked workers so they see the abort (or the end of the run).
    std::lock_guard<std::mutex> l(mu_);
    cv_.notify_all();
  }

  void worker_loop(unsigned me) {
    for (;;) {
      std::size_t idx;
      {
        std::unique_lock<std::mutex> l(mu_);
        for (;;) {
          if (abort_.aborted() || live_ == 0) return;
          if (!ready_.empty()) break;
          std::uint64_t w0 = rdcycles();
          cv_.wait(l);
          ws_[me].sched_park_cycles += rdcycles() - w0;
          ++ws_[me].sched_parks;
        }
        idx = ready_.front();
        ready_.pop_front();
        Slot& s = slots_[idx];
        s.state = St::kRunning;
        s.dirty = false;
        ++running_;
        if (s.wait_attr != nullptr) {
          // The slot was not running, and every ownership hand-off goes
          // through mu_, so the adapter's plain counters race with no one.
          std::uint64_t woke = rdcycles();
          if (woke > s.wait_t0) s.wait_attr->add_wait_cycles(woke - s.wait_t0);
          // Recorded on the component's track even though this worker may
          // not be the one that parked it: records carry the track.
          trace_wait(*s.comp, *s.wait_attr, s.wait_t0, woke);
          s.wait_attr = nullptr;
        }
      }

      // Run quanta. Ownership is exclusive (state kRunning), so no other
      // worker touches this component's kernel or adapters. Model
      // exceptions escaping the component are attributed here, while the
      // failing component is still known.
      Slot& s = slots_[idx];
      Component* c = s.comp;
      for (;;) {
        Quantum q;
        std::uint64_t b0 = rdcycles();
        try {
          run_quantum(s, c, q);
        } catch (...) {
          throw to_simulation_error(std::current_exception(), c->name(), c->now());
        }
        std::uint64_t qcycles = c->add_busy_cycles(rdcycles() - b0 - q.wait_cycles);
        if (abort_.aborted()) return;  // another thread failed: drop out

        SimTime sim_snap = c->now();  // still exclusive: state flips under the lock
        {
          std::lock_guard<std::mutex> l(mu_);
          ++ws_[me].quanta;
          ws_[me].busy_cycles += qcycles;
          s.sim_time = sim_snap;
          if (q.remote) {
            // Stays kRunning: this worker keeps it for the remote wait below.
          } else {
            --running_;
            if (q.finished) {
              s.state = St::kFinished;
              if (--live_ == 0) cv_.notify_all();
            } else {
              if (!q.runnable) {
                // Blocked: the wait, spin included, lasts until the next pop.
                s.wait_attr = q.poll.limiter;
                s.wait_t0 = q.wait_t0 != 0 ? q.wait_t0 : rdcycles();
              }
              if (q.runnable || s.dirty) {
                s.state = St::kReady;
                s.dirty = false;
                enqueue_locked(idx);
              } else {
                s.state = St::kBlocked;
                parked_[idx].store(true, std::memory_order_relaxed);
              }
            }
          }
          if (q.progressed) publish_locked(s);
          if (live_ > 0 && running_ == 0 && ready_.empty()) rescue_scan_locked();
          if (watchdog_cycles_ != 0) watchdog_check_locked(s);
        }
        if (q.finished) drain(*c);
        if (!q.remote) break;
        wait_on_worker(*c, q);  // returns once the poll changed, or on abort
      }
    }
  }

  /// One scheduling quantum of `c`: advance up to kBatchQuantum batches,
  /// then classify the component (see Quantum). With spin_ on, a blocked
  /// component spins before the quantum ends in a park.
  void run_quantum(Slot& s, Component* c, Quantum& q) {
    int batches = 0;
    bool promised = false;  // a promise round since the last batch
    for (Poll p = c->poll();; p = c->poll()) {
      // Another thread failed: stop mid-quantum instead of finishing a
      // potentially long quantum against dead peers.
      if (abort_.aborted()) return;
      if (p.done(c->end_time())) {
        c->finish();  // sends FINs: unbounds every peer's horizon
        q.finished = true;
        q.progressed = true;
        return;
      }
      if (p.next <= p.bound) {
        if (batches == kBatchQuantum) {
          q.runnable = true;  // quantum expired; round-robin back into the queue
          return;
        }
        c->advance(p);
        q.progressed = true;
        promised = false;
        ++batches;
        continue;
      }
      // Blocked: promise exactly the polled bound to all peers, then poll
      // once more (the promise moves next_sync_due, and peers may have sent
      // meanwhile). Still blocked: the quantum ends.
      if (promised || !c->send_nulls(p)) {
        q.poll = p;
        q.remote = p.limiter->end().channel().mode() == sync::ChannelMode::kBlocking;
        if (q.remote || !spin_) return;
        if (q.progressed && peer_parked(s)) {
          // A parked peer wakes only when a quantum ends: publish first.
          std::lock_guard<std::mutex> l(mu_);
          publish_locked(s);
          q.progressed = false;
        }
        const std::uint64_t t0 = rdcycles();
        const bool changed = wait_on_worker(*c, q);
        q.wait_cycles += rdcycles() - t0;
        if (!changed) return;  // spun out (or aborted): park
        q.wait_t0 = 0;
        promised = false;  // a grown bound is promised anew
        continue;
      }
      promised = true;
      q.progressed = true;
    }
  }

  /// `c` is blocked on `q.poll`: re-poll on this worker until the poll
  /// changes (runnable, done, or a grown bound to promise) and return true.
  /// A remote limiter gets the full WaitState backoff, with the remote-wait
  /// deadlock check once per watchdog window; otherwise the wait ends after
  /// the spin and yield phases (false: park). Returns false on abort too.
  /// The time is wait time, charged to the limiter.
  bool wait_on_worker(Component& c, Quantum& q) {
    const Poll& blocked = q.poll;
    q.wait_t0 = rdcycles();
    if (q.remote) remote_waiting_.fetch_add(1, std::memory_order_acq_rel);
    std::uint64_t seen = progress_.load(std::memory_order_relaxed);
    std::uint64_t deadline = watchdog_cycles_ != 0 ? q.wait_t0 + watchdog_cycles_ : 0;
    sync::WaitState wait;
    bool changed = false;
    while (!changed && (q.remote || !wait.will_park()) && !abort_.aborted()) {
      wait.step();
      Poll p = c.poll();
      changed = p.next <= p.bound || p.done(c.end_time()) || p.bound > blocked.bound;
      if (!changed && q.remote && deadline != 0 && rdcycles() >= deadline) {
        std::lock_guard<std::mutex> l(mu_);
        std::size_t waiting = remote_waiting_.load(std::memory_order_acquire);
        for (const Slot& s : slots_) waiting += s.state == St::kBlocked ? 1 : 0;
        std::uint64_t now_seen = progress_.load(std::memory_order_relaxed);
        if (now_seen == seen && waiting == live_) {
          throw deadlock_error(c, p, "pool: every live component parked or in a remote wait, "
                                     "no bound grown for a full watchdog window");
        }
        seen = now_seen;
        deadline = rdcycles() + watchdog_cycles_;
      }
    }
    if (q.remote) {
      progress_.fetch_add(1, std::memory_order_relaxed);
      remote_waiting_.fetch_sub(1, std::memory_order_acq_rel);
    }
    // A local wait that spun out continues after the quantum; the next pop
    // charges and traces it whole from q.wait_t0.
    if (changed || q.remote) {
      std::uint64_t t1 = rdcycles();
      blocked.limiter->add_wait_cycles(t1 - q.wait_t0);
      if (changed) trace_wait(c, *blocked.limiter, q.wait_t0, t1);
    }
    return changed;
  }

  /// Some peer of `s` is parked: only this quantum's end can wake it.
  bool peer_parked(const Slot& s) const {
    for (std::size_t p : s.peers) {
      if (parked_[p].load(std::memory_order_relaxed)) return true;
    }
    return false;
  }

  /// Drain (see the file comment): `c` has finished; discard what arrives
  /// on its kBlocking channels until each peer's FIN, or until the run
  /// aborts. Unattached ends never see a FIN and are skipped.
  void drain(Component& c) {
    sync::WaitState wait;
    for (;;) {
      bool open = false;
      for (auto& a : c.adapters()) {
        sync::ChannelEnd& e = a->end();
        if (e.channel().mode() != sync::ChannelMode::kBlocking || a->peer_component().empty() ||
            e.fin_received()) {
          continue;
        }
        open = true;
        if (e.discard_all() != 0) wait.reset();
      }
      if (!open || abort_.aborted()) return;
      wait.step();
    }
  }

  /// `s` progressed: wake its parked peers, and count the progress for the
  /// remote-wait deadlock check.
  void publish_locked(const Slot& s) {
    progress_.fetch_add(1, std::memory_order_relaxed);
    for (std::size_t p : s.peers) {
      Slot& ps = slots_[p];
      if (ps.state == St::kBlocked) {
        ps.state = St::kReady;
        parked_[p].store(false, std::memory_order_relaxed);
        enqueue_locked(p);
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
        parked_[i].store(false, std::memory_order_relaxed);
        enqueue_locked(i);
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

  /// Slow-progress watchdog (see PooledOptions::watchdog_cycles), run at
  /// the end of each of `s`'s quanta: fires when `s` keeps being scheduled
  /// without its simulation time advancing for a full wall-clock window. A
  /// component stuck at one sim instant (stalled model, livelock) keeps the
  /// ready queue busy so the rescue scan above never runs, and the pool
  /// limps forever without this. Judging each component by its own quanta
  /// keeps a component that is merely starved of CPU from tripping it.
  void watchdog_check_locked(Slot& s) {
    if (s.state == St::kFinished) return;
    std::uint64_t now = rdcycles();
    if (s.watch_since == 0 || s.sim_time > s.watch_time) {
      s.watch_time = s.sim_time;
      s.watch_since = now;
      s.watch_quanta = 0;
      return;
    }
    // Require real scheduling churn before firing so a component that is
    // simply parked (no quanta) never trips the watchdog.
    if (++s.watch_quanta < kWatchdogMinQuanta) return;
    if (now - s.watch_since < watchdog_cycles_) return;
    std::ostringstream os;
    os << "pooled: simulation time stalled at " << to_ns(s.sim_time) << " ns for "
       << s.watch_quanta << " scheduling quanta; component '" << s.comp->name()
       << "' is not advancing (stalled model or livelock — slow-progress watchdog)";
    throw SimulationError(ErrorKind::kDeadlock, s.comp->name(), s.sim_time, os.str());
  }

  static constexpr std::uint64_t kWatchdogMinQuanta = 128;
  /// Max batches per scheduling quantum (fairness between components).
  static constexpr int kBatchQuantum = 1024;

  const std::uint64_t watchdog_cycles_;
  unsigned workers_ = 1;
  /// One worker per component: blocked components spin before parking.
  bool spin_ = false;

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::size_t> ready_;
  std::vector<Slot> slots_;
  /// slots_[i].state == kBlocked, readable without the lock (peer_parked).
  std::vector<std::atomic<bool>> parked_;
  std::vector<PooledWorkerStats> ws_;
  std::size_t live_ = 0;
  std::size_t running_ = 0;  ///< components owned by a worker (remote waits too)
  /// Components in remote_wait, and a count of events that can raise a
  /// bound (progressing quanta, remote-wait exits): the remote-wait
  /// deadlock check's inputs.
  std::atomic<std::size_t> remote_waiting_{0};
  std::atomic<std::uint64_t> progress_{0};
  RunAbort& abort_;
};

}  // namespace

void run_pooled(const std::vector<Component*>& components, const PeerIndex& peers,
                const PooledOptions& opts, RunAbort& abort,
                std::vector<PooledWorkerStats>& worker_stats) {
  worker_stats.clear();
  if (!components.empty()) PooledRunner(components, peers, opts, abort).run(worker_stats);
  if (std::exception_ptr e = abort.error()) std::rethrow_exception(e);
}

}  // namespace splitsim::runtime
