#include "runtime/component.hpp"

#include <sstream>
#include <stdexcept>
#include <thread>

#include "runtime/error.hpp"
#include "sync/wait.hpp"
#include "util/cycles.hpp"

namespace splitsim::runtime {

sync::Adapter& Component::add_adapter(std::string name, sync::ChannelEnd& end) {
  adapters_.push_back(std::make_unique<sync::Adapter>(std::move(name), end));
  return *adapters_.back();
}

sync::TrunkAdapter& Component::add_trunk(std::string name, sync::ChannelEnd& end) {
  auto trunk = std::make_unique<sync::TrunkAdapter>(std::move(name), end);
  sync::TrunkAdapter& ref = *trunk;
  adapters_.push_back(std::move(trunk));
  return ref;
}

void Component::prepare(SimTime end) {
  if (prepared_) return;
  prepared_ = true;
  end_ = end;
  // Size the kernel's calendar to the synchronization horizon before the
  // model schedules anything: under lookahead synchronization, nearly all
  // of a component's events land within one channel latency of its clock,
  // so that horizon is the right bucket-window scale.
  SimTime lookahead = 0;
  for (auto& a : adapters_) {
    if (a->config().latency > lookahead) lookahead = a->config().latency;
  }
  if (lookahead > 0) kernel_.set_bucket_hint(lookahead);
  init();
}

Poll Component::poll() {
  // One rx_peek() per adapter yields both terms. Reading each adapter once
  // is what makes the result consistent while peers keep sending (see
  // Poll); components with many channels make this the hot path.
  Poll p;
  SimTime next = kernel_.next_time();
  for (auto& a : adapters_) {
    sync::Adapter::RxPeek rx = a->rx_peek();
    if (rx.bound < p.bound) {
      p.bound = rx.bound;
      p.limiter = a.get();
    }
    if (rx.head < next) next = rx.head;
    SimTime due = a->next_sync_due();
    if (due < next) next = due;
  }
  p.next = next;
  return p;
}

void Component::advance(const Poll& p) {
  const SimTime t = p.next;
  // Checkpoint boundaries strictly before the next batch are final now:
  // every delivery with rx <= boundary has happened (t > boundary) and
  // conservative sync guarantees no future arrival at or before
  // t <= p.bound. This runs before the injected-fault check so a kill at
  // time T leaves snapshots for every boundary < T to resume from.
  if (ckpt_next_ < t) record_ckpt_boundaries(t);
  if (t >= fault_throw_at_) {
    throw std::runtime_error(fault_throw_msg_);
  }
  if (fault_stall_batches_ != 0 && t >= fault_stall_at_) {
    // One stall "batch": the scheduler charged us a turn, we did nothing.
    --fault_stall_batches_;
    ++batches_;
    return;
  }
  const bool traced = obs::tracing_enabled();
  std::uint64_t c0 = traced ? rdcycles() : 0;
  kernel_.advance_to(t);
  // Process the whole simulation instant `t` as one batch. A single
  // delivery pass suffices: strict per-channel timestamp monotonicity
  // guarantees no new message with receive time <= t can appear while we
  // process this instant, and local events never enqueue into our own
  // receive rings. The batched drain pays one ring acquire per adapter
  // instead of one per message.
  for (auto& a : adapters_) a->deliver_all(t);
  while (kernel_.next_time() <= t) kernel_.run_next();
  for (auto& a : adapters_) a->maybe_sync(t);
  ++batches_;
  if (traced) obs::record_span(obs::kNameAdvance, trace_track_, t, c0, rdcycles());
  maybe_observe();
}

void Component::record_ckpt_boundaries(SimTime limit) {
  while (ckpt_next_ < limit) {
    SimTime b = ckpt_next_;
    ckpt_next_ = ckpt_every_ != 0 ? ckpt_next_ + ckpt_every_ : kSimTimeMax;
    ckpt_hook_->on_boundary(*this, b);
  }
}

void Component::finish() {
  if (finished_) return;
  // A data message due by the end must have been delivered: one still
  // pending here means a runner finished this component too early, and
  // the message would vanish from the results without a trace.
  for (auto& a : adapters_) {
    SimTime rx = a->rx_peek().head;
    if (rx <= end_) {
      throw sync::SyncViolation(a->end().channel_name(),
                                "data message with receive time " + std::to_string(rx) +
                                    " ps still pending at finish (end " +
                                    std::to_string(end_) + " ps)");
    }
  }
  finished_ = true;
  // Trailing boundaries are final here: this component delivers nothing
  // after finish, and final digests are mode-deterministic. Boundaries
  // strictly before end_ only — a snapshot at exactly end_ could never be
  // resumed (nothing is left to run past it), and recording it would make
  // resume-from-directory after a *completed* run pick an unusable
  // boundary.
  if (ckpt_hook_ != nullptr) {
    record_ckpt_boundaries(end_);
  }
  kernel_.advance_to(end_);
  finalize();
  for (auto& a : adapters_) a->send_fin();
  if (obs_live_) live_sim_time_.store(kernel_.now(), std::memory_order_relaxed);
}

bool Component::send_nulls(const Poll& p) {
  bool sent = false;
  for (auto& a : adapters_) {
    if (a->end().can_promise(p.bound)) {
      a->send_null(p.bound);
      sent = true;
    }
  }
  return sent;
}

sync::EventDigest Component::digest() const {
  sync::EventDigest d;
  for (auto& a : adapters_) d.merge(a->digest());
  return d;
}

void Component::inject_throw_at(SimTime at, std::string message) {
  fault_throw_at_ = at;
  fault_throw_msg_ = std::move(message);
}

void Component::inject_stall(SimTime at, std::uint64_t batches) {
  fault_stall_at_ = at;
  fault_stall_batches_ = batches;
}

void Component::run_thread(ThreadedShared& shared) {
  std::uint64_t t0 = rdcycles();
  next_sample_tsc_ = sample_period_ ? t0 + sample_period_ : 0;
  Poll p = poll();
  while (!shared.abort.load(std::memory_order_relaxed)) {
    if (p.done(end_)) break;
    if (p.next <= p.bound) {
      std::uint64_t b0 = rdcycles();
      advance(p);
      add_busy_cycles(rdcycles() - b0);
      p = poll();
      continue;
    }
    // Blocked: promise exactly the polled bound to all peers (null
    // messages), then wait with the adaptive spin/yield/park policy.
    // Re-promise whenever a fresh poll shows the bound grew, so chains of
    // waiting components keep making progress (classic null-message
    // iteration).
    SimTime promised = p.bound;
    send_nulls(p);
    std::uint64_t w0 = rdcycles();
    // Attribute the wait to the adapter limiting the bound.
    sync::Adapter* limiting = p.limiter;
    sync::WaitState wait;
    // Watchdog bookkeeping: while blocked, this thread doubles as a
    // deadlock detector (see ThreadedShared). The blocked count is
    // maintained strictly around this loop; the throw paths inside either
    // restore it first (watchdog) or only fire when the run is already
    // aborting (AbortedError out of send_nulls), where the count is moot.
    shared.blocked.fetch_add(1, std::memory_order_acq_rel);
    std::uint64_t watch_epoch = shared.progress_epoch.load(std::memory_order_acquire);
    std::uint64_t watch_deadline =
        shared.watchdog_cycles != 0 ? rdcycles() + shared.watchdog_cycles : 0;
    while (!shared.abort.load(std::memory_order_relaxed)) {
      p = poll();
      if (p.next <= p.bound || p.done(end_)) break;
      if (p.bound > promised) {
        promised = p.bound;
        send_nulls(p);
        wait.reset();  // peer progressed; expect more soon, spin again
        shared.progress_epoch.fetch_add(1, std::memory_order_acq_rel);
        if (watch_deadline != 0) {
          watch_epoch = shared.progress_epoch.load(std::memory_order_acquire);
          watch_deadline = rdcycles() + shared.watchdog_cycles;
        }
      }
      wait.step();
      if (watch_deadline != 0 && rdcycles() >= watch_deadline) {
        std::uint64_t e = shared.progress_epoch.load(std::memory_order_acquire);
        if (e != watch_epoch || shared.blocked.load(std::memory_order_acquire) <
                                    shared.remaining.load(std::memory_order_acquire)) {
          // Someone progressed (or is currently runnable): re-arm.
          watch_epoch = e;
          watch_deadline = rdcycles() + shared.watchdog_cycles;
        } else {
          // Every unfinished thread has been blocked with no promise growth
          // for a full watchdog window: conservative synchronization cannot
          // recover from this state — fail loudly instead of spinning.
          shared.blocked.fetch_sub(1, std::memory_order_acq_rel);
          throw deadlock_error(*this, p,
                               "threaded watchdog: no runnable component and no horizon "
                               "progress for a full watchdog window");
        }
      }
    }
    shared.blocked.fetch_sub(1, std::memory_order_acq_rel);
    shared.progress_epoch.fetch_add(1, std::memory_order_acq_rel);
    std::uint64_t w1 = rdcycles();
    if (limiting != nullptr) limiting->add_wait_cycles(w1 - w0);
    if (obs::tracing_enabled()) {
      obs::record_span(obs::kNameSyncWait, trace_track_, promised, w0, w1,
                       limiting != nullptr ? limiting->peer_trace_track() : 0);
    }
    maybe_observe();
  }
  // On abort, skip finish(): it finalizes the model and sends FINs, both of
  // which may touch state a failed peer left inconsistent (and FIN sends
  // can block). The failed run's partial stats use whatever was reached.
  if (!shared.abort.load(std::memory_order_relaxed)) finish();
  // Wall cycles end at finish: the post-finish drain phase below is idle
  // time caused by peers still running, not utilization of this component.
  wall_cycles_ = rdcycles() - t0;
  shared.progress_epoch.fetch_add(1, std::memory_order_acq_rel);
  shared.remaining.fetch_sub(1, std::memory_order_acq_rel);
  // Drain phase: keep consuming (and discarding) incoming messages so that
  // still-running peers never block on a full ring towards us. Peers in
  // other processes are not counted in `remaining`: wait for their FIN
  // too, or this process could exit and close a transport they still
  // write to. Abort-aware: a failed run must not leave draining threads
  // spinning behind it (a dead remote peer trips the abort flag through
  // the process runner's monitor).
  auto peers_done = [this] {
    for (auto& a : adapters_) {
      if (!a->peer_component().empty() && !a->end().fin_received()) return false;
    }
    return true;
  };
  std::uint64_t d0 = rdcycles();
  while ((shared.remaining.load(std::memory_order_acquire) > 0 || !peers_done()) &&
         !shared.abort.load(std::memory_order_relaxed)) {
    for (auto& a : adapters_) a->end().discard_all();
    std::this_thread::yield();
  }
  drain_cycles_ = rdcycles() - d0;
}

void Component::maybe_observe() {
  if (sample_period_ == 0 && !obs_live_) return;
  if (++batches_since_check_ < 64) return;
  batches_since_check_ = 0;
  std::uint64_t tsc = rdcycles();
  if (obs_live_) {
    live_sim_time_.store(kernel_.now(), std::memory_order_relaxed);
    if (publish_period_ != 0 && tsc >= next_publish_tsc_) {
      next_publish_tsc_ = tsc + publish_period_;
      publish_obs_metrics();
    }
  }
  if (sample_period_ != 0 && tsc >= next_sample_tsc_) {
    next_sample_tsc_ = tsc + sample_period_;
    record_sample_now();
  }
}

void Component::record_sample_now() {
  ProfSample s;
  s.tsc = rdcycles();
  s.sim_time = kernel_.now();
  s.adapters.reserve(adapters_.size());
  for (auto& a : adapters_) {
    sync::ProfCounters c = a->counters();
    // Stall counts live in the channel end's atomic (never touched on the
    // send fast path); fold them in at snapshot points only.
    c.backpressure_stalls = a->end().tx_backpressure_stalls();
    s.adapters.push_back(c);
  }
  samples_.push_back(std::move(s));
}

void Component::enable_obs(obs::Registry& reg, std::uint64_t publish_period_cycles) {
  obs_registry_ = &reg;
  obs_live_ = true;
  publish_period_ = publish_period_cycles;
  next_publish_tsc_ = publish_period_cycles ? rdcycles() + publish_period_cycles : 0;
  const std::string p = "comp." + name_ + ".";
  g_sim_ns_ = &reg.gauge(p + "sim_ns");
  g_events_ = &reg.gauge(p + "events_executed");
  g_cancelled_ = &reg.gauge(p + "events_cancelled");
  g_live_events_ = &reg.gauge(p + "queue_depth");
  g_heap_entries_ = &reg.gauge(p + "heap_entries");
  g_batches_ = &reg.gauge(p + "batches");
  h_queue_depth_ = &reg.histogram(p + "queue_depth_hist");
  register_extra_obs_metrics(reg);
}

void Component::publish_obs_metrics() {
  if (obs_registry_ == nullptr) return;
  g_sim_ns_->set(static_cast<double>(kernel_.now()) / 1e3);
  g_events_->set(static_cast<double>(kernel_.events_executed()));
  g_cancelled_->set(static_cast<double>(kernel_.events_cancelled()));
  g_live_events_->set(static_cast<double>(kernel_.live_events()));
  g_heap_entries_->set(static_cast<double>(kernel_.heap_entries()));
  g_batches_->set(static_cast<double>(batches_));
  h_queue_depth_->observe(kernel_.live_events());
  publish_extra_obs_metrics();
}

SimulationError deadlock_error(const Component& c, const Poll& p, const std::string& detector) {
  std::ostringstream os;
  os << detector << "; next action " << to_ns(p.next) << " ns beyond safe bound "
     << to_ns(p.bound) << " ns";
  if (p.limiter != nullptr) {
    os << ", blocked on adapter '" << p.limiter->name() << "'";
    if (!p.limiter->peer_component().empty()) {
      os << " toward '" << p.limiter->peer_component() << "'";
    }
  }
  os << " (is sync_interval <= latency and every channel end attached?)";
  return SimulationError(ErrorKind::kDeadlock, c.name(), c.now(), os.str());
}

}  // namespace splitsim::runtime
