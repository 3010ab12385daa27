#include "runtime/component.hpp"

#include <sstream>
#include <stdexcept>

#include "runtime/error.hpp"
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
  std::size_t delivered = 0;
  for (auto& a : adapters_) delivered += a->deliver_all(t);
  const std::uint64_t executed = kernel_.events_executed();
  kernel_.run_until(t);
  for (auto& a : adapters_) a->maybe_sync(t);
  ++batches_;
  if (delivered == 0 && kernel_.events_executed() == executed) ++sync_only_batches_;
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

void Component::maybe_observe() {
  if (!obs_live_) return;
  if (++batches_since_check_ < 64) return;
  batches_since_check_ = 0;
  live_sim_time_.store(kernel_.now(), std::memory_order_relaxed);
  if (publish_period_ == 0) return;
  std::uint64_t tsc = rdcycles();
  if (tsc >= next_publish_tsc_) {
    next_publish_tsc_ = tsc + publish_period_;
    publish_obs_metrics();
  }
}

void Component::enable_obs(obs::Registry& reg, std::uint64_t publish_period_cycles) {
  obs_live_ = true;
  publish_period_ = publish_period_cycles;
  next_publish_tsc_ = publish_period_cycles ? rdcycles() + publish_period_cycles : 0;
  const std::string p = "comp." + name_ + ".";
  reg.register_poll(p + "sim_ns",
                    [this] { return static_cast<double>(live_sim_time()) / 1e3; });
  g_events_ = &reg.gauge(p + "events_executed");
  g_cancelled_ = &reg.gauge(p + "events_cancelled");
  g_live_events_ = &reg.gauge(p + "queue_depth");
  g_heap_entries_ = &reg.gauge(p + "heap_entries");
  g_batches_ = &reg.gauge(p + "batches");
  h_queue_depth_ = &reg.histogram(p + "queue_depth_hist");
  register_extra_obs_metrics(reg);
}

void Component::publish_obs_metrics() {
  if (!obs_live_) return;
  live_sim_time_.store(kernel_.now(), std::memory_order_relaxed);
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
