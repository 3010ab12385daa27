// Adaptive wait policy for blocked producers and runners.
//
// SplitSim used to spin unconditionally while waiting (for ring space or for
// a peer's horizon to advance). That is the right call when components ==
// cores, but burns a core per waiter as soon as components are multiplexed
// over fewer workers (RunMode::kPooled) or the machine is oversubscribed.
// WaitState escalates through three phases instead:
//   1. spin   — cpu_relax() busy iterations (cheap, keeps the cache warm),
//   2. yield  — give the core to another runnable thread,
//   3. park   — timed sleeps with exponential backoff (no busy spin).
// Callers attribute the full wall-clock wait to the profiler counters as
// before, so WTPG/ProfCounters output stays meaningful: a parked waiter
// reports the same "cycles blocked on synchronization" a spinning one would.
#pragma once

#include <chrono>
#include <cstdint>
#include <thread>

#include "util/cycles.hpp"

namespace splitsim::sync {

struct WaitPolicy {
  std::uint32_t spin_iters = 64;    ///< phase 1: busy cpu_relax() rounds
  std::uint32_t yield_iters = 16;   ///< phase 2: sched_yield rounds
  std::chrono::nanoseconds park_initial{2'000};  ///< phase 3: first sleep
  std::chrono::nanoseconds park_max{200'000};    ///< backoff cap
};

/// Process-wide default policy (tests may tighten it).
inline const WaitPolicy& default_wait_policy() {
  static const WaitPolicy p{};
  return p;
}

/// One wait session: call step() between re-checks of the wait condition.
class WaitState {
 public:
  explicit WaitState(const WaitPolicy& policy = default_wait_policy())
      : policy_(&policy), park_next_(policy.park_initial) {}

  /// Perform one adaptive wait step (spin, yield, or park).
  void step() {
    if (iter_ < policy_->spin_iters) {
      cpu_relax();
    } else if (iter_ < policy_->spin_iters + policy_->yield_iters) {
      std::this_thread::yield();
    } else {
      std::this_thread::sleep_for(park_next_);
      park_next_ = std::min(park_next_ * 2, policy_->park_max);
    }
    ++iter_;
  }

  /// The spin and yield phases are used up: the next step() sleeps.
  bool will_park() const { return iter_ >= policy_->spin_iters + policy_->yield_iters; }

  /// Progress was observed: restart the escalation from the spin phase.
  void reset() {
    iter_ = 0;
    park_next_ = policy_->park_initial;
  }

 private:
  const WaitPolicy* policy_;
  std::uint32_t iter_ = 0;
  std::chrono::nanoseconds park_next_;
};

}  // namespace splitsim::sync
