// Output queues for network devices: drop-tail with optional DCTCP-style
// ECN threshold marking (mark ECT packets when the instantaneous queue
// length at enqueue is at or above K packets), or classic RED
// (probabilistic marking/dropping on an EWMA average queue length).
#pragma once

#include <cstdint>
#include <deque>
#include <optional>

#include "proto/packet.hpp"
#include "util/rng.hpp"

namespace splitsim::netsim {

struct QueueConfig {
  std::uint32_t capacity_pkts = 1000;
  bool ecn_enabled = false;
  std::uint32_t ecn_threshold_pkts = 65;  ///< DCTCP marking threshold K

  /// RED: probabilistic early marking/dropping between min and max
  /// thresholds of the EWMA average queue length (packets). Takes
  /// precedence over threshold marking when enabled.
  bool red_enabled = false;
  std::uint32_t red_min_th = 20;
  std::uint32_t red_max_th = 60;
  double red_max_p = 0.1;
  double red_weight = 0.02;  ///< EWMA gain for the average queue
  std::uint64_t red_seed = 1;
};

class DropTailQueue {
 public:
  explicit DropTailQueue(QueueConfig cfg = {}) : cfg_(cfg), red_rng_(0x8ED, cfg.red_seed) {}

  const QueueConfig& config() const { return cfg_; }

  /// Enqueue (possibly marking CE); returns false if the packet was dropped.
  bool enqueue(proto::Packet&& p);

  std::optional<proto::Packet> dequeue();

  std::uint32_t packets() const { return static_cast<std::uint32_t>(q_.size()); }
  std::uint64_t bytes() const { return bytes_; }
  bool empty() const { return q_.empty(); }

  std::uint64_t drops() const { return drops_; }
  std::uint64_t ecn_marks() const { return marks_; }

 private:
  bool red_admit(proto::Packet& p);

  QueueConfig cfg_;
  std::deque<proto::Packet> q_;
  std::uint64_t bytes_ = 0;
  std::uint64_t drops_ = 0;
  std::uint64_t marks_ = 0;
  double red_avg_ = 0.0;
  Rng red_rng_{0x8ED, 1};
};

}  // namespace splitsim::netsim
