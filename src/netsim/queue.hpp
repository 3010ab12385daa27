// Output queues for network devices: drop-tail with optional DCTCP-style
// ECN threshold marking (mark ECT packets when the instantaneous queue
// length at enqueue is at or above K packets), or classic RED
// (probabilistic marking/dropping on an EWMA average queue length).
#pragma once

#include <cstdint>
#include <memory>

#include "proto/packet.hpp"
#include "util/rng.hpp"

namespace splitsim::netsim {

/// FIFO of packets in a power-of-two ring that is allocated on the first
/// push and doubles when full, so idle devices hold no buffer and a busy
/// one stops allocating once it reaches its peak depth. References from
/// front() stay valid until the next push_back(), whose argument must not
/// refer into the same ring.
class PacketRing {
 public:
  bool empty() const { return size_ == 0; }
  std::uint32_t size() const { return size_; }
  std::uint32_t capacity() const { return mask_ + 1; }

  proto::Packet& front() { return buf_[head_]; }
  const proto::Packet& front() const { return buf_[head_]; }

  void push_back(const proto::Packet& p) {
    if (size_ == capacity()) grow();
    buf_[(head_ + size_) & mask_] = p;
    ++size_;
  }

  void pop_front() {
    head_ = (head_ + 1) & mask_;
    --size_;
  }

 private:
  void grow();

  std::unique_ptr<proto::Packet[]> buf_;
  std::uint32_t mask_ = static_cast<std::uint32_t>(-1);  ///< capacity - 1; capacity 0 when unallocated
  std::uint32_t head_ = 0;
  std::uint32_t size_ = 0;
};

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

  /// Oldest queued packet. Precondition: !empty().
  const proto::Packet& front() const { return q_.front(); }
  void pop_front() {
    bytes_ -= q_.front().wire_bytes();
    q_.pop_front();
  }

  std::uint32_t packets() const { return q_.size(); }
  std::uint64_t bytes() const { return bytes_; }
  bool empty() const { return q_.empty(); }

  std::uint64_t drops() const { return drops_; }
  std::uint64_t ecn_marks() const { return marks_; }

 private:
  bool red_admit(proto::Packet& p);

  QueueConfig cfg_;
  PacketRing q_;
  std::uint64_t bytes_ = 0;
  std::uint64_t drops_ = 0;
  std::uint64_t marks_ = 0;
  double red_avg_ = 0.0;
  Rng red_rng_{0x8ED, 1};
};

}  // namespace splitsim::netsim
