#include "netsim/queue.hpp"

namespace splitsim::netsim {

void PacketRing::grow() {
  const std::uint32_t cap = capacity() == 0 ? 4 : 2 * capacity();
  auto next = std::make_unique<proto::Packet[]>(cap);
  for (std::uint32_t i = 0; i < size_; ++i) next[i] = buf_[(head_ + i) & mask_];
  buf_ = std::move(next);
  mask_ = cap - 1;
  head_ = 0;
}

bool DropTailQueue::enqueue(proto::Packet&& p) {
  if (q_.size() >= cfg_.capacity_pkts) {
    ++drops_;
    return false;
  }
  if (cfg_.red_enabled) {
    if (!red_admit(p)) {
      ++drops_;
      return false;
    }
  } else if (cfg_.ecn_enabled && p.ecn_capable && q_.size() >= cfg_.ecn_threshold_pkts) {
    p.ecn_ce = true;
    ++marks_;
  }
  bytes_ += p.wire_bytes();
  q_.push_back(p);
  return true;
}

bool DropTailQueue::red_admit(proto::Packet& p) {
  // Classic RED on the EWMA average queue length: below min_th admit; above
  // max_th mark (ECT) or drop (non-ECT) always; in between, with
  // probability max_p * (avg - min) / (max - min).
  red_avg_ = (1.0 - cfg_.red_weight) * red_avg_ +
             cfg_.red_weight * static_cast<double>(q_.size());
  bool congested;
  if (red_avg_ < cfg_.red_min_th) {
    congested = false;
  } else if (red_avg_ >= cfg_.red_max_th) {
    congested = true;
  } else {
    double prob = cfg_.red_max_p * (red_avg_ - cfg_.red_min_th) /
                  static_cast<double>(cfg_.red_max_th - cfg_.red_min_th);
    congested = red_rng_.chance(prob);
  }
  if (!congested) return true;
  if (p.ecn_capable) {
    p.ecn_ce = true;
    ++marks_;
    return true;
  }
  return false;  // non-ECT traffic is dropped early
}

}  // namespace splitsim::netsim
