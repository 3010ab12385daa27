#include "netsim/device.hpp"

#include <stdexcept>

#include "netsim/netsim.hpp"

namespace splitsim::netsim {

Device::Device(Node& node, std::size_t index, Bandwidth bw, QueueConfig queue)
    : node_(&node), index_(index), bw_(bw), queue_(queue) {}

void Device::connect_to(Device& peer, SimTime latency) {
  if (peer_ != nullptr || external_ != nullptr || peer.peer_ != nullptr ||
      peer.external_ != nullptr) {
    throw std::logic_error("Device::connect_to: device already connected");
  }
  peer_ = &peer;
  latency_ = latency;
  peer.peer_ = this;
  peer.latency_ = latency;
}

void Device::enqueue(proto::Packet&& p) {
  if (!queue_.enqueue(std::move(p))) return;  // dropped
  try_transmit();
}

void Device::try_transmit() {
  if (busy_ || queue_.empty()) return;
  busy_ = true;
  proto::Packet p = std::move(*queue_.dequeue());
  SimTime tx_delay = bw_.tx_time(p.link_bytes());
  busy_until_ = node_->kernel().now() + tx_delay;
  ++tx_packets_;
  tx_bytes_ += p.wire_bytes();
  auto& k = node_->kernel();
  k.schedule_in(tx_delay, [this, p = std::move(p)]() mutable {
    busy_ = false;
    if (peer_ != nullptr) {
      auto& kk = node_->kernel();
      kk.schedule_in(latency_, [peer = peer_, p = std::move(p)]() mutable {
        peer->deliver(std::move(p));
      });
    } else if (external_) {
      external_(p, node_->kernel().now());
    }
    // else: unconnected device, packet vanishes (useful in tests)
    try_transmit();
  });
}

void Device::deliver(proto::Packet&& p) {
  ++rx_packets_;
  node_->handle_packet(std::move(p), index_);
}

}  // namespace splitsim::netsim
