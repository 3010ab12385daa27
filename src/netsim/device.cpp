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
  if (&peer.node() == node_) throw std::logic_error("Device::connect_to: node wired to itself");
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
  const proto::Packet& p = queue_.front();
  SimTime tx_delay = bw_.tx_time(p.link_bytes());
  busy_until_ = node_->kernel().now() + tx_delay;
  ++tx_packets_;
  tx_bytes_ += p.wire_bytes();
  wire_.push_back(p);
  queue_.pop_front();
  node_->kernel().schedule_in(tx_delay, [this] { tx_done(); });
}

void Device::tx_done() {
  busy_ = false;
  if (peer_ != nullptr) {
    node_->kernel().schedule_in(latency_, [this] { arrive(); });
  } else {
    if (external_) external_(wire_.front(), node_->kernel().now());
    // else: unconnected device, the frame vanishes (useful in tests)
    wire_.pop_front();
  }
  try_transmit();
}

void Device::arrive() {
  // Delivered in place: only this device's own node transmits into the
  // ring, and connect_to keeps that node off the receiving end, so the
  // peer's handle_packet cannot grow the ring under the reference.
  peer_->deliver(std::move(wire_.front()));
  wire_.pop_front();
}

void Device::deliver(proto::Packet&& p) {
  ++rx_packets_;
  node_->handle_packet(std::move(p), index_);
}

}  // namespace splitsim::netsim
