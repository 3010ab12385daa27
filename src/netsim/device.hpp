// Network device: an attachment point with an output queue and a
// transmitter. A device is wired either to a peer device in the same
// Network (internal link, pure DES events) or to an external SplitSim
// channel (cut link of a partition, or an Ethernet channel towards a NIC
// simulator); the data path is identical up to the wire.
//
// Packets stay in their device: a frame waits in the output queue's ring,
// is copied once into the device's on-wire ring when its serialization
// starts, and is handed to the peer straight from there. Transmissions are
// serialized and the link latency is constant, so frames leave the wire in
// the order they entered it, and the tx-done and arrival events capture
// only `this`: they fit the kernel's inline callback storage.
#pragma once

#include <cstdint>
#include <functional>

#include "netsim/queue.hpp"
#include "proto/packet.hpp"
#include "util/time.hpp"

namespace splitsim::netsim {

class Node;

class Device {
 public:
  /// External transmit hook: called at wire-exit time with the packet and
  /// the current simulation time. The SplitSim channel adds the
  /// propagation latency.
  using ExternalTx = std::function<void(const proto::Packet&, SimTime now)>;

  Device(Node& node, std::size_t index, Bandwidth bw, QueueConfig queue);

  Node& node() { return *node_; }
  std::size_t index() const { return index_; }
  DropTailQueue& queue() { return queue_; }

  /// Wire both directions to a peer device in the same Network.
  void connect_to(Device& peer, SimTime latency);

  /// Wire the transmit side to an external channel.
  void connect_external(ExternalTx tx) { external_ = std::move(tx); }

  bool connected() const { return peer_ != nullptr || external_ != nullptr; }

  /// Node-side transmit entry: queue the packet (ECN/drop applied), start
  /// the transmitter if idle.
  void enqueue(proto::Packet&& p);

  /// Wire-side receive entry: deliver to the owning node (now).
  void deliver(proto::Packet&& p);

  /// Exact waiting time a packet enqueued at `now` will experience before
  /// its own serialization starts: the rest of the frame being serialized
  /// plus the queued frames. Used by PTP transparent clocks to compute
  /// residence time.
  SimTime pending_wait(SimTime now) const {
    SimTime wait = busy_until_ > now ? busy_until_ - now : 0;
    return wait + bw_.tx_time(queue_.bytes());
  }

  // ---- statistics ------------------------------------------------------
  std::uint64_t tx_packets() const { return tx_packets_; }
  std::uint64_t tx_bytes() const { return tx_bytes_; }
  std::uint64_t rx_packets() const { return rx_packets_; }

 private:
  void try_transmit();
  /// The frame at the head of the wire ring finished serializing.
  void tx_done();
  /// The frame at the head of the wire ring reached the peer.
  void arrive();

  Node* node_;
  std::size_t index_;
  Bandwidth bw_;
  DropTailQueue queue_;
  /// Frames from serialization start until they reach the peer (or, on an
  /// external or unconnected device, until serialization ends), oldest first.
  PacketRing wire_;
  bool busy_ = false;
  SimTime busy_until_ = 0;

  Device* peer_ = nullptr;
  SimTime latency_ = 0;
  ExternalTx external_;

  std::uint64_t tx_packets_ = 0;
  std::uint64_t tx_bytes_ = 0;
  std::uint64_t rx_packets_ = 0;
};

}  // namespace splitsim::netsim
