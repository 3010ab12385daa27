#include "netsim/switch.hpp"

namespace splitsim::netsim {

std::span<const std::uint32_t> SwitchNode::routes(proto::Ipv4Addr dst) const {
  if (index_ == nullptr) return {};
  auto it = index_->find(dst);
  if (it == index_->end()) return {};
  return {ports_.data() + first_[it->second], ports_.data() + first_[it->second + 1]};
}

std::size_t SwitchNode::lookup(const proto::Packet& p) const {
  auto group = routes(p.dst_ip);
  if (group.empty()) return SIZE_MAX;
  if (group.size() == 1) return group[0];
  // Deterministic flow hash (splitmix64 finalizer for full avalanche):
  // same 5-tuple always takes the same path, so TCP flows never reorder.
  std::uint64_t h = (static_cast<std::uint64_t>(p.src_ip) << 32) | p.dst_ip;
  h ^= (static_cast<std::uint64_t>(p.src_port) << 16) | p.dst_port;
  h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9ull;
  h = (h ^ (h >> 27)) * 0x94D049BB133111EBull;
  h ^= h >> 31;
  return group[h % group.size()];
}

void SwitchNode::handle_packet(proto::Packet&& p, std::size_t in_dev) {
  if (p.ttl == 0) return;
  p.ttl--;
  if (app_ != nullptr && app_->process(*this, p, in_dev)) return;
  std::size_t out = lookup(p);
  if (out == SIZE_MAX) {
    ++unroutable_;
    return;
  }
  send_out(std::move(p), out);
}

}  // namespace splitsim::netsim
