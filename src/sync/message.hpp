// Fixed-size message slots exchanged over SplitSim channels.
//
// SplitSim inherits the SimBricks transport model: component simulators
// exchange fixed-size, timestamped messages over shared-memory queues. A
// message is either a SYNC (pure synchronization, no payload) or a data
// message of a protocol-specific type (Ethernet frame, PCI transaction,
// memory packet, ...). Payloads are serialized into the slot, never passed
// by pointer, so the transport is process-portable.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "util/padding.hpp"
#include "util/time.hpp"

namespace splitsim::sync {

/// Well-known message types. Protocol libraries define their own types
/// starting at kUserTypeBase.
enum class MsgType : std::uint16_t {
  kSync = 0,   ///< synchronization-only message
  kFin = 1,    ///< sender has terminated; horizon becomes unbounded
  kUser = 16,  ///< first protocol-specific type
};

inline constexpr std::uint16_t kUserTypeBase = static_cast<std::uint16_t>(MsgType::kUser);

/// A receiver decoded a payload as a struct larger than the bytes the
/// sender stored (Message::as). Checked in every build: slots copy only the
/// bytes a message carries, so anything past `size` is stale.
class PayloadSizeError : public std::runtime_error {
 public:
  PayloadSizeError(std::uint16_t type, std::size_t wanted, std::size_t size)
      : std::runtime_error("message type " + std::to_string(type) + ": decoding " +
                           std::to_string(wanted) + " payload bytes, but it carries " +
                           std::to_string(size)) {}
};

/// One fixed-size channel slot. 256 bytes: 16-byte header + 240-byte payload.
/// Only the header and the first `size` payload bytes are meaningful: rings,
/// sockets and digests copy or read exactly those.
struct Message {
  static constexpr std::size_t kPayloadCapacity = 240;

  /// Zero-filled message, header and payload.
  Message() : payload{} {}
  /// Payload-free message (SYNC, FIN, or data whose payload store() fills
  /// next): writes the 16-byte header only and leaves the payload unwritten.
  Message(SimTime ts, std::uint16_t msg_type, std::uint16_t sub = 0)
      : timestamp(ts), type(msg_type), subchannel(sub) {}

  SimTime timestamp = 0;        ///< sender's simulation time when sent
  std::uint16_t type = 0;       ///< MsgType or protocol-specific
  std::uint16_t subchannel = 0; ///< trunk demultiplexing id (0 = untagged)
  std::uint32_t size = 0;       ///< payload bytes in use

  alignas(8) unsigned char payload[kPayloadCapacity];

  bool is_sync() const { return type == static_cast<std::uint16_t>(MsgType::kSync); }
  bool is_fin() const { return type == static_cast<std::uint16_t>(MsgType::kFin); }

  /// Serialize a trivially-copyable struct into the payload. Padding bytes
  /// inside T are zeroed so the serialized bytes are a pure function of the
  /// value — memcpy alone would copy whatever garbage the source object's
  /// padding holds, making payload-hashing (EventDigest) nondeterministic.
  template <typename T>
  void store(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>, "payload must be POD");
    static_assert(sizeof(T) <= kPayloadCapacity, "payload too large for slot");
    T tmp = value;
    clear_padding(&tmp);
    std::memcpy(payload, &tmp, sizeof(T));
    size = sizeof(T);
  }

  /// Deserialize the payload as a trivially-copyable struct. Throws
  /// PayloadSizeError when T is larger than the stored payload.
  template <typename T>
  T as() const {
    static_assert(std::is_trivially_copyable_v<T>, "payload must be POD");
    static_assert(sizeof(T) <= kPayloadCapacity, "payload too large for slot");
    if (sizeof(T) > size) throw PayloadSizeError(type, sizeof(T), size);
    T value;
    std::memcpy(&value, payload, sizeof(T));
    return value;
  }
};

static_assert(sizeof(Message) == 256, "Message slots must stay 256 bytes");
static_assert(std::is_trivially_copyable_v<Message>);

}  // namespace splitsim::sync
