#include "sync/socket.hpp"

#include <cerrno>
#include <chrono>
#include <cstring>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "sync/digest.hpp"
#include "sync/wait.hpp"
#include "util/cycles.hpp"

namespace splitsim::sync {

namespace {

constexpr std::uint64_t kTrunkMagic = 0x53706C54726B3031ull;  // "SplTrk01"
constexpr std::uint32_t kTrunkVersion = 1;

struct SocketHello {
  std::uint64_t magic;
  std::uint32_t version;
  std::uint32_t slot_bytes;
  std::uint64_t channel_hash;
  std::uint64_t map_hash;
  std::uint64_t latency;
  std::uint32_t staging_capacity;
  std::uint32_t pad;
  /// Sender's rdcycles() when it built this hello: the clock-calibration
  /// exchange. Receivers store (local rdcycles at receipt - hello_tsc) as
  /// WireCounters::clock_skew_cycles — on one machine that is handshake
  /// latency; across machines, the TSC offset a merge must subtract. 0 from
  /// an old peer is treated as "no calibration" (field was reserved).
  std::uint64_t hello_tsc;
  std::uint64_t reserved;
};
static_assert(sizeof(SocketHello) == 64, "hello layout is part of the wire format");

struct FrameHeader {
  SimTime timestamp;
  std::uint16_t type;
  std::uint16_t subchannel;
  std::uint32_t size;
};
static_assert(sizeof(FrameHeader) == 16, "frame header layout is part of the wire format");

[[noreturn]] void fail(const std::string& channel, const std::string& what) {
  throw TransportError(channel, "socket transport on channel '" + channel + "': " + what);
}

/// Blocking full write with SIGPIPE suppressed. Returns false on error.
bool write_all(int fd, const void* buf, std::size_t n) {
  const char* p = static_cast<const char*>(buf);
  while (n > 0) {
    ssize_t w = ::send(fd, p, n, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += w;
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

/// Full read. Returns 1 on success, 0 on clean EOF at a frame boundary
/// (nothing read yet), -1 on error or truncated frame.
int read_all(int fd, void* buf, std::size_t n) {
  char* p = static_cast<char*>(buf);
  std::size_t got = 0;
  while (got < n) {
    ssize_t r = ::recv(fd, p + got, n - got, 0);
    if (r < 0) {
      if (errno == EINTR) continue;
      return -1;
    }
    if (r == 0) return got == 0 ? 0 : -1;
    got += static_cast<std::size_t>(r);
  }
  return 1;
}

/// read_all with a poll()-based deadline (handshake only; data pumps block
/// indefinitely and are unblocked by shutdown()).
int read_all_deadline(int fd, void* buf, std::size_t n, std::uint64_t timeout_ms) {
  char* p = static_cast<char*>(buf);
  std::size_t got = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (got < n) {
    auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                    deadline - std::chrono::steady_clock::now())
                    .count();
    if (left <= 0) return -2;
    struct pollfd pfd{fd, POLLIN, 0};
    int pr = ::poll(&pfd, 1, static_cast<int>(left));
    if (pr < 0) {
      if (errno == EINTR) continue;
      return -1;
    }
    if (pr == 0) return -2;
    ssize_t r = ::recv(fd, p + got, n - got, 0);
    if (r < 0) {
      if (errno == EINTR) continue;
      return -1;
    }
    if (r == 0) return 0;
    got += static_cast<std::size_t>(r);
  }
  return 1;
}

}  // namespace

int tcp_listen_loopback(std::uint16_t& port_out) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) fail("", "socket(): " + std::string(std::strerror(errno)));
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  struct sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  if (::bind(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 4) != 0) {
    int e = errno;
    ::close(fd);
    fail("", "bind/listen: " + std::string(std::strerror(e)));
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<struct sockaddr*>(&addr), &len) != 0) {
    int e = errno;
    ::close(fd);
    fail("", "getsockname: " + std::string(std::strerror(e)));
  }
  port_out = ntohs(addr.sin_port);
  return fd;
}

int tcp_accept(int listen_fd, std::uint64_t timeout_ms, const std::string& channel) {
  struct pollfd pfd{listen_fd, POLLIN, 0};
  int pr = ::poll(&pfd, 1, static_cast<int>(timeout_ms));
  if (pr <= 0) fail(channel, "accept timed out (is the peer process running?)");
  int fd = ::accept(listen_fd, nullptr, nullptr);
  if (fd < 0) fail(channel, "accept: " + std::string(std::strerror(errno)));
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

int tcp_connect(const std::string& host, std::uint16_t port, std::uint64_t timeout_ms,
                const std::string& channel) {
  struct sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    fail(channel, "bad peer address '" + host + "'");
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  for (;;) {
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) fail(channel, "socket(): " + std::string(std::strerror(errno)));
    if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) == 0) {
      int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      return fd;
    }
    ::close(fd);
    if (std::chrono::steady_clock::now() >= deadline) {
      fail(channel, "connect to " + host + ":" + std::to_string(port) +
                        " timed out (is the peer process running?)");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

SocketTransport::SocketTransport(SocketChannelParams params) : params_(std::move(params)) {
  // Staging rings exist for both sides unconditionally: the obs reporter
  // polls rx depth on both ends of every channel, remote or not.
  staging_[0] = std::make_unique<MessageRing>(params_.ring_capacity);
  staging_[1] = std::make_unique<MessageRing>(params_.ring_capacity);
  // Bytes on the wire per message: u32 length prefix + frame header + payload.
  wire_.frame_overhead = 4 + static_cast<std::uint32_t>(sizeof(FrameHeader));
}

SocketTransport::~SocketTransport() { stop(); }

MessageRing* SocketTransport::rx_ring(int side) {
  return staging_[side == 0 ? 0 : 1].get();
}

void SocketTransport::send_direct(int side, const Message& msg) {
  const int fd = params_.fd[side];
  unsigned char frame[4 + sizeof(FrameHeader) + Message::kPayloadCapacity];
  const std::uint32_t body = static_cast<std::uint32_t>(sizeof(FrameHeader)) + msg.size;
  FrameHeader hdr{msg.timestamp, msg.type, msg.subchannel, msg.size};
  std::memcpy(frame, &body, 4);
  std::memcpy(frame + 4, &hdr, sizeof(hdr));
  std::memcpy(frame + 4 + sizeof(hdr), msg.payload, msg.size);
  if (!write_all(fd, frame, 4 + sizeof(hdr) + msg.size)) {
    record_failure(side, "peer connection broke mid-send on channel '" +
                             params_.channel_name + "': " + std::strerror(errno));
    throw TransportError(params_.channel_name,
                         "send on channel '" + params_.channel_name +
                             "' failed: peer connection broke (" + std::strerror(errno) + ")");
  }
}

void SocketTransport::start() {
  if (started_) return;
  started_ = true;
  const std::string& chan = params_.channel_name;
  SocketHello mine{};
  mine.magic = kTrunkMagic;
  mine.version = kTrunkVersion;
  mine.slot_bytes = static_cast<std::uint32_t>(sizeof(Message));
  mine.channel_hash = fnv1a(chan);
  mine.map_hash = params_.map_hash;
  mine.latency = params_.latency;
  mine.staging_capacity = static_cast<std::uint32_t>(params_.ring_capacity);
  mine.hello_tsc = rdcycles();

  // Write every local hello before reading any: when both sides live in
  // this process (single-process transport swap) the hellos cross over one
  // connected pair, and read-before-write would deadlock.
  for (int side = 0; side < 2; ++side) {
    if (params_.fd[side] < 0) continue;
    if (!write_all(params_.fd[side], &mine, sizeof(mine))) {
      fail(chan, "handshake write failed: " + std::string(std::strerror(errno)));
    }
  }
  for (int side = 0; side < 2; ++side) {
    if (params_.fd[side] < 0) continue;
    SocketHello theirs{};
    int r = read_all_deadline(params_.fd[side], &theirs, sizeof(theirs),
                              params_.handshake_timeout_ms);
    if (r == -2) fail(chan, "handshake timed out (is the peer process running?)");
    if (r != 1) fail(chan, "peer closed during handshake");
    if (theirs.magic != kTrunkMagic) fail(chan, "bad magic (peer is not a SplitSim trunk)");
    if (theirs.version != kTrunkVersion) {
      fail(chan, "version mismatch: peer speaks v" + std::to_string(theirs.version) +
                     ", we speak v" + std::to_string(kTrunkVersion));
    }
    if (theirs.slot_bytes != sizeof(Message)) {
      fail(chan, "wire-format mismatch: peer slot size " +
                     std::to_string(theirs.slot_bytes) + " != ours " +
                     std::to_string(sizeof(Message)));
    }
    if (theirs.channel_hash != fnv1a(chan)) {
      fail(chan, "channel identity mismatch: peer connected a different channel here");
    }
    if (theirs.map_hash != params_.map_hash) {
      fail(chan, "channel-map mismatch: peer trunk carries a different subchannel map");
    }
    if (theirs.latency != params_.latency) {
      fail(chan, "latency mismatch: peer " + std::to_string(theirs.latency) + " != ours " +
                     std::to_string(params_.latency));
    }
    if (theirs.hello_tsc != 0) {
      wire_.clock_skew_cycles.store(
          static_cast<std::int64_t>(rdcycles() - theirs.hello_tsc),
          std::memory_order_relaxed);
    }
  }
  for (int side = 0; side < 2; ++side) {
    if (params_.fd[side] < 0) continue;
    pump_[side] = std::thread([this, side] { pump(side); });
  }
}

void SocketTransport::pump(int side) {
  const int fd = params_.fd[side];
  MessageRing* ring = staging_[side].get();
  for (;;) {
    std::uint32_t body = 0;
    int r = read_all(fd, &body, sizeof(body));
    if (r == 0) {
      // Clean EOF at a frame boundary: normal iff the peer's FIN already
      // passed through this pump.
      if (!fin_pumped_[side].load(std::memory_order_relaxed)) {
        record_failure(side, "peer process feeding channel '" + params_.channel_name +
                                 "' closed the connection before FIN");
      }
      return;
    }
    if (r < 0) {
      if (!stop_.load(std::memory_order_relaxed) &&
          !fin_pumped_[side].load(std::memory_order_relaxed)) {
        record_failure(side, "read error on channel '" + params_.channel_name +
                                 "': " + std::strerror(errno));
      }
      return;
    }
    if (body < sizeof(FrameHeader) || body > sizeof(FrameHeader) + Message::kPayloadCapacity) {
      record_failure(side, "garbage frame length " + std::to_string(body) + " on channel '" +
                               params_.channel_name + "'");
      return;
    }
    unsigned char buf[sizeof(FrameHeader) + Message::kPayloadCapacity];
    if (read_all(fd, buf, body) != 1) {
      record_failure(side, "truncated frame on channel '" + params_.channel_name + "'");
      return;
    }
    FrameHeader hdr;
    std::memcpy(&hdr, buf, sizeof(hdr));
    if (hdr.size != body - sizeof(FrameHeader)) {
      record_failure(side, "inconsistent frame on channel '" + params_.channel_name + "'");
      return;
    }
    // Only payload[0..size) is written: the ring copies and digests hash
    // exactly that much.
    Message msg(hdr.timestamp, hdr.type, hdr.subchannel);
    msg.size = hdr.size;
    std::memcpy(msg.payload, buf + sizeof(hdr), hdr.size);
    if (msg.is_fin()) fin_pumped_[side].store(true, std::memory_order_relaxed);
    WaitState wait;
    while (!ring->try_push(msg)) {
      if (stop_.load(std::memory_order_relaxed)) return;
      wait.step();
    }
  }
}

void SocketTransport::record_failure(int side, const std::string& what) {
  std::lock_guard<std::mutex> g(failure_mu_);
  if (failure_[side].empty()) failure_[side] = what;
}

std::string SocketTransport::peer_failure(int side, bool /*fin_seen*/) {
  std::lock_guard<std::mutex> g(failure_mu_);
  return failure_[side];
}

void SocketTransport::stop() {
  if (stopped_) return;
  stopped_ = true;
  stop_.store(true, std::memory_order_relaxed);
  for (int side = 0; side < 2; ++side) {
    if (params_.fd[side] >= 0) ::shutdown(params_.fd[side], SHUT_RDWR);
  }
  for (int side = 0; side < 2; ++side) {
    if (pump_[side].joinable()) pump_[side].join();
  }
  for (int side = 0; side < 2; ++side) {
    if (params_.fd[side] >= 0) {
      ::close(params_.fd[side]);
      params_.fd[side] = -1;
    }
  }
}

}  // namespace splitsim::sync
