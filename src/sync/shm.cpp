#include "sync/shm.hpp"

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <new>
#include <thread>

#include <fcntl.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "sync/digest.hpp"

namespace splitsim::sync {

namespace {

constexpr std::uint64_t kShmMagic = 0x53706C53686D3031ull;  // "SplShm01"
constexpr std::uint32_t kShmVersion = 1;

struct alignas(64) ShmHeader {
  std::uint64_t magic;
  std::uint32_t version;
  std::uint32_t slot_bytes;
  std::uint64_t channel_hash;
  std::uint64_t map_hash;
  std::uint64_t latency;
  std::uint32_t ring_capacity;
  std::uint32_t pad0;
  std::atomic<std::uint32_t> ready;
  std::atomic<std::uint32_t> abort;
  std::atomic<std::int32_t> pid[2];
};
static_assert(sizeof(ShmHeader) == 64, "header layout is part of the wire format");

std::size_t ring_block_bytes(std::size_t capacity) {
  return sizeof(RingState) + capacity * sizeof(Message);
}

std::size_t segment_bytes(std::size_t capacity) {
  return sizeof(ShmHeader) + 2 * ring_block_bytes(capacity);
}

[[noreturn]] void fail(const std::string& channel, const std::string& what) {
  throw TransportError(channel, "shm transport on channel '" + channel + "': " + what);
}

}  // namespace

std::string shm_segment_name(const std::string& run_id, const std::string& channel_name) {
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(fnv1a(channel_name)));
  return "/ss." + run_id + "." + hex;
}

struct ShmChannelTransport::Mapping {
  int fd = -1;
  void* base = MAP_FAILED;
  std::size_t bytes = 0;

  ShmHeader* header() { return static_cast<ShmHeader*>(base); }
  unsigned char* at(std::size_t off) { return static_cast<unsigned char*>(base) + off; }

  ~Mapping() {
    if (base != MAP_FAILED) munmap(base, bytes);
    if (fd >= 0) close(fd);
  }
};

ShmChannelTransport::ShmChannelTransport(const ShmChannelParams& params)
    : params_(params), map_(std::make_unique<Mapping>()) {
  const std::string& chan = params_.channel_name;
  const std::size_t total = segment_bytes(params_.ring_capacity);
  map_->bytes = total;

  if (params_.create) {
    // A leftover segment from a crashed earlier run would make O_EXCL fail
    // forever; remove it first (we own this name for this run id).
    shm_unlink(params_.shm_name.c_str());
    map_->fd = shm_open(params_.shm_name.c_str(), O_CREAT | O_EXCL | O_RDWR, 0600);
    if (map_->fd < 0) fail(chan, "shm_open(create " + params_.shm_name + "): " + std::strerror(errno));
    if (ftruncate(map_->fd, static_cast<off_t>(total)) != 0) {
      fail(chan, "ftruncate: " + std::string(std::strerror(errno)));
    }
  } else {
    // The creator may not have gotten there yet: retry the open until the
    // name appears (bounded), then wait for ready below.
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(params_.open_timeout_ms);
    for (;;) {
      map_->fd = shm_open(params_.shm_name.c_str(), O_RDWR, 0600);
      if (map_->fd >= 0) break;
      if (std::chrono::steady_clock::now() >= deadline) {
        fail(chan, "peer never created segment " + params_.shm_name +
                       " (is the peer process running?)");
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    // Don't map past EOF (SIGBUS): wait for the creator's ftruncate.
    struct stat st{};
    for (;;) {
      if (fstat(map_->fd, &st) != 0) fail(chan, "fstat: " + std::string(std::strerror(errno)));
      if (static_cast<std::size_t>(st.st_size) >= total) break;
      if (std::chrono::steady_clock::now() >= deadline) {
        fail(chan, "segment " + params_.shm_name + " stuck at " +
                       std::to_string(st.st_size) + " bytes (expected " +
                       std::to_string(total) + "): ring capacity mismatch?");
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }

  map_->base = mmap(nullptr, total, PROT_READ | PROT_WRITE, MAP_SHARED, map_->fd, 0);
  if (map_->base == MAP_FAILED) fail(chan, "mmap: " + std::string(std::strerror(errno)));

  RingState* st_a = reinterpret_cast<RingState*>(map_->at(sizeof(ShmHeader)));
  RingState* st_b = reinterpret_cast<RingState*>(
      map_->at(sizeof(ShmHeader) + ring_block_bytes(params_.ring_capacity)));
  Message* slots_a = reinterpret_cast<Message*>(
      map_->at(sizeof(ShmHeader) + sizeof(RingState)));
  Message* slots_b = reinterpret_cast<Message*>(
      map_->at(sizeof(ShmHeader) + ring_block_bytes(params_.ring_capacity) + sizeof(RingState)));

  if (params_.create) {
    new (st_a) RingState();
    new (st_b) RingState();
    ShmHeader* h = new (map_->base) ShmHeader();
    h->magic = kShmMagic;
    h->version = kShmVersion;
    h->slot_bytes = static_cast<std::uint32_t>(sizeof(Message));
    h->channel_hash = fnv1a(chan);
    h->map_hash = params_.map_hash;
    h->latency = params_.latency;
    h->ring_capacity = static_cast<std::uint32_t>(params_.ring_capacity);
    h->ready.store(1, std::memory_order_release);
  } else {
    ShmHeader* h = map_->header();
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(params_.open_timeout_ms);
    while (h->ready.load(std::memory_order_acquire) == 0) {
      if (std::chrono::steady_clock::now() >= deadline) {
        fail(chan, "peer never initialized segment " + params_.shm_name);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    if (h->magic != kShmMagic) fail(chan, "bad magic (not a SplitSim channel segment)");
    if (h->version != kShmVersion) {
      fail(chan, "version mismatch: peer speaks v" + std::to_string(h->version) +
                     ", we speak v" + std::to_string(kShmVersion));
    }
    if (h->slot_bytes != sizeof(Message)) {
      fail(chan, "wire-format mismatch: peer slot size " + std::to_string(h->slot_bytes) +
                     " != ours " + std::to_string(sizeof(Message)));
    }
    if (h->ring_capacity != params_.ring_capacity) {
      fail(chan, "ring capacity mismatch: peer " + std::to_string(h->ring_capacity) +
                     " != ours " + std::to_string(params_.ring_capacity));
    }
    if (h->channel_hash != fnv1a(chan)) {
      fail(chan, "channel identity mismatch: segment was created for a different channel");
    }
    if (h->map_hash != params_.map_hash) {
      fail(chan, "channel-map mismatch: peer trunk carries a different subchannel map");
    }
    if (h->latency != params_.latency) {
      fail(chan, "latency mismatch: peer " + std::to_string(h->latency) + " != ours " +
                     std::to_string(params_.latency));
    }
  }

  ring_[0] = std::make_unique<MessageRing>(st_a, slots_a, params_.ring_capacity,
                                           /*futex_park=*/true);
  ring_[1] = std::make_unique<MessageRing>(st_b, slots_b, params_.ring_capacity,
                                           /*futex_park=*/true);
  // Wire accounting: one ring slot per message; park/wake counts come off
  // the futex slow paths of both rings (only the local side exercises them).
  wire_.fixed_frame_bytes = static_cast<std::uint32_t>(sizeof(Message));
  ring_[0]->set_park_counters(&wire_.futex_parks, &wire_.futex_wakes);
  ring_[1]->set_park_counters(&wire_.futex_parks, &wire_.futex_wakes);
}

ShmChannelTransport::~ShmChannelTransport() { stop(); }

MessageRing* ShmChannelTransport::tx_ring(int side) { return ring_[side == 0 ? 0 : 1].get(); }
MessageRing* ShmChannelTransport::rx_ring(int side) { return ring_[side == 0 ? 1 : 0].get(); }

void ShmChannelTransport::start() {
  ShmHeader* h = map_->header();
  const std::int32_t self = static_cast<std::int32_t>(getpid());
  if (params_.local_side == -1) {
    h->pid[0].store(self, std::memory_order_release);
    h->pid[1].store(self, std::memory_order_release);
  } else {
    h->pid[params_.local_side].store(self, std::memory_order_release);
  }
}

void ShmChannelTransport::stop() {
  if (stopped_) return;
  stopped_ = true;
  ShmHeader* h = map_->header();
  if (h != nullptr && map_->base != MAP_FAILED) {
    if (params_.local_side == -1) {
      h->pid[0].store(0, std::memory_order_release);
      h->pid[1].store(0, std::memory_order_release);
    } else {
      h->pid[params_.local_side].store(0, std::memory_order_release);
    }
  }
  // The name is per-run; by the time the creator stops, the peer has long
  // since opened (the handshake happens at construction), so unlinking only
  // removes the name — live mappings are unaffected.
  if (params_.create) shm_unlink(params_.shm_name.c_str());
}

std::string ShmChannelTransport::peer_failure(int side, bool fin_seen) {
  ShmHeader* h = map_->header();
  if (h->abort.load(std::memory_order_acquire) != 0) {
    return "peer process signalled abort on channel '" + params_.channel_name + "'";
  }
  if (fin_seen) return {};
  const int peer_side = side == 0 ? 1 : 0;
  const std::int32_t pid = h->pid[peer_side].load(std::memory_order_acquire);
  if (pid != 0 && kill(static_cast<pid_t>(pid), 0) != 0 && errno == ESRCH) {
    return "peer process (pid " + std::to_string(pid) + ") feeding channel '" +
           params_.channel_name + "' died before FIN";
  }
  return {};
}

void ShmChannelTransport::signal_abort() {
  ShmHeader* h = map_->header();
  if (h != nullptr && map_->base != MAP_FAILED) {
    h->abort.store(1, std::memory_order_release);
    // Kick any producer parked on a full ring in either direction.
    futex_wake_all(&reinterpret_cast<RingState*>(map_->at(sizeof(ShmHeader)))->park_seq);
    futex_wake_all(&reinterpret_cast<RingState*>(
                        map_->at(sizeof(ShmHeader) + ring_block_bytes(params_.ring_capacity)))
                        ->park_seq);
  }
}

}  // namespace splitsim::sync
