// Micro-benchmarks for the SplitSim channel substrate: raw ring throughput,
// per-message send/peek/consume, the batched drain_until path, trunk
// multiplexing, sync-message overhead (queued, and coscheduled where a SYNC
// moves the peer's horizon without a ring slot), and payload marshalling.
// Emits BENCH_channels.json (see --out).
//
// Flags: --iters=N (messages per workload), --out=PATH, --full.
#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "sync/adapter.hpp"
#include "sync/channel.hpp"
#include "sync/spsc_ring.hpp"
#include "sync/trunk.hpp"

using namespace splitsim;
using namespace splitsim::sync;
using benchutil::BenchResult;

namespace {

BenchResult bench_ring_push_pop(std::uint64_t iters) {
  MessageRing ring(1024);
  Message m;
  m.type = kUserTypeBase;
  std::uint64_t sink = 0;
  BenchResult r = benchutil::run_bench("ring_push_pop", iters, [&] {
    ring.try_push(m);
    sink ^= ring.front()->timestamp;
    ring.pop();
  });
  if (sink == 1) std::printf("unreachable\n");
  return r;
}

BenchResult bench_send_peek_consume(std::uint64_t iters) {
  Channel ch("bench", {.latency = 500, .ring_capacity = 1024});
  Message m;
  m.type = kUserTypeBase;
  SimTime t = 0;
  std::uint64_t sink = 0;
  BenchResult r = benchutil::run_bench("channel_send_peek_consume", iters, [&] {
    m.timestamp = ++t;
    ch.end_a().send(m);
    sink ^= ch.end_b().peek()->timestamp;
    ch.end_b().consume();
  });
  if (sink == 1) std::printf("unreachable\n");
  return r;
}

// The runtime's batched delivery path: fill a burst of messages, then drain
// them with one drain_until call (one ring acquire per burst).
BenchResult bench_send_drain(std::uint64_t iters, std::uint64_t burst) {
  Channel ch("bench", {.latency = 500, .ring_capacity = 1024});
  Message m;
  m.type = kUserTypeBase;
  SimTime t = 0;
  std::uint64_t received = 0;
  BenchResult r = benchutil::run_bench(
      "channel_send_drain/" + std::to_string(burst), iters / burst,
      [&] {
        for (std::uint64_t i = 0; i < burst; ++i) {
          m.timestamp = ++t;
          ch.end_a().send(m);
        }
        ch.end_b().drain_until(t, [&](const Message& msg) { received += msg.timestamp != 0; });
      },
      burst);
  if (received == 1) std::printf("unreachable\n");
  return r;
}

BenchResult bench_sync_message_cost(std::uint64_t iters) {
  Channel ch("bench", {.latency = 500, .ring_capacity = 1024});
  Adapter tx("tx", ch.end_a());
  SimTime t = 0;
  std::uint64_t sink = 0;
  BenchResult r = benchutil::run_bench("sync_message_cost", iters, [&] {
    tx.send_sync(++t);
    sink ^= ch.end_b().peek() != nullptr;  // consumes the sync
  });
  if (sink == 1) std::printf("unreachable\n");
  return r;
}

// Coscheduled runs: the sender's periodic SYNC (due every op) and the
// receiver's poll of its bound, the pair most coscheduled batches consist of.
BenchResult bench_cosched_sync_poll(std::uint64_t iters) {
  Channel ch("bench", {.latency = 500, .ring_capacity = 1024});
  ch.set_mode(ChannelMode::kSpillSingleThread);
  Adapter tx("tx", ch.end_a());
  Adapter rx("rx", ch.end_b());
  tx.send_sync(0);
  SimTime t = 0;
  std::uint64_t sink = 0;
  BenchResult r = benchutil::run_bench("cosched_sync_send_poll", iters, [&] {
    tx.maybe_sync(t += 500);
    sink ^= rx.rx_peek().bound;
  });
  if (sink == 1) std::printf("unreachable\n");
  return r;
}

BenchResult bench_trunk_demux(std::uint64_t iters) {
  Channel ch("bench", {.latency = 500, .ring_capacity = 1024});
  TrunkAdapter tx("tx", ch.end_a());
  TrunkAdapter rx("rx", ch.end_b());
  constexpr int kSubs = 16;
  std::vector<TrunkSubPort> ports;
  std::uint64_t delivered = 0;
  for (std::uint16_t s = 0; s < kSubs; ++s) {
    ports.push_back(tx.subport(s, nullptr));
    rx.subport(s, [&delivered](const Message&, SimTime) { ++delivered; });
  }
  SimTime t = 0;
  int i = 0;
  BenchResult r = benchutil::run_bench("trunk_demux", iters, [&] {
    ports[static_cast<std::size_t>(i++ % kSubs)].send(kUserTypeBase, 1, ++t);
    rx.deliver_one(t + 500 + 8);
  });
  if (delivered != r.ops) std::printf("  (delivered %llu of %llu)\n",
                                      static_cast<unsigned long long>(delivered),
                                      static_cast<unsigned long long>(r.ops));
  return r;
}

BenchResult bench_payload_round_trip(std::uint64_t iters) {
  struct Big {
    char bytes[200];
  };
  Message m;
  Big b{};
  std::uint64_t sink = 0;
  BenchResult r = benchutil::run_bench("payload_round_trip", iters, [&] {
    b.bytes[0] = static_cast<char>(sink);
    m.store(b);
    sink ^= static_cast<std::uint64_t>(m.as<Big>().bytes[0]);
  });
  if (sink == 1) std::printf("unreachable\n");
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  benchutil::Args args(argc, argv);
  const std::uint64_t iters =
      static_cast<std::uint64_t>(args.get_int("--iters", args.full() ? 8'000'000 : 2'000'000));
  const std::string out = args.get("--out", "BENCH_channels.json");
  benchutil::header("Channel micro-benchmarks (ring, drain, trunk, payload)",
                    "channel hot path: per-message and batched delivery cost", args.full());

  std::vector<BenchResult> results;
  results.push_back(bench_ring_push_pop(iters));
  results.push_back(bench_send_peek_consume(iters));
  results.push_back(bench_send_drain(iters, 64));
  results.push_back(bench_sync_message_cost(iters));
  results.push_back(bench_cosched_sync_poll(iters));
  results.push_back(bench_trunk_demux(iters));
  results.push_back(bench_payload_round_trip(iters));

  benchutil::write_json(out, "msgs_per_sec", results);
  return 0;
}
