#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string>
#include <thread>

#include "sync/adapter.hpp"
#include "sync/channel.hpp"
#include "sync/digest.hpp"
#include "sync/message.hpp"
#include "sync/spsc_ring.hpp"
#include "sync/trunk.hpp"

using namespace splitsim;
using namespace splitsim::sync;

TEST(MessageTest, SlotSizeFixed) {
  EXPECT_EQ(sizeof(Message), 256u);
}

TEST(MessageTest, PayloadRoundTrip) {
  struct Payload {
    std::uint32_t a;
    double b;
  };
  Message m;
  m.store(Payload{7, 2.5});
  EXPECT_EQ(m.size, sizeof(Payload));
  Payload p = m.as<Payload>();
  EXPECT_EQ(p.a, 7u);
  EXPECT_DOUBLE_EQ(p.b, 2.5);
}

TEST(MessageTest, DecodingPastStoredSizeThrows) {
  struct Payload {
    std::uint64_t a;
    std::uint64_t b;
  };
  Message m(10, kUserTypeBase + 3);  // payload-free
  try {
    (void)m.as<Payload>();
    FAIL() << "decoding a payload-free message as a struct must throw";
  } catch (const PayloadSizeError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("type " + std::to_string(kUserTypeBase + 3)), std::string::npos) << what;
    EXPECT_NE(what.find("16"), std::string::npos) << what;
    EXPECT_NE(what.find("carries 0"), std::string::npos) << what;
  }
  m.store(std::uint32_t{7});  // 4 of the 16 bytes
  EXPECT_THROW((void)m.as<Payload>(), PayloadSizeError);
  EXPECT_EQ(m.as<std::uint32_t>(), 7u);
}

TEST(RingTest, FifoOrder) {
  MessageRing ring(8);
  for (int i = 0; i < 5; ++i) {
    Message m;
    m.timestamp = static_cast<SimTime>(i);
    ASSERT_TRUE(ring.try_push(m));
  }
  for (int i = 0; i < 5; ++i) {
    const Message* m = ring.front();
    ASSERT_NE(m, nullptr);
    EXPECT_EQ(m->timestamp, static_cast<SimTime>(i));
    ring.pop();
  }
  EXPECT_TRUE(ring.empty());
}

TEST(RingTest, FullRejects) {
  MessageRing ring(4);
  Message m;
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(ring.try_push(m));
  EXPECT_FALSE(ring.try_push(m));
  ring.pop();
  EXPECT_TRUE(ring.try_push(m));
}

TEST(RingTest, WrapsAround) {
  MessageRing ring(4);
  Message m;
  for (int round = 0; round < 10; ++round) {
    m.timestamp = static_cast<SimTime>(round);
    ASSERT_TRUE(ring.try_push(m));
    const Message* f = ring.front();
    ASSERT_NE(f, nullptr);
    EXPECT_EQ(f->timestamp, static_cast<SimTime>(round));
    ring.pop();
  }
}

TEST(RingTest, ShorterMessageInReusedSlotMatchesFreshRing) {
  // Slots copy only the header and `size` payload bytes, so a reused slot
  // keeps the tail of the previous, longer message. Nothing may read it.
  struct Full {
    unsigned char bytes[Message::kPayloadCapacity];
  };
  struct Short {
    std::uint32_t a;
    std::uint16_t b;
  };
  Full full;
  std::memset(full.bytes, 0xAB, sizeof(full.bytes));
  Message big(5, kUserTypeBase);
  big.store(full);
  Message small(9, kUserTypeBase + 1, 3);
  small.store(Short{0x01020304u, 0x0506});

  MessageRing reused(2);
  for (int i = 0; i < 2; ++i) {  // fill and drain both slots with full-size payloads
    ASSERT_TRUE(reused.try_push(big));
    reused.pop();
  }
  ASSERT_TRUE(reused.try_push(small));  // lands in slot 0 again
  MessageRing fresh(2);
  ASSERT_TRUE(fresh.try_push(small));

  const Message* r = reused.front();
  const Message* f = fresh.front();
  ASSERT_NE(r, nullptr);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(r->size, sizeof(Short));
  EXPECT_EQ(r->subchannel, 3u);
  EXPECT_EQ(hash_event(42, *r), hash_event(42, *f));
  EXPECT_EQ(hash_event(42, *r), hash_event(42, small));
  EXPECT_EQ(r->as<Short>().a, f->as<Short>().a);
  EXPECT_EQ(r->as<Short>().b, f->as<Short>().b);
  EXPECT_THROW((void)r->as<Full>(), PayloadSizeError);
}

TEST(RingTest, CrossThreadTransfer) {
  MessageRing ring(64);
  constexpr int kCount = 10000;
  std::thread producer([&ring] {
    for (int i = 0; i < kCount; ++i) {
      Message m;
      m.timestamp = static_cast<SimTime>(i);
      while (!ring.try_push(m)) std::this_thread::yield();
    }
  });
  for (int i = 0; i < kCount; ++i) {
    const Message* m;
    while ((m = ring.front()) == nullptr) std::this_thread::yield();
    EXPECT_EQ(m->timestamp, static_cast<SimTime>(i));
    ring.pop();
  }
  producer.join();
}

TEST(ChannelTest, TimestampsStrictlyIncrease) {
  Channel ch("c", {.latency = 100});
  Message m;
  m.timestamp = 50;
  m.type = kUserTypeBase;
  ch.end_a().send(m);
  EXPECT_EQ(ch.end_a().last_sent(), 50u);
  // Same-timestamp message gets bumped by 1 ps.
  ch.end_a().send(m);
  EXPECT_EQ(ch.end_a().last_sent(), 51u);
  m.timestamp = 40;  // in the "past" relative to last send: also bumped
  ch.end_a().send(m);
  EXPECT_EQ(ch.end_a().last_sent(), 52u);
}

TEST(ChannelTest, PeekSkipsSyncsAndAdvancesHorizon) {
  Channel ch("c", {.latency = 100});
  ChannelEnd& a = ch.end_a();
  ChannelEnd& b = ch.end_b();

  // Initial: nothing received. The peer may still send data stamped 0,
  // received at exactly the latency, so the horizon stops just short of it.
  EXPECT_EQ(b.horizon(), 99u);

  Message sync;
  sync.timestamp = 500;
  sync.type = static_cast<std::uint16_t>(MsgType::kSync);
  a.send(sync);

  EXPECT_EQ(b.peek(), nullptr);        // sync is consumed internally
  EXPECT_EQ(b.last_recv(), 500u);
  EXPECT_EQ(b.horizon(), 600u);

  Message data;
  data.timestamp = 700;
  data.type = kUserTypeBase;
  a.send(data);
  const Message* m = b.peek();
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->timestamp, 700u);
  EXPECT_EQ(b.horizon(), 800u);
  b.consume();
  EXPECT_EQ(b.peek(), nullptr);
}

TEST(ChannelTest, FinUnboundsHorizon) {
  Channel ch("c", {.latency = 100});
  Message fin;
  fin.timestamp = 10;
  fin.type = static_cast<std::uint16_t>(MsgType::kFin);
  ch.end_a().send(fin);
  EXPECT_EQ(ch.end_b().peek(), nullptr);
  EXPECT_TRUE(ch.end_b().fin_received());
  EXPECT_EQ(ch.end_b().horizon(), kSimTimeMax);
}

TEST(ChannelTest, SingleThreadedSpillPreservesOrder) {
  Channel ch("c", {.latency = 1, .ring_capacity = 4});
  ch.set_mode(ChannelMode::kSpillSingleThread);
  constexpr int kCount = 100;  // far beyond ring capacity
  for (int i = 0; i < kCount; ++i) {
    Message m;
    m.timestamp = static_cast<SimTime>(i * 10 + 1);
    m.type = kUserTypeBase;
    ch.end_a().send(m);
  }
  for (int i = 0; i < kCount; ++i) {
    const Message* m = ch.end_b().peek();
    ASSERT_NE(m, nullptr) << "at message " << i;
    EXPECT_EQ(m->timestamp, static_cast<SimTime>(i * 10 + 1));
    ch.end_b().consume();
  }
  EXPECT_EQ(ch.end_b().peek(), nullptr);
}

TEST(ChannelTest, CoscheduledSyncTakesNoRingSlot) {
  Channel ch("c", {.latency = 100, .ring_capacity = 4});
  ch.set_mode(ChannelMode::kSpillSingleThread);
  Adapter a("a", ch.end_a());
  for (SimTime t = 1; t <= 20; ++t) a.send_sync(t * 10);
  // Twenty SYNCs through a 4-slot ring: none queued, none spilled, and the
  // peer's horizon already covers the last one.
  EXPECT_EQ(ch.end_b().rx_ring_depth(), 0u);
  EXPECT_EQ(ch.end_b().rx_spill_depth(), 0u);
  EXPECT_EQ(ch.end_a().tx_backpressure_stalls(), 0u);
  EXPECT_EQ(ch.end_b().last_recv(), 200u);
  EXPECT_EQ(ch.end_b().horizon(), 300u);
  EXPECT_EQ(a.counters().tx_syncs, 20u);
  // Data and FIN still go through the ring.
  a.send(kUserTypeBase, 250);
  a.send_fin();
  EXPECT_EQ(ch.end_b().rx_ring_depth(), 2u);
  ASSERT_NE(ch.end_b().peek(), nullptr);
  ch.end_b().consume();
  EXPECT_EQ(ch.end_b().peek(), nullptr);
  EXPECT_TRUE(ch.end_b().fin_received());
}

TEST(ChannelTest, EffectiveSyncIntervalClampedToLatency) {
  ChannelConfig cfg{.latency = 100, .sync_interval = 500};
  EXPECT_EQ(cfg.effective_sync_interval(), 100u);
  cfg.sync_interval = 0;
  EXPECT_EQ(cfg.effective_sync_interval(), 100u);
  cfg.sync_interval = 30;
  EXPECT_EQ(cfg.effective_sync_interval(), 30u);
}

TEST(ChannelTest, RingCapacityMustBePowerOfTwoAtLeastTwo) {
  // A non-power-of-two ring overwrites unconsumed messages, and capacity 0
  // reports every push as full: both must be rejected in every build.
  for (std::size_t cap : {0u, 3u, 1000u}) {
    try {
      Channel ch("bad", {.ring_capacity = cap});
      ADD_FAILURE() << "ring_capacity " << cap << " accepted";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("'bad'"), std::string::npos) << what;
      EXPECT_NE(what.find("ring_capacity " + std::to_string(cap)), std::string::npos) << what;
    }
  }
  Channel ok("ok", {.ring_capacity = 2});
  EXPECT_EQ(ok.config().ring_capacity, 2u);
}

TEST(ChannelTest, ZeroLatencyIsRejected) {
  // Latency is the lookahead: at 0 the sync interval is 0 as well, so the
  // sender's SYNC schedule divides by zero and no horizon ever advances.
  try {
    Channel ch("zero", {.latency = 0});
    ADD_FAILURE() << "latency 0 accepted";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("'zero'"), std::string::npos) << what;
    EXPECT_NE(what.find("latency"), std::string::npos) << what;
  }
  // The smallest valid latency, with sync_interval 0 ("use the latency"),
  // still builds and runs: syncs fall due every picosecond.
  Channel ch("one", {.latency = 1, .sync_interval = 0});
  EXPECT_EQ(ch.end_a().effective_sync_interval(), 1u);
  Adapter tx("tx", ch.end_a());
  Adapter rx("rx", ch.end_b());
  int delivered = 0;
  rx.set_handler([&](const Message&, SimTime t) {
    ++delivered;
    EXPECT_EQ(t, 6u);
  });
  tx.send_sync(0);
  EXPECT_EQ(tx.next_sync_due(), 1u);
  tx.send(kUserTypeBase, 7, SimTime{5});
  tx.maybe_sync(6);
  EXPECT_EQ(tx.counters().tx_syncs, 2u);
  EXPECT_EQ(rx.rx_peek().bound, 6u);
  EXPECT_TRUE(rx.deliver_one(6));
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(rx.rx_peek().bound, 7u);  // horizon: the SYNC at 6 + latency
}

TEST(AdapterTest, DeliverCountsAndDispatches) {
  Channel ch("c", {.latency = 100});
  Adapter tx("tx", ch.end_a());
  Adapter rx("rx", ch.end_b());
  int delivered = 0;
  SimTime rx_time = 0;
  rx.set_handler([&](const Message& m, SimTime t) {
    ++delivered;
    rx_time = t;
    EXPECT_EQ(m.as<int>(), 99);
  });
  tx.send(kUserTypeBase, 99, SimTime{1000});
  EXPECT_EQ(rx.rx_peek().head, 1100u);
  EXPECT_EQ(rx.rx_peek().bound, 1100u);
  EXPECT_FALSE(rx.deliver_one(1099));  // not yet due
  EXPECT_TRUE(rx.deliver_one(1100));
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(rx_time, 1100u);
  EXPECT_EQ(tx.counters().tx_msgs, 1u);
  EXPECT_EQ(rx.counters().rx_msgs, 1u);
}

TEST(AdapterTest, SyncDueBeforeAnythingSentIsZero) {
  Channel ch("c", {.latency = 100});
  Adapter a("a", ch.end_a());
  EXPECT_EQ(a.next_sync_due(), 0u);
  a.send_sync(0);
  EXPECT_EQ(a.next_sync_due(), 100u);
  a.maybe_sync(99);  // not due yet
  EXPECT_EQ(a.counters().tx_syncs, 1u);
  a.maybe_sync(100);
  EXPECT_EQ(a.counters().tx_syncs, 2u);
}

TEST(AdapterTest, NullMessageOnlyWhenItAdvances) {
  Channel ch("c", {.latency = 100});
  Adapter a("a", ch.end_a());
  a.send_sync(50);
  a.send_null(50);  // no-op: does not advance the promise
  EXPECT_EQ(a.counters().tx_syncs, 1u);
  EXPECT_EQ(a.counters().tx_nulls, 0u);
  a.send_null(60);
  EXPECT_EQ(a.counters().tx_syncs, 2u);  // nulls stay part of the SYNC total
  EXPECT_EQ(a.counters().tx_nulls, 1u);
}

TEST(TrunkTest, DemultiplexesSubchannels) {
  Channel ch("trunk", {.latency = 10});
  TrunkAdapter tx("tx", ch.end_a());
  TrunkAdapter rx("rx", ch.end_b());
  int got1 = 0, got2 = 0;
  rx.subport(1, [&](const Message& m, SimTime) { got1 = m.as<int>(); });
  rx.subport(2, [&](const Message& m, SimTime) { got2 = m.as<int>(); });
  auto p1 = tx.subport(1, nullptr);
  auto p2 = tx.subport(2, nullptr);
  p1.send(kUserTypeBase, 11, SimTime{100});
  p2.send(kUserTypeBase, 22, SimTime{100});
  EXPECT_TRUE(rx.deliver_one(111));
  EXPECT_TRUE(rx.deliver_one(111));
  EXPECT_EQ(got1, 11);
  EXPECT_EQ(got2, 22);
}

TEST(TrunkTest, DuplicateSubchannelThrows) {
  Channel ch("trunk", {.latency = 10});
  TrunkAdapter t("t", ch.end_a());
  t.subport(1, nullptr);
  EXPECT_THROW(t.subport(1, nullptr), std::logic_error);
}

TEST(TrunkTest, UnknownSubchannelThrows) {
  Channel ch("trunk", {.latency = 10});
  TrunkAdapter tx("tx", ch.end_a());
  TrunkAdapter rx("rx", ch.end_b());
  auto p = tx.subport(9, nullptr);
  p.send(kUserTypeBase, SimTime{0});
  EXPECT_THROW(rx.deliver_one(10), std::logic_error);
}

TEST(TrunkTest, SharedSyncSingleStream) {
  // The whole point of trunking: one synchronized stream for many links.
  Channel ch("trunk", {.latency = 10});
  TrunkAdapter tx("tx", ch.end_a());
  TrunkAdapter rx("rx", ch.end_b());
  rx.subport(1, [](const Message&, SimTime) {});
  rx.subport(2, [](const Message&, SimTime) {});
  tx.send_sync(40);
  EXPECT_EQ(rx.rx_peek().head, kSimTimeMax);
  EXPECT_EQ(rx.rx_peek().bound, 50u);  // one sync advanced the bound for all subchannels
}

// ---------------------------------------------------------------------------
// Property tests: randomized (seeded) checks of channel invariants.
// ---------------------------------------------------------------------------

#include "sync/digest.hpp"
#include "util/rng.hpp"

TEST(ChannelPropertyTest, DataTimestampsStrictlyIncreaseUnderCollidingSends) {
  // Whatever timestamps the producer asks for — equal, in the past, far
  // apart — data messages must leave the channel strictly ordered, and
  // SYNC/FIN must never fall behind the wire timestamp.
  Rng rng(0xC0FFEE);
  Channel ch("p", {.latency = 50, .ring_capacity = 8});
  ch.set_mode(ChannelMode::kSpillSingleThread);
  ChannelEnd& a = ch.end_a();
  SimTime t = 0;
  SimTime prev_data = 0;
  bool any_data = false;
  for (int i = 0; i < 2000; ++i) {
    Message m;
    // Mix of colliding (same t), past, and advancing timestamps.
    switch (rng.below(4)) {
      case 0: break;                          // resend at the same time
      case 1: t += rng.below(3); break;       // 0..2 ps forward
      case 2: t = t > 20 ? t - rng.below(20) : t; break;  // rewind
      default: t += rng.below(1000); break;   // jump forward
    }
    m.timestamp = t;
    bool is_sync = rng.chance(0.25);
    m.type = is_sync ? static_cast<std::uint16_t>(MsgType::kSync) : kUserTypeBase;
    // Senders never promise beyond a time they may still send data at, so a
    // rewinding producer's syncs sit at/below the wire timestamp (the clamp
    // path). Data timestamps stay fully randomized.
    if (is_sync && m.timestamp > a.last_sent()) m.timestamp = a.last_sent();
    a.send(m);
    EXPECT_GE(a.last_sent(), m.timestamp);
  }
  // Drain and check strict data monotonicity on the receive side.
  int seen = 0;
  const Message* m;
  while ((m = ch.end_b().peek()) != nullptr) {
    if (any_data) EXPECT_GT(m->timestamp, prev_data) << "at data message " << seen;
    prev_data = m->timestamp;
    any_data = true;
    ++seen;
    ch.end_b().consume();
  }
  EXPECT_GT(seen, 0);
}

TEST(ChannelPropertyTest, HorizonNeverRegressesAcrossPeekAndConsume) {
  Rng rng(0xBEEF);
  Channel ch("h", {.latency = 70, .ring_capacity = 16});
  ch.set_mode(ChannelMode::kSpillSingleThread);
  ChannelEnd& a = ch.end_a();
  ChannelEnd& b = ch.end_b();
  SimTime t = 0;
  SimTime promised = 0;  // highest sync promise; data must stay strictly beyond
  SimTime min_horizon = b.horizon();
  int pending = 0;
  for (int step = 0; step < 5000; ++step) {
    if (rng.chance(0.6)) {
      Message m;
      t += rng.below(200);
      bool is_sync = rng.chance(0.3);
      if (!is_sync && t <= promised) t = promised + 1;
      m.timestamp = t;
      m.type = is_sync ? static_cast<std::uint16_t>(MsgType::kSync) : kUserTypeBase;
      if (!m.is_sync()) ++pending;
      a.send(m);
      if (is_sync) promised = std::max(promised, a.last_sent());
    } else {
      const Message* m = b.peek();
      SimTime h = b.horizon();
      EXPECT_GE(h, min_horizon) << "horizon regressed after peek at step " << step;
      min_horizon = h;
      if (m != nullptr && rng.chance(0.8)) {
        b.consume();
        --pending;
        h = b.horizon();
        EXPECT_GE(h, min_horizon) << "horizon regressed after consume at step " << step;
        min_horizon = h;
      }
    }
  }
  // Horizon reflects everything received, even with messages still queued.
  EXPECT_GE(pending, 0);
}

TEST(ChannelPropertyTest, HorizonOverflowGuardNearSimTimeMax) {
  Channel ch("o", {.latency = 1'000'000});
  Message m;
  m.timestamp = kSimTimeMax - 10;  // last_recv + latency would wrap
  m.type = kUserTypeBase;
  ch.end_a().send(m);
  ASSERT_NE(ch.end_b().peek(), nullptr);
  EXPECT_EQ(ch.end_b().horizon(), kSimTimeMax);
  ch.end_b().consume();
  EXPECT_EQ(ch.end_b().horizon(), kSimTimeMax);
}

TEST(ChannelPropertyTest, EffectiveSyncIntervalClampingProperties) {
  Rng rng(0xFEED);
  for (int i = 0; i < 1000; ++i) {
    ChannelConfig cfg;
    cfg.latency = 1 + rng.below(1'000'000);
    cfg.sync_interval = rng.below(2'000'000);
    SimTime eff = cfg.effective_sync_interval();
    // Never exceeds the latency (the conservative lookahead bound) and is
    // never zero for a nonzero latency (progress guarantee).
    EXPECT_LE(eff, cfg.latency);
    EXPECT_GT(eff, 0u);
    if (cfg.sync_interval == 0 || cfg.sync_interval >= cfg.latency) {
      EXPECT_EQ(eff, cfg.latency);
    } else {
      EXPECT_EQ(eff, cfg.sync_interval);
    }
  }
}

TEST(ChannelPropertyTest, SyncsMayTieWithWireTimestamp) {
  // The determinism-critical rule: a SYNC at the current wire timestamp is
  // not bumped (it only moves the horizon), so null-message placement can
  // never perturb later data timestamps.
  Channel ch("tie", {.latency = 100});
  ChannelEnd& a = ch.end_a();
  Message d;
  d.timestamp = 500;
  d.type = kUserTypeBase;
  a.send(d);
  EXPECT_EQ(a.last_sent(), 500u);
  Message s;
  s.timestamp = 400;  // behind the wire: clamped up to 500, not 501
  s.type = static_cast<std::uint16_t>(MsgType::kSync);
  a.send(s);
  EXPECT_EQ(a.last_sent(), 500u);
  // The next data message is bumped only relative to earlier *data*.
  d.timestamp = 500;
  a.send(d);
  EXPECT_EQ(a.last_sent(), 501u);
}

TEST(ChannelPropertyTest, CoscheduledSyncsMatchBlockingMode) {
  // Coscheduled channels apply SYNCs to the peer end directly instead of
  // queueing them. A random stream of data, SYNCs and a final FIN, sent to
  // a spilling 4-slot coscheduled channel and to a blocking one big enough
  // never to fill, must give the receiver the same data in the same order,
  // and the same last_recv() and horizon() after every full drain.
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed * 0x2545F491u);
    Channel cos("p", {.latency = 70, .ring_capacity = 4});
    cos.set_mode(ChannelMode::kSpillSingleThread);
    Channel blk("p", {.latency = 70, .ring_capacity = 1 << 14});
    blk.set_mode(ChannelMode::kBlocking);
    Channel* chans[2] = {&cos, &blk};
    std::uint32_t payload = 0;
    bool last_was_data = false;
    auto send_both = [&](const Message& m) {
      for (Channel* c : chans) c->end_a().send(m);
      ASSERT_EQ(cos.end_a().last_sent(), blk.end_a().last_sent());
    };
    auto full_drain = [&](int step) {
      for (;;) {
        const Message* mc = cos.end_b().peek();
        const Message* mb = blk.end_b().peek();
        ASSERT_EQ(mc == nullptr, mb == nullptr) << "seed " << seed << " step " << step;
        if (mc == nullptr) break;
        ASSERT_EQ(mc->timestamp, mb->timestamp) << "seed " << seed << " step " << step;
        ASSERT_EQ(mc->as<std::uint32_t>(), mb->as<std::uint32_t>());
        cos.end_b().consume();
        blk.end_b().consume();
      }
      ASSERT_EQ(cos.end_b().last_recv(), blk.end_b().last_recv()) << "seed " << seed;
      ASSERT_EQ(cos.end_b().horizon(), blk.end_b().horizon()) << "seed " << seed;
    };
    for (int step = 0; step < 3000; ++step) {
      const SimTime t = cos.end_a().last_sent();
      double p = rng.uniform();
      if (p < 0.35) {
        // Data strictly past the last promise; a tie with the previous data
        // message gets the 1 ps bump.
        SimTime ts = t + (last_was_data && rng.chance(0.3) ? 0 : 1 + rng.below(40));
        Message m(ts, kUserTypeBase);
        m.store(payload++);
        send_both(m);
        last_was_data = true;
      } else if (p < 0.75) {
        // Behind, at or ahead of the wire: behind clamps up to a tie.
        SimTime ts = t + rng.below(60);
        ts = ts > 30 ? ts - 30 : 0;
        send_both(Message(ts, static_cast<std::uint16_t>(MsgType::kSync)));
        last_was_data = false;
      } else if (p < 0.9) {
        // Batched delivery up to a random wire limit: same data delivered.
        SimTime limit = t > 100 ? t - rng.below(100) : t;
        std::vector<SimTime> got[2];
        for (int i = 0; i < 2; ++i) {
          chans[i]->end_b().drain_until(limit, [&](const Message& m) { got[i].push_back(m.timestamp); });
        }
        ASSERT_EQ(got[0], got[1]) << "seed " << seed << " step " << step;
      } else {
        full_drain(step);
      }
    }
    send_both(Message(cos.end_a().last_sent() + 1, static_cast<std::uint16_t>(MsgType::kFin)));
    full_drain(-1);
    EXPECT_TRUE(cos.end_b().fin_received());
    EXPECT_EQ(cos.end_b().horizon(), kSimTimeMax);
  }
}

TEST(ChannelPropertyTest, SpillLockedPreservesFifoAcrossThreads) {
  // Producer floods a tiny ring from another thread while the consumer
  // drains: every message must arrive exactly once, in order, regardless
  // of how often the overflow path engages.
  Channel ch("L", {.latency = 1, .ring_capacity = 4});
  ch.set_mode(ChannelMode::kSpillLocked);
  constexpr int kCount = 20000;
  std::thread producer([&ch] {
    for (int i = 0; i < kCount; ++i) {
      Message m;
      m.timestamp = static_cast<SimTime>(i) * 2 + 1;
      m.type = kUserTypeBase;
      m.store(i);
      ch.end_a().send(m);
    }
  });
  int expected = 0;
  while (expected < kCount) {
    const Message* m = ch.end_b().peek();
    if (m == nullptr) continue;
    EXPECT_EQ(m->as<int>(), expected);
    ch.end_b().consume();
    ++expected;
  }
  producer.join();
  EXPECT_EQ(ch.end_b().peek(), nullptr);
}

TEST(DigestTest, OrderInsensitiveFold) {
  Message m1, m2, m3;
  m1.timestamp = 10; m1.type = kUserTypeBase; m1.store(1);
  m2.timestamp = 20; m2.type = kUserTypeBase; m2.store(2);
  m3.timestamp = 30; m3.type = kUserTypeBase + 1; m3.store(3);
  std::uint64_t ch = fnv1a("chan");
  EventDigest fwd, rev;
  fwd.add(hash_event(ch, m1)); fwd.add(hash_event(ch, m2)); fwd.add(hash_event(ch, m3));
  rev.add(hash_event(ch, m3)); rev.add(hash_event(ch, m1)); rev.add(hash_event(ch, m2));
  EXPECT_EQ(fwd, rev);
  EXPECT_EQ(fwd.count, 3u);
}

TEST(DigestTest, SensitiveToEveryHashedField) {
  Message base;
  base.timestamp = 10;
  base.type = kUserTypeBase;
  base.subchannel = 2;
  base.store(42);
  std::uint64_t ch = fnv1a("chan");
  std::uint64_t h0 = hash_event(ch, base);
  auto differs = [&](auto mutate) {
    Message m = base;
    mutate(m);
    return hash_event(ch, m) != h0;
  };
  EXPECT_TRUE(differs([](Message& m) { m.timestamp = 11; }));
  EXPECT_TRUE(differs([](Message& m) { m.type = kUserTypeBase + 1; }));
  EXPECT_TRUE(differs([](Message& m) { m.subchannel = 3; }));
  EXPECT_TRUE(differs([](Message& m) { m.store(43); }));
  EXPECT_NE(hash_event(fnv1a("other"), base), h0);
}

TEST(DigestTest, MergeEqualsSequentialAdds) {
  std::uint64_t ch = fnv1a("c");
  EventDigest all, left, right;
  for (int i = 0; i < 10; ++i) {
    Message m;
    m.timestamp = static_cast<SimTime>(i * 7);
    m.type = kUserTypeBase;
    m.store(i);
    std::uint64_t h = hash_event(ch, m);
    all.add(h);
    (i % 2 == 0 ? left : right).add(h);
  }
  left.merge(right);
  EXPECT_EQ(left, all);
}
