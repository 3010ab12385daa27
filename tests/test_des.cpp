#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <vector>

#include "des/kernel.hpp"

using namespace splitsim;
using namespace splitsim::des;

TEST(KernelTest, RunsInTimeOrder) {
  Kernel k;
  std::vector<int> order;
  k.schedule_at(30, [&] { order.push_back(3); });
  k.schedule_at(10, [&] { order.push_back(1); });
  k.schedule_at(20, [&] { order.push_back(2); });
  while (!k.empty()) k.run_next();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(k.now(), 30u);
  EXPECT_EQ(k.events_executed(), 3u);
}

TEST(KernelTest, FifoTieBreak) {
  Kernel k;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    k.schedule_at(100, [&order, i] { order.push_back(i); });
  }
  while (!k.empty()) k.run_next();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(KernelTest, ScheduleInIsRelative) {
  Kernel k;
  SimTime seen = 0;
  k.schedule_at(50, [&] {
    k.schedule_in(25, [&] { seen = k.now(); });
  });
  while (!k.empty()) k.run_next();
  EXPECT_EQ(seen, 75u);
}

TEST(KernelTest, CancelSkipsEvent) {
  Kernel k;
  bool ran = false;
  auto id = k.schedule_at(10, [&] { ran = true; });
  k.cancel(id);
  EXPECT_TRUE(k.empty());
  EXPECT_EQ(k.next_time(), kSimTimeMax);
  while (!k.empty()) k.run_next();
  EXPECT_FALSE(ran);
}

TEST(KernelTest, CancelOneOfMany) {
  Kernel k;
  std::vector<int> order;
  k.schedule_at(10, [&] { order.push_back(1); });
  auto id = k.schedule_at(20, [&] { order.push_back(2); });
  k.schedule_at(30, [&] { order.push_back(3); });
  k.cancel(id);
  while (!k.empty()) k.run_next();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(KernelTest, CancelExecutedIsNoop) {
  Kernel k;
  auto id = k.schedule_at(5, [] {});
  k.run_next();
  k.cancel(id);  // must not blow up or corrupt
  k.schedule_at(6, [] {});
  EXPECT_EQ(k.next_time(), 6u);
}

TEST(KernelTest, SchedulingInThePastThrows) {
  Kernel k;
  k.schedule_at(100, [] {});
  k.run_next();
  EXPECT_THROW(k.schedule_at(50, [] {}), std::logic_error);
}

TEST(KernelTest, RunAllAtBatchesOneInstant) {
  Kernel k;
  int count = 0;
  k.schedule_at(10, [&] {
    ++count;
    k.schedule_at(10, [&] { ++count; });  // same-time chain
  });
  k.schedule_at(10, [&] { ++count; });
  k.schedule_at(20, [&] { ++count; });
  k.run_all_at(10);
  EXPECT_EQ(count, 3);
  EXPECT_EQ(k.next_time(), 20u);
}

TEST(KernelTest, EventsMayScheduleEvents) {
  Kernel k;
  int hops = 0;
  std::function<void()> hop = [&] {
    if (++hops < 100) k.schedule_in(7, hop);
  };
  k.schedule_at(0, hop);
  while (!k.empty()) k.run_next();
  EXPECT_EQ(hops, 100);
  EXPECT_EQ(k.now(), 99u * 7u);
}

TEST(KernelTest, AdvanceToNeverGoesBack) {
  Kernel k;
  k.advance_to(100);
  EXPECT_EQ(k.now(), 100u);
  k.advance_to(50);
  EXPECT_EQ(k.now(), 100u);
}

TEST(KernelTest, RunNextOnEmptyThrows) {
  Kernel k;
  EXPECT_THROW(k.run_next(), std::logic_error);
}

// ---------------------------------------------------------------------------
// Two-tier queue specifics: handle generations, the heap tier for events
// outside the calendar window, the window sliding with the clock, and
// bucket-geometry hints.
// ---------------------------------------------------------------------------

TEST(KernelTest, StaleHandleAfterNodeReuseIsNoop) {
  Kernel k;
  int a_runs = 0, b_runs = 0;
  Kernel::EventId a = k.schedule_at(10, [&] { ++a_runs; });
  k.cancel(a);
  // The slab node behind `a` is recycled for `b`; the stale handle must
  // fail its generation check and leave `b` untouched.
  Kernel::EventId b = k.schedule_at(20, [&] { ++b_runs; });
  EXPECT_NE(a, b);
  k.cancel(a);  // stale: same slab index, older generation
  k.cancel(a);  // double-cancel: still a no-op
  while (!k.empty()) k.run_next();
  EXPECT_EQ(a_runs, 0);
  EXPECT_EQ(b_runs, 1);
}

TEST(KernelTest, FarFutureEventsSurviveWindowRotation) {
  Kernel k;
  std::vector<int> order;
  // Default geometry: 256 buckets x 2048 ps = a ~524 ns window. The first
  // (near) event pins the window base; later events far beyond the window
  // take the heap tier and either run from the heap top or migrate into
  // buckets as the window slides up to the clock. Includes a same-time FIFO
  // tie in the far tier.
  k.schedule_at(100, [&] { order.push_back(1); });
  k.schedule_at(40'000'000, [&] { order.push_back(4); });
  k.schedule_at(10'000'000, [&] { order.push_back(3); });
  k.schedule_at(600'000, [&] { order.push_back(2); });
  k.schedule_at(40'000'000, [&] { order.push_back(5); });  // FIFO tie with 4
  EXPECT_GT(k.heap_entries(), 0u);
  while (!k.empty()) k.run_next();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
  EXPECT_EQ(k.now(), 40'000'000u);
}

TEST(KernelTest, ScheduleBeforeRotatedWindowBaseStaysOrdered) {
  Kernel k;
  std::vector<int> order;
  // The empty queue rebases the window far forward on the first event;
  // then — from a callback running at that base — schedule an event
  // earlier than any bucket boundary alignment might suggest (t equals now,
  // below the aligned base edge of later buckets).
  k.schedule_at(10'000'000, [&] {
    order.push_back(1);
    k.schedule_at(10'000'001, [&] { order.push_back(2); });
    k.schedule_in(0, [&] { order.push_back(3); });  // same instant, after 1
  });
  while (!k.empty()) k.run_next();
  // Same-instant FIFO: 3 was scheduled after 2 but runs first (earlier t).
  EXPECT_EQ(order, (std::vector<int>{1, 3, 2}));
}

TEST(KernelTest, CancelInHeapTierReclaimsNode) {
  Kernel k;
  k.schedule_at(1, [] {});  // near anchor pins the window base
  std::vector<Kernel::EventId> ids;
  for (int i = 0; i < 1000; ++i) {
    ids.push_back(k.schedule_at(1'000'000'000 + i, [] {}));
  }
  EXPECT_EQ(k.heap_entries(), 1000u);
  for (auto id : ids) k.cancel(id);
  EXPECT_EQ(k.live_events(), 1u);  // only the anchor remains
  // Stale heap entries were compacted away, not left to accumulate.
  EXPECT_LT(k.heap_entries(), 128u);
  // Nodes recycle: fresh schedules reuse the freed slab capacity.
  std::size_t allocated = k.allocated_nodes();
  for (int i = 0; i < 1000; ++i) k.schedule_at(500 + i, [] {});
  EXPECT_EQ(k.allocated_nodes(), allocated);
  while (!k.empty()) k.run_next();
  EXPECT_EQ(k.events_executed(), 1001u);
}

TEST(KernelTest, BucketHintReshapesWindow) {
  Kernel k;
  k.set_bucket_hint(500);  // tiny lookahead -> finest geometry
  EXPECT_EQ(k.bucket_width(), 4u);  // 256 buckets x 4 ps >= 2 x 500 ps
  std::vector<int> order;
  k.schedule_at(10, [&] { order.push_back(1); });
  k.schedule_at(2'000'000, [&] { order.push_back(2); });  // far outside window
  // A hint while events are pending is deferred to the first window slide
  // that finds the calendar empty: here, right after event 1 runs.
  k.set_bucket_hint(1'000'000);
  while (!k.empty()) k.run_next();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(k.bucket_width(), 8192u);  // 256 x 8192 ps >= 2 x 1 us, applied at the slide
}

TEST(KernelTest, SteadyStreamStaysInCalendar) {
  // A calendar that never empties: ten streams, each re-arming itself
  // 0.3-1.5 us ahead, under a 1 us hint (a ~2.1 us window). The window
  // follows the clock, so no event ever leaves the calendar for the heap.
  Kernel k;
  k.set_bucket_hint(from_us(1.0));
  const SimTime end = from_ms(3.0);
  std::size_t max_heap = 0;
  std::uint64_t runs = 0;
  std::vector<std::function<void()>> streams(10);
  for (int i = 0; i < 10; ++i) {
    const SimTime gap = from_ns(300) + static_cast<SimTime>(i) * from_ns(133);
    streams[i] = [&, i, gap] {
      ++runs;
      max_heap = std::max(max_heap, k.heap_entries());
      k.schedule_in(gap, streams[i]);
    };
    k.schedule_at(static_cast<SimTime>(i) * from_ns(100), streams[i]);
  }
  while (k.next_time() <= end) k.run_next();
  EXPECT_GT(runs, 10'000u);
  EXPECT_EQ(max_heap, 0u);
  EXPECT_EQ(k.heap_pushes(), 0u);
}

TEST(KernelTest, EarlierInsertsAfterFarRebaseTakeTheHeap) {
  // The empty queue rebases the window on a far first event; events
  // scheduled before that base go to the heap, not into bucket 0, and run
  // first, in (time, seq) order.
  Kernel k;
  std::vector<int> order;
  k.schedule_at(from_us(284.0), [&] { order.push_back(4); });
  k.schedule_at(300, [&] { order.push_back(2); });
  k.schedule_at(100, [&] { order.push_back(1); });
  k.schedule_at(300, [&] { order.push_back(3); });
  EXPECT_EQ(k.heap_pushes(), 3u);
  EXPECT_EQ(k.next_time(), 100u);
  k.run_until(from_us(284.0));
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_TRUE(k.empty());
}

TEST(KernelTest, RunUntilStopsAfterTheLimit) {
  Kernel k;
  std::vector<int> order;
  k.schedule_at(10, [&] {
    order.push_back(1);
    k.schedule_at(20, [&] { order.push_back(2); });  // scheduled by a run event
  });
  k.schedule_at(20, [&] { order.push_back(3); });
  k.schedule_at(21, [&] { order.push_back(4); });
  k.run_until(20);
  EXPECT_EQ(order, (std::vector<int>{1, 3, 2}));
  EXPECT_EQ(k.now(), 20u);
  EXPECT_EQ(k.next_time(), 21u);
  k.run_until(kSimTimeMax);
  EXPECT_TRUE(k.empty());
}

TEST(KernelTest, LargeCaptureUsesHeapFallback) {
  Kernel k;
  struct Big {
    char data[200];
  };
  Big big{};
  big.data[0] = 42;
  int seen = 0;
  k.schedule_at(5, [big, &seen] { seen = big.data[0]; });
  static_assert(sizeof(Big) > EventCallback::kInlineCapacity);
  while (!k.empty()) k.run_next();
  EXPECT_EQ(seen, 42);
}
