// Micro-benchmarks for the DES kernel: scheduling throughput at various
// queue depths, cancellation overhead, the self-rescheduling timer pattern,
// next_time() over a sparse calendar, a calendar that never empties beside
// far timers, and an init burst under a far first event. Every workload
// runs A/B against
// the reference binary-heap kernel (des/reference_kernel.hpp) so the
// speedup of the two-tier calendar queue is measured, not assumed. Emits BENCH_des.json (see --out).
//
// Flags: --iters=N (ops per workload), --out=PATH, --full.
#include <cstdint>
#include <functional>
#include <string>
#include <type_traits>
#include <vector>

#include "common.hpp"
#include "des/kernel.hpp"
#include "des/reference_kernel.hpp"

using namespace splitsim;
using namespace splitsim::des;
using benchutil::BenchResult;

namespace {

// Steady-state schedule+run at a fixed queue depth: pre-fill `depth` events,
// then each op schedules one event at the tail and runs the earliest.
template <typename K>
BenchResult bench_schedule_run(const std::string& name, int depth, std::uint64_t iters) {
  K k;
  SimTime t = 0;
  for (int i = 0; i < depth; ++i) k.schedule_at(++t, [] {});
  return benchutil::run_bench(name, iters, [&] {
    k.schedule_at(++t, [] {});
    k.run_next();
  });
}

template <typename K>
BenchResult bench_schedule_cancel(const std::string& name, std::uint64_t iters) {
  K k;
  SimTime t = 0;
  SimTime sink = 0;
  BenchResult r = benchutil::run_bench(name, iters, [&] {
    auto id = k.schedule_at(++t, [] {});
    k.cancel(id);
    sink ^= k.next_time();
  });
  if (sink == 1) std::printf("unreachable\n");  // keep next_time() observable
  return r;
}

template <typename K>
BenchResult bench_self_rescheduling(const std::string& name, std::uint64_t iters) {
  // The common model pattern: an event that schedules its successor.
  K k;
  std::function<void()> hop = [&] { k.schedule_in(100, hop); };
  k.schedule_at(0, hop);
  return benchutil::run_bench(name, iters, [&] { k.run_next(); });
}

// Sparse calendar: four pending events spread over the bucket window, the
// pattern of a component with a few timers per lookahead. Each step finds
// the head across ~50 empty buckets, runs it and re-arms it 100 ns later.
template <typename K>
BenchResult bench_sparse_next_time(const std::string& name, std::uint64_t iters) {
  K k;
  if constexpr (std::is_same_v<K, Kernel>) k.set_bucket_hint(50'000);  // 512 ps buckets
  constexpr SimTime kGap = 25'000;
  for (SimTime i = 1; i <= 4; ++i) k.schedule_at(i * kGap, [] {});
  SimTime sink = 0;
  BenchResult r = benchutil::run_bench(name, iters, [&] {
    sink ^= k.next_time();
    k.run_next();
    k.schedule_in(4 * kGap, [] {});
  });
  if (sink == 1) std::printf("unreachable\n");
  return r;
}

// A network queue: ten packet streams re-arming 0.3-1.5 us ahead keep the
// calendar from ever emptying, beside sixteen flow timers re-arming 28 us
// ahead, far beyond the ~2.1 us window of a 1 us lookahead. The window must
// follow the clock for the streams to stay in the bucket tier.
template <typename K>
BenchResult bench_stream_far_timers(const std::string& name, std::uint64_t iters) {
  K k;
  if constexpr (std::is_same_v<K, Kernel>) k.set_bucket_hint(from_us(1.0));
  std::vector<std::function<void()>> events(26);
  for (std::size_t i = 0; i < events.size(); ++i) {
    const SimTime gap = i < 10 ? from_ns(300) + i * from_ns(133) : from_us(28.0);
    events[i] = [&k, &events, i, gap] { k.schedule_in(gap, events[i]); };
    k.schedule_at(i * from_ns(50), events[i]);
  }
  return benchutil::run_bench(name, iters, [&] { k.run_next(); });
}

// Initialization: the first event scheduled lies far ahead (a flow start at
// 284 us) and the next 255 fall before it, then all of them run. Each op is
// one event scheduled and run.
template <typename K>
BenchResult bench_init_burst(const std::string& name, std::uint64_t iters) {
  constexpr std::uint64_t kBurst = 256;
  K k;
  std::uint64_t x = 1;
  return benchutil::run_bench(
      name, iters / kBurst,
      [&] {
        const SimTime t0 = k.now();
        k.schedule_at(t0 + from_us(284.0), [] {});
        for (std::uint64_t i = 1; i < kBurst; ++i) {
          x = x * 6364136223846793005ull + 1442695040888963407ull;
          k.schedule_at(t0 + (x >> 33) % from_us(284.0), [] {});
        }
        while (!k.empty()) k.run_next();
      },
      kBurst);
}

void add_ab(std::vector<BenchResult>& out, BenchResult opt, BenchResult ref) {
  opt.extra.emplace_back("reference_events_per_sec", ref.ops_per_sec);
  opt.extra.emplace_back("speedup_vs_reference",
                         ref.ops_per_sec > 0 ? opt.ops_per_sec / ref.ops_per_sec : 0);
  out.push_back(std::move(opt));
  out.push_back(std::move(ref));
}

}  // namespace

int main(int argc, char** argv) {
  benchutil::Args args(argc, argv);
  const std::uint64_t iters =
      static_cast<std::uint64_t>(args.get_int("--iters", args.full() ? 8'000'000 : 2'000'000));
  const std::string out = args.get("--out", "BENCH_des.json");
  benchutil::header("DES kernel micro-benchmarks (two-tier queue vs reference heap)",
                    "kernel hot path: schedule/run/cancel throughput", args.full());

  std::vector<BenchResult> results;
  for (int depth : {16, 1024, 65536}) {
    std::string suffix = "/" + std::to_string(depth);
    add_ab(results, bench_schedule_run<Kernel>("schedule_run" + suffix, depth, iters),
           bench_schedule_run<ReferenceKernel>("reference_schedule_run" + suffix, depth, iters));
  }
  add_ab(results, bench_schedule_cancel<Kernel>("schedule_cancel", iters),
         bench_schedule_cancel<ReferenceKernel>("reference_schedule_cancel", iters));
  add_ab(results, bench_self_rescheduling<Kernel>("self_rescheduling", iters),
         bench_self_rescheduling<ReferenceKernel>("reference_self_rescheduling", iters));
  add_ab(results, bench_sparse_next_time<Kernel>("sparse_next_time", iters),
         bench_sparse_next_time<ReferenceKernel>("reference_sparse_next_time", iters));
  add_ab(results, bench_stream_far_timers<Kernel>("stream_far_timers", iters),
         bench_stream_far_timers<ReferenceKernel>("reference_stream_far_timers", iters));
  add_ab(results, bench_init_burst<Kernel>("init_burst", iters),
         bench_init_burst<ReferenceKernel>("reference_init_burst", iters));

  benchutil::write_json(out, "events_per_sec", results);
  return 0;
}
