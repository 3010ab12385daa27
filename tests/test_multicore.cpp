#include <gtest/gtest.h>

#include "hostsim/multicore.hpp"
#include "profiler/profiler.hpp"

using namespace splitsim;
using namespace splitsim::hostsim;
using runtime::RunMode;
using runtime::RunStats;
using runtime::Simulation;

namespace {

MulticoreConfig config(int cores) {
  MulticoreConfig cfg;
  cfg.cores = cores;
  return cfg;
}

}  // namespace

TEST(MemoryQueueTest, FifoContention) {
  MemoryQueue mq(from_ns(30.0));
  EXPECT_EQ(mq.service(0), from_ns(30.0));
  // Arrives while busy: queues behind the first access.
  EXPECT_EQ(mq.service(from_ns(10.0)), from_ns(60.0));
  // Arrives after idle: starts immediately.
  EXPECT_EQ(mq.service(from_ns(100.0)), from_ns(130.0));
  EXPECT_EQ(mq.accesses(), 3u);
}

TEST(MulticoreTest, SequentialRunsAllCores) {
  Simulation sim;
  auto& host = build_sequential_multicore(sim, config(4));
  sim.run(from_us(200.0), RunMode::kCoscheduled);
  auto iters = host.iterations();
  ASSERT_EQ(iters.size(), 4u);
  std::uint64_t total_iters = 0;
  for (auto it : iters) {
    EXPECT_GT(it, 10u);
    total_iters += it;
  }
  // Two accesses per completed iteration (plus up to one in-flight batch
  // per core at the end).
  EXPECT_GE(host.memory_accesses(), total_iters * 2);
  EXPECT_LE(host.memory_accesses(), (total_iters + 4) * 2);
}

TEST(MulticoreTest, ParallelMatchesSequentialProgress) {
  // The decomposed simulation must produce (nearly) the same simulated
  // behavior: per-core iteration counts within a tight tolerance (exact
  // equality can differ by same-instant tie ordering at the memory).
  const int kCores = 4;
  const SimTime kDur = from_us(500.0);

  Simulation seq_sim;
  auto& seq = build_sequential_multicore(seq_sim, config(kCores));
  seq_sim.run(kDur, RunMode::kCoscheduled);
  auto seq_iters = seq.iterations();

  Simulation par_sim;
  auto par = build_parallel_multicore(par_sim, config(kCores));
  par_sim.run(kDur, RunMode::kCoscheduled);
  auto par_iters = par.iterations();

  ASSERT_EQ(seq_iters.size(), par_iters.size());
  for (int c = 0; c < kCores; ++c) {
    double ratio = static_cast<double>(par_iters[c]) / static_cast<double>(seq_iters[c]);
    EXPECT_NEAR(ratio, 1.0, 0.01) << "core " << c;
  }
  EXPECT_NEAR(static_cast<double>(par.memory->accesses()),
              static_cast<double>(seq.memory_accesses()),
              static_cast<double>(seq.memory_accesses()) * 0.01);
}

TEST(MulticoreTest, ParallelThreadedMatchesCoscheduled) {
  const int kCores = 2;
  const SimTime kDur = from_us(200.0);
  auto run = [&](RunMode mode) {
    Simulation sim;
    auto par = build_parallel_multicore(sim, config(kCores));
    sim.run(kDur, mode);
    return par.iterations();
  };
  EXPECT_EQ(run(RunMode::kCoscheduled), run(RunMode::kThreaded));
}

TEST(MulticoreTest, MemoryContentionSlowsCores) {
  // More cores sharing one memory bank: fewer iterations per core.
  auto contended = [](int cores) {
    MulticoreConfig cfg;
    cfg.cores = cores;
    cfg.mem_banks = 1;
    cfg.mem_accesses_per_iter = 8;
    cfg.mem_service_time = from_ns(400.0);
    cfg.compute_instrs_per_iter = 2'000;
    Simulation sim;
    auto& h = build_sequential_multicore(sim, cfg);
    sim.run(from_us(300.0), RunMode::kCoscheduled);
    return h.iterations()[0];
  };
  EXPECT_GT(contended(1), contended(8));
}

TEST(MulticoreTest, SequentialSimulationCostGrowsWithCores) {
  // The sequential simulator burns host cycles proportional to core count —
  // the reason decomposition helps (Fig. 7's premise).
  auto busy = [](int cores) {
    Simulation sim;
    build_sequential_multicore(sim, config(cores));
    auto stats = sim.run(from_us(300.0), RunMode::kCoscheduled);
    return stats.components[0].busy_cycles;
  };
  auto b1 = busy(1);
  auto b8 = busy(8);
  EXPECT_GT(b8, b1 * 4);
}

TEST(MulticoreTest, DecompositionReducesProjectedSimTime) {
  // Fig. 7's headline: on a machine with enough cores, the SplitSim-
  // decomposed simulation is projected substantially faster than the
  // sequential one.
  const int kCores = 8;
  const SimTime kDur = from_us(300.0);

  // Project from the modeled cost of the detailed cores (virtual cycles)
  // and the deterministic message counts only. The measured rest of the
  // busy time is host noise that moved this ratio across the bound.
  auto modeled_report = [](RunStats stats) {
    for (auto& c : stats.components) c.busy_cycles = c.virtual_cycles;
    return profiler::build_report(stats);
  };

  Simulation seq_sim;
  build_sequential_multicore(seq_sim, config(kCores));
  auto seq_rep = modeled_report(seq_sim.run(kDur, RunMode::kCoscheduled));

  Simulation par_sim;
  build_parallel_multicore(par_sim, config(kCores));
  auto par_rep = modeled_report(par_sim.run(kDur, RunMode::kCoscheduled));

  profiler::PerfModelConfig pm;  // 48-core machine
  double t_seq = profiler::project_wall_seconds(seq_rep, pm);
  double t_par = profiler::project_wall_seconds(par_rep, pm);
  EXPECT_GT(t_seq / t_par, 2.0);   // clearly faster
  EXPECT_LT(t_seq / t_par, 8.01);  // but not super-linear
}
