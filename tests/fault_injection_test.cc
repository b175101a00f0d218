// Differential fault-injection harness: a seeded fault plan (message drops,
// duplicated frames, stragglers, rank crashes) must never change an engine's
// *answers* — recovery (ack/retry + dedup, checkpoint/restore) hides every
// injected fault from the algorithm, and only the modeled clock and the wire
// totals pay. Asserted end to end for every engine on PageRank and BFS, plus
// schedule invariance: the same plan injects the same faults and charges the
// same recovery cost under the serial and rank-parallel schedules.
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench_support/runner.h"
#include "rt/fault.h"
#include "rt/metrics.h"
#include "rt/rank_exec.h"
#include "tests/test_graphs.h"

namespace maze::bench {
namespace {

// Force a real pool before first use so the parallel schedule is exercised
// even on a single-core host (mirrors rank_parallel_test).
const bool kForcePoolSize = [] {
  setenv("MAZE_THREADS", "4", /*overwrite=*/0);
  return true;
}();

int RanksFor(EngineKind engine) {
  return engine == EngineKind::kTaskflow ? 1 : 16;
}

rt::fault::FaultSpec Plan(const std::string& text) {
  auto spec = rt::fault::ParseFaultSpec(text);
  EXPECT_TRUE(spec.ok()) << text << ": " << spec.status().ToString();
  return spec.value();
}

struct PlanCase {
  const char* name;
  const char* spec;
  bool expects_transport_faults;  // On multi-rank engines.
  bool expects_crash_recovery;    // On the bspgraph engine.
};

// The five fault families of the plan grammar. Crash plans carry a checkpoint
// interval (crash recovery without one is a death-test case, not a plan).
const PlanCase kPlans[] = {
    {"drop", "seed=11,drop=0.05,retries=64,timeout=1e-4", true, false},
    {"dup", "seed=12,dup=0.08", true, false},
    {"dropdup", "seed=15,drop=0.03,dup=0.05,retries=64,timeout=1e-4", true,
     false},
    {"straggler", "seed=13,straggle=1x3.0,straggle=0x1.5", false, false},
    {"crash", "seed=14,crash=1@2,ckpt=2,ckpt_lat=0.01", false, true},
};

class FaultInjectionTest : public ::testing::TestWithParam<EngineKind> {
 protected:
  void TearDown() override { rt::SetSerialRanks(-1); }
};

std::string EngineCaseName(const ::testing::TestParamInfo<EngineKind>& info) {
  return EngineName(info.param);
}

TEST_P(FaultInjectionTest, PageRankSurvivesEveryFaultFamily) {
  const EngineKind engine = GetParam();
  EdgeList el = testgraphs::SmallRmat(9);
  rt::PageRankOptions opt;
  opt.iterations = 4;
  RunConfig config;
  config.num_ranks = RanksFor(engine);

  rt::SetSerialRanks(1);  // Deterministic values: compare runs bit-for-bit.
  auto baseline = RunPageRank(engine, el, opt, config);

  for (const PlanCase& plan : kPlans) {
    SCOPED_TRACE(plan.name);
    RunConfig faulted = config;
    faulted.faults = Plan(plan.spec);
    auto run = RunPageRank(engine, el, opt, faulted);

    ASSERT_EQ(run.ranks.size(), baseline.ranks.size());
    for (size_t v = 0; v < baseline.ranks.size(); ++v) {
      ASSERT_EQ(run.ranks[v], baseline.ranks[v])
          << EngineName(engine) << " vertex " << v;
    }
    EXPECT_EQ(run.iterations, baseline.iterations);

    if (plan.expects_transport_faults && config.num_ranks > 1) {
      EXPECT_GT(run.metrics.faults_injected, 0u);
      // Lossy links move extra frames; the totals must show them.
      EXPECT_GT(run.metrics.bytes_sent, baseline.metrics.bytes_sent);
      EXPECT_GT(run.metrics.messages_sent, baseline.metrics.messages_sent);
    }
    if (plan.expects_crash_recovery && engine == EngineKind::kBspgraph) {
      EXPECT_EQ(run.metrics.crash_restarts, 1u);
      EXPECT_GT(run.metrics.checkpoints_written, 0u);
      EXPECT_GT(run.metrics.recovery_seconds, 0.0);
    }
    if (!plan.expects_transport_faults) {
      // Stragglers and crashes never touch the transport.
      EXPECT_EQ(run.metrics.transport_retries, 0u);
      EXPECT_EQ(run.metrics.duplicated_frames, 0u);
    }
  }
}

TEST_P(FaultInjectionTest, BfsSurvivesEveryFaultFamily) {
  const EngineKind engine = GetParam();
  EdgeList el = testgraphs::SmallRmatUndirected(9);
  rt::BfsOptions opt{3};
  RunConfig config;
  config.num_ranks = RanksFor(engine);

  rt::SetSerialRanks(1);
  auto baseline = RunBfs(engine, el, opt, config);

  for (const PlanCase& plan : kPlans) {
    SCOPED_TRACE(plan.name);
    RunConfig faulted = config;
    faulted.faults = Plan(plan.spec);
    auto run = RunBfs(engine, el, opt, faulted);

    EXPECT_EQ(run.distance, baseline.distance) << EngineName(engine);
    EXPECT_EQ(run.levels, baseline.levels);
    if (plan.expects_transport_faults && config.num_ranks > 1) {
      EXPECT_GT(run.metrics.faults_injected, 0u);
    }
    if (plan.expects_crash_recovery && engine == EngineKind::kBspgraph) {
      EXPECT_EQ(run.metrics.crash_restarts, 1u);
      EXPECT_GT(run.metrics.checkpoints_written, 0u);
    }
  }
}

// The injected faults themselves must be schedule-invariant: per-(src, dst)
// frame sequences hash the same way whether ranks run one at a time or
// concurrently, so both schedules see identical fault counts, wire totals,
// and modeled recovery cost.
TEST_P(FaultInjectionTest, FaultAccountingIsScheduleInvariant) {
  const EngineKind engine = GetParam();
  EdgeList el = testgraphs::SmallRmat(9);
  rt::PageRankOptions opt;
  opt.iterations = 4;

  for (const PlanCase& plan : kPlans) {
    SCOPED_TRACE(plan.name);
    RunConfig config;
    config.num_ranks = RanksFor(engine);
    config.faults = Plan(plan.spec);

    rt::SetSerialRanks(1);
    auto serial = RunPageRank(engine, el, opt, config);
    rt::SetSerialRanks(0);
    auto parallel = RunPageRank(engine, el, opt, config);

    EXPECT_EQ(parallel.ranks, serial.ranks) << EngineName(engine);
    EXPECT_EQ(parallel.iterations, serial.iterations);
    EXPECT_EQ(parallel.metrics.bytes_sent, serial.metrics.bytes_sent);
    EXPECT_EQ(parallel.metrics.messages_sent, serial.metrics.messages_sent);
    EXPECT_EQ(parallel.metrics.faults_injected, serial.metrics.faults_injected);
    EXPECT_EQ(parallel.metrics.transport_retries,
              serial.metrics.transport_retries);
    EXPECT_EQ(parallel.metrics.duplicated_frames,
              serial.metrics.duplicated_frames);
    EXPECT_EQ(parallel.metrics.checkpoints_written,
              serial.metrics.checkpoints_written);
    EXPECT_EQ(parallel.metrics.crash_restarts, serial.metrics.crash_restarts);
    EXPECT_DOUBLE_EQ(parallel.metrics.recovery_seconds,
                     serial.metrics.recovery_seconds);
  }
}

// Property sweep: randomized (but seeded) plans mixing all fault families must
// keep every engine converging to the fault-free answer, with CPU and
// bandwidth utilization still landing in [0, 1] bucket by bucket.
TEST_P(FaultInjectionTest, RandomPlansPreserveConvergenceAndUtilization) {
  const EngineKind engine = GetParam();
  EdgeList el = testgraphs::SmallRmat(9);
  rt::PageRankOptions opt;
  opt.iterations = 4;
  RunConfig config;
  config.num_ranks = RanksFor(engine);
  config.trace = true;

  rt::SetSerialRanks(1);
  auto baseline = RunPageRank(engine, el, opt, config);

  for (int i = 0; i < 6; ++i) {
    // Deterministic plan synthesis standing in for a fuzzer's random draws:
    // each index mixes different rates, stragglers, and (for the BSP engine)
    // a crash into one plan.
    std::ostringstream spec;
    spec << "seed=" << (1000 + 37 * i);
    if (i % 3 != 0) spec << ",drop=0.0" << (i % 3) << ",retries=64,timeout=1e-4";
    if (i % 2 == 1) spec << ",dup=0.0" << (1 + i % 5);
    spec << ",straggle=0x" << (1.0 + 0.5 * (i % 4));
    if (engine == EngineKind::kBspgraph) {
      spec << ",ckpt=" << (1 + i % 3);
      if (i % 2 == 0) spec << ",crash=1@" << (1 + i % 3) << ",ckpt_lat=0.01";
    }
    SCOPED_TRACE(spec.str());

    RunConfig faulted = config;
    faulted.faults = Plan(spec.str());
    auto run = RunPageRank(engine, el, opt, faulted);

    ASSERT_EQ(run.ranks.size(), baseline.ranks.size());
    for (size_t v = 0; v < baseline.ranks.size(); ++v) {
      ASSERT_EQ(run.ranks[v], baseline.ranks[v]) << "vertex " << v;
    }
    EXPECT_EQ(run.iterations, baseline.iterations);

    EXPECT_GE(run.metrics.cpu_utilization, 0.0);
    EXPECT_LE(run.metrics.cpu_utilization, 1.0);
    EXPECT_GE(run.metrics.recovery_seconds, 0.0);
    auto buckets = rt::UtilizationTimeline(run.metrics);
    ASSERT_FALSE(buckets.empty());
    for (const auto& b : buckets) {
      EXPECT_GE(b.cpu_busy, 0.0) << "step " << b.step << " rank " << b.rank;
      EXPECT_LE(b.cpu_busy, 1.0) << "step " << b.step << " rank " << b.rank;
      EXPECT_GE(b.bw_utilization, 0.0)
          << "step " << b.step << " rank " << b.rank;
      EXPECT_LE(b.bw_utilization, 1.0)
          << "step " << b.step << " rank " << b.rank;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Engines, FaultInjectionTest,
                         ::testing::ValuesIn(AllEngines()), EngineCaseName);

}  // namespace
}  // namespace maze::bench
