// Rank-parallel vs serial schedule equivalence: running simulated ranks
// concurrently on the task-scheduling pool must not change any engine's
// *answers* or its modeled network totals. Wire bytes and message counts are
// schedule-invariant by construction (ordered route sections, owner-partitioned
// claims, rank-ordered slot folding); this test asserts it end to end for every
// engine on PageRank and BFS.
#include <algorithm>
#include <cstdlib>

#include <gtest/gtest.h>

#include "bench_support/runner.h"
#include "core/weighted_graph.h"
#include "obs/attrib.h"
#include "rt/metrics.h"
#include "rt/rank_exec.h"
#include "tests/test_graphs.h"

namespace maze::bench {
namespace {

// The default pool is created lazily on first use; force it to 4 threads
// before anything touches it so the parallel schedule is exercised even on a
// single-core host (without this, ForEachRank falls back to the serial path).
const bool kForcePoolSize = [] {
  setenv("MAZE_THREADS", "4", /*overwrite=*/0);
  return true;
}();

int RanksFor(EngineKind engine) {
  return engine == EngineKind::kTaskflow ? 1 : 16;
}

// Engines that still fold some per-chunk outputs under a mutex in the order
// chunks finish, so their double sums may differ in the last bits between
// schedules. Every other engine folds in a fixed order and must match exactly.
bool FoldsInCompletionOrder(EngineKind engine) {
  return engine == EngineKind::kNative || engine == EngineKind::kVertexlab ||
         engine == EngineKind::kMatblas || engine == EngineKind::kBspgraph;
}

class RankParallelTest : public ::testing::TestWithParam<EngineKind> {
 protected:
  void TearDown() override { rt::SetSerialRanks(-1); }
};

std::string EngineCaseName(const ::testing::TestParamInfo<EngineKind>& info) {
  return EngineName(info.param);
}

TEST_P(RankParallelTest, PageRankMatchesSerialSchedule) {
  const EngineKind engine = GetParam();
  EdgeList el = testgraphs::SmallRmat(9);
  rt::PageRankOptions opt;
  opt.iterations = 4;
  RunConfig config;
  config.num_ranks = RanksFor(engine);

  rt::SetSerialRanks(1);
  auto serial = RunPageRank(engine, el, opt, config);
  rt::SetSerialRanks(0);
  auto parallel = RunPageRank(engine, el, opt, config);

  ASSERT_EQ(parallel.ranks.size(), serial.ranks.size());
  if (FoldsInCompletionOrder(engine)) {
    for (size_t v = 0; v < serial.ranks.size(); ++v) {
      ASSERT_NEAR(parallel.ranks[v], serial.ranks[v], 1e-9)
          << EngineName(engine) << " vertex " << v;
    }
  } else {
    EXPECT_EQ(parallel.ranks, serial.ranks) << EngineName(engine);
  }
  EXPECT_EQ(parallel.iterations, serial.iterations);
  EXPECT_EQ(parallel.metrics.bytes_sent, serial.metrics.bytes_sent);
  EXPECT_EQ(parallel.metrics.messages_sent, serial.metrics.messages_sent);
}

TEST_P(RankParallelTest, BfsMatchesSerialSchedule) {
  const EngineKind engine = GetParam();
  EdgeList el = testgraphs::SmallRmatUndirected(9);
  rt::BfsOptions opt{3};
  RunConfig config;
  config.num_ranks = RanksFor(engine);

  rt::SetSerialRanks(1);
  auto serial = RunBfs(engine, el, opt, config);
  rt::SetSerialRanks(0);
  auto parallel = RunBfs(engine, el, opt, config);

  EXPECT_EQ(parallel.distance, serial.distance) << EngineName(engine);
  EXPECT_EQ(parallel.levels, serial.levels);
  EXPECT_EQ(parallel.metrics.bytes_sent, serial.metrics.bytes_sent);
  EXPECT_EQ(parallel.metrics.messages_sent, serial.metrics.messages_sent);
}

TEST_P(RankParallelTest, SsspMatchesSerialSchedule) {
  const EngineKind engine = GetParam();
  if (!EngineSupportsSssp(engine)) GTEST_SKIP();
  EdgeList el = testgraphs::SmallRmatUndirected(9, 6, 7);
  WeightedGraph g = WeightedGraph::FromEdgesWithRandomWeights(el, 8.0f, 7);
  RunConfig config;
  config.num_ranks = RanksFor(engine);

  rt::SetSerialRanks(1);
  auto serial = RunSssp(engine, g, rt::SsspOptions{3}, config);
  rt::SetSerialRanks(0);
  auto parallel = RunSssp(engine, g, rt::SsspOptions{3}, config);

  EXPECT_EQ(parallel.distance, serial.distance) << EngineName(engine);
  EXPECT_EQ(parallel.metrics.bytes_sent, serial.metrics.bytes_sent);
  EXPECT_EQ(parallel.metrics.messages_sent, serial.metrics.messages_sent);
}

// Replaces measured per-rank compute with a deterministic function of
// schedule-invariant inputs and re-derives the aggregates (the
// attrib_differential_test recipe), so the attribution-JSON byte comparison is
// not at the mercy of host timer noise.
void CanonicalizeCompute(rt::RunMetrics* m) {
  double elapsed = 0;
  for (rt::StepRecord& s : m->steps) {
    if (!s.rank_compute_seconds.empty() && s.StepSeconds() > 0) {
      double max = 0;
      for (size_t r = 0; r < s.rank_compute_seconds.size(); ++r) {
        uint64_t bytes = r < s.rank_bytes.size() ? s.rank_bytes[r] : 0;
        double fake = 1e-4 * (1 + (s.step * 31 + static_cast<int>(r) * 7) % 5) +
                      static_cast<double>(bytes) * 1e-12;
        s.rank_compute_seconds[r] = fake;
        max = std::max(max, fake);
      }
      s.compute_seconds = max;
    }
    elapsed += s.StepSeconds();
  }
  m->elapsed_seconds = elapsed;
}

// The `--explain` decomposition must also be a pure function of the run's
// schedule-invariant records: identical JSON, byte for byte, across schedules.
TEST_P(RankParallelTest, AttributionJsonMatchesSerialSchedule) {
  const EngineKind engine = GetParam();
  EdgeList el = testgraphs::SmallRmat(9);
  rt::PageRankOptions opt;
  opt.iterations = 4;
  RunConfig config;
  config.num_ranks = RanksFor(engine);
  config.trace = true;

  rt::SetSerialRanks(1);
  auto serial = RunPageRank(engine, el, opt, config);
  rt::SetSerialRanks(0);
  auto parallel = RunPageRank(engine, el, opt, config);

  CanonicalizeCompute(&serial.metrics);
  CanonicalizeCompute(&parallel.metrics);
  EXPECT_EQ(obs::attrib::Attribute(serial.metrics).ToJson(),
            obs::attrib::Attribute(parallel.metrics).ToJson())
      << EngineName(engine);
}

INSTANTIATE_TEST_SUITE_P(Engines, RankParallelTest,
                         ::testing::ValuesIn(AllEngines()), EngineCaseName);

}  // namespace
}  // namespace maze::bench
