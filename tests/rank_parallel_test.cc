// Schedule independence: running simulated ranks concurrently on the
// task-scheduling pool, or on a pool of any width, must not change any engine's
// *answers* or its modeled network totals. Wire bytes and message counts are
// schedule-invariant by construction (ordered route sections, owner-partitioned
// claims, rank-ordered slot folding), and every per-chunk parallel merge folds
// its ChunkBuffers slots in block order, so outputs are byte-identical; this
// test asserts it end to end for every engine on PageRank and BFS.
#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "bench_support/runner.h"
#include "core/weighted_graph.h"
#include "native/cf.h"
#include "obs/attrib.h"
#include "rt/metrics.h"
#include "rt/rank_exec.h"
#include "tests/test_graphs.h"
#include "util/thread_pool.h"

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

class RankParallelTest : public ::testing::TestWithParam<EngineKind> {
 protected:
  void TearDown() override {
    rt::SetSerialRanks(-1);
    ThreadPool::Default().Resize(0);
  }
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

  EXPECT_EQ(parallel.ranks, serial.ranks) << EngineName(engine);
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

// Pool width is not an input either: PageRank bytes, BFS distances and wire
// bytes must match across pool widths 1 and 4 under both rank schedules. Four
// ranks of a scale-12 graph give every rank several blocks at each engine's
// grain, so per-block merges really run concurrently at width 4.
TEST_P(RankParallelTest, OutputsIndependentOfPoolWidth) {
  const EngineKind engine = GetParam();
  const EdgeList pr_edges = testgraphs::SmallRmat(12);
  const EdgeList bfs_edges = testgraphs::SmallRmatUndirected(12);
  rt::PageRankOptions pr_opt;
  pr_opt.iterations = 4;
  RunConfig config;
  config.num_ranks = engine == EngineKind::kTaskflow ? 1 : 4;

  struct Output {
    std::vector<double> ranks;
    std::vector<uint32_t> distance;
    uint64_t pr_bytes = 0;
    uint64_t bfs_bytes = 0;
  };
  std::vector<Output> outputs;
  for (unsigned width : {1u, 4u}) {
    ThreadPool::Default().Resize(width);
    for (int serial : {0, 1}) {
      rt::SetSerialRanks(serial);
      auto pr = RunPageRank(engine, pr_edges, pr_opt, config);
      auto bfs = RunBfs(engine, bfs_edges, rt::BfsOptions{1}, config);
      outputs.push_back({std::move(pr.ranks), std::move(bfs.distance),
                         pr.metrics.bytes_sent, bfs.metrics.bytes_sent});
    }
  }

  const Output& first = outputs[0];
  ASSERT_FALSE(first.ranks.empty());
  for (size_t i = 1; i < outputs.size(); ++i) {
    const Output& other = outputs[i];
    SCOPED_TRACE(::testing::Message() << EngineName(engine) << " run " << i
                                      << " (width " << (i < 2 ? 1 : 4)
                                      << ", serial ranks " << i % 2 << ")");
    ASSERT_EQ(other.ranks.size(), first.ranks.size());
    EXPECT_EQ(std::memcmp(other.ranks.data(), first.ranks.data(),
                          first.ranks.size() * sizeof(double)),
              0);
    EXPECT_EQ(other.distance, first.distance);
    EXPECT_EQ(other.pr_bytes, first.pr_bytes);
    EXPECT_EQ(other.bfs_bytes, first.bfs_bytes);
  }
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

// Every engine's CF reports its training error through CfRmse, which sums
// per-block squared errors in block order: the same bits at any pool width.
TEST(RankParallelCfTest, RmseIndependentOfPoolWidth) {
  const BipartiteGraph g = testgraphs::SmallRatings().ToGraph();
  constexpr int kFactors = 8;
  std::vector<double> user_factors;
  std::vector<double> item_factors;
  native::CfInitFactors(g.num_users(), kFactors, 3, &user_factors);
  native::CfInitFactors(g.num_items(), kFactors, 4, &item_factors);
  std::vector<double> rmse;
  for (unsigned width : {1u, 4u}) {
    ThreadPool::Default().Resize(width);
    rmse.push_back(native::CfRmse(g, user_factors, item_factors, kFactors));
  }
  ThreadPool::Default().Resize(0);
  ASSERT_GT(g.num_users(), 128u) << "needs several 128-user blocks";
  EXPECT_GT(rmse[0], 0.0);
  EXPECT_EQ(std::memcmp(&rmse[0], &rmse[1], sizeof(double)), 0)
      << rmse[0] << " vs " << rmse[1];
}

}  // namespace
}  // namespace maze::bench
