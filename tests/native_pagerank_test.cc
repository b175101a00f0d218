#include "native/pagerank.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "native/reference.h"
#include "tests/test_graphs.h"
#include "util/thread_pool.h"

namespace maze::native {
namespace {

using testgraphs::EdgeCaseShapes;
using testgraphs::Figure2;
using testgraphs::SmallRmat;

void ExpectRanksNear(const std::vector<double>& got,
                     const std::vector<double>& want, double tol) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_NEAR(got[i], want[i], tol) << "vertex " << i;
  }
}

TEST(NativePageRankTest, Figure2HandComputedFirstIteration) {
  Graph g = Graph::FromEdges(Figure2());
  rt::PageRankOptions opt;
  opt.iterations = 1;
  opt.jump = 0.3;
  auto result = PageRank(g, opt, rt::EngineConfig{});
  // All PR start at 1.0. contrib: v0: 1/2, v1: 1/2, v2: 1, v3: 0 (deg 0).
  // PR(0) = 0.3; PR(1) = 0.3 + 0.7*0.5 = 0.65;
  // PR(2) = 0.3 + 0.7*(0.5+0.5) = 1.0; PR(3) = 0.3 + 0.7*(0.5+1.0) = 1.35.
  ASSERT_EQ(result.ranks.size(), 4u);
  EXPECT_NEAR(result.ranks[0], 0.3, 1e-12);
  EXPECT_NEAR(result.ranks[1], 0.65, 1e-12);
  EXPECT_NEAR(result.ranks[2], 1.0, 1e-12);
  EXPECT_NEAR(result.ranks[3], 1.35, 1e-12);
}

TEST(NativePageRankTest, MatchesReferenceOnRmat) {
  Graph g = Graph::FromEdges(SmallRmat());
  rt::PageRankOptions opt;
  opt.iterations = 5;
  auto result = PageRank(g, opt, rt::EngineConfig{});
  auto expected = ReferencePageRank(g, 5, opt.jump);
  ExpectRanksNear(result.ranks, expected, 1e-9);
}

TEST(NativePageRankTest, MatchesReferenceOnEdgeCaseShapes) {
  rt::PageRankOptions opt;
  opt.iterations = 5;
  for (const EdgeList& el : EdgeCaseShapes()) {
    Graph g = Graph::FromEdges(el);
    auto expected = ReferencePageRank(g, opt.iterations, opt.jump);
    for (int ranks : {1, 2, 4}) {
      SCOPED_TRACE(::testing::Message()
                   << el.num_vertices << " vertices, " << el.edges.size()
                   << " edges, " << ranks << " ranks");
      rt::EngineConfig config;
      config.num_ranks = ranks;
      ExpectRanksNear(PageRank(g, opt, config).ranks, expected, 1e-12);
    }
  }
}

// Each row sums its in-edges in CSR order whatever thread runs it, so the
// ranks are bit-identical at any pool width.
TEST(NativePageRankTest, BitIdenticalAcrossPoolWidths) {
  Graph g = Graph::FromEdges(SmallRmat());
  rt::PageRankOptions opt;
  opt.iterations = 5;
  ThreadPool& pool = ThreadPool::Default();
  const unsigned before = pool.num_threads();
  for (int ranks : {1, 4}) {
    rt::EngineConfig config;
    config.num_ranks = ranks;
    pool.Resize(1);
    std::vector<double> narrow = PageRank(g, opt, config).ranks;
    pool.Resize(4);
    std::vector<double> wide = PageRank(g, opt, config).ranks;
    ASSERT_EQ(narrow.size(), wide.size());
    EXPECT_EQ(std::memcmp(narrow.data(), wide.data(),
                          narrow.size() * sizeof(double)),
              0)
        << ranks << " ranks";
  }
  pool.Resize(before);
}

// Multi-rank runs must be numerically identical to single rank: partitioning
// cannot change the math.
class NativePageRankRanksTest : public ::testing::TestWithParam<int> {};

TEST_P(NativePageRankRanksTest, RankCountDoesNotChangeResult) {
  Graph g = Graph::FromEdges(SmallRmat());
  rt::PageRankOptions opt;
  opt.iterations = 4;
  rt::EngineConfig config;
  config.num_ranks = GetParam();
  auto result = PageRank(g, opt, config);
  auto expected = ReferencePageRank(g, 4, opt.jump);
  ExpectRanksNear(result.ranks, expected, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Ranks, NativePageRankRanksTest,
                         ::testing::Values(1, 2, 4, 8));

TEST(NativePageRankTest, OptimizationTogglesPreserveResults) {
  Graph g = Graph::FromEdges(SmallRmat());
  rt::PageRankOptions opt;
  opt.iterations = 3;
  rt::EngineConfig config;
  config.num_ranks = 4;
  auto expected = ReferencePageRank(g, 3, opt.jump);
  for (bool prefetch : {false, true}) {
    for (bool compress : {false, true}) {
      for (bool overlap : {false, true}) {
        NativeOptions native;
        native.software_prefetch = prefetch;
        native.compress_messages = compress;
        native.overlap_comm = overlap;
        auto result = PageRank(g, opt, config, native);
        ExpectRanksNear(result.ranks, expected, 1e-9);
      }
    }
  }
}

TEST(NativePageRankTest, CompressionReducesWireBytes) {
  Graph g = Graph::FromEdges(SmallRmat(11, 8));
  rt::PageRankOptions opt;
  opt.iterations = 8;
  rt::EngineConfig config;
  config.num_ranks = 4;
  NativeOptions compressed = NativeOptions::AllOn();
  NativeOptions raw = NativeOptions::AllOn();
  raw.compress_messages = false;
  auto with = PageRank(g, opt, config, compressed);
  auto without = PageRank(g, opt, config, raw);
  EXPECT_LT(with.metrics.bytes_sent, without.metrics.bytes_sent);
}

TEST(NativePageRankTest, MultiRankSendsBytes) {
  Graph g = Graph::FromEdges(SmallRmat());
  rt::PageRankOptions opt;
  opt.iterations = 2;
  rt::EngineConfig config;
  config.num_ranks = 4;
  auto result = PageRank(g, opt, config);
  EXPECT_GT(result.metrics.bytes_sent, 0u);
  EXPECT_GT(result.metrics.elapsed_seconds, 0.0);
  EXPECT_GT(result.metrics.memory_peak_bytes, 0u);

  auto single = PageRank(g, opt, rt::EngineConfig{});
  EXPECT_EQ(single.metrics.bytes_sent, 0u);
}

TEST(NativePageRankTest, DanglingVerticesContributeNothing) {
  // Vertex 1 has no out-edges; its rank must not be redistributed.
  EdgeList el;
  el.num_vertices = 2;
  el.edges = {{0, 1}};
  Graph g = Graph::FromEdges(el);
  rt::PageRankOptions opt;
  opt.iterations = 2;
  auto result = PageRank(g, opt, rt::EngineConfig{});
  EXPECT_NEAR(result.ranks[0], 0.3, 1e-12);
  // PR(1) after iter2 = 0.3 + 0.7 * (PR(0)=0.3)/1 = 0.51.
  EXPECT_NEAR(result.ranks[1], 0.51, 1e-12);
}

TEST(NativePageRankTest, BytesPerIterationFormula) {
  EXPECT_DOUBLE_EQ(PageRankBytesPerIteration(10, 100), 100 * 12.0 + 10 * 24.0);
}

TEST(NativePageRankTest, EarlyConvergenceDetection) {
  Graph g = Graph::FromEdges(SmallRmat(8, 4));
  rt::PageRankOptions opt;
  opt.iterations = 200;
  opt.tolerance = 1e-8;
  auto result = PageRank(g, opt, rt::EngineConfig{});
  // Converges far before the iteration cap...
  EXPECT_LT(result.iterations, 200);
  EXPECT_GT(result.iterations, 1);
  // ...to the same answer a long fixed run reaches.
  rt::PageRankOptions fixed;
  fixed.iterations = 200;
  auto reference = PageRank(g, fixed, rt::EngineConfig{});
  for (size_t v = 0; v < reference.ranks.size(); ++v) {
    ASSERT_NEAR(result.ranks[v], reference.ranks[v], 1e-6);
  }
}

TEST(NativePageRankTest, ZeroToleranceRunsAllIterations) {
  Graph g = Graph::FromEdges(SmallRmat(8, 4));
  rt::PageRankOptions opt;
  opt.iterations = 7;
  auto result = PageRank(g, opt, rt::EngineConfig{});
  EXPECT_EQ(result.iterations, 7);
}

}  // namespace
}  // namespace maze::native
