#include "native/bfs.h"

#include <gtest/gtest.h>

#include "native/reference.h"
#include "tests/test_graphs.h"

namespace maze::native {
namespace {

using testgraphs::SmallRmatUndirected;

Graph UndirectedGraph(int scale = 10, uint64_t seed = 5) {
  return Graph::FromEdges(SmallRmatUndirected(scale, 8, seed),
                          GraphDirections::kOutOnly);
}

TEST(NativeBfsTest, LineGraphDistances) {
  EdgeList el;
  el.num_vertices = 5;
  el.edges = {{0, 1}, {1, 2}, {2, 3}, {3, 4}};
  el.Symmetrize();
  Graph g = Graph::FromEdges(el, GraphDirections::kOutOnly);
  auto result = Bfs(g, rt::BfsOptions{0}, rt::EngineConfig{});
  EXPECT_EQ(result.distance, (std::vector<uint32_t>{0, 1, 2, 3, 4}));
  EXPECT_EQ(result.levels, 5);
}

TEST(NativeBfsTest, UnreachableVerticesStayInfinite) {
  EdgeList el;
  el.num_vertices = 4;
  el.edges = {{0, 1}, {1, 0}};  // 2 and 3 are isolated.
  Graph g = Graph::FromEdges(el, GraphDirections::kOutOnly);
  auto result = Bfs(g, rt::BfsOptions{0}, rt::EngineConfig{});
  EXPECT_EQ(result.distance[1], 1u);
  EXPECT_EQ(result.distance[2], kInfiniteDistance);
  EXPECT_EQ(result.distance[3], kInfiniteDistance);
}

TEST(NativeBfsTest, MatchesReferenceOnRmat) {
  Graph g = UndirectedGraph();
  auto result = Bfs(g, rt::BfsOptions{1}, rt::EngineConfig{});
  EXPECT_EQ(result.distance, ReferenceBfs(g, 1));
}

class NativeBfsRanksTest : public ::testing::TestWithParam<int> {};

TEST_P(NativeBfsRanksTest, RankCountDoesNotChangeDistances) {
  Graph g = UndirectedGraph();
  rt::EngineConfig config;
  config.num_ranks = GetParam();
  auto result = Bfs(g, rt::BfsOptions{3}, config);
  EXPECT_EQ(result.distance, ReferenceBfs(g, 3));
}

INSTANTIATE_TEST_SUITE_P(Ranks, NativeBfsRanksTest, ::testing::Values(1, 2, 4, 8));

TEST(NativeBfsTest, AllOptimizationTogglesPreserveDistances) {
  Graph g = UndirectedGraph(9);
  auto expected = ReferenceBfs(g, 0);
  rt::EngineConfig config;
  config.num_ranks = 4;
  for (bool bitvec : {false, true}) {
    for (bool compress : {false, true}) {
      for (bool overlap : {false, true}) {
        NativeOptions native;
        native.use_bitvector = bitvec;
        native.compress_messages = compress;
        native.overlap_comm = overlap;
        auto result = Bfs(g, rt::BfsOptions{0}, config, native);
        ASSERT_EQ(result.distance, expected)
            << "bitvec=" << bitvec << " compress=" << compress
            << " overlap=" << overlap;
      }
    }
  }
}

TEST(NativeBfsTest, CompressionReducesWireBytes) {
  Graph g = UndirectedGraph(12);
  // Start at the hub so the search spans the graph and candidate traffic
  // crosses ranks on both sides of the comparison.
  VertexId source = 0;
  for (VertexId v = 1; v < g.num_vertices(); ++v) {
    if (g.OutDegree(v) > g.OutDegree(source)) source = v;
  }
  rt::EngineConfig config;
  config.num_ranks = 4;
  NativeOptions raw = NativeOptions::AllOn();
  raw.compress_messages = false;
  raw.use_bitvector = false;  // Force top-down so remote candidate traffic flows.
  NativeOptions compressed = raw;
  compressed.compress_messages = true;
  auto with = Bfs(g, rt::BfsOptions{source}, config, compressed);
  auto without = Bfs(g, rt::BfsOptions{source}, config, raw);
  auto expected = ReferenceBfs(g, source);
  EXPECT_EQ(with.distance, expected);
  EXPECT_EQ(without.distance, expected);
  EXPECT_GT(with.metrics.bytes_sent, 0u);
  EXPECT_GT(without.metrics.bytes_sent, 0u);
  EXPECT_LT(with.metrics.bytes_sent, without.metrics.bytes_sent);
}

TEST(NativeBfsTest, SourceInLastPartition) {
  Graph g = UndirectedGraph();
  rt::EngineConfig config;
  config.num_ranks = 8;
  VertexId source = g.num_vertices() - 1;
  auto result = Bfs(g, rt::BfsOptions{source}, config);
  EXPECT_EQ(result.distance, ReferenceBfs(g, source));
}

TEST(NativeBfsTest, LevelsMatchEccentricity) {
  Graph g = UndirectedGraph();
  auto result = Bfs(g, rt::BfsOptions{0}, rt::EngineConfig{});
  uint32_t max_dist = 0;
  for (uint32_t d : result.distance) {
    if (d != kInfiniteDistance) max_dist = std::max(max_dist, d);
  }
  // `levels` counts frontier expansions: eccentricity + 1 (the final empty
  // expansion ends the loop without counting).
  EXPECT_EQ(result.levels, static_cast<int>(max_dist) + 1);
}

}  // namespace
}  // namespace maze::native
