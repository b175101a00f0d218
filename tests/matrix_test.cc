#include "matrix/algorithms.h"

#include <gtest/gtest.h>

#include "matrix/dist_matrix.h"
#include "matrix/semiring.h"
#include "native/cf.h"
#include "native/reference.h"
#include "tests/test_graphs.h"

namespace maze::matrix {
namespace {

using testgraphs::SmallRmat;
using testgraphs::SmallRmatOriented;
using testgraphs::SmallRmatUndirected;

rt::EngineConfig Config(int ranks = 1) {
  rt::EngineConfig config;
  config.num_ranks = ranks;
  config.comm = DefaultComm();
  return config;
}

TEST(SemiringTest, PlusTimes) {
  using SR = PlusTimes<double>;
  EXPECT_EQ(SR::Zero(), 0.0);
  EXPECT_EQ(SR::Add(2.0, 3.0), 5.0);
  EXPECT_EQ(SR::Multiply(2.0, 3.0), 6.0);
}

TEST(SemiringTest, MinPlusShortestPathStep) {
  using SR = MinPlus<uint32_t>;
  EXPECT_EQ(SR::Add(3u, 5u), 3u);
  EXPECT_EQ(SR::Multiply(3u, 5u), 8u);
  // Zero is the annihilator of Multiply and identity of Add.
  EXPECT_EQ(SR::Multiply(SR::Zero(), 5u), SR::Zero());
  EXPECT_EQ(SR::Add(SR::Zero(), 5u), 5u);
}

TEST(DistMatrixTest, TilesPartitionEveryEdge) {
  EdgeList el = SmallRmat(9, 4);
  for (int ranks : {1, 4, 16}) {
    DistMatrix m = DistMatrix::FromEdges(el, ranks);
    EdgeId total = 0;
    for (int r = 0; r < m.num_ranks(); ++r) total += m.tile(r).nnz();
    EXPECT_EQ(total, el.edges.size()) << ranks << " ranks";
  }
}

TEST(DistMatrixTest, TileRangesAreConsistent) {
  EdgeList el = SmallRmat(8, 4);
  DistMatrix m = DistMatrix::FromEdges(el, 4);
  for (int i = 0; i < m.grid().side; ++i) {
    for (int j = 0; j < m.grid().side; ++j) {
      const Tile& t = m.tile(i, j);
      EXPECT_EQ(t.row_begin, m.RangeBegin(i));
      EXPECT_EQ(t.col_begin, m.RangeBegin(j));
      for (VertexId r = 0; r < t.num_rows(); ++r) {
        for (EdgeId e = t.offsets[r]; e < t.offsets[r + 1]; ++e) {
          EXPECT_GE(t.sources[e], t.col_begin);
          EXPECT_LT(t.sources[e], t.col_end);
        }
      }
    }
  }
}

TEST(DistMatrixTest, GatherFormReconstructsInNeighbors) {
  EdgeList el;
  el.num_vertices = 4;
  el.edges = {{0, 1}, {0, 2}, {1, 2}, {1, 3}, {2, 3}};  // Figure 2.
  DistMatrix m = DistMatrix::FromEdges(el, 4);
  // In-neighbors of vertex 3 are {1, 2} regardless of tiling.
  std::vector<VertexId> in3;
  for (int i = 0; i < m.grid().side; ++i) {
    for (int j = 0; j < m.grid().side; ++j) {
      const Tile& t = m.tile(i, j);
      if (3 < t.row_begin || 3 >= t.row_end) continue;
      VertexId r = 3 - t.row_begin;
      for (EdgeId e = t.offsets[r]; e < t.offsets[r + 1]; ++e) {
        in3.push_back(t.sources[e]);
      }
    }
  }
  std::sort(in3.begin(), in3.end());
  EXPECT_EQ(in3, (std::vector<VertexId>{1, 2}));
}

TEST(MatblasPageRankTest, MatchesReference) {
  EdgeList el = SmallRmat();
  Graph g = Graph::FromEdges(el, GraphDirections::kBoth);
  rt::PageRankOptions opt;
  opt.iterations = 5;
  auto result = PageRank(el, opt, Config());
  auto expected = native::ReferencePageRank(g, 5, opt.jump);
  for (size_t v = 0; v < expected.size(); ++v) {
    ASSERT_NEAR(result.ranks[v], expected[v], 1e-9) << v;
  }
}

TEST(MatblasPageRankTest, MatchesReferenceOnEdgeCaseShapes) {
  rt::PageRankOptions opt;
  opt.iterations = 5;
  for (const EdgeList& el : testgraphs::EdgeCaseShapes()) {
    Graph g = Graph::FromEdges(el, GraphDirections::kBoth);
    auto expected = native::ReferencePageRank(g, opt.iterations, opt.jump);
    for (int ranks : {1, 4}) {
      auto result = PageRank(el, opt, Config(ranks));
      ASSERT_EQ(result.ranks.size(), expected.size());
      for (size_t v = 0; v < expected.size(); ++v) {
        ASSERT_NEAR(result.ranks[v], expected[v], 1e-12)
            << el.num_vertices << " vertices, " << el.edges.size()
            << " edges, " << ranks << " ranks, vertex " << v;
      }
    }
  }
}

class MatblasRanksTest : public ::testing::TestWithParam<int> {};

TEST_P(MatblasRanksTest, PageRankInvariantToGridSize) {
  EdgeList el = SmallRmat(9);
  Graph g = Graph::FromEdges(el, GraphDirections::kBoth);
  rt::PageRankOptions opt;
  opt.iterations = 3;
  auto result = PageRank(el, opt, Config(GetParam()));
  auto expected = native::ReferencePageRank(g, 3, opt.jump);
  for (size_t v = 0; v < expected.size(); ++v) {
    ASSERT_NEAR(result.ranks[v], expected[v], 1e-9);
  }
}

TEST_P(MatblasRanksTest, BfsMatchesReference) {
  EdgeList el = SmallRmatUndirected(9);
  Graph g = Graph::FromEdges(el, GraphDirections::kOutOnly);
  auto result = Bfs(el, rt::BfsOptions{2}, Config(GetParam()));
  EXPECT_EQ(result.distance, native::ReferenceBfs(g, 2));
}

TEST_P(MatblasRanksTest, TriangleCountMatchesReference) {
  Graph g = Graph::FromEdges(SmallRmatOriented(9), GraphDirections::kOutOnly);
  auto result = TriangleCount(g, {}, Config(GetParam()));
  EXPECT_EQ(result.triangles, native::ReferenceTriangleCount(g));
}

INSTANTIATE_TEST_SUITE_P(Grids, MatblasRanksTest, ::testing::Values(1, 4, 9, 16));

TEST(MatblasTriangleTest, ChargesA2MaterializationMemory) {
  // The A^2 intermediate must dominate the memory metric relative to the graph
  // itself (the paper's CombBLAS OOM mechanism).
  Graph g = Graph::FromEdges(SmallRmatOriented(11, 12), GraphDirections::kOutOnly);
  auto result = TriangleCount(g, {}, Config(1));
  EXPECT_GT(result.metrics.memory_peak_bytes, g.MemoryBytes());
}

TEST(MatblasCfTest, GdMatchesNativeGd) {
  BipartiteGraph g = testgraphs::SmallRatings(9).ToGraph();
  rt::CfOptions opt;
  opt.method = rt::CfMethod::kGd;
  opt.k = 4;
  opt.iterations = 3;
  auto mb = CollaborativeFiltering(g, opt, Config(4));
  auto nat = native::CollaborativeFiltering(g, opt, rt::EngineConfig{});
  for (size_t i = 0; i < nat.user_factors.size(); ++i) {
    ASSERT_NEAR(mb.user_factors[i], nat.user_factors[i], 1e-9) << i;
  }
  EXPECT_NEAR(mb.final_rmse, nat.final_rmse, 1e-9);
}

TEST(MatblasTest, UsesMpiCommProfile) {
  EXPECT_EQ(DefaultComm().name, "mpi");
}

}  // namespace
}  // namespace maze::matrix
