#include "core/rmat.h"

#include <gtest/gtest.h>

#include "core/degree.h"
#include "core/graph.h"
#include "util/thread_pool.h"

namespace maze {
namespace {

TEST(RmatTest, ProducesRequestedCounts) {
  RmatParams params = RmatParams::Graph500(10, 8, /*seed=*/3);
  EdgeList el = GenerateRmat(params);
  EXPECT_EQ(el.num_vertices, 1u << 10);
  EXPECT_EQ(el.edges.size(), (1u << 10) * 8u);
  for (const Edge& e : el.edges) {
    ASSERT_LT(e.src, el.num_vertices);
    ASSERT_LT(e.dst, el.num_vertices);
  }
}

TEST(RmatTest, DeterministicForSeed) {
  RmatParams params = RmatParams::Graph500(9, 4, /*seed=*/11);
  EdgeList a = GenerateRmat(params);
  EdgeList b = GenerateRmat(params);
  EXPECT_EQ(a.edges, b.edges);
}

// A worker-less pool runs the whole edge range as one ParallelFor chunk; the
// graph must still be the one a multi-worker pool draws.
TEST(RmatTest, EdgeListIndependentOfPoolWidth) {
  RmatParams params = RmatParams::Graph500(12, 8, /*seed=*/5);
  ThreadPool& pool = ThreadPool::Default();
  const unsigned before = pool.num_threads();
  pool.Resize(1);
  EdgeList narrow = GenerateRmat(params);
  pool.Resize(4);
  EdgeList wide = GenerateRmat(params);
  pool.Resize(before);
  ASSERT_GT(narrow.edges.size(), 4096u);  // Spans several RNG blocks.
  EXPECT_EQ(narrow.edges, wide.edges);
}

TEST(RmatTest, DifferentSeedsDiffer) {
  EdgeList a = GenerateRmat(RmatParams::Graph500(9, 4, 1));
  EdgeList b = GenerateRmat(RmatParams::Graph500(9, 4, 2));
  EXPECT_NE(a.edges, b.edges);
}

TEST(RmatTest, SkewedDegreeDistribution) {
  // Graph500 parameters must yield the heavy skew the paper's abstract calls out:
  // the top 1% of vertices should own a large share of all edges.
  EdgeList el = GenerateRmat(RmatParams::Graph500(14, 16, 5));
  el.Deduplicate();
  Graph g = Graph::FromEdges(el, GraphDirections::kOutOnly);
  DegreeStats stats = ComputeOutDegreeStats(g);
  EXPECT_GT(stats.top1pct_edge_share, 0.15);
  EXPECT_GT(stats.max_degree, 100u);
}

TEST(RmatTest, UniformParametersAreNotSkewed) {
  // A = B = C = 0.25 degenerates to (nearly) Erdos-Renyi: little skew.
  RmatParams params{14, 16, 0.25, 0.25, 0.25, 5, true};
  EdgeList el = GenerateRmat(params);
  el.Deduplicate();
  Graph g = Graph::FromEdges(el, GraphDirections::kOutOnly);
  DegreeStats uniform = ComputeOutDegreeStats(g);
  EXPECT_LT(uniform.top1pct_edge_share, 0.10);
}

TEST(RmatTest, PermutationPreservesDegreeMultiset) {
  RmatParams with_perm = RmatParams::Graph500(10, 8, 21);
  RmatParams no_perm = with_perm;
  no_perm.permute_vertices = false;
  EdgeList a = GenerateRmat(with_perm);
  EdgeList b = GenerateRmat(no_perm);
  // Same number of edges; the permutation only relabels endpoints.
  EXPECT_EQ(a.edges.size(), b.edges.size());
  EXPECT_NE(a.edges, b.edges);
}

TEST(RmatTest, TriangleParamsReduceTriangleDensity) {
  // §4.1.2: triangle counting uses A=0.45, B=C=0.15 "to reduce the number of
  // triangles"; verify the parameterization produces fewer closed wedges than
  // the default generator at the same size.
  auto count_triangles = [](EdgeList el) {
    el.OrientBySmallerId();
    Graph g = Graph::FromEdges(el, GraphDirections::kOutOnly);
    uint64_t count = 0;
    for (VertexId u = 0; u < g.num_vertices(); ++u) {
      for (VertexId v : g.OutNeighbors(u)) {
        auto a = g.OutNeighbors(u);
        auto b = g.OutNeighbors(v);
        size_t i = 0, j = 0;
        while (i < a.size() && j < b.size()) {
          if (a[i] < b[j]) {
            ++i;
          } else if (a[i] > b[j]) {
            ++j;
          } else {
            ++count, ++i, ++j;
          }
        }
      }
    }
    return count;
  };
  uint64_t dense = count_triangles(GenerateRmat(RmatParams::Graph500(12, 8, 9)));
  uint64_t sparse =
      count_triangles(GenerateRmat(RmatParams::TriangleCounting(12, 8, 9)));
  EXPECT_LT(sparse, dense);
}

}  // namespace
}  // namespace maze
