// Shared graph fixtures for engine tests: every engine (native, vertexlab,
// matblas, datalite, taskflow, bspgraph) is validated on the same inputs against
// the serial reference implementations.
#ifndef MAZE_TESTS_TEST_GRAPHS_H_
#define MAZE_TESTS_TEST_GRAPHS_H_

#include "core/edge_list.h"
#include "core/graph.h"
#include "core/ratings_gen.h"
#include "core/rmat.h"

#include <vector>

namespace maze::testgraphs {

// Figure 2's directed 4-vertex graph.
inline EdgeList Figure2() {
  EdgeList el;
  el.num_vertices = 4;
  el.edges = {{0, 1}, {0, 2}, {1, 2}, {1, 3}, {2, 3}};
  return el;
}

// Small deterministic RMAT digraph (deduplicated), for PageRank-style tests.
inline EdgeList SmallRmat(int scale = 10, int edge_factor = 8,
                          uint64_t seed = 5) {
  EdgeList el = GenerateRmat(RmatParams::Graph500(scale, edge_factor, seed));
  el.Deduplicate();
  return el;
}

// Same graph symmetrized, for BFS (undirected usage).
inline EdgeList SmallRmatUndirected(int scale = 10, int edge_factor = 8,
                                    uint64_t seed = 5) {
  EdgeList el = SmallRmat(scale, edge_factor, seed);
  el.Symmetrize();
  return el;
}

// Oriented (src < dst) triangle-counting input per §4.1.2.
inline EdgeList SmallRmatOriented(int scale = 10, int edge_factor = 8,
                                  uint64_t seed = 5) {
  EdgeList el = GenerateRmat(RmatParams::TriangleCounting(scale, edge_factor,
                                                          seed));
  el.OrientBySmallerId();
  return el;
}

// PageRank gather edge cases, smallest first: no edges (every vertex
// dangling), a single edge amid isolated vertices, a star whose hub row spans
// every source, a chain with a dangling tail, Figure 2, and a small RMAT.
inline std::vector<EdgeList> EdgeCaseShapes() {
  std::vector<EdgeList> shapes;
  EdgeList empty;
  empty.num_vertices = 64;
  shapes.push_back(empty);
  EdgeList sparse;
  sparse.num_vertices = 50;
  sparse.edges = {{3, 47}};
  shapes.push_back(sparse);
  EdgeList star;
  star.num_vertices = 40;
  for (VertexId v = 1; v < 40; ++v) {
    star.edges.push_back({0, v});
    star.edges.push_back({v, 0});
  }
  shapes.push_back(star);
  EdgeList chain;
  chain.num_vertices = 33;
  for (VertexId v = 0; v + 1 < 33; ++v) chain.edges.push_back({v, v + 1});
  shapes.push_back(chain);
  shapes.push_back(Figure2());
  shapes.push_back(SmallRmat(9));
  return shapes;
}

// Small ratings dataset for CF tests.
inline RatingsDataset SmallRatings(int scale = 10, uint64_t seed = 5) {
  RatingsParams params;
  params.scale = scale;
  params.edge_factor = 8;
  params.num_items = 128;
  params.seed = seed;
  return GenerateRatings(params);
}

}  // namespace maze::testgraphs

#endif  // MAZE_TESTS_TEST_GRAPHS_H_
