#include "core/rmat.h"

#include <algorithm>
#include <numeric>

#include "util/check.h"
#include "util/prng.h"
#include "util/thread_pool.h"

namespace maze {
namespace {

// Edges per RNG stream (and per ParallelFor chunk).
constexpr uint64_t kEdgeBlock = 4096;

}  // namespace

EdgeList GenerateRmat(const RmatParams& params) {
  MAZE_CHECK(params.scale >= 1 && params.scale <= 30);
  MAZE_CHECK(params.a + params.b + params.c < 1.0 + 1e-9);
  VertexId n = VertexId{1} << params.scale;
  size_t m = static_cast<size_t>(params.edge_factor) * n;

  EdgeList out;
  out.num_vertices = n;
  out.edges.resize(m);

  // Optional random vertex permutation, as in the Graph500 generator, so that
  // high-degree vertices are not clustered at low ids (which would make 1-D
  // partitioning artificially imbalanced or balanced depending on scheme).
  std::vector<VertexId> perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  if (params.permute_vertices) {
    Xorshift64Star rng(params.seed ^ 0xABCDEF12345ull);
    for (VertexId i = n; i > 1; --i) {
      VertexId j = static_cast<VertexId>(rng.NextBounded(i));
      std::swap(perm[i - 1], perm[j]);
    }
  }

  const double ab = params.a + params.b;
  const double a_norm = params.a / ab;
  const double c_norm = params.c / (1.0 - ab);

  // Edges are drawn in fixed blocks, each from its own RNG seeded by the
  // block's first edge index, so the edge list depends only on the params: a
  // worker-less pool runs the whole range as one chunk and must draw the same
  // graph as a pool that hands out one block per chunk.
  ParallelFor(m, kEdgeBlock, [&](uint64_t begin, uint64_t end) {
    for (uint64_t block = begin; block < end; block += kEdgeBlock) {
      uint64_t seed_state = params.seed + block;
      Xorshift64Star rng(SplitMix64(seed_state));
      const uint64_t block_end = std::min(end, block + kEdgeBlock);
      for (uint64_t e = block; e < block_end; ++e) {
        VertexId src = 0;
        VertexId dst = 0;
        for (int depth = 0; depth < params.scale; ++depth) {
          // Standard noisy RMAT descent: choose row half with prob ab, then
          // the column half conditioned on the row.
          bool row = rng.NextDouble() > ab;
          bool col = rng.NextDouble() > (row ? c_norm : a_norm);
          src = (src << 1) | static_cast<VertexId>(row);
          dst = (dst << 1) | static_cast<VertexId>(col);
        }
        out.edges[e] = Edge{perm[src], perm[dst]};
      }
    }
  });
  return out;
}

}  // namespace maze
