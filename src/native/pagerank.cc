#include "native/pagerank.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "obs/obs.h"
#include "rt/partition.h"
#include "rt/rank_exec.h"
#include "rt/sim_clock.h"
#include "util/check.h"
#include "util/codec.h"
#include "util/prefetch.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace maze::native {
namespace {

// Branch-lean edge-run accumulation off raw pointers: the split main loop
// prefetches unconditionally and carries no per-edge bounds check, so the
// compiler can unroll the gather address stream. The sum runs in edge order
// from 0.0, the same FP addition sequence as a plain row loop.
inline double AccumulateRun(const VertexId* targets, const double* contrib,
                            EdgeId e, EdgeId e_end, bool prefetch) {
  double sum = 0.0;
  if (prefetch && e_end - e > static_cast<EdgeId>(kPrefetchDistance)) {
    EdgeId main_end = e_end - kPrefetchDistance;
    for (; e < main_end; ++e) {
      PrefetchRead(&contrib[targets[e + kPrefetchDistance]]);
      sum += contrib[targets[e]];
    }
  }
  for (; e < e_end; ++e) {
    sum += contrib[targets[e]];
  }
  return sum;
}

// One gather pass over the rank's in-CSR slice: new_pr[v] = jump + (1-jump) *
// sum(contrib[u]). The contrib array is shared; remote reads are what the wire
// accounting below charges for.
void GatherRange(const Graph& g, VertexId begin, VertexId end, double jump,
                 const std::vector<double>& contrib, std::vector<double>* new_pr,
                 bool prefetch) {
  const EdgeId* offsets = g.in_offsets().data();
  const VertexId* targets = g.in_targets().data();
  const double* c = contrib.data();
  double* out = new_pr->data();
  ParallelFor(end - begin, 256, [&](uint64_t lo, uint64_t hi) {
    for (VertexId v = begin + static_cast<VertexId>(lo);
         v < begin + static_cast<VertexId>(hi); ++v) {
      double sum = AccumulateRun(targets, c, offsets[v], offsets[v + 1],
                                 prefetch);
      out[v] = jump + (1.0 - jump) * sum;
    }
  });
}

}  // namespace

double PageRankBytesPerIteration(VertexId num_vertices, EdgeId num_edges) {
  // Per edge: 4B target id stream + 8B contrib gather. Per vertex: 8B rank store,
  // 8B contrib recompute (read rank + degree, write contrib) ~ 24B.
  return static_cast<double>(num_edges) * 12.0 +
         static_cast<double>(num_vertices) * 24.0;
}

rt::PageRankResult PageRank(const Graph& g, const rt::PageRankOptions& options,
                            const rt::EngineConfig& config,
                            const NativeOptions& native) {
  MAZE_CHECK(g.has_in());
  MAZE_CHECK(g.has_out());
  const VertexId n = g.num_vertices();
  const int ranks = config.num_ranks;
  rt::SimClock clock(ranks, config.comm, config.trace, config.faults);

  rt::Partition1D part =
      native.vertex_balanced_partition
          ? rt::Partition1D::VertexBalanced(n, ranks)
          : rt::Partition1D::EdgeBalancedFromOffsets(g.in_offsets(), ranks);

  // Ghost schedule: ghost_values[q][p] = number of distinct source vertices owned
  // by rank q whose contribution rank p needs each iteration (local reduction:
  // each value crosses the wire once per target rank, not once per edge).
  std::vector<uint64_t> ghost_values(static_cast<size_t>(ranks) * ranks, 0);
  // Compressed size in bytes of each (q, p) id schedule; charged once at setup
  // when compression is on (the schedule is static across iterations).
  std::vector<uint64_t> ghost_id_bytes(static_cast<size_t>(ranks) * ranks, 0);
  if (ranks > 1) {
    for (int p = 0; p < ranks; ++p) {
      std::vector<std::vector<uint32_t>> needed(ranks);
      for (VertexId v = part.Begin(p); v < part.End(p); ++v) {
        for (VertexId u : g.InNeighbors(v)) {
          int q = part.OwnerOf(u);
          if (q != p) needed[q].push_back(u);
        }
      }
      for (int q = 0; q < ranks; ++q) {
        auto& ids = needed[q];
        std::sort(ids.begin(), ids.end());
        ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
        ghost_values[static_cast<size_t>(q) * ranks + p] = ids.size();
        if (native.compress_messages && !ids.empty()) {
          std::vector<uint8_t> enc;
          DeltaEncodeIds(ids, &enc);
          ghost_id_bytes[static_cast<size_t>(q) * ranks + p] = enc.size();
        }
      }
    }
    // Setup exchange: ship the id schedules once (compressed) or note that ids
    // travel with every value (uncompressed path charges them per iteration).
    if (native.compress_messages) {
      for (int q = 0; q < ranks; ++q) {
        for (int p = 0; p < ranks; ++p) {
          uint64_t bytes = ghost_id_bytes[static_cast<size_t>(q) * ranks + p];
          if (bytes > 0) clock.RecordSend(p, q, bytes, 1);
        }
      }
      clock.EndStep(/*overlap_comm=*/false);
    }
  }

  std::vector<double> pr(n, 1.0);
  std::vector<double> new_pr(n, 0.0);
  std::vector<double> contrib(n, 0.0);

  // Prefetch the gathered contrib[] loads only once that array spills L2;
  // below it the loads already hit and prefetch instructions are pure
  // overhead.
  const bool prefetch =
      native.software_prefetch &&
      static_cast<size_t>(n) * sizeof(double) > InnerCacheBytes();

  uint64_t buffer_bytes = 0;
  int executed_iterations = 0;
  for (int iter = 0; iter < options.iterations; ++iter) {
    ++executed_iterations;
    // Phase 1 (rank-parallel): recompute contributions of owned vertices.
    // Ranks write disjoint contrib ranges and read only their own pr slice.
    rt::ForEachRank(ranks, [&](int p) {
      rt::RankTimer t;
      VertexId b = part.Begin(p);
      VertexId e = part.End(p);
      // Elementwise over raw pointers: no aliasing through the vector, so
      // the loop vectorizes (per element, so FP results are unchanged).
      const EdgeId* ooff = g.out_offsets().data();
      const double* pr_p = pr.data();
      double* contrib_p = contrib.data();
      ParallelFor(e - b, 1024, [&](uint64_t lo, uint64_t hi) {
        for (VertexId v = b + static_cast<VertexId>(lo);
             v < b + static_cast<VertexId>(hi); ++v) {
          EdgeId deg = ooff[v + 1] - ooff[v];
          contrib_p[v] = deg > 0 ? pr_p[v] / static_cast<double>(deg) : 0.0;
        }
      });
      double seconds = t.Seconds();
      clock.RecordCompute(p, seconds);
      obs::EmitSpanEndingNow("contrib", "native", p, iter, seconds);
    });

    // Wire: each rank sends its boundary contributions to the ranks needing them.
    if (ranks > 1) {
      for (int q = 0; q < ranks; ++q) {
        uint64_t rank_buffer = 0;
        for (int p = 0; p < ranks; ++p) {
          uint64_t values = ghost_values[static_cast<size_t>(q) * ranks + p];
          if (values == 0) continue;
          // 8B per value; uncompressed mode also ships the 4B id per value every
          // iteration instead of using the static schedule.
          uint64_t bytes = values * (native.compress_messages ? 8 : 12);
          clock.RecordSend(q, p, bytes, 1);
          rank_buffer += bytes;
        }
        buffer_bytes = std::max(buffer_bytes, rank_buffer);
      }
    }

    // Phase 2 (rank-parallel): gather over owned in-edges. The ForEachRank
    // barrier above guarantees every rank's contrib slice is complete.
    rt::ForEachRank(ranks, [&](int p) {
      rt::RankTimer t;
      GatherRange(g, part.Begin(p), part.End(p), options.jump, contrib,
                  &new_pr, prefetch);
      double seconds = t.Seconds();
      clock.RecordCompute(p, seconds);
      obs::EmitSpanEndingNow("gather", "native", p, iter, seconds);
    });
    clock.EndStep(native.overlap_comm);
    std::swap(pr, new_pr);

    // Optional early-convergence detection on the max per-vertex change (the
    // residual check is charged as compute on rank 0; it is one cheap pass).
    if (options.tolerance > 0) {
      rt::RankTimer t;
      double max_delta = 0;
      for (VertexId v = 0; v < n; ++v) {
        max_delta = std::max(max_delta, std::abs(pr[v] - new_pr[v]));
      }
      clock.RecordCompute(0, t.Seconds());
      clock.EndStep(false);
      if (max_delta < options.tolerance) break;
    }
  }

  // Memory footprint: graph slice + three double arrays + message buffers.
  uint64_t per_rank_graph = g.MemoryBytes() / ranks;
  uint64_t per_rank_state = (static_cast<uint64_t>(n) * 3 * sizeof(double)) / ranks +
                            static_cast<uint64_t>(n) * sizeof(double);  // contrib
  clock.ChargeMemory(0, obs::MemPhase::kGraph, per_rank_graph);
  clock.ChargeMemory(0, obs::MemPhase::kEngineState, per_rank_state);
  clock.ChargeMemory(0, obs::MemPhase::kMessageBuffers,
                     native.overlap_comm ? buffer_bytes / 4 : buffer_bytes);

  rt::PageRankResult result;
  result.ranks = std::move(pr);
  result.iterations = executed_iterations;
  result.metrics = clock.Finish(/*intra_rank_utilization=*/0.9);
  return result;
}

}  // namespace maze::native
