#include "matrix/algorithms.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <vector>

#include "matrix/dist_matrix.h"
#include "matrix/semiring.h"
#include "native/cc.h"
#include "native/cf.h"
#include "obs/obs.h"
#include "rt/rank_exec.h"
#include "rt/sim_clock.h"
#include "util/bitvector.h"
#include "util/codec.h"
#include "util/check.h"
#include "util/chunk_buffers.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace maze::matrix {
namespace {

// Dense-vector broadcast along grid columns + partial-result reduction along grid
// rows: the per-iteration communication skeleton of a 2-D SpMV. `per_row_bytes`
// is the wire size of one vector element.
void ChargeSpmvComm(const DistMatrix& m, rt::SimClock* clock,
                    double per_element_bytes) {
  int side = m.grid().side;
  for (int j = 0; j < side; ++j) {
    uint64_t seg_bytes = static_cast<uint64_t>(
        (m.RangeEnd(j) - m.RangeBegin(j)) * per_element_bytes);
    for (int i = 0; i < side; ++i) {
      if (i == j) continue;
      // Broadcast x segment down column j; reduce y partials across row j.
      clock->RecordSend(m.grid().RankOf(j, j), m.grid().RankOf(i, j), seg_bytes,
                        1);
      clock->RecordSend(m.grid().RankOf(j, i), m.grid().RankOf(j, j), seg_bytes,
                        1);
    }
  }
}

// One block of A^2 rows: the triangles it closes and its distinct entries.
struct SpGemmCounts {
  uint64_t triangles = 0;
  uint64_t a2_nnz = 0;
};

}  // namespace

rt::CommModel DefaultComm() { return rt::CommModel::Mpi(); }

rt::PageRankResult PageRank(const EdgeList& edges,
                            const rt::PageRankOptions& options,
                            rt::EngineConfig config) {
  const VertexId n = edges.num_vertices;
  rt::SimClock clock(config.num_ranks, config.comm, config.trace, config.faults);
  DistMatrix m = DistMatrix::FromEdges(edges, config.num_ranks);

  // Out-degrees (the d vector of equation 9).
  std::vector<EdgeId> out_degree(n, 0);
  for (const Edge& e : edges.edges) ++out_degree[e.src];

  std::vector<double> pr(n, 1.0);
  std::vector<double> contrib(n, 0.0);
  std::vector<double> y(n, 0.0);

  using SR = PlusTimes<double>;
  for (int iter = 0; iter < options.iterations; ++iter) {
    // Dense op on the diagonal ranks: contrib = pr ./ d. Diagonal ranks own
    // disjoint vector segments, so they run concurrently.
    int side = m.grid().side;
    rt::ForEachRank(side, [&](int d) {
      rt::RankTimer t;
      VertexId b = m.RangeBegin(d);
      VertexId e = m.RangeEnd(d);
      ParallelFor(e - b, 2048, [&](uint64_t lo, uint64_t hi) {
        for (VertexId v = b + static_cast<VertexId>(lo);
             v < b + static_cast<VertexId>(hi); ++v) {
          contrib[v] = out_degree[v] > 0
                           ? pr[v] / static_cast<double>(out_degree[v])
                           : 0.0;
        }
      });
      double seconds = t.Seconds();
      clock.RecordCompute(m.grid().RankOf(d, d), seconds);
      obs::EmitSpanEndingNow("contrib", "matblas", m.grid().RankOf(d, d), iter,
                             seconds);
    });

    std::fill(y.begin(), y.end(), SR::Zero());
    // Tile SpMV: y[dst] += sum contrib[src]. Tiles in one grid row share their
    // destination rows, so grid rows run concurrently while the tiles within a
    // row accumulate in column order — the same tile-by-tile order as the
    // serial schedule, keeping the floating-point sums bit-identical.
    rt::ForEachRank(side, [&](int i) {
      for (int j = 0; j < side; ++j) {
        int rank = m.grid().RankOf(i, j);
        const Tile& tile = m.tile(rank);
        rt::RankTimer t;
        ParallelFor(tile.num_rows(), 256, [&](uint64_t lo, uint64_t hi) {
          for (VertexId r = static_cast<VertexId>(lo); r < hi; ++r) {
            double sum = SR::Zero();
            for (EdgeId e = tile.offsets[r]; e < tile.offsets[r + 1]; ++e) {
              sum = SR::Add(sum, SR::Multiply(contrib[tile.sources[e]], 1.0));
            }
            y[tile.row_begin + r] += sum;
          }
        });
        double seconds = t.Seconds();
        clock.RecordCompute(rank, seconds);
        obs::EmitSpanEndingNow("spmv", "matblas", rank, iter, seconds);
      }
    });
    ChargeSpmvComm(m, &clock, sizeof(double));

    for (VertexId v = 0; v < n; ++v) {
      pr[v] = options.jump + (1.0 - options.jump) * y[v];
    }
    clock.EndStep(/*overlap_comm=*/false);
  }

  clock.ChargeMemory(0, obs::MemPhase::kGraph,
                     m.MemoryBytes() / std::max(1, config.num_ranks));
  clock.ChargeMemory(0, obs::MemPhase::kEngineState,
                     static_cast<uint64_t>(n) * 3 * sizeof(double));
  rt::PageRankResult result;
  result.ranks = std::move(pr);
  result.iterations = options.iterations;
  result.metrics = clock.Finish(/*intra_rank_utilization=*/0.85);
  return result;
}

rt::BfsResult Bfs(const EdgeList& edges, const rt::BfsOptions& options,
                  rt::EngineConfig config, const MatblasOptions& matblas) {
  const VertexId n = edges.num_vertices;
  rt::SimClock clock(config.num_ranks, config.comm, config.trace, config.faults);
  DistMatrix m = DistMatrix::FromEdges(edges, config.num_ranks);

  rt::BfsResult result;
  result.distance.assign(n, kInfiniteDistance);
  result.distance[options.source] = 0;

  Bitvector frontier(n);
  Bitvector visited(n);
  frontier.Set(options.source);
  visited.Set(options.source);

  uint32_t level = 0;
  uint64_t frontier_count = 1;
  while (frontier_count > 0) {
    Bitvector next(n);
    // v = A^T s over the Bool semiring, masked by !visited: per tile, a local
    // destination row joins the next frontier if any of its sources is in s.
    // Tiles only read the frontier/visited bitsets and set `next` atomically,
    // so every rank runs concurrently.
    rt::ForEachRank(m.num_ranks(), [&](int rank) {
      const Tile& tile = m.tile(rank);
      rt::RankTimer t;
      ParallelFor(tile.num_rows(), 256, [&](uint64_t lo, uint64_t hi) {
        for (VertexId r = static_cast<VertexId>(lo); r < hi; ++r) {
          VertexId dst = tile.row_begin + r;
          if (visited.Test(dst)) continue;
          bool reached = BoolOrAnd::Zero();
          for (EdgeId e = tile.offsets[r]; e < tile.offsets[r + 1]; ++e) {
            reached = BoolOrAnd::Add(
                reached, BoolOrAnd::Multiply(true, frontier.Test(tile.sources[e])));
            if (reached) break;
          }
          if (reached) next.SetAtomic(dst);
        }
      });
      double seconds = t.Seconds();
      clock.RecordCompute(rank, seconds);
      obs::EmitSpanEndingNow("frontier_spmv", "matblas", rank,
                             static_cast<int>(level), seconds);
    });
    // Frontier exchange: the sparse vector (id, parent) pairs of the CombBLAS
    // formulation — 8 bytes per discovered vertex, replicated along the grid.
    // With the §6.2 recommendation applied, each segment is delta/bitvector
    // encoded instead (real encoded sizes, computed per grid segment).
    std::vector<uint32_t> discovered;
    next.AppendSetBits(&discovered);
    int side = m.grid().side;
    std::vector<uint64_t> per_segment(side, 0);
    if (matblas.compress_frontier) {
      std::vector<std::vector<uint32_t>> segment_ids(side);
      for (VertexId v : discovered) segment_ids[m.RangeOf(v)].push_back(v);
      for (int j = 0; j < side; ++j) {
        if (segment_ids[j].empty()) continue;
        std::vector<uint8_t> enc;
        EncodeIdsBest(segment_ids[j], &enc);
        per_segment[j] = enc.size();
      }
    } else {
      for (VertexId v : discovered) per_segment[m.RangeOf(v)] += 8;
    }
    for (int j = 0; j < side; ++j) {
      for (int i = 0; i < side; ++i) {
        if (i != j && per_segment[j] > 0) {
          clock.RecordSend(m.grid().RankOf(j, j), m.grid().RankOf(i, j),
                           per_segment[j], 1);
          clock.RecordSend(m.grid().RankOf(j, i), m.grid().RankOf(j, j),
                           per_segment[j], 1);
        }
      }
    }
    clock.EndStep(/*overlap_comm=*/false);

    ++level;
    for (VertexId v : discovered) {
      visited.Set(v);
      result.distance[v] = level;
    }
    frontier = std::move(next);
    frontier_count = discovered.size();
    if (frontier_count > 0) result.levels = static_cast<int>(level);
  }
  result.levels += 1;  // Count the seed expansion like the native kernel.

  clock.ChargeMemory(0, obs::MemPhase::kGraph,
                     m.MemoryBytes() / std::max(1, config.num_ranks));
  clock.ChargeMemory(0, obs::MemPhase::kEngineState,
                     static_cast<uint64_t>(n) / 2);
  result.metrics = clock.Finish(/*intra_rank_utilization=*/0.85);
  return result;
}

rt::TriangleCountResult TriangleCount(const Graph& g,
                                      const rt::TriangleCountOptions&,
                                      rt::EngineConfig config) {
  MAZE_CHECK(g.has_out());
  const VertexId n = g.num_vertices();
  const int ranks = config.num_ranks;
  rt::SimClock clock(ranks, config.comm, config.trace, config.faults);
  rt::Partition1D rows = rt::Partition1D::EdgeBalanced(g, ranks);

  // SUMMA-style tile broadcast: every rank's share of A travels across the grid.
  int side = rt::Grid2D::ForRanks(ranks).side;
  if (ranks > 1) {
    uint64_t per_rank_bytes = (g.num_edges() / ranks) * 8;
    for (int p = 0; p < ranks; ++p) {
      for (int s = 1; s < side; ++s) {
        clock.RecordSend(p, (p + s) % ranks, per_rank_bytes, 1);
        clock.RecordSend(p, (p + s * side) % ranks, per_rank_bytes, 1);
      }
    }
  }

  // C = A^2 evaluated row-block by row-block, then EWiseMult(C, A) and reduce.
  // The abstraction cannot fuse these: every entry of A^2 is materialized and its
  // storage charged, which is exactly why CombBLAS runs out of memory on the
  // real-world inputs (Section 5.2).
  // Per-rank result slots; summed in rank order after the parallel region so
  // the totals do not depend on rank completion order.
  std::vector<uint64_t> rank_triangles_of(ranks, 0);
  std::vector<uint64_t> rank_a2_nnz_of(ranks, 0);
  rt::ForEachRank(ranks, [&](int p) {
    rt::RankTimer t;
    ChunkBuffers<SpGemmCounts> counts(rows.Size(p), 64);
    counts.Fill([&](uint64_t lo, uint64_t hi, SpGemmCounts& out) {
      std::vector<VertexId> row;  // Scratch: one row of A^2 (with multiplicity).
      for (VertexId u = rows.Begin(p) + static_cast<VertexId>(lo);
           u < rows.Begin(p) + static_cast<VertexId>(hi); ++u) {
        row.clear();
        for (VertexId v : g.OutNeighbors(u)) {
          const auto nv = g.OutNeighbors(v);
          row.insert(row.end(), nv.begin(), nv.end());
        }
        std::sort(row.begin(), row.end());
        // nnz(A^2 row) = distinct entries (all materialized, with counts).
        for (size_t x = 0; x < row.size(); ++x) {
          if (x == 0 || row[x] != row[x - 1]) ++out.a2_nnz;
        }
        // EWiseMult with the pattern of A's row u: intersect the sorted path
        // multiset with the sorted neighbor list; each matching path closes one
        // triangle at u.
        const auto nu = g.OutNeighbors(u);
        size_t i = 0;
        size_t j = 0;
        while (i < nu.size() && j < row.size()) {
          if (nu[i] < row[j]) {
            ++i;
          } else if (nu[i] > row[j]) {
            ++j;
          } else {
            ++out.triangles;
            ++j;  // Advance only the path side: count the multiplicity.
          }
        }
      }
    });
    counts.ForEachInOrder([&](const SpGemmCounts& block) {
      rank_triangles_of[p] += block.triangles;
      rank_a2_nnz_of[p] += block.a2_nnz;
    });
    double seconds = t.Seconds();
    clock.RecordCompute(p, seconds);
    obs::EmitSpanEndingNow("spgemm", "matblas", p, /*step=*/0, seconds);
  });
  uint64_t triangles = 0;
  uint64_t a2_nnz_total = 0;
  for (int p = 0; p < ranks; ++p) {
    triangles += rank_triangles_of[p];
    a2_nnz_total += rank_a2_nnz_of[p];
  }
  clock.EndStep(/*overlap_comm=*/false);

  // Memory: the rank's share of A plus its fully materialized share of A^2
  // (12 bytes per nnz: column id + count + row bookkeeping).
  clock.ChargeMemory(0, obs::MemPhase::kGraph,
                     g.MemoryBytes() / std::max(1, ranks));
  clock.ChargeMemory(0, obs::MemPhase::kEngineState,
                     (a2_nnz_total / std::max(1, ranks)) * 12);

  rt::TriangleCountResult result;
  result.triangles = triangles;
  result.metrics = clock.Finish(/*intra_rank_utilization=*/0.85);
  (void)n;
  return result;
}

rt::CfResult CollaborativeFiltering(const BipartiteGraph& g,
                                    const rt::CfOptions& options,
                                    rt::EngineConfig config) {
  MAZE_CHECK(options.method == rt::CfMethod::kGd);
  const int k = options.k;
  const int ranks = config.num_ranks;
  rt::SimClock clock(ranks, config.comm, config.trace, config.faults);
  int side = rt::Grid2D::ForRanks(ranks).side;

  rt::CfResult result;
  result.k = k;
  native::CfInitFactors(g.num_users(), k, options.seed, &result.user_factors);
  native::CfInitFactors(g.num_items(), k, options.seed ^ 0x1234567ull,
                        &result.item_factors);

  // User/item ranges per rank for compute accounting (1-D over the rectangular
  // matrix rows; the 2-D grid shows up in the communication pattern).
  rt::Partition1D user_part = rt::Partition1D::VertexBalanced(g.num_users(),
                                                              ranks);
  rt::Partition1D item_part = rt::Partition1D::VertexBalanced(g.num_items(),
                                                              ranks);

  // Rating-index prefix offsets so the K SpMV passes below can index the error
  // matrix from parallel chunks.
  std::vector<EdgeId> user_start(g.num_users() + 1, 0);
  for (VertexId u = 0; u < g.num_users(); ++u) {
    user_start[u + 1] = user_start[u] + g.UserDegree(u);
  }
  std::vector<EdgeId> item_start(g.num_items() + 1, 0);
  for (VertexId v = 0; v < g.num_items(); ++v) {
    item_start[v + 1] = item_start[v] + g.ItemDegree(v);
  }
  std::vector<double> err_user(g.num_ratings());  // E in user-major order.
  std::vector<double> err_item(g.num_ratings());  // E^T in item-major order.

  std::vector<double> old_users;
  std::vector<double> old_items;
  double gamma = options.learning_rate;
  for (int iter = 0; iter < options.iterations; ++iter) {
    old_users = result.user_factors;
    old_items = result.item_factors;

    // Comm: Q broadcast along grid columns and P along rows, plus partial
    // gradient reductions — "K matrix-vector multiplications" of dense traffic.
    if (ranks > 1) {
      uint64_t q_seg = (static_cast<uint64_t>(g.num_items()) / side) * k * 8;
      uint64_t p_seg = (static_cast<uint64_t>(g.num_users()) / side) * k * 8;
      for (int j = 0; j < side; ++j) {
        for (int i = 0; i < side; ++i) {
          if (i == j) continue;
          rt::Grid2D grid{side};
          clock.RecordSend(grid.RankOf(j, j), grid.RankOf(i, j), q_seg, k);
          clock.RecordSend(grid.RankOf(j, i), grid.RankOf(j, j), p_seg, k);
        }
      }
    }

    // CombBLAS's GD decomposition (§3.2): first materialize the sparse error
    // matrix E = R - P Q^T on the nonzeros of R (and E^T), then compute the
    // gradients as "K matrix-vector multiplications" — one full pass over the
    // nonzeros per latent dimension, per side. The abstraction cannot fuse the
    // K passes, which is exactly the expressibility cost the paper attributes
    // to CombBLAS on this algorithm.
    // Ranks own disjoint user/item row ranges and read the old-factor
    // snapshots, so they run concurrently.
    rt::ForEachRank(ranks, [&](int p) {
      rt::RankTimer t;
      ParallelFor(user_part.Size(p), 64, [&](uint64_t lo, uint64_t hi) {
        for (VertexId u = user_part.Begin(p) + static_cast<VertexId>(lo);
             u < user_part.Begin(p) + static_cast<VertexId>(hi); ++u) {
          const double* pu = old_users.data() + static_cast<size_t>(u) * k;
          EdgeId idx = user_start[u];
          for (const auto& e : g.UserRatings(u)) {
            const double* qv = old_items.data() + static_cast<size_t>(e.id) * k;
            double dot = 0;
            for (int d = 0; d < k; ++d) dot += pu[d] * qv[d];
            err_user[idx++] = e.rating - dot;
          }
        }
      });
      ParallelFor(item_part.Size(p), 64, [&](uint64_t lo, uint64_t hi) {
        for (VertexId v = item_part.Begin(p) + static_cast<VertexId>(lo);
             v < item_part.Begin(p) + static_cast<VertexId>(hi); ++v) {
          const double* qv = old_items.data() + static_cast<size_t>(v) * k;
          EdgeId idx = item_start[v];
          for (const auto& e : g.ItemRatings(v)) {
            const double* pu = old_users.data() + static_cast<size_t>(e.id) * k;
            double dot = 0;
            for (int d = 0; d < k; ++d) dot += pu[d] * qv[d];
            err_item[idx++] = e.rating - dot;
          }
        }
      });
      // K SpMVs per side: grad_P[:, d] = E q_d, grad_Q[:, d] = E^T p_d.
      for (int d = 0; d < k; ++d) {
        ParallelFor(user_part.Size(p), 128, [&](uint64_t lo, uint64_t hi) {
          for (VertexId u = user_part.Begin(p) + static_cast<VertexId>(lo);
               u < user_part.Begin(p) + static_cast<VertexId>(hi); ++u) {
            double acc = 0;
            EdgeId idx = user_start[u];
            for (const auto& e : g.UserRatings(u)) {
              acc += err_user[idx++] * old_items[static_cast<size_t>(e.id) * k + d];
            }
            double p_old = old_users[static_cast<size_t>(u) * k + d];
            double lambda_term = options.lambda_p *
                                 static_cast<double>(g.UserDegree(u)) * p_old;
            result.user_factors[static_cast<size_t>(u) * k + d] =
                p_old + gamma * (acc - lambda_term);
          }
        });
        ParallelFor(item_part.Size(p), 128, [&](uint64_t lo, uint64_t hi) {
          for (VertexId v = item_part.Begin(p) + static_cast<VertexId>(lo);
               v < item_part.Begin(p) + static_cast<VertexId>(hi); ++v) {
            double acc = 0;
            EdgeId idx = item_start[v];
            for (const auto& e : g.ItemRatings(v)) {
              acc += err_item[idx++] * old_users[static_cast<size_t>(e.id) * k + d];
            }
            double q_old = old_items[static_cast<size_t>(v) * k + d];
            double lambda_term = options.lambda_q *
                                 static_cast<double>(g.ItemDegree(v)) * q_old;
            result.item_factors[static_cast<size_t>(v) * k + d] =
                q_old + gamma * (acc - lambda_term);
          }
        });
      }
      double seconds = t.Seconds();
      clock.RecordCompute(p, seconds);
      obs::EmitSpanEndingNow("gradient_spmv", "matblas", p, iter, seconds);
    });
    clock.EndStep(/*overlap_comm=*/false);
    gamma *= options.step_decay;
    result.rmse_per_iteration.push_back(
        native::CfRmse(g, result.user_factors, result.item_factors, k));
  }

  clock.ChargeMemory(0, obs::MemPhase::kGraph,
                     g.MemoryBytes() / std::max(1, ranks));
  clock.ChargeMemory(
      0, obs::MemPhase::kEngineState,
      2 * (result.user_factors.size() + result.item_factors.size()) *
          sizeof(double) / std::max(1, side));
  result.iterations = options.iterations;
  result.final_rmse = result.rmse_per_iteration.empty()
                          ? 0.0
                          : result.rmse_per_iteration.back();
  result.metrics = clock.Finish(/*intra_rank_utilization=*/0.85);
  return result;
}

rt::ConnectedComponentsResult ConnectedComponents(
    const EdgeList& edges, const rt::ConnectedComponentsOptions& options,
    rt::EngineConfig config) {
  const VertexId n = edges.num_vertices;
  rt::SimClock clock(config.num_ranks, config.comm, config.trace, config.faults);
  DistMatrix m = DistMatrix::FromEdges(edges, config.num_ranks);

  rt::ConnectedComponentsResult result;
  result.label.resize(n);
  for (VertexId v = 0; v < n; ++v) result.label[v] = v;

  // label' = min(label, A^T label): per tile, each destination row takes the
  // minimum of its sources\' labels — a semiring SpMV with Add = Multiply = min.
  int rounds = 0;
  bool changed = true;
  int side = m.grid().side;
  while (changed && rounds < options.max_iterations) {
    ++rounds;
    std::vector<VertexId> next = result.label;
    // Tiles in one grid row share destination rows of `next`, so grid rows run
    // concurrently with the row's tiles applied in column order (min is
    // order-insensitive, but this also keeps writes race-free).
    std::atomic<bool> any_changed{false};
    rt::ForEachRank(side, [&](int i) {
      for (int j = 0; j < side; ++j) {
        int rank = m.grid().RankOf(i, j);
        const Tile& tile = m.tile(rank);
        rt::RankTimer t;
        std::atomic<bool> tile_changed{false};
        ParallelFor(tile.num_rows(), 256, [&](uint64_t lo, uint64_t hi) {
          bool local_changed = false;
          for (VertexId r = static_cast<VertexId>(lo); r < hi; ++r) {
            VertexId dst = tile.row_begin + r;
            VertexId best = next[dst];
            for (EdgeId e = tile.offsets[r]; e < tile.offsets[r + 1]; ++e) {
              best = std::min(best, result.label[tile.sources[e]]);
            }
            if (best < next[dst]) {
              next[dst] = best;
              local_changed = true;
            }
          }
          if (local_changed) tile_changed.store(true, std::memory_order_relaxed);
        });
        double seconds = t.Seconds();
        clock.RecordCompute(rank, seconds);
        obs::EmitSpanEndingNow("minlabel_spmv", "matblas", rank, rounds - 1,
                               seconds);
        if (tile_changed.load()) {
          any_changed.store(true, std::memory_order_relaxed);
        }
      }
    });
    changed = any_changed.load();
    ChargeSpmvComm(m, &clock, sizeof(VertexId) + 4.0);
    clock.EndStep(false);
    result.label = std::move(next);
  }

  clock.ChargeMemory(0, obs::MemPhase::kGraph,
                     m.MemoryBytes() / std::max(1, config.num_ranks));
  clock.ChargeMemory(0, obs::MemPhase::kEngineState,
                     static_cast<uint64_t>(n) * 2 * sizeof(VertexId));
  result.num_components = native::CountComponents(result.label);
  result.iterations = rounds;
  result.metrics = clock.Finish(/*intra_rank_utilization=*/0.85);
  return result;
}

}  // namespace maze::matrix
