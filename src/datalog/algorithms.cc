#include "datalog/algorithms.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "datalog/table.h"
#include "native/cc.h"
#include "native/cf.h"
#include "rt/rank_exec.h"
#include "util/bitvector.h"
#include "util/check.h"
#include "util/chunk_buffers.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace maze::datalog {
namespace {

// Builds the tail-nested OUTEDGE[s](n) table from the graph's out-CSR.
Table BuildEdgeTable(const Graph& g) {
  Table edges("EDGE", /*int_cols=*/2, /*double_cols=*/0);
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    for (VertexId v : g.OutNeighbors(u)) {
      int64_t row[2] = {u, v};
      edges.AppendRow(row);
    }
  }
  edges.TailNest(g.num_vertices());
  return edges;
}

}  // namespace

rt::CommModel DefaultComm() { return DataliteOptions::Optimized().Comm(); }

// ---------------------------------------------------------------------------
// PageRank — both rule variants of §3.1.
//
// Single machine ("optimized for a single multi-core machine": the join drives
// on the target's INEDGE rows, so every head update is local and lock-free):
//   RANK[n](t+1, $SUM(v)) :- v = r
//     :- INEDGE[n](s), RANK[s](t, v0), OUTDEG[s](d), v = (1-r) v0 / d.
//
// Distributed (one data transfer for the RANK head update; §3.1's second
// version):
//   RANK[n](t+1, $SUM(v)) :- v = r;
//     :- RANK[s](t, v0), OUTEDGE[s](n), OUTDEG[s](d), v = (1-r) v0 / d.
// ---------------------------------------------------------------------------
rt::PageRankResult PageRank(const Graph& g, const rt::PageRankOptions& options,
                            rt::EngineConfig config,
                            const DataliteOptions& datalite) {
  MAZE_CHECK(g.has_out());
  const VertexId n = g.num_vertices();
  Runtime rt(config.num_ranks, datalite, n, config.trace, config.faults);
  const bool single_machine = config.num_ranks == 1;

  // OUTEDGE for the distributed rule; INEDGE (the transpose) for the gather
  // rule. OUTDEG is derived from OUTEDGE's tail nesting either way.
  Table edges = BuildEdgeTable(g);
  Table in_edges("INEDGE", 2, 0);
  if (single_machine) {
    for (VertexId u = 0; u < n; ++u) {
      auto [begin, end] = edges.Rows(u);
      for (size_t row = begin; row < end; ++row) {
        int64_t in_row[2] = {edges.Int(row, 1), u};
        in_edges.AppendRow(in_row);
      }
    }
    in_edges.TailNest(n);
  }

  std::vector<double> rank(n, 1.0);
  std::vector<double> sum(n, 0.0);
  for (int iter = 0; iter < options.iterations; ++iter) {
    std::fill(sum.begin(), sum.end(), 0.0);
    if (single_machine) {
      // Gather rule: each head key n sums over its INEDGE rows; every emit is
      // to the driving key itself (no cross-shard tuples, no locks).
      EvaluateRule<double, SumAgg<double>>(
          &rt, &sum, /*bytes_per_tuple=*/16,
          [&](int64_t tgt, const std::function<void(int64_t, double)>& emit) {
            auto [begin, end] = in_edges.Rows(tgt);
            double acc = 0;
            for (size_t row = begin; row < end; ++row) {
              int64_t s = in_edges.Int(row, 1);
              auto [sb, se] = edges.Rows(s);
              EdgeId d = se - sb;
              if (d > 0) acc += rank[s] / static_cast<double>(d);
            }
            if (acc != 0) emit(tgt, (1.0 - options.jump) * acc);
          });
    } else {
      // Distributed rule: join RANK with OUTEDGE/OUTDEG, $SUM into the head
      // shard (the only transfer of the iteration).
      EvaluateRule<double, SumAgg<double>>(
          &rt, &sum, /*bytes_per_tuple=*/16,
          [&](int64_t s, const std::function<void(int64_t, double)>& emit) {
            auto [begin, end] = edges.Rows(s);
            EdgeId d = end - begin;  // OUTDEG[s](d) is derived from OUTEDGE.
            if (d == 0) return;
            double v = (1.0 - options.jump) * rank[s] / static_cast<double>(d);
            for (size_t row = begin; row < end; ++row) {
              emit(edges.Int(row, 1), v);
            }
          });
    }
    // First rule (the constant term) is a shard-local dense update; shards are
    // disjoint so ranks run concurrently.
    rt::ForEachRank(rt.num_ranks(), [&](int p) {
      rt::RankTimer t;
      for (VertexId v = rt.shard().Begin(p); v < rt.shard().End(p); ++v) {
        rank[v] = options.jump + sum[v];
      }
      rt.clock()->RecordCompute(p, t.Seconds());
    });
    rt.clock()->EndStep(false);
  }

  rt.clock()->ChargeMemory(
      0, obs::MemPhase::kGraph,
      edges.MemoryBytes() / std::max(1, config.num_ranks));
  rt.clock()->ChargeMemory(0, obs::MemPhase::kEngineState,
                           static_cast<uint64_t>(n) * 2 * sizeof(double));
  rt::PageRankResult result;
  result.ranks = std::move(rank);
  result.iterations = options.iterations;
  result.metrics = rt.Finish();
  return result;
}

// ---------------------------------------------------------------------------
// BFS — the recursive rule of §3.2:
//   BFS(t, $MIN(d)) :- t = SRC, d = 0;
//     :- BFS(s, d0), EDGE(s, t), d = d0 + 1.
// Semi-naive evaluation: only tuples whose distance improved drive a round.
// ---------------------------------------------------------------------------
rt::BfsResult Bfs(const Graph& g, const rt::BfsOptions& options,
                  rt::EngineConfig config, const DataliteOptions& datalite) {
  MAZE_CHECK(g.has_out());
  const VertexId n = g.num_vertices();
  Runtime rt(config.num_ranks, datalite, n, config.trace, config.faults);
  Table edges = BuildEdgeTable(g);

  std::vector<int64_t> dist(n, std::numeric_limits<int64_t>::max());
  dist[options.source] = 0;
  int rounds = SemiNaiveFixpoint<int64_t, MinAgg<int64_t>>(
      &rt, &dist, /*bytes_per_tuple=*/16, {options.source},
      [&](int64_t s, int64_t d0,
          const std::function<void(int64_t, int64_t)>& emit) {
        auto [begin, end] = edges.Rows(s);
        for (size_t row = begin; row < end; ++row) {
          emit(edges.Int(row, 1), d0 + 1);
        }
      });

  rt.clock()->ChargeMemory(
      0, obs::MemPhase::kGraph,
      edges.MemoryBytes() / std::max(1, config.num_ranks));
  rt.clock()->ChargeMemory(0, obs::MemPhase::kEngineState,
                           static_cast<uint64_t>(n) * sizeof(int64_t));
  rt::BfsResult result;
  result.distance.resize(n);
  for (VertexId v = 0; v < n; ++v) {
    result.distance[v] = dist[v] == std::numeric_limits<int64_t>::max()
                             ? kInfiniteDistance
                             : static_cast<uint32_t>(dist[v]);
  }
  result.levels = rounds;
  result.metrics = rt.Finish();
  return result;
}

// ---------------------------------------------------------------------------
// Triangle counting — the three-way join of §3.2:
//   TRIANGLE(0, $INC(1)) :- EDGE(x, y), EDGE(y, z), EDGE(x, z).
// The join plan drives on x's shard, ships EDGE[y] rows from y's shard, and
// probes EDGE(x, z) via the tail-nested index. $INC counters accumulate locally
// and combine at the end (one tiny tuple per rank).
// ---------------------------------------------------------------------------
rt::TriangleCountResult TriangleCount(const Graph& g,
                                      const rt::TriangleCountOptions&,
                                      rt::EngineConfig config,
                                      const DataliteOptions& datalite) {
  MAZE_CHECK(g.has_out());
  const VertexId n = g.num_vertices();
  const int ranks = config.num_ranks;
  Runtime rt(ranks, datalite, n, config.trace, config.faults);
  Table edges = BuildEdgeTable(g);

  // Wire: EDGE[y] rows shipped from owner(y) to owner(x) for each distinct
  // remote y in x's shard's neighbor lists (16 bytes per (y, z) tuple).
  if (ranks > 1) {
    for (int p = 0; p < ranks; ++p) {
      Bitvector needed(n);
      for (VertexId x = rt.shard().Begin(p); x < rt.shard().End(p); ++x) {
        auto [begin, end] = edges.Rows(x);
        for (size_t row = begin; row < end; ++row) {
          int64_t y = edges.Int(row, 1);
          if (rt.OwnerOf(y) != p) needed.Set(static_cast<size_t>(y));
        }
      }
      std::vector<uint32_t> ids;
      needed.AppendSetBits(&ids);
      std::vector<uint64_t> tuples_from(ranks, 0);
      for (VertexId y : ids) {
        auto [begin, end] = edges.Rows(y);
        tuples_from[rt.OwnerOf(y)] += end - begin;
      }
      for (int q = 0; q < ranks; ++q) {
        rt.ChargeTuples(q, p, tuples_from[q], 16);
      }
    }
  }

  // Rank-parallel: the edge table is read-only; each rank counts into its own
  // slot, summed in rank order below.
  std::vector<uint64_t> rank_triangles(ranks, 0);
  rt::ForEachRank(ranks, [&](int p) {
    rt::RankTimer t;
    ChunkBuffers<uint64_t> counts(rt.shard().Size(p), 32);
    counts.Fill([&](uint64_t lo, uint64_t hi, uint64_t& block_triangles) {
      for (VertexId x = rt.shard().Begin(p) + static_cast<VertexId>(lo);
           x < rt.shard().Begin(p) + static_cast<VertexId>(hi); ++x) {
        auto [xb, xe] = edges.Rows(x);
        for (size_t xr = xb; xr < xe; ++xr) {
          int64_t y = edges.Int(xr, 1);
          auto [yb, ye] = edges.Rows(y);
          for (size_t yr = yb; yr < ye; ++yr) {
            int64_t z = edges.Int(yr, 1);
            if (edges.ContainsPair(x, z)) ++block_triangles;
          }
        }
      }
    });
    counts.ForEachInOrder(
        [&](uint64_t block_triangles) { rank_triangles[p] += block_triangles; });
    rt.clock()->RecordCompute(p, t.Seconds());
    // $INC combination: one counter tuple per rank to the head's shard (rank 0).
    if (p != 0) rt.ChargeTuples(p, 0, 1, 16);
  });
  uint64_t triangles = 0;
  for (int p = 0; p < ranks; ++p) triangles += rank_triangles[p];
  rt.clock()->EndStep(false);

  rt.clock()->ChargeMemory(0, obs::MemPhase::kGraph,
                           edges.MemoryBytes() / std::max(1, ranks));
  rt.clock()->ChargeMemory(0, obs::MemPhase::kEngineState,
                           edges.MemoryBytes() / std::max(1, ranks));
  rt::TriangleCountResult result;
  result.triangles = triangles;
  result.metrics = rt.Finish();
  return result;
}

// ---------------------------------------------------------------------------
// Collaborative filtering (GD) — §3.2: user and item vectors live in separate
// tables joined with the rating table; the tables are transferred to target
// machines at the start of each iteration so the joins are local.
// ---------------------------------------------------------------------------
rt::CfResult CollaborativeFiltering(const BipartiteGraph& g,
                                    const rt::CfOptions& options,
                                    rt::EngineConfig config,
                                    const DataliteOptions& datalite) {
  MAZE_CHECK(options.method == rt::CfMethod::kGd);
  const int k = options.k;
  const int ranks = config.num_ranks;
  Runtime rt(ranks, datalite, g.num_users(), config.trace, config.faults);
  rt::Partition1D item_shard =
      rt::Partition1D::VertexBalanced(g.num_items(), ranks);

  // RATING(u, v, r) tail-nested by user; RATING_T(v, u, r) by item.
  Table rating("RATING", 2, 1);
  Table rating_t("RATING_T", 2, 1);
  for (VertexId u = 0; u < g.num_users(); ++u) {
    for (const auto& e : g.UserRatings(u)) {
      int64_t row[2] = {u, e.id};
      double val[1] = {e.rating};
      rating.AppendRow(row, val);
      int64_t trow[2] = {e.id, u};
      rating_t.AppendRow(trow, val);
    }
  }
  rating.TailNest(g.num_users());
  rating_t.TailNest(g.num_items());

  rt::CfResult result;
  result.k = k;
  native::CfInitFactors(g.num_users(), k, options.seed, &result.user_factors);
  native::CfInitFactors(g.num_items(), k, options.seed ^ 0x1234567ull,
                        &result.item_factors);

  // USERVEC[u](d0..dk-1) and ITEMVEC[v](...): the factor-vector tables of §3.2.
  // They are rebuilt ("transferred") at the start of every iteration, and the
  // gradient joins read the previous iteration's factors through the columnar
  // table storage — the indirection a table-backed runtime actually pays.
  auto snapshot = [&](const std::vector<double>& factors, VertexId count,
                      const char* name) {
    Table t(name, 1, options.k);
    std::vector<double> row(options.k);
    for (VertexId i = 0; i < count; ++i) {
      for (int d = 0; d < options.k; ++d) {
        row[d] = factors[static_cast<size_t>(i) * options.k + d];
      }
      int64_t key[1] = {i};
      t.AppendRow(key, row);
    }
    return t;
  };

  double gamma = options.learning_rate;
  for (int iter = 0; iter < options.iterations; ++iter) {
    Table old_users = snapshot(result.user_factors, g.num_users(), "USERVEC");
    Table old_items = snapshot(result.item_factors, g.num_items(), "ITEMVEC");

    // Table transfer at iteration start: every rank receives the full opposite-
    // side vector table rows it does not own (k doubles + key per row).
    if (ranks > 1) {
      for (int q = 0; q < ranks; ++q) {
        uint64_t item_rows = item_shard.Size(q);
        uint64_t user_rows = rt.shard().Size(q);
        for (int p = 0; p < ranks; ++p) {
          if (p == q) continue;
          rt.ChargeTuples(q, p, item_rows, 8 + 8ull * k);
          rt.ChargeTuples(q, p, user_rows, 8 + 8ull * k);
        }
      }
    }

    // Local joins: user pass over RATING, item pass over RATING_T. Ranks run
    // concurrently: both passes read iteration-start snapshots and write only
    // the rank's owned factor rows.
    rt::ForEachRank(ranks, [&](int p) {
      rt::RankTimer t;
      ParallelFor(rt.shard().Size(p), 32, [&](uint64_t lo, uint64_t hi) {
        std::vector<double> grad(k);
        for (VertexId u = rt.shard().Begin(p) + static_cast<VertexId>(lo);
             u < rt.shard().Begin(p) + static_cast<VertexId>(hi); ++u) {
          std::fill(grad.begin(), grad.end(), 0.0);
          auto [begin, end] = rating.Rows(u);
          for (size_t row = begin; row < end; ++row) {
            int64_t v = rating.Int(row, 1);
            double r = rating.Double(row, 0);
            double dot = 0;
            for (int d = 0; d < k; ++d) {
              dot += old_users.Double(u, d) * old_items.Double(v, d);
            }
            double err = r - dot;
            for (int d = 0; d < k; ++d) {
              grad[d] += err * old_items.Double(v, d) -
                         options.lambda_p * old_users.Double(u, d);
            }
          }
          double* out = result.user_factors.data() + static_cast<size_t>(u) * k;
          for (int d = 0; d < k; ++d) {
            out[d] = old_users.Double(u, d) + gamma * grad[d];
          }
        }
      });
      ParallelFor(item_shard.Size(p), 32, [&](uint64_t lo, uint64_t hi) {
        std::vector<double> grad(k);
        for (VertexId v = item_shard.Begin(p) + static_cast<VertexId>(lo);
             v < item_shard.Begin(p) + static_cast<VertexId>(hi); ++v) {
          std::fill(grad.begin(), grad.end(), 0.0);
          auto [begin, end] = rating_t.Rows(v);
          for (size_t row = begin; row < end; ++row) {
            int64_t u = rating_t.Int(row, 1);
            double r = rating_t.Double(row, 0);
            double dot = 0;
            for (int d = 0; d < k; ++d) {
              dot += old_users.Double(u, d) * old_items.Double(v, d);
            }
            double err = r - dot;
            for (int d = 0; d < k; ++d) {
              grad[d] += err * old_users.Double(u, d) -
                         options.lambda_q * old_items.Double(v, d);
            }
          }
          double* out = result.item_factors.data() + static_cast<size_t>(v) * k;
          for (int d = 0; d < k; ++d) {
            out[d] = old_items.Double(v, d) + gamma * grad[d];
          }
        }
      });
      rt.clock()->RecordCompute(p, t.Seconds());
    });
    rt.clock()->EndStep(false);
    gamma *= options.step_decay;
    result.rmse_per_iteration.push_back(
        native::CfRmse(g, result.user_factors, result.item_factors, k));
  }

  rt.clock()->ChargeMemory(
      0, obs::MemPhase::kGraph,
      (rating.MemoryBytes() + rating_t.MemoryBytes()) / std::max(1, ranks));
  rt.clock()->ChargeMemory(
      0, obs::MemPhase::kEngineState,
      (result.user_factors.size() + result.item_factors.size()) *
          sizeof(double) * 2);
  result.iterations = options.iterations;
  result.final_rmse = result.rmse_per_iteration.empty()
                          ? 0.0
                          : result.rmse_per_iteration.back();
  result.metrics = rt.Finish();
  return result;
}

// ---------------------------------------------------------------------------
// Connected components (extension) — the recursive $MIN rule:
//   CC(v, $MIN(l)) :- CC(v, v);  :- CC(u, l), EDGE(u, v).
// Semi-naive evaluation seeded with every vertex.
// ---------------------------------------------------------------------------
rt::ConnectedComponentsResult ConnectedComponents(
    const Graph& g, const rt::ConnectedComponentsOptions& options,
    rt::EngineConfig config, const DataliteOptions& datalite) {
  MAZE_CHECK(g.has_out());
  const VertexId n = g.num_vertices();
  Runtime rt(config.num_ranks, datalite, n, config.trace, config.faults);
  Table edges = BuildEdgeTable(g);

  std::vector<int64_t> label(n);
  std::vector<int64_t> seeds(n);
  for (VertexId v = 0; v < n; ++v) {
    label[v] = v;
    seeds[v] = v;
  }
  int rounds = SemiNaiveFixpoint<int64_t, MinAgg<int64_t>>(
      &rt, &label, /*bytes_per_tuple=*/16, std::move(seeds),
      [&](int64_t u, int64_t l,
          const std::function<void(int64_t, int64_t)>& emit) {
        auto [begin, end] = edges.Rows(u);
        for (size_t row = begin; row < end; ++row) {
          emit(edges.Int(row, 1), l);
        }
      });
  (void)options;

  rt.clock()->ChargeMemory(
      0, obs::MemPhase::kGraph,
      edges.MemoryBytes() / std::max(1, config.num_ranks));
  rt.clock()->ChargeMemory(0, obs::MemPhase::kEngineState,
                           static_cast<uint64_t>(n) * sizeof(int64_t));
  rt::ConnectedComponentsResult result;
  result.label.resize(n);
  for (VertexId v = 0; v < n; ++v) {
    result.label[v] = static_cast<VertexId>(label[v]);
  }
  result.num_components = native::CountComponents(result.label);
  result.iterations = rounds;
  result.metrics = rt.Finish();
  return result;
}

}  // namespace maze::datalog
