#include "native/bfs.h"

#include <algorithm>
#include <atomic>
#include <vector>

#include "obs/obs.h"
#include "rt/partition.h"
#include "rt/rank_exec.h"
#include "rt/sim_clock.h"
#include "util/bitvector.h"
#include "util/check.h"
#include "util/chunk_buffers.h"
#include "util/codec.h"
#include "util/prefetch.h"
#include "util/timer.h"

namespace maze::native {
namespace {

// Frontier density (edges touched by the frontier as a fraction of all edges)
// above which the bottom-up sweep wins; standard direction-optimization heuristic.
constexpr double kBottomUpThreshold = 0.05;

// Visited-set abstraction so the Figure 7 "data structure" toggle swaps the
// bitvector for a plain atomic distance array with CAS claims.
class VisitedSet {
 public:
  VisitedSet(VertexId n, bool use_bitvector) : use_bitvector_(use_bitvector) {
    if (use_bitvector_) {
      bits_.Resize(n);
    } else {
      dist_ = std::vector<std::atomic<uint32_t>>(n);
      for (auto& d : dist_) d.store(kInfiniteDistance, std::memory_order_relaxed);
    }
  }

  bool Test(VertexId v) const {
    return use_bitvector_
               ? bits_.TestAtomic(v)
               : dist_[v].load(std::memory_order_relaxed) != kInfiniteDistance;
  }

  // Atomically claims v at `level`; true if this call made it visited.
  bool Claim(VertexId v, uint32_t level) {
    if (use_bitvector_) return bits_.TestAndSetAtomic(v);
    uint32_t inf = kInfiniteDistance;
    return dist_[v].compare_exchange_strong(inf, level,
                                            std::memory_order_relaxed);
  }

  uint64_t MemoryBytes() const {
    return use_bitvector_ ? bits_.MemoryBytes()
                          : dist_.size() * sizeof(uint32_t);
  }

 private:
  bool use_bitvector_;
  Bitvector bits_;
  std::vector<std::atomic<uint32_t>> dist_;
};

// One block of a rank's top-down frontier: unvisited owned neighbors (claim
// candidates) and the remote neighbors per destination rank, in frontier order.
struct TopDownBlock {
  std::vector<VertexId> owned;
  std::vector<std::vector<VertexId>> remote;
};

}  // namespace

double BfsTotalBytes(VertexId num_vertices, EdgeId num_edges) {
  return static_cast<double>(num_edges) * 8.0 +
         static_cast<double>(num_vertices) * 8.0;
}

rt::BfsResult Bfs(const Graph& g, const rt::BfsOptions& options,
                  const rt::EngineConfig& config, const NativeOptions& native) {
  MAZE_CHECK(g.has_out());
  const VertexId n = g.num_vertices();
  MAZE_CHECK(options.source < n);
  const int ranks = config.num_ranks;
  rt::SimClock clock(ranks, config.comm, config.trace, config.faults);
  rt::Partition1D part = rt::Partition1D::EdgeBalanced(g, ranks);

  rt::BfsResult result;
  result.distance.assign(n, kInfiniteDistance);

  VisitedSet visited(n, native.use_bitvector);
  std::vector<std::vector<VertexId>> frontier(ranks);  // Per owning rank.
  std::vector<std::vector<VertexId>> next_frontier(ranks);

  {
    int owner = part.OwnerOf(options.source);
    frontier[owner].push_back(options.source);
    MAZE_CHECK(visited.Claim(options.source, 0));
    result.distance[options.source] = 0;
  }

  uint64_t buffer_peak = 0;
  uint32_t level = 0;
  while (true) {
    uint64_t global_frontier = 0;
    uint64_t frontier_degree = 0;
    for (const auto& f : frontier) {
      global_frontier += f.size();
      for (VertexId u : f) frontier_degree += g.OutDegree(u);
    }
    if (global_frontier == 0) break;

    bool bottom_up =
        native.use_bitvector &&
        static_cast<double>(frontier_degree) >
            kBottomUpThreshold * static_cast<double>(g.num_edges());

    if (bottom_up) {
      // Bottom-up sweep: every unvisited owned vertex scans its neighbors for a
      // frontier member and claims itself if one is found.
      Bitvector in_frontier(n);
      for (const auto& f : frontier) {
        for (VertexId u : f) in_frontier.Set(u);
      }
      // Rank-parallel: each rank claims only vertices it owns, so claims,
      // distances, and next-frontier lists never cross rank tasks.
      rt::ForEachRank(ranks, [&](int p) {
        rt::RankTimer t;
        ChunkBuffers<std::vector<VertexId>> found(part.Size(p), 512);
        found.Fill([&](uint64_t lo, uint64_t hi, std::vector<VertexId>& out) {
          for (VertexId v = part.Begin(p) + static_cast<VertexId>(lo);
               v < part.Begin(p) + static_cast<VertexId>(hi); ++v) {
            if (visited.Test(v)) continue;
            for (VertexId u : g.OutNeighbors(v)) {
              if (in_frontier.Test(u)) {
                out.push_back(v);
                break;
              }
            }
          }
        });
        auto& next = next_frontier[p];
        found.ForEachInOrder([&](const std::vector<VertexId>& block) {
          for (VertexId v : block) {
            if (visited.Claim(v, level + 1)) {
              result.distance[v] = level + 1;
              next.push_back(v);
            }
          }
        });
        double seconds = t.Seconds();
        clock.RecordCompute(p, seconds);
        obs::EmitSpanEndingNow("bottom_up", "native", p,
                               static_cast<int>(level), seconds);
      });
      // Bottom-up needs every rank to know the whole frontier: broadcast the
      // (compressed) frontier of each rank to all others.
      if (ranks > 1) {
        for (int p = 0; p < ranks; ++p) {
          if (frontier[p].empty()) continue;
          uint64_t bytes;
          if (native.compress_messages) {
            std::vector<uint8_t> enc;
            EncodeIdsBest(frontier[p], &enc);
            bytes = enc.size();
          } else {
            bytes = frontier[p].size() * sizeof(VertexId);
          }
          for (int q = 0; q < ranks; ++q) {
            if (q != p) clock.RecordSend(p, q, bytes, 1);
          }
        }
      }
    } else {
      // Top-down expansion, parallel over the rank's frontier. Remote candidates
      // are batched per destination rank.
      std::vector<std::vector<std::vector<VertexId>>> remote(
          ranks, std::vector<std::vector<VertexId>>(ranks));
      // Rank-parallel: a rank claims only owned neighbors (q == p) and batches
      // the rest into its private remote[p] rows.
      rt::ForEachRank(ranks, [&](int p) {
        rt::RankTimer t;
        const auto& f = frontier[p];
        // Blocks only collect candidates; the claims run in block order after
        // the loop, so the first discovery in frontier order wins whatever the
        // schedule and next_frontier[p] keeps the serial order.
        ChunkBuffers<TopDownBlock> blocks(f.size(), 64);
        blocks.Fill([&](uint64_t lo, uint64_t hi, TopDownBlock& out) {
          out.remote.resize(ranks);
          for (uint64_t i = lo; i < hi; ++i) {
            const auto neighbors = g.OutNeighbors(f[i]);
            for (size_t j = 0; j < neighbors.size(); ++j) {
              if (native.software_prefetch &&
                  j + kPrefetchDistance < neighbors.size()) {
                PrefetchRead(&result.distance[neighbors[j + kPrefetchDistance]]);
              }
              VertexId v = neighbors[j];
              int q = ranks == 1 ? 0 : part.OwnerOf(v);
              if (q == p) {
                if (!visited.Test(v)) out.owned.push_back(v);
              } else {
                out.remote[q].push_back(v);
              }
            }
          }
        });
        auto& next = next_frontier[p];
        blocks.ForEachInOrder([&](const TopDownBlock& block) {
          for (VertexId v : block.owned) {
            if (visited.Claim(v, level + 1)) {
              result.distance[v] = level + 1;
              next.push_back(v);
            }
          }
          for (int q = 0; q < ranks; ++q) {
            remote[p][q].insert(remote[p][q].end(), block.remote[q].begin(),
                                block.remote[q].end());
          }
        });
        double seconds = t.Seconds();
        clock.RecordCompute(p, seconds);
        obs::EmitSpanEndingNow("top_down", "native", p,
                               static_cast<int>(level), seconds);
      });

      if (ranks > 1) {
        // Wire: candidates to their owners, compressed if enabled (the encoding
        // cost is real CPU and is charged to the sender). Senders are
        // independent; the per-rank buffer sizes are folded after the barrier.
        std::vector<uint64_t> rank_buffer_of(ranks, 0);
        rt::ForEachRank(ranks, [&](int p) {
          uint64_t rank_buffer = 0;
          for (int q = 0; q < ranks; ++q) {
            auto& ids = remote[p][q];
            if (ids.empty()) continue;
            uint64_t bytes;
            if (native.compress_messages) {
              rt::RankTimer enc_timer;
              std::vector<uint8_t> enc;
              EncodeIdsBest(ids, &enc);
              bytes = enc.size();
              double enc_seconds = enc_timer.Seconds();
              clock.RecordCompute(p, enc_seconds);
              obs::EmitSpanEndingNow("frontier_encode", "native", p,
                                     static_cast<int>(level), enc_seconds);
            } else {
              bytes = ids.size() * sizeof(VertexId);
            }
            clock.RecordSend(p, q, bytes, 1);
            rank_buffer += bytes;
          }
          rank_buffer_of[p] = rank_buffer;
        });
        for (int p = 0; p < ranks; ++p) {
          buffer_peak = std::max(buffer_peak, rank_buffer_of[p]);
        }
        // Receivers integrate remote candidates, each over its own inbound
        // batches in sender order (claims touch only owned vertices).
        rt::ForEachRank(ranks, [&](int q) {
          rt::RankTimer t;
          for (int p = 0; p < ranks; ++p) {
            for (VertexId v : remote[p][q]) {
              if (visited.Claim(v, level + 1)) {
                result.distance[v] = level + 1;
                next_frontier[q].push_back(v);
              }
            }
          }
          double seconds = t.Seconds();
          clock.RecordCompute(q, seconds);
          obs::EmitSpanEndingNow("integrate_remote", "native", q,
                                 static_cast<int>(level), seconds);
        });
      }
    }

    clock.EndStep(native.overlap_comm);
    for (int p = 0; p < ranks; ++p) {
      frontier[p] = std::move(next_frontier[p]);
      next_frontier[p].clear();
    }
    ++level;
  }

  clock.ChargeMemory(0, obs::MemPhase::kGraph, g.MemoryBytes() / ranks);
  clock.ChargeMemory(0, obs::MemPhase::kEngineState,
                     static_cast<uint64_t>(n) * sizeof(uint32_t) / ranks +
                         visited.MemoryBytes());
  clock.ChargeMemory(0, obs::MemPhase::kMessageBuffers,
                     native.overlap_comm ? buffer_peak / 4 : buffer_peak);

  result.levels = static_cast<int>(level);
  result.metrics = clock.Finish(/*intra_rank_utilization=*/0.85);
  return result;
}

}  // namespace maze::native
