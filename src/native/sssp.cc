#include "native/sssp.h"

#include <algorithm>
#include <atomic>
#include <queue>
#include <vector>

#include "rt/partition.h"
#include "rt/rank_exec.h"
#include "rt/sim_clock.h"
#include "util/bitvector.h"
#include "util/check.h"
#include "util/chunk_buffers.h"
#include "util/timer.h"

namespace maze::native {

std::vector<float> ReferenceDijkstra(const WeightedGraph& g, VertexId source) {
  MAZE_CHECK(source < g.num_vertices());
  std::vector<float> dist(g.num_vertices(), rt::SsspResult::kUnreachable);
  using Entry = std::pair<float, VertexId>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> queue;
  dist[source] = 0;
  queue.push({0, source});
  while (!queue.empty()) {
    auto [d, u] = queue.top();
    queue.pop();
    if (d > dist[u]) continue;  // Stale entry.
    for (const auto& arc : g.OutArcs(u)) {
      float candidate = d + arc.weight;
      if (candidate < dist[arc.dst]) {
        dist[arc.dst] = candidate;
        queue.push({candidate, arc.dst});
      }
    }
  }
  return dist;
}

rt::SsspResult Sssp(const WeightedGraph& g, const rt::SsspOptions& options,
                    const rt::EngineConfig& config,
                    const NativeOptions& native) {
  const VertexId n = g.num_vertices();
  MAZE_CHECK(options.source < n);
  const int ranks = config.num_ranks;
  rt::SimClock clock(ranks, config.comm, config.trace, config.faults);
  rt::Partition1D part = rt::Partition1D::VertexBalanced(n, ranks);

  // Atomic float distances, claimed by CAS on the bit pattern.
  std::vector<std::atomic<float>> dist(n);
  for (auto& d : dist) {
    d.store(rt::SsspResult::kUnreachable, std::memory_order_relaxed);
  }
  dist[options.source].store(0, std::memory_order_relaxed);

  std::vector<std::vector<VertexId>> frontier(ranks);
  frontier[part.OwnerOf(options.source)].push_back(options.source);

  // One block of a rank's frontier: the vertices it queued for the next round
  // and its cross-rank distance improvements per destination rank.
  struct RelaxBlock {
    std::vector<VertexId> next;
    std::vector<uint64_t> cross;
  };

  int rounds = 0;
  while (true) {
    uint64_t active = 0;
    for (const auto& f : frontier) active += f.size();
    if (active == 0) break;
    ++rounds;

    Bitvector in_next(n);
    std::vector<std::vector<VertexId>> next(ranks);
    std::vector<std::vector<uint64_t>> cross(ranks,
                                             std::vector<uint64_t>(ranks, 0));
    // Rank loop stays serial by design: distances relax through a global CAS,
    // so concurrent ranks would make the per-(p, q) relaxation counts (and thus
    // wire bytes) schedule-dependent. RankTimer still charges CPU time.
    for (int p = 0; p < ranks; ++p) {
      rt::RankTimer t;
      ChunkBuffers<RelaxBlock> blocks(frontier[p].size(), 64);
      blocks.Fill([&](uint64_t lo, uint64_t hi, RelaxBlock& out) {
        out.cross.assign(ranks, 0);
        for (uint64_t i = lo; i < hi; ++i) {
          VertexId u = frontier[p][i];
          float du = dist[u].load(std::memory_order_relaxed);
          for (const auto& arc : g.OutArcs(u)) {
            float candidate = du + arc.weight;
            float cur = dist[arc.dst].load(std::memory_order_relaxed);
            bool improved = false;
            while (candidate < cur) {
              if (dist[arc.dst].compare_exchange_weak(
                      cur, candidate, std::memory_order_relaxed)) {
                improved = true;
                break;
              }
            }
            if (improved) {
              int q = ranks == 1 ? 0 : part.OwnerOf(arc.dst);
              if (q != p) ++out.cross[q];
              if (in_next.TestAndSetAtomic(arc.dst)) {
                out.next.push_back(arc.dst);
              }
            }
          }
        }
      });
      blocks.ForEachInOrder([&](const RelaxBlock& block) {
        for (VertexId v : block.next) {
          next[ranks == 1 ? 0 : part.OwnerOf(v)].push_back(v);
        }
        for (int q = 0; q < ranks; ++q) cross[p][q] += block.cross[q];
      });
      clock.RecordCompute(p, t.Seconds());
    }
    for (int p = 0; p < ranks; ++p) {
      for (int q = 0; q < ranks; ++q) {
        // 12 bytes per cross-rank (vertex, distance) relaxation.
        if (cross[p][q] > 0) clock.RecordSend(p, q, cross[p][q] * 12, 1);
      }
    }
    clock.EndStep(native.overlap_comm);
    frontier = std::move(next);
  }

  clock.ChargeMemory(0, obs::MemPhase::kGraph,
                     g.MemoryBytes() / std::max(1, ranks));
  clock.ChargeMemory(0, obs::MemPhase::kEngineState,
                     static_cast<uint64_t>(n) * sizeof(float));
  rt::SsspResult result;
  result.distance.resize(n);
  for (VertexId v = 0; v < n; ++v) {
    result.distance[v] = dist[v].load(std::memory_order_relaxed);
  }
  result.rounds = rounds;
  result.metrics = clock.Finish(/*intra_rank_utilization=*/0.9);
  return result;
}

}  // namespace maze::native
