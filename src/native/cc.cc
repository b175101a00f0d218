#include "native/cc.h"

#include <algorithm>
#include <atomic>
#include <deque>
#include <vector>

#include "obs/obs.h"
#include "rt/partition.h"
#include "rt/rank_exec.h"
#include "rt/sim_clock.h"
#include "util/bitvector.h"
#include "util/check.h"
#include "util/chunk_buffers.h"
#include "util/timer.h"

namespace maze::native {

std::vector<VertexId> ReferenceComponents(const Graph& g) {
  MAZE_CHECK(g.has_out());
  const VertexId n = g.num_vertices();
  std::vector<VertexId> label(n, kInvalidVertex);
  for (VertexId seed = 0; seed < n; ++seed) {
    if (label[seed] != kInvalidVertex) continue;
    // Flood fill: every vertex in the component gets the smallest id in it,
    // which is `seed` because seeds are visited in increasing order.
    label[seed] = seed;
    std::deque<VertexId> queue = {seed};
    while (!queue.empty()) {
      VertexId u = queue.front();
      queue.pop_front();
      for (VertexId v : g.OutNeighbors(u)) {
        if (label[v] == kInvalidVertex) {
          label[v] = seed;
          queue.push_back(v);
        }
      }
    }
  }
  return label;
}

uint64_t CountComponents(const std::vector<VertexId>& labels) {
  std::vector<VertexId> sorted = labels;
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  return sorted.size();
}

rt::ConnectedComponentsResult ConnectedComponents(
    const Graph& g, const rt::ConnectedComponentsOptions& options,
    const rt::EngineConfig& config, const NativeOptions& native) {
  MAZE_CHECK(g.has_out());
  const VertexId n = g.num_vertices();
  const int ranks = config.num_ranks;
  rt::SimClock clock(ranks, config.comm, config.trace, config.faults);
  rt::Partition1D part = rt::Partition1D::EdgeBalanced(g, ranks);

  // Atomic min-label propagation: labels are claimed with CAS, a bitvector
  // dedups next-frontier membership, and only improved vertices propagate.
  std::vector<std::atomic<VertexId>> label(n);
  for (VertexId v = 0; v < n; ++v) label[v].store(v, std::memory_order_relaxed);

  std::vector<std::vector<VertexId>> frontier(ranks);
  for (int p = 0; p < ranks; ++p) {
    frontier[p].reserve(part.Size(p));
    for (VertexId v = part.Begin(p); v < part.End(p); ++v) {
      frontier[p].push_back(v);
    }
  }

  // One block of a rank's frontier: the vertices it queued for the next round
  // and its cross-rank label improvements per destination rank.
  struct RelaxBlock {
    std::vector<VertexId> next;
    std::vector<uint64_t> cross;
  };

  int rounds = 0;
  while (rounds < options.max_iterations) {
    uint64_t active = 0;
    for (const auto& f : frontier) active += f.size();
    if (active == 0) break;
    ++rounds;

    Bitvector in_next(n);
    std::vector<std::vector<VertexId>> next(ranks);
    // Cross-rank label updates per (src rank, dst rank), for wire accounting.
    std::vector<std::vector<uint64_t>> cross(ranks,
                                             std::vector<uint64_t>(ranks, 0));

    // Rank loop stays serial by design: labels relax through a global CAS, so
    // running ranks concurrently would make the per-(p, q) improvement counts
    // (and thus wire bytes) depend on the interleaving. RankTimer still charges
    // CPU time, keeping the compute model consistent with the parallel engines.
    for (int p = 0; p < ranks; ++p) {
      rt::RankTimer t;
      ChunkBuffers<RelaxBlock> blocks(frontier[p].size(), 64);
      blocks.Fill([&](uint64_t lo, uint64_t hi, RelaxBlock& out) {
        out.cross.assign(ranks, 0);
        for (uint64_t i = lo; i < hi; ++i) {
          VertexId u = frontier[p][i];
          VertexId lu = label[u].load(std::memory_order_relaxed);
          for (VertexId v : g.OutNeighbors(u)) {
            VertexId lv = label[v].load(std::memory_order_relaxed);
            bool improved = false;
            while (lu < lv) {
              if (label[v].compare_exchange_weak(lv, lu,
                                                 std::memory_order_relaxed)) {
                improved = true;
                break;
              }
            }
            if (improved) {
              int q = ranks == 1 ? 0 : part.OwnerOf(v);
              if (q != p) ++out.cross[q];
              if (in_next.TestAndSetAtomic(v)) out.next.push_back(v);
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
      double seconds = t.Seconds();
      clock.RecordCompute(p, seconds);
      obs::EmitSpanEndingNow("labelprop", "native", p, rounds - 1, seconds);
    }
    // Wire: 8 bytes per cross-rank (vertex, label) improvement.
    for (int p = 0; p < ranks; ++p) {
      for (int q = 0; q < ranks; ++q) {
        if (cross[p][q] > 0) clock.RecordSend(p, q, cross[p][q] * 8, 1);
      }
    }
    clock.EndStep(native.overlap_comm);
    frontier = std::move(next);
  }

  clock.ChargeMemory(0, obs::MemPhase::kGraph,
                     g.MemoryBytes() / std::max(1, ranks));
  clock.ChargeMemory(0, obs::MemPhase::kEngineState,
                     static_cast<uint64_t>(n) * sizeof(VertexId) +
                         static_cast<uint64_t>(n) / 8);
  rt::ConnectedComponentsResult result;
  result.label.resize(n);
  for (VertexId v = 0; v < n; ++v) {
    result.label[v] = label[v].load(std::memory_order_relaxed);
  }
  result.num_components = CountComponents(result.label);
  result.iterations = rounds;
  result.metrics = clock.Finish(/*intra_rank_utilization=*/0.9);
  return result;
}

}  // namespace maze::native
