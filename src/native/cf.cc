#include "native/cf.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <vector>

#include "obs/obs.h"
#include "rt/partition.h"
#include "rt/rank_exec.h"
#include "util/bitvector.h"
#include "rt/sim_clock.h"
#include "util/check.h"
#include "util/chunk_buffers.h"
#include "util/prng.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace maze::native {
namespace {

// Ratings bucketed into a GxG block grid (user stripe x item stripe), with a
// deterministic shuffle inside each block ("process edges in a random order").
struct BlockGrid {
  int g = 1;
  std::vector<VertexId> user_bounds;  // g + 1.
  std::vector<VertexId> item_bounds;  // g + 1.
  std::vector<std::vector<Rating>> blocks;  // g * g, row-major by user stripe.

  static BlockGrid Build(const BipartiteGraph& graph, int g, uint64_t seed) {
    BlockGrid grid;
    grid.g = g;
    grid.user_bounds.resize(g + 1);
    grid.item_bounds.resize(g + 1);
    for (int i = 0; i <= g; ++i) {
      grid.user_bounds[i] = static_cast<VertexId>(
          static_cast<uint64_t>(graph.num_users()) * i / g);
      grid.item_bounds[i] = static_cast<VertexId>(
          static_cast<uint64_t>(graph.num_items()) * i / g);
    }
    grid.blocks.resize(static_cast<size_t>(g) * g);
    auto item_stripe = [&](VertexId item) {
      return static_cast<int>(static_cast<uint64_t>(item) * g /
                              graph.num_items());
    };
    auto user_stripe = [&](VertexId user) {
      return static_cast<int>(static_cast<uint64_t>(user) * g /
                              graph.num_users());
    };
    for (VertexId u = 0; u < graph.num_users(); ++u) {
      for (const auto& e : graph.UserRatings(u)) {
        grid.blocks[static_cast<size_t>(user_stripe(u)) * g + item_stripe(e.id)]
            .push_back(Rating{u, e.id, e.rating});
      }
    }
    // In-block shuffle for SGD's random edge order.
    uint64_t state = seed;
    for (auto& block : grid.blocks) {
      Xorshift64Star rng(SplitMix64(state));
      for (size_t i = block.size(); i > 1; --i) {
        size_t j = rng.NextBounded(i);
        std::swap(block[i - 1], block[j]);
      }
    }
    return grid;
  }

  VertexId ItemsInStripe(int s) const { return item_bounds[s + 1] - item_bounds[s]; }
};

// One SGD pass over a block: equations (5)-(8).
void SgdBlock(const std::vector<Rating>& block, const rt::CfOptions& opt,
              double gamma, std::vector<double>* pu, std::vector<double>* qv) {
  const int k = opt.k;
  for (const Rating& r : block) {
    double* p = pu->data() + static_cast<size_t>(r.user) * k;
    double* q = qv->data() + static_cast<size_t>(r.item) * k;
    double dot = 0;
    for (int i = 0; i < k; ++i) dot += p[i] * q[i];
    double e = r.value - dot;
    for (int i = 0; i < k; ++i) {
      double p_old = p[i];
      p[i] += gamma * (e * q[i] - opt.lambda_p * p_old);
      q[i] += gamma * (e * p_old - opt.lambda_q * q[i]);
    }
  }
}

}  // namespace

void CfInitFactors(VertexId count, int k, uint64_t seed,
                   std::vector<double>* factors) {
  factors->resize(static_cast<size_t>(count) * k);
  double scale = 0.5 / std::sqrt(static_cast<double>(k));
  ParallelFor(factors->size(), 4096, [&](uint64_t lo, uint64_t hi) {
    for (uint64_t i = lo; i < hi; ++i) {
      uint64_t state = seed + i;
      Xorshift64Star rng(SplitMix64(state));
      (*factors)[i] = rng.NextDouble() * scale;
    }
  });
}

double CfRmse(const BipartiteGraph& g, const std::vector<double>& user_factors,
              const std::vector<double>& item_factors, int k) {
  ChunkBuffers<double> sums(g.num_users(), 128);
  sums.Fill([&](uint64_t lo, uint64_t hi, double& block_sum) {
    for (VertexId u = static_cast<VertexId>(lo); u < hi; ++u) {
      const double* p = user_factors.data() + static_cast<size_t>(u) * k;
      for (const auto& e : g.UserRatings(u)) {
        const double* q = item_factors.data() + static_cast<size_t>(e.id) * k;
        double dot = 0;
        for (int i = 0; i < k; ++i) dot += p[i] * q[i];
        double err = e.rating - dot;
        block_sum += err * err;
      }
    }
  });
  double sum = 0;
  sums.ForEachInOrder([&](double block_sum) { sum += block_sum; });
  return g.num_ratings() > 0
             ? std::sqrt(sum / static_cast<double>(g.num_ratings()))
             : 0.0;
}

rt::CfResult CollaborativeFiltering(const BipartiteGraph& g,
                                    const rt::CfOptions& options,
                                    const rt::EngineConfig& config,
                                    const NativeOptions& native) {
  const int ranks = config.num_ranks;
  const int k = options.k;
  rt::SimClock clock(ranks, config.comm, config.trace, config.faults);

  rt::CfResult result;
  result.k = k;
  CfInitFactors(g.num_users(), k, options.seed, &result.user_factors);
  CfInitFactors(g.num_items(), k, options.seed ^ 0x1234567ull,
                &result.item_factors);

  if (options.method == rt::CfMethod::kSgd) {
    // Grid: ranks (multi node) or worker threads (single node). Diagonal
    // scheduling keeps concurrent blocks disjoint in both users and items.
    int grid_dim = ranks > 1
                       ? ranks
                       : static_cast<int>(ThreadPool::Default().num_threads());
    grid_dim = std::max(1, grid_dim);
    BlockGrid grid = BlockGrid::Build(g, grid_dim, options.seed);

    double gamma = options.learning_rate;
    for (int iter = 0; iter < options.iterations; ++iter) {
      for (int s = 0; s < grid_dim; ++s) {
        if (ranks > 1) {
          // Each rank owns user stripe p and currently holds item stripe
          // (p + s) % grid_dim; stripes rotate between sub-steps. The diagonal
          // blocks are disjoint in both users and items, so ranks run
          // concurrently without factor-vector conflicts.
          rt::ForEachRank(ranks, [&](int p) {
            rt::RankTimer t;
            int item_stripe = (p + s) % grid_dim;
            SgdBlock(grid.blocks[static_cast<size_t>(p) * grid_dim + item_stripe],
                     options, gamma, &result.user_factors,
                     &result.item_factors);
            double seconds = t.Seconds();
            clock.RecordCompute(p, seconds);
            obs::EmitSpanEndingNow("sgd_block", "native", p, iter, seconds);
            // Rotate the item block to the previous rank for the next sub-step.
            uint64_t bytes = static_cast<uint64_t>(
                                 grid.ItemsInStripe(item_stripe)) *
                             k * sizeof(double);
            clock.RecordSend(p, (p + ranks - 1) % ranks, bytes, 1);
          });
          clock.EndStep(native.overlap_comm);
        } else {
          // Single node: all diagonal blocks in parallel across the pool.
          Timer t;
          ParallelFor(static_cast<uint64_t>(grid_dim), 1,
                      [&](uint64_t lo, uint64_t hi) {
                        for (uint64_t b = lo; b < hi; ++b) {
                          int row = static_cast<int>(b);
                          int col = (row + s) % grid_dim;
                          SgdBlock(grid.blocks[static_cast<size_t>(row) *
                                                   grid_dim + col],
                                   options, gamma, &result.user_factors,
                                   &result.item_factors);
                        }
                      });
          double seconds = t.Seconds();
          clock.RecordCompute(0, seconds);
          obs::EmitSpanEndingNow("sgd_diag", "native", 0, iter, seconds);
          clock.EndStep(false);
        }
      }
      gamma *= options.step_decay;
      result.rmse_per_iteration.push_back(
          CfRmse(g, result.user_factors, result.item_factors, k));
    }
    uint64_t block_bytes = g.num_ratings() * sizeof(Rating) / ranks;
    clock.ChargeMemory(0, obs::MemPhase::kGraph, block_bytes);
    clock.ChargeMemory(0, obs::MemPhase::kEngineState,
                       (result.user_factors.size() / ranks +
                        result.item_factors.size()) * sizeof(double));
  } else {
    // Gradient Descent: equations (11)-(12). Old factors are snapshotted so all
    // updates in an iteration read iteration-start values.
    rt::Partition1D user_part = rt::Partition1D::VertexBalanced(g.num_users(),
                                                                ranks);
    rt::Partition1D item_part = rt::Partition1D::VertexBalanced(g.num_items(),
                                                                ranks);
    // Ghost counts: distinct remote item vectors each rank's user pass reads, and
    // vice versa (charged per iteration; factor vectors change every iteration).
    std::vector<uint64_t> ghost_in(ranks, 0);
    if (ranks > 1) {
      for (int p = 0; p < ranks; ++p) {
        Bitvector items_needed(g.num_items());
        for (VertexId u = user_part.Begin(p); u < user_part.End(p); ++u) {
          for (const auto& e : g.UserRatings(u)) items_needed.Set(e.id);
        }
        Bitvector users_needed(g.num_users());
        for (VertexId v = item_part.Begin(p); v < item_part.End(p); ++v) {
          for (const auto& e : g.ItemRatings(v)) users_needed.Set(e.id);
        }
        uint64_t remote_items = 0;
        std::vector<uint32_t> ids;
        items_needed.AppendSetBits(&ids);
        for (VertexId v : ids) {
          if (item_part.OwnerOf(v) != p) ++remote_items;
        }
        ids.clear();
        users_needed.AppendSetBits(&ids);
        uint64_t remote_users = 0;
        for (VertexId u : ids) {
          if (user_part.OwnerOf(u) != p) ++remote_users;
        }
        ghost_in[p] = (remote_items + remote_users) *
                      static_cast<uint64_t>(k) * sizeof(double);
      }
    }

    double gamma = options.learning_rate;
    std::vector<double> old_users;
    std::vector<double> old_items;
    for (int iter = 0; iter < options.iterations; ++iter) {
      old_users = result.user_factors;
      old_items = result.item_factors;

      if (ranks > 1) {
        // Factor exchange: each rank pulls the remote factor vectors its edges
        // touch (Table 1's 8K-bytes-per-edge class of traffic, deduplicated).
        for (int p = 0; p < ranks; ++p) {
          if (ghost_in[p] > 0) {
            // Attribute inbound volume to senders round-robin: charge as one
            // aggregate message from each other rank.
            uint64_t share = ghost_in[p] / std::max(1, ranks - 1);
            for (int q = 0; q < ranks; ++q) {
              if (q != p && share > 0) clock.RecordSend(q, p, share, 1);
            }
          }
        }
      }

      // Rank-parallel: both passes read the iteration-start snapshots and write
      // only the rank's owned user/item factor rows.
      rt::ForEachRank(ranks, [&](int p) {
        rt::RankTimer t;
        // User pass.
        ParallelFor(
            user_part.Size(p), 64, [&](uint64_t lo, uint64_t hi) {
              std::vector<double> grad(k);
              for (VertexId u = user_part.Begin(p) + static_cast<VertexId>(lo);
                   u < user_part.Begin(p) + static_cast<VertexId>(hi); ++u) {
                const double* p_old = old_users.data() +
                                      static_cast<size_t>(u) * k;
                std::fill(grad.begin(), grad.end(), 0.0);
                for (const auto& e : g.UserRatings(u)) {
                  const double* q_old = old_items.data() +
                                        static_cast<size_t>(e.id) * k;
                  double dot = 0;
                  for (int i = 0; i < k; ++i) dot += p_old[i] * q_old[i];
                  double err = e.rating - dot;
                  for (int i = 0; i < k; ++i) {
                    grad[i] += err * q_old[i] - options.lambda_p * p_old[i];
                  }
                }
                double* p_new = result.user_factors.data() +
                                static_cast<size_t>(u) * k;
                for (int i = 0; i < k; ++i) p_new[i] = p_old[i] + gamma * grad[i];
              }
            });
        // Item pass.
        ParallelFor(
            item_part.Size(p), 64, [&](uint64_t lo, uint64_t hi) {
              std::vector<double> grad(k);
              for (VertexId v = item_part.Begin(p) + static_cast<VertexId>(lo);
                   v < item_part.Begin(p) + static_cast<VertexId>(hi); ++v) {
                const double* q_old = old_items.data() +
                                      static_cast<size_t>(v) * k;
                std::fill(grad.begin(), grad.end(), 0.0);
                for (const auto& e : g.ItemRatings(v)) {
                  const double* p_old = old_users.data() +
                                        static_cast<size_t>(e.id) * k;
                  double dot = 0;
                  for (int i = 0; i < k; ++i) dot += p_old[i] * q_old[i];
                  double err = e.rating - dot;
                  for (int i = 0; i < k; ++i) {
                    grad[i] += err * p_old[i] - options.lambda_q * q_old[i];
                  }
                }
                double* q_new = result.item_factors.data() +
                                static_cast<size_t>(v) * k;
                for (int i = 0; i < k; ++i) q_new[i] = q_old[i] + gamma * grad[i];
              }
            });
        double seconds = t.Seconds();
        clock.RecordCompute(p, seconds);
        obs::EmitSpanEndingNow("gd_pass", "native", p, iter, seconds);
      });
      clock.EndStep(native.overlap_comm);
      gamma *= options.step_decay;
      result.rmse_per_iteration.push_back(
          CfRmse(g, result.user_factors, result.item_factors, k));
    }
    clock.ChargeMemory(0, obs::MemPhase::kGraph, g.MemoryBytes() / ranks);
    clock.ChargeMemory(
        0, obs::MemPhase::kEngineState,
        2 * (result.user_factors.size() + result.item_factors.size()) *
            sizeof(double) / ranks);
  }

  result.iterations = options.iterations;
  result.final_rmse = result.rmse_per_iteration.empty()
                          ? 0.0
                          : result.rmse_per_iteration.back();
  result.metrics = clock.Finish(/*intra_rank_utilization=*/0.85);
  return result;
}

}  // namespace maze::native
