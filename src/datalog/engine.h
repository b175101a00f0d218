// datalite rule evaluation (SociaLite-like, Sections 3 and 6.1.3).
//
// Tables are horizontally sharded by their first column across ranks. A rule
// body is evaluated per rank over its shard (parallel across worker threads
// inside the rank, as SociaLite's Java runtime does); head tuples whose key
// lands in another rank's shard cross the wire. Two network behaviors are
// switchable — they are exactly the Table 7 experiment:
//   - DataliteOptions::AsPublished(): single TCP socket per node pair and one
//     wire message per tuple (the low peak-bandwidth behavior the authors
//     measured in the released code);
//   - DataliteOptions::Optimized(): multiple sockets per pair (~2 GB/s) and
//     "merging communication data for batch processing" (one message per rank
//     pair per rule evaluation).
//
// Aggregation in rule heads ($SUM, $MIN, $INC) is applied at the owning shard.
// EvaluateRule runs one body pass; SemiNaiveFixpoint iterates a linear recursive
// rule on delta tuples until no head value changes (how SociaLite evaluates the
// recursive BFS rule of Section 3.2).
#ifndef MAZE_DATALOG_ENGINE_H_
#define MAZE_DATALOG_ENGINE_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <utility>
#include <vector>

#include "obs/obs.h"
#include "rt/algo.h"
#include "rt/partition.h"
#include "rt/rank_exec.h"
#include "rt/sim_clock.h"
#include "util/check.h"
#include "util/chunk_buffers.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace maze::datalog {

struct DataliteOptions {
  bool multi_socket = true;
  bool batch_messages = true;

  // The configuration of the authors' released code, before the paper's network
  // optimizations (Table 7 "Before").
  static DataliteOptions AsPublished() { return {false, false}; }
  // After §6.1.3's changes (Table 7 "After"); the paper's headline results use
  // this configuration.
  static DataliteOptions Optimized() { return {true, true}; }

  rt::CommModel Comm() const {
    return multi_socket ? rt::CommModel::MultiSocket() : rt::CommModel::Socket();
  }
};

// Aggregation operators usable in rule heads.
template <typename V>
struct SumAgg {
  static V Identity() { return V{}; }
  static V Apply(V a, V b) { return a + b; }
};
template <typename V>
struct MinAgg {
  static V Identity() { return std::numeric_limits<V>::max(); }
  static V Apply(V a, V b) { return std::min(a, b); }
};

// Evaluation context for one rule program run.
class Runtime {
 public:
  Runtime(int num_ranks, const DataliteOptions& options, int64_t key_space,
          bool trace = false, rt::fault::FaultSpec faults = rt::fault::SpecFromEnv())
      : options_(options),
        clock_(num_ranks, options.Comm(), trace, std::move(faults)),
        shard_(rt::Partition1D::VertexBalanced(
            static_cast<VertexId>(key_space), num_ranks)) {}

  int num_ranks() const { return clock_.num_ranks(); }
  rt::SimClock* clock() { return &clock_; }
  const rt::Partition1D& shard() const { return shard_; }
  int OwnerOf(int64_t key) const {
    return shard_.OwnerOf(static_cast<VertexId>(key));
  }

  // The published runtime wrote ~16KB blocks (about a thousand 16-byte tuples)
  // per socket send; the optimized runtime merges a whole rule evaluation into
  // one transfer ("merging communication data for batch processing", §6.1.3).
  static constexpr uint64_t kPublishedTuplesPerWrite = 1024;

  // Charges the wire for `tuples` head tuples of `bytes_each` flowing p -> q
  // (no-op if p == q). Message granularity follows the batching option.
  void ChargeTuples(int p, int q, uint64_t tuples, uint64_t bytes_each) {
    if (tuples == 0 || p == q) return;
    uint64_t messages =
        options_.batch_messages
            ? 1
            : (tuples + kPublishedTuplesPerWrite - 1) / kPublishedTuplesPerWrite;
    clock_.RecordSend(p, q, tuples * bytes_each, messages);
  }

  // SociaLite's Java runtime keeps workers fairly busy but below native.
  rt::RunMetrics Finish() { return clock_.Finish(0.75); }

 private:
  DataliteOptions options_;
  rt::SimClock clock_;
  rt::Partition1D shard_;
};

namespace internal {

// Keys per block of a rank's body evaluation; each block emits into its own
// buffer.
inline constexpr uint64_t kKeyGrain = 32;

// Shared body-evaluation machinery: runs `per_key` over the given keys of rank
// p's shard in parallel, each block of keys emitting into its own buffer, then
// folds the buffers into (acc, touched) and the per-destination tuple counters
// during rank p's turn. Rank bodies evaluate concurrently, but turns run in
// rank order and blocks fold in key order, so every head aggregate is folded
// rank-then-key whatever the pool width or rank schedule.
template <typename V, typename Agg>
void RunBodyForRank(
    Runtime* rt, int p, const std::vector<int64_t>& keys, rt::RankTurns* turns,
    std::vector<V>* acc, std::vector<bool>* touched,
    std::vector<uint64_t>* tuples_to,
    const std::function<void(int64_t key,
                             const std::function<void(int64_t, V)>& emit)>&
        per_key) {
  using Tuple = std::pair<int64_t, V>;
  ChunkBuffers<std::vector<Tuple>> tuples(keys.size(), kKeyGrain);
  tuples.Fill([&](uint64_t lo, uint64_t hi, std::vector<Tuple>& out) {
    const std::function<void(int64_t, V)> emit = [&out](int64_t key, V value) {
      out.emplace_back(key, value);
    };
    for (uint64_t i = lo; i < hi; ++i) per_key(keys[i], emit);
  });
  turns->Run(p, [&] {
    tuples.ForEachInOrder([&](const std::vector<Tuple>& block) {
      for (const auto& [key, value] : block) {
        MAZE_DCHECK(key >= 0 && key < static_cast<int64_t>(acc->size()));
        if ((*touched)[key]) {
          (*acc)[key] = Agg::Apply((*acc)[key], value);
        } else {
          (*touched)[key] = true;
          (*acc)[key] = value;
        }
        ++(*tuples_to)[rt->OwnerOf(key)];
      }
    });
  });
}

// Charges rank p's outbound tuple counters to the wire.
inline void ChargeAll(Runtime* rt, int p, const std::vector<uint64_t>& tuples_to,
                      uint64_t bytes_per_tuple) {
  for (int q = 0; q < static_cast<int>(tuples_to.size()); ++q) {
    rt->ChargeTuples(p, q, tuples_to[q], bytes_per_tuple);
  }
}

}  // namespace internal

// Evaluates one non-recursive rule pass:
//   HEAD[k]($AGG(v)) :- <body driven by every key of the shard>
// and merges the per-key aggregates into `head` (size = key space). Returns the
// number of head keys whose aggregate changed. `bytes_per_tuple` is the tuple's
// wire size (key + payload columns, 8 bytes each in SociaLite).
template <typename V, typename Agg>
size_t EvaluateRule(
    Runtime* rt, std::vector<V>* head, uint64_t bytes_per_tuple,
    const std::function<void(int64_t key,
                             const std::function<void(int64_t, V)>& emit)>&
        per_key) {
  const int ranks = rt->num_ranks();
  std::vector<V> acc(head->size(), Agg::Identity());
  std::vector<bool> touched(head->size(), false);

  // Rank shards evaluate concurrently and merge into the shared accumulator
  // one rank at a time (SociaLite's shared-memory aggregation step).
  rt::RankTurns turns;
  rt::ForEachRank(ranks, [&](int p) {
    rt::RankTimer t;
    std::vector<int64_t> keys;
    keys.reserve(rt->shard().Size(p));
    for (VertexId k = rt->shard().Begin(p); k < rt->shard().End(p); ++k) {
      keys.push_back(k);
    }
    std::vector<uint64_t> tuples_to(ranks, 0);
    internal::RunBodyForRank<V, Agg>(rt, p, keys, &turns, &acc, &touched,
                                     &tuples_to, per_key);
    internal::ChargeAll(rt, p, tuples_to, bytes_per_tuple);
    double seconds = t.Seconds();
    rt->clock()->RecordCompute(p, seconds);
    obs::EmitSpanEndingNow("rule_body", "datalite", p, /*step=*/0, seconds);
  });

  size_t changed = 0;
  for (size_t k = 0; k < head->size(); ++k) {
    if (!touched[k]) continue;
    V merged = Agg::Apply((*head)[k], acc[k]);
    if (merged != (*head)[k]) {
      (*head)[k] = merged;
      ++changed;
    }
  }
  rt->clock()->EndStep(/*overlap_comm=*/false);
  return changed;
}

// Semi-naive fixpoint of a linear recursive rule:
//   HEAD(y, $AGG(v')) :- HEAD(x, v) [delta only], <join>, v' = step(x, v, y).
// `expand` is called per delta key (with its current head value) and emits
// successor tuples. Iterates until no head value improves. Returns the number of
// delta rounds executed.
template <typename V, typename Agg>
int SemiNaiveFixpoint(
    Runtime* rt, std::vector<V>* head, uint64_t bytes_per_tuple,
    std::vector<int64_t> initial_delta,
    const std::function<void(int64_t key, V value,
                             const std::function<void(int64_t, V)>& emit)>&
        expand) {
  const int ranks = rt->num_ranks();
  std::vector<int64_t> delta = std::move(initial_delta);
  int rounds = 0;
  while (!delta.empty()) {
    ++rounds;
    std::vector<V> acc(head->size(), Agg::Identity());
    std::vector<bool> touched(head->size(), false);

    rt::RankTurns turns;
    rt::ForEachRank(ranks, [&](int p) {
      std::vector<int64_t> mine;
      for (int64_t key : delta) {
        if (rt->OwnerOf(key) == p) mine.push_back(key);
      }
      if (mine.empty()) {
        turns.Run(p, [] {});  // later ranks wait for this turn
        return;
      }
      rt::RankTimer t;
      std::vector<uint64_t> tuples_to(ranks, 0);
      internal::RunBodyForRank<V, Agg>(
          rt, p, mine, &turns, &acc, &touched, &tuples_to,
          [&](int64_t key, const std::function<void(int64_t, V)>& emit) {
            expand(key, (*head)[key], emit);
          });
      internal::ChargeAll(rt, p, tuples_to, bytes_per_tuple);
      double seconds = t.Seconds();
      rt->clock()->RecordCompute(p, seconds);
      obs::EmitSpanEndingNow("delta_join", "datalite", p, rounds - 1, seconds);
    });

    std::vector<int64_t> next_delta;
    for (size_t k = 0; k < head->size(); ++k) {
      if (!touched[k]) continue;
      V merged = Agg::Apply((*head)[k], acc[k]);
      if (merged != (*head)[k]) {
        (*head)[k] = merged;
        next_delta.push_back(static_cast<int64_t>(k));
      }
    }
    rt->clock()->EndStep(/*overlap_comm=*/false);
    delta = std::move(next_delta);
  }
  return rounds;
}

}  // namespace maze::datalog

#endif  // MAZE_DATALOG_ENGINE_H_
