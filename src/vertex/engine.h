// vertexlab: the GraphLab-like vertex-programming engine (Section 3, Table 2).
//
// Characteristics reproduced from the paper's description of GraphLab v2.2:
//   - "vertex programs": all computation is expressed per vertex, reading incoming
//     messages and sending messages along out-edges (Algorithm 1/2 style);
//   - 1-D vertex partitioning;
//   - sockets as the communication layer (CommModel::Socket by default);
//   - "a limited form of compression that takes advantage of local reductions":
//     combinable messages are merged into a per-rank dense accumulator before they
//     cross the wire, so each (vertex, target-rank) pair costs one wire record;
//   - communication is blocked/overlapped rather than buffered whole (unlike the
//     BSP engine), keeping memory footprints moderate.
//
// The engine is synchronous (supersteps); vertices activated by a message run in
// the next superstep, or every vertex runs when the program declares itself
// all-active (PageRank, CF-GD).
//
// Program concept (duck-typed):
//   struct P {
//     using Value = ...;                    // per-vertex state
//     using Message = ...;                  // message payload
//     static constexpr bool kCombinable;    // dense-accumulator reduction?
//     static constexpr bool kAllActive;     // run all vertices every superstep?
//     void Init(VertexId v, const Graph& g, Value* value);
//     // Returns true while the program wants more supersteps (checked globally;
//     // only meaningful for all-active programs).
//     bool Compute(Context<Message>* ctx, VertexId v, Value* value,
//                  const Message* messages, size_t count);
//     static Message Combine(const Message& a, const Message& b);  // if combinable
//     static size_t MessageWireBytes(const Message& m);
//   };
#ifndef MAZE_VERTEX_ENGINE_H_
#define MAZE_VERTEX_ENGINE_H_

#include <algorithm>
#include <vector>

#include "core/graph.h"
#include "obs/obs.h"
#include "rt/algo.h"
#include "rt/partition.h"
#include "rt/rank_exec.h"
#include "rt/sim_clock.h"
#include "util/bitvector.h"
#include "util/check.h"
#include "util/chunk_buffers.h"
#include "util/timer.h"

namespace maze::gmat {
template <typename P>
class Engine;
}  // namespace maze::gmat

namespace maze::vertex {

// Handed to Program::Compute; collects outgoing messages for one vertex.
template <typename Message>
class Context {
 public:
  // Sends `m` along every out-edge of the current vertex.
  void SendToOutNeighbors(const Message& m) {
    send_all_ = true;
    payload_ = m;
  }

  // Sends `m` to one explicit target vertex.
  void SendTo(VertexId target, const Message& m) {
    targeted_.emplace_back(target, m);
  }

  // Superstep index, starting at 0.
  int superstep() const { return superstep_; }

 private:
  template <typename P>
  friend class SyncEngine;
  // The gmat engine executes the same Program concept by lowering supersteps to
  // semiring SpMV; it drives Context identically to SyncEngine.
  template <typename P>
  friend class ::maze::gmat::Engine;

  void Reset() {
    send_all_ = false;
    targeted_.clear();
  }

  bool send_all_ = false;
  Message payload_{};
  std::vector<std::pair<VertexId, Message>> targeted_;
  int superstep_ = 0;
};

// Synchronous vertex-program executor over the simulated cluster.
template <typename P>
class SyncEngine {
 public:
  using Value = typename P::Value;
  using Message = typename P::Message;

  SyncEngine(const Graph& g, const rt::EngineConfig& config)
      : g_(g),
        config_(config),
        clock_(config.num_ranks, config.comm, config.trace, config.faults),
        part_(rt::Partition1D::VertexBalanced(g.num_vertices(),
                                              config.num_ranks)) {}

  // Runs `program` for at most `max_supersteps`. Returns executed supersteps.
  int Run(P* program, int max_supersteps);

  const std::vector<Value>& values() const { return values_; }
  rt::RunMetrics Finish() { return clock_.Finish(kIntraRankUtilization); }
  rt::SimClock* clock() { return &clock_; }

 private:
  // GraphLab keeps most cores busy; slightly below native due to engine overhead.
  static constexpr double kIntraRankUtilization = 0.8;

  // One block of a rank's compute loop: its sends in vertex order, and whether
  // any of its vertices wants another superstep. Broadcast deliveries of
  // non-combinable programs are kept apart from targeted sends: GraphLab's
  // vertex mirroring means a broadcast crosses the wire once per (vertex,
  // remote rank with a mirror), not once per edge, so their wire bytes are
  // accumulated per destination rank while the per-edge copies are
  // delivery-only.
  struct ComputeBlock {
    std::vector<std::pair<VertexId, Message>> sends;
    std::vector<std::pair<VertexId, Message>> broadcasts;
    std::vector<uint64_t> broadcast_bytes_to;
    bool wants_more = false;
  };

  const Graph& g_;
  rt::EngineConfig config_;
  rt::SimClock clock_;
  rt::Partition1D part_;
  std::vector<Value> values_;
};

template <typename P>
int SyncEngine<P>::Run(P* program, int max_supersteps) {
  const VertexId n = g_.num_vertices();
  const int ranks = config_.num_ranks;

  values_.resize(n);
  for (VertexId v = 0; v < n; ++v) program->Init(v, g_, &values_[v]);

  // Double-buffered inboxes: Compute reads `cur`, routing writes `next`.
  // Combinable programs use one accumulator slot per vertex + a has-message bit;
  // others keep a message list per vertex.
  constexpr bool kCombinable = P::kCombinable;
  std::vector<Message> cur_acc(kCombinable ? n : 0);
  std::vector<Message> next_acc(kCombinable ? n : 0);
  Bitvector cur_has(n);
  Bitvector next_has(n);
  std::vector<std::vector<Message>> cur_list(kCombinable ? 0 : n);
  std::vector<std::vector<Message>> next_list(kCombinable ? 0 : n);

  // Every vertex runs in superstep 0 so sparse programs can seed themselves.
  Bitvector active(n);
  for (VertexId v = 0; v < n; ++v) active.Set(v);

  uint64_t wire_buffer_peak = 0;
  int superstep = 0;
  for (; superstep < max_supersteps; ++superstep) {
    bool any_compute_wants_more = false;
    Bitvector next_active(n);

    // Rank tasks run concurrently (serially under MAZE_SERIAL_RANKS): each
    // computes against `cur` (which is read-only during the superstep), then
    // routes into `next` inside an ordered turnstile section so the shared
    // next-superstep state is mutated in exactly the serial schedule's order.
    // Programs must therefore tolerate concurrent Compute calls from different
    // ranks (all in-tree programs only read shared state in Compute).
    rt::RankTurns turns;
    rt::ForEachRank(ranks, [&](int p) {
      MAZE_OBS_SPAN("superstep", "vertexlab", p, superstep);
      rt::RankTimer compute_timer;
      // Per-block outbound state, folded in block order: combinable sends into
      // the rank's dense accumulator right after the loop, the rest straight
      // from the blocks during the rank's turn.
      ChunkBuffers<ComputeBlock> blocks(part_.Size(p), 128);
      blocks.Fill([&](uint64_t lo, uint64_t hi, ComputeBlock& out) {
        Context<Message> ctx;
        ctx.superstep_ = superstep;
        if constexpr (!kCombinable) out.broadcast_bytes_to.assign(ranks, 0);
        // Which ranks the current broadcasting vertex has already hit; stamped
        // per vertex so one buffer serves the whole block.
        std::vector<uint64_t> rank_seen(kCombinable ? 0 : ranks, 0);
        uint64_t seen_stamp = 0;
        for (VertexId v = part_.Begin(p) + static_cast<VertexId>(lo);
             v < part_.Begin(p) + static_cast<VertexId>(hi); ++v) {
          if (!active.Test(v)) continue;
          const Message* msgs = nullptr;
          size_t count = 0;
          if constexpr (kCombinable) {
            if (cur_has.Test(v)) {
              msgs = &cur_acc[v];
              count = 1;
            }
          } else {
            msgs = cur_list[v].data();
            count = cur_list[v].size();
          }
          ctx.Reset();
          bool more = program->Compute(&ctx, v, &values_[v], msgs, count);
          out.wants_more = out.wants_more || more;
          if (ctx.send_all_) {
            if constexpr (kCombinable) {
              for (VertexId dst : g_.OutNeighbors(v)) {
                out.sends.emplace_back(dst, ctx.payload_);
              }
            } else {
              // One wire copy per destination rank that hosts a mirror; the
              // per-edge copies are local delivery.
              ++seen_stamp;
              size_t wire = 4 + P::MessageWireBytes(ctx.payload_);
              for (VertexId dst : g_.OutNeighbors(v)) {
                int q = ranks == 1 ? 0 : part_.OwnerOf(dst);
                if (rank_seen[q] != seen_stamp) {
                  rank_seen[q] = seen_stamp;
                  out.broadcast_bytes_to[q] += wire;
                }
                out.broadcasts.emplace_back(dst, ctx.payload_);
              }
            }
          }
          for (auto& [dst, m] : ctx.targeted_) {
            out.sends.emplace_back(dst, std::move(m));
          }
        }
      });
      bool rank_wants_more = false;
      std::vector<Message> out_acc(kCombinable ? n : 0);
      Bitvector out_has(kCombinable ? n : 0);
      blocks.ForEachInOrder([&](ComputeBlock& block) {
        rank_wants_more = rank_wants_more || block.wants_more;
        if constexpr (kCombinable) {
          for (auto& [dst, m] : block.sends) {
            if (out_has.Test(dst)) {
              out_acc[dst] = P::Combine(out_acc[dst], m);
            } else {
              out_has.Set(dst);
              out_acc[dst] = m;
            }
          }
          // The accumulator now holds these sends; free them before the turn.
          block.sends = decltype(block.sends)();
        }
      });
      double compute_seconds = compute_timer.Seconds();
      clock_.RecordCompute(p, compute_seconds);
      obs::EmitSpanEndingNow("compute", "vertexlab", p, superstep,
                             compute_seconds);

      // Routing ("serialization + send" cost is also charged to the sender).
      // Runs in rank order under the turnstile: it mutates next-superstep
      // state shared by all ranks.
      turns.Run(p, [&] {
        any_compute_wants_more = any_compute_wants_more || rank_wants_more;
        rt::RankTimer route_timer;
        std::vector<uint64_t> bytes_to(ranks, 0);
        uint64_t rank_wire_bytes = 0;
        if constexpr (kCombinable) {
          std::vector<uint32_t> touched;
          out_has.AppendSetBits(&touched);
          for (VertexId dst : touched) {
            int q = ranks == 1 ? 0 : part_.OwnerOf(dst);
            bytes_to[q] += 4 + P::MessageWireBytes(out_acc[dst]);
            if (next_has.Test(dst)) {
              next_acc[dst] = P::Combine(next_acc[dst], out_acc[dst]);
            } else {
              next_has.Set(dst);
              next_acc[dst] = out_acc[dst];
            }
            next_active.Set(dst);
          }
        } else {
          // Targeted sends of every block first, then the broadcasts.
          blocks.ForEachInOrder([&](ComputeBlock& block) {
            for (auto& [dst, m] : block.sends) {
              int q = ranks == 1 ? 0 : part_.OwnerOf(dst);
              bytes_to[q] += 4 + P::MessageWireBytes(m);
              next_active.Set(dst);
              next_list[dst].push_back(std::move(m));
            }
          });
          // Broadcast deliveries: wire already accounted per (vertex, rank).
          blocks.ForEachInOrder([&](ComputeBlock& block) {
            for (auto& [dst, m] : block.broadcasts) {
              next_active.Set(dst);
              next_list[dst].push_back(std::move(m));
            }
            for (int q = 0; q < ranks; ++q) {
              bytes_to[q] += block.broadcast_bytes_to[q];
            }
          });
        }
        for (int q = 0; q < ranks; ++q) {
          if (q != p && bytes_to[q] > 0) {
            clock_.RecordSend(p, q, bytes_to[q], 1);
            rank_wire_bytes += bytes_to[q];
          }
        }
        wire_buffer_peak = std::max(wire_buffer_peak, rank_wire_bytes);
        // Transient wire-buffer charge: visible in the per-step message-buffer
        // watermark, released once the superstep's messages are handed off.
        clock_.ChargeMemory(p, obs::MemPhase::kMessageBuffers, rank_wire_bytes);
        clock_.ReleaseMemory(p, obs::MemPhase::kMessageBuffers,
                             rank_wire_bytes);
        double route_seconds = route_timer.Seconds();
        clock_.RecordCompute(p, route_seconds);
        obs::EmitSpanEndingNow("route", "vertexlab", p, superstep,
                               route_seconds);
      });
    });
    // GraphLab streams messages in blocks, overlapping with computation.
    clock_.EndStep(/*overlap_comm=*/true);

    // Swap inboxes.
    if constexpr (kCombinable) {
      std::swap(cur_acc, next_acc);
      std::swap(cur_has, next_has);
      next_has.Reset();
    } else {
      std::swap(cur_list, next_list);
      for (auto& l : next_list) l.clear();
    }

    if (P::kAllActive) {
      if (!any_compute_wants_more) {
        ++superstep;
        break;
      }
      // All-active programs keep everything live.
      for (VertexId v = 0; v < n; ++v) next_active.Set(v);
    } else if (next_active.Count() == 0) {
      ++superstep;
      break;
    }
    active = std::move(next_active);
  }

  // Footprint: per-rank value slice + the whole-vertex-set accumulator a rank
  // keeps (GraphLab mirrors remote vertices) + wire buffers + graph slice.
  uint64_t state_bytes = static_cast<uint64_t>(n) * sizeof(Value);
  uint64_t acc_bytes = kCombinable ? static_cast<uint64_t>(n) * sizeof(Message) * 2
                                   : wire_buffer_peak * 2;
  clock_.ChargeMemory(0, obs::MemPhase::kGraph,
                      g_.MemoryBytes() / std::max(1, ranks));
  clock_.ChargeMemory(0, obs::MemPhase::kEngineState, state_bytes);
  clock_.ChargeMemory(0, obs::MemPhase::kMessageBuffers,
                      acc_bytes + wire_buffer_peak);
  return superstep;
}

}  // namespace maze::vertex

#endif  // MAZE_VERTEX_ENGINE_H_
