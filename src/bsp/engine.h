// bspgraph: the Giraph-like bulk-synchronous engine (Sections 3, 5.4, 6.1.3).
//
// Pathologies reproduced from the paper's Giraph findings:
//   - Bulk-synchronous supersteps with FULL MESSAGE BUFFERING: "it tries to
//     buffer all outgoing messages in memory before sending any" — the outbox
//     and inbox sizes are tracked and dominate the memory-footprint metric
//     (triangle counting and CF can exceed node memory without splitting);
//   - boxed messages: every message is an individual heap allocation (the
//     JVM-object model), a genuine CPU cost the engine really pays;
//   - worker cap: 4 workers on a 24-core node ("memory limitations restrict the
//     number of workers"), modeled as a compute-time scale factor and a 4/24
//     CPU-utilization ceiling;
//   - netty-class transport (CommModel::Netty), no compute/comm overlap;
//   - optional superstep splitting (§6.1.3): each superstep runs in `phases`
//     mini-steps, each creating only 1/phases of the messages at a time, cutting
//     buffer memory at the cost of finer-grained synchronization. Programs
//     consume messages through an incremental Fold, so splitting is transparent.
//
// Program interface (virtual dispatch, deliberately):
//   Fold(v, value, messages)  — folds a batch of arrived messages into state;
//                               called one or more times per superstep;
//   Compute(ctx, v, value)    — acts on the folded state and sends messages;
//                               called once per superstep for each active vertex.
#ifndef MAZE_BSP_ENGINE_H_
#define MAZE_BSP_ENGINE_H_

#include <algorithm>
#include <memory>
#include <vector>

#include "core/graph.h"
#include "obs/counters.h"
#include "obs/obs.h"
#include "obs/resource.h"
#include "rt/algo.h"
#include "rt/fault.h"
#include "rt/partition.h"
#include "rt/rank_exec.h"
#include "rt/sim_clock.h"
#include "util/bitvector.h"
#include "util/check.h"
#include "util/chunk_buffers.h"
#include "util/freelist.h"
#include "util/timer.h"

namespace maze::bsp {

// --- Boxed-message arena (DESIGN.md §4f) -------------------------------------
// Messages stay individually boxed — that is the modeled JVM-object pathology,
// and every modeled cost (BoxedBytes, wire bytes, msgbuf watermarks) is
// computed from counts exactly as before. But the *host-side* allocation
// behind each box defaults to per-rank util::FreeListPool arenas instead of
// one heap allocation per message. MAZE_BSP_ARENA=0 (or SetArenaEnabled(0))
// restores heap boxing, which the differential tests and bench_hotpath use as
// the before/after baseline; outputs are byte-identical either way.

// True unless MAZE_BSP_ARENA=0 (or a test forced a value).
bool ArenaEnabled();
// 1/0 forces the arena on/off for subsequent engines; -1 restores the env.
void SetArenaEnabled(int force);

// Process-wide allocation accounting, accumulated by engines at the end of
// each Run (bench_hotpath's allocation-count evidence).
struct ArenaCounters {
  uint64_t boxed_requests = 0;         // Messages boxed (either mode).
  uint64_t pool_reused = 0;            // Served from a free list.
  uint64_t pool_slab_allocations = 0;  // Heap allocations backing the pools.
  uint64_t pool_slab_bytes = 0;
  uint64_t heap_boxed = 0;             // Arena-off: one heap allocation each.
};
void ResetArenaCounters();
ArenaCounters GetArenaCounters();
namespace internal {
void AccumulateArenaCounters(const ArenaCounters& c);
}  // namespace internal

// Giraph deployment knobs.
struct BspOptions {
  int workers_per_node = 4;   // Of kHardwareThreadsPerNode.
  int superstep_phases = 1;   // §6.1.3 splitting; 100 in the paper's fix.
  static constexpr int kHardwareThreadsPerNode = 24;
};

template <typename Message>
class BspContext {
 public:
  void SendToOutNeighbors(const Message& m) {
    send_all_ = true;
    payload_ = m;
  }
  void SendTo(VertexId target, const Message& m) {
    targeted_.emplace_back(target, m);
  }
  int superstep() const { return superstep_; }

 private:
  template <typename V, typename M>
  friend class BspEngine;

  void Reset() {
    send_all_ = false;
    targeted_.clear();
  }

  bool send_all_ = false;
  Message payload_{};
  std::vector<std::pair<VertexId, Message>> targeted_;
  int superstep_ = 0;
};

// One boxed message: pool-backed by default, heap-backed when the arena is
// off (the deleter knows which — receivers treat both identically).
template <typename Message>
using Boxed = util::PoolPtr<Message>;

// Vertex program, dispatched virtually per vertex per superstep.
template <typename Value, typename Message>
class BspProgram {
 public:
  virtual ~BspProgram() = default;
  virtual void Init(VertexId v, const Graph& g, Value* value) = 0;
  // Consumes one batch of boxed messages addressed to v.
  virtual void Fold(VertexId v, Value* value,
                    const std::vector<Boxed<Message>>& batch) = 0;
  // Runs once per superstep per active vertex; returns true while the program
  // wants further supersteps (meaningful for all-active programs).
  virtual bool Compute(BspContext<Message>* ctx, VertexId v, Value* value) = 0;
  // Every vertex computed every superstep? (PageRank/CF: yes; BFS: no.)
  virtual bool AllActive() const { return true; }
  virtual size_t MessageWireBytes(const Message&) const {
    return sizeof(Message);
  }
};

template <typename Value, typename Message>
class BspEngine {
 public:
  BspEngine(const Graph& g, const rt::EngineConfig& config,
            const BspOptions& options)
      : g_(g),
        config_(config),
        options_(options),
        clock_(config.num_ranks, config.comm, config.trace, config.faults),
        part_(rt::Partition1D::VertexBalanced(g.num_vertices(),
                                              config.num_ranks)),
        arena_on_(ArenaEnabled()) {
    if (arena_on_) {
      pools_.reserve(config.num_ranks);
      for (int p = 0; p < config.num_ranks; ++p) {
        pools_.push_back(std::make_unique<util::FreeListPool<Message>>());
      }
    }
  }

  int Run(BspProgram<Value, Message>* program, int max_supersteps);

  const std::vector<Value>& values() const { return values_; }
  rt::RunMetrics Finish() {
    // 4 single-threaded workers on a 24-core node cap utilization at ~16%
    // (§5.4); uncapped worker counts saturate the node.
    double util = std::min(1.0, static_cast<double>(options_.workers_per_node) /
                                    BspOptions::kHardwareThreadsPerNode);
    return clock_.Finish(util);
  }
  uint64_t peak_buffer_bytes() const { return peak_buffer_bytes_; }

 private:
  // One block of a rank's outbox: the block's sends in vertex order, and
  // whether any of its vertices wants another superstep.
  struct OutboxBlock {
    std::vector<std::pair<VertexId, Boxed<Message>>> messages;
    bool more = false;
  };

  // Per-message resident cost: payload + JVM object header + reference.
  static size_t BoxedBytes() { return sizeof(Message) + 16 + 8; }

  // Boxes one message on `pool` (the sender rank's arena) or the heap.
  template <typename M>
  static Boxed<Message> Box(util::FreeListPool<Message>* pool, M&& m) {
    return pool != nullptr ? pool->Make(std::forward<M>(m))
                           : util::HeapBoxed<Message>(std::forward<M>(m));
  }

  const Graph& g_;
  rt::EngineConfig config_;
  BspOptions options_;
  rt::SimClock clock_;
  rt::Partition1D part_;
  std::vector<Value> values_;
  uint64_t peak_buffer_bytes_ = 0;
  // Per-rank boxed-message arenas (empty when MAZE_BSP_ARENA=0).
  bool arena_on_;
  std::vector<std::unique_ptr<util::FreeListPool<Message>>> pools_;
  uint64_t boxed_requests_ = 0;  // Flush/checkpoint only: serialized contexts.
  // Outbox histogram handles, resolved once per engine instead of one registry
  // lookup per rank-flush (the Exchange/SimClock handle-caching fix, PR 2).
  obs::Histogram* outbox_messages_hist_ = nullptr;
  obs::Histogram* outbox_bytes_hist_ = nullptr;
};

template <typename Value, typename Message>
int BspEngine<Value, Message>::Run(BspProgram<Value, Message>* program,
                                   int max_supersteps) {
  const VertexId n = g_.num_vertices();
  const int ranks = config_.num_ranks;
  const int phases = std::max(1, options_.superstep_phases);
  // The worker cap: compute is charged as if run by `workers_per_node` of the
  // modeled node's hardware threads (the SimClock applies the host-to-node
  // factor; this is the extra workers-vs-node penalty).
  const double worker_scale =
      rt::EngineComputeScale(std::max(1, options_.workers_per_node));

  values_.resize(n);
  for (VertexId v = 0; v < n; ++v) program->Init(v, g_, &values_[v]);

  // Inboxes: fully buffered boxed messages per vertex. With phases == 1
  // (Giraph's default) a whole superstep's messages sit in memory at once. With
  // splitting, receivers fold pending messages every mini-step, so only one
  // mini-step's volume is ever live — this requires Fold to be commutative,
  // which all four study algorithms satisfy.
  std::vector<std::vector<Boxed<Message>>> inbox(n);
  Bitvector has_msg(n);
  uint64_t live_inbox_bytes = 0;

  // Folds every owned vertex's pending messages (phased mode's per-mini-step
  // drain). Returns bytes released.
  auto drain_rank = [&](int p) -> uint64_t {
    ChunkBuffers<uint64_t> released(part_.Size(p), 256);
    released.Fill([&](uint64_t lo, uint64_t hi, uint64_t& block_released) {
      for (VertexId v = part_.Begin(p) + static_cast<VertexId>(lo);
           v < part_.Begin(p) + static_cast<VertexId>(hi); ++v) {
        if (inbox[v].empty()) continue;
        program->Fold(v, &values_[v], inbox[v]);
        block_released += inbox[v].size() * BoxedBytes();
        inbox[v].clear();
      }
    });
    uint64_t total = 0;
    released.ForEachInOrder([&](uint64_t bytes) { total += bytes; });
    return total;
  };

  // --- Checkpoint/restart (DESIGN.md §4c) -----------------------------------
  // Giraph-style superstep checkpointing: every `checkpoint_interval`
  // supersteps, snapshot the vertex values and the pending (undelivered)
  // messages — together they are the engine's complete run state, because the
  // programs themselves are stateless. A crash event restores the last
  // snapshot and replays; replay is deterministic (same inbox contents in the
  // same order), so the recovered run's output is byte-identical to the
  // fault-free run and only the modeled clock pays for the lost work.
  const rt::fault::FaultSpec& faults = clock_.fault_spec();
  const int ckpt_interval = faults.enabled ? faults.checkpoint_interval : 0;
  std::vector<rt::fault::CrashEvent> pending_crashes;
  if (faults.enabled) {
    for (const rt::fault::CrashEvent& ev : faults.crashes) {
      if (ev.rank < ranks) pending_crashes.push_back(ev);
    }
  }
  int ckpt_superstep = -1;
  // Vertex state snapshot allocates through the tracking allocator, so the
  // checkpoint's footprint lands in the engine-state watermark.
  std::vector<Value, obs::CountingAllocator<Value>> ckpt_values(
      obs::CountingAllocator<Value>(&clock_.arena(), 0,
                                    obs::MemPhase::kEngineState));
  std::vector<std::vector<Boxed<Message>>> ckpt_inbox;
  Bitvector ckpt_has_msg;
  uint64_t ckpt_inbox_bytes = 0;
  uint64_t ckpt_charged_msgbuf = 0;  // Boxed-copy bytes charged to the arena.

  // Models each rank writing its slice of the snapshot to stable storage
  // (taking) or reading it back (restoring); the stall extends the next
  // barrier exactly like Giraph's checkpoint writes extend a superstep.
  auto charge_snapshot_io = [&](uint64_t total_bytes, const char* what) {
    uint64_t per_rank = total_bytes / static_cast<uint64_t>(ranks) + 1;
    double seconds = faults.checkpoint_latency_seconds +
                     static_cast<double>(per_rank) / faults.checkpoint_bandwidth;
    for (int p = 0; p < ranks; ++p) {
      clock_.ChargeRecovery(p, seconds, per_rank, what);
    }
  };

  // Snapshot/restore copies run on the orchestration thread between barriers;
  // they box through rank 0's arena (handle hoisted out of the copy loops).
  util::FreeListPool<Message>* ckpt_pool =
      arena_on_ ? pools_[0].get() : nullptr;

  auto take_checkpoint = [&](int step) {
    ckpt_superstep = step;
    ckpt_values.assign(values_.begin(), values_.end());
    clock_.ReleaseMemory(0, obs::MemPhase::kMessageBuffers,
                         ckpt_charged_msgbuf);
    ckpt_inbox.clear();
    ckpt_inbox.resize(n);
    uint64_t copied_messages = 0;
    for (VertexId v = 0; v < n; ++v) {
      if (inbox[v].empty()) continue;
      ckpt_inbox[v].reserve(inbox[v].size());
      for (const auto& m : inbox[v]) {
        ckpt_inbox[v].push_back(Box(ckpt_pool, *m));
      }
      copied_messages += inbox[v].size();
    }
    boxed_requests_ += copied_messages;
    ckpt_has_msg = has_msg;
    ckpt_inbox_bytes = live_inbox_bytes;
    ckpt_charged_msgbuf = copied_messages * BoxedBytes();
    clock_.ChargeMemory(0, obs::MemPhase::kMessageBuffers,
                        ckpt_charged_msgbuf);
    charge_snapshot_io(static_cast<uint64_t>(n) * sizeof(Value) +
                           ckpt_inbox_bytes,
                       "checkpoint");
    clock_.NoteCheckpoint();
  };

  auto restore_checkpoint = [&]() {
    values_.assign(ckpt_values.begin(), ckpt_values.end());
    uint64_t replayed_messages = 0;
    for (VertexId v = 0; v < n; ++v) {
      inbox[v].clear();
      if (!ckpt_inbox[v].empty()) {
        inbox[v].reserve(ckpt_inbox[v].size());
        for (const auto& m : ckpt_inbox[v]) {
          inbox[v].push_back(Box(ckpt_pool, *m));
        }
        replayed_messages += ckpt_inbox[v].size();
      }
    }
    boxed_requests_ += replayed_messages;
    has_msg = ckpt_has_msg;
    live_inbox_bytes = ckpt_inbox_bytes;
    charge_snapshot_io(static_cast<uint64_t>(n) * sizeof(Value) +
                           ckpt_inbox_bytes,
                       "restore");
    clock_.NoteRestart();
  };

  int superstep = 0;
  while (superstep < max_supersteps) {
    // Checkpoint before the crash check: a crash at superstep s restores the
    // snapshot taken at the same boundary (or an earlier one), never a newer
    // state, and a crash at superstep 0 is always recoverable.
    if (ckpt_interval > 0 && superstep % ckpt_interval == 0 &&
        superstep != ckpt_superstep) {
      take_checkpoint(superstep);
    }
    if (!pending_crashes.empty()) {
      auto it = std::find_if(
          pending_crashes.begin(), pending_crashes.end(),
          [&](const rt::fault::CrashEvent& ev) { return ev.step == superstep; });
      if (it != pending_crashes.end()) {
        pending_crashes.erase(it);
        MAZE_CHECK(ckpt_interval > 0 &&
                   "bspgraph: rank crash injected with checkpointing disabled "
                   "(set ckpt=K in the fault plan)");
        restore_checkpoint();
        superstep = ckpt_superstep;
        continue;
      }
    }
    bool wants_more = false;
    uint64_t messages_sent_this_superstep = 0;
    // Classic (unphased) BSP: messages become visible next superstep.
    std::vector<std::vector<Boxed<Message>>> next_inbox(phases == 1 ? n : 0);
    Bitvector next_has(phases == 1 ? n : 0);
    uint64_t next_inbox_bytes = 0;

    for (int phase = 0; phase < phases; ++phase) {
      rt::RankTurns turns;
      auto run_rank = [&](int p) {
        MAZE_OBS_SPAN("superstep", "bspgraph", p, superstep);
        rt::RankTimer t;
        // Phased mode: drain arrived messages before this mini-step's sends.
        if (phases > 1) live_inbox_bytes -= drain_rank(p);

        // The rank's arena handle, resolved once per rank per phase — the
        // inner send loop boxes straight off this pointer instead of
        // re-resolving pool/mode state per message.
        util::FreeListPool<Message>* pool =
            arena_on_ ? pools_[p].get() : nullptr;

        // Outbox for this rank & phase, one slot per block of owned vertices
        // (with phases == 1 this is the full-superstep buffering the paper
        // criticizes).
        ChunkBuffers<OutboxBlock> outbox(part_.Size(p), 64);
        outbox.Fill([&](uint64_t lo, uint64_t hi, OutboxBlock& out) {
          BspContext<Message> ctx;
          ctx.superstep_ = superstep;
          for (VertexId v = part_.Begin(p) + static_cast<VertexId>(lo);
               v < part_.Begin(p) + static_cast<VertexId>(hi); ++v) {
            if (static_cast<int>(v % phases) != phase) continue;
            if (phases == 1 && has_msg.Test(v) && !inbox[v].empty()) {
              program->Fold(v, &values_[v], inbox[v]);
              inbox[v].clear();
            }
            if (!program->AllActive() && superstep > 0 && !has_msg.Test(v)) {
              continue;
            }
            ctx.Reset();
            bool more = program->Compute(&ctx, v, &values_[v]);
            out.more = out.more || more;
            if (ctx.send_all_) {
              for (VertexId dst : g_.OutNeighbors(v)) {
                out.messages.emplace_back(dst, Box(pool, ctx.payload_));
              }
            }
            for (auto& [dst, m] : ctx.targeted_) {
              out.messages.emplace_back(dst, Box(pool, std::move(m)));
            }
          }
        });
        uint64_t outbox_messages = 0;
        bool rank_more = false;
        outbox.ForEachInOrder([&](const OutboxBlock& block) {
          outbox_messages += block.messages.size();
          rank_more = rank_more || block.more;
        });
        double compute_seconds = t.Seconds();
        clock_.RecordCompute(p, compute_seconds, worker_scale);
        obs::EmitSpanEndingNow("compute", "bspgraph", p, superstep,
                               compute_seconds);

        // Flush: charge the wire and deliver. Runs in rank order under the
        // turnstile — it mutates superstep-shared buffers and accounting.
        turns.Run(p, [&] {
          wants_more = wants_more || rank_more;
          boxed_requests_ += outbox_messages;
          uint64_t outbox_bytes = outbox_messages * BoxedBytes();
          peak_buffer_bytes_ =
              std::max(peak_buffer_bytes_,
                       outbox_bytes + live_inbox_bytes + next_inbox_bytes);
          // The fully buffered outbox is live until delivery finishes: the
          // boxed-message blow-up shows in the per-step msgbuf watermark.
          clock_.ChargeMemory(p, obs::MemPhase::kMessageBuffers, outbox_bytes);

          rt::RankTimer deliver_timer;
          if (obs::Enabled()) {
            // Registry handles resolved once per engine (we're serialized
            // under the turnstile), not one map lookup per rank-flush.
            if (outbox_messages_hist_ == nullptr) {
              outbox_messages_hist_ =
                  &obs::GetHistogram("bspgraph.outbox_messages");
              outbox_bytes_hist_ = &obs::GetHistogram("bspgraph.outbox_bytes");
            }
            outbox_messages_hist_->Record(outbox_messages);
            outbox_bytes_hist_->Record(outbox_bytes);
          }
          std::vector<uint64_t> bytes_to(ranks, 0);
          outbox.ForEachInOrder([&](OutboxBlock& block) {
            for (auto& [dst, m] : block.messages) {
              int q = ranks == 1 ? 0 : part_.OwnerOf(dst);
              bytes_to[q] += 12 + program->MessageWireBytes(*m);
              if (phases == 1) {
                next_inbox_bytes += BoxedBytes();
                next_has.Set(dst);
                next_inbox[dst].push_back(std::move(m));
              } else {
                live_inbox_bytes += BoxedBytes();
                has_msg.Set(dst);
                inbox[dst].push_back(std::move(m));
              }
            }
          });
          messages_sent_this_superstep += outbox_messages;
          for (int q = 0; q < ranks; ++q) {
            if (q != p && bytes_to[q] > 0) {
              clock_.RecordSend(p, q, bytes_to[q], 1);
            }
          }
          clock_.ReleaseMemory(p, obs::MemPhase::kMessageBuffers, outbox_bytes);
          obs::EmitSpanEndingNow("deliver", "bspgraph", p, superstep,
                                 deliver_timer.Seconds());
        });
      };
      if (phases > 1) {
        // Phased supersteps pipeline messages *within* a superstep: a later
        // rank must observe earlier ranks' same-phase sends (and drain them),
        // so the schedule stays serial by construction.
        for (int p = 0; p < ranks; ++p) run_rank(p);
      } else {
        rt::ForEachRank(ranks, run_rank);
      }
      // Each mini-step is a (finer-grained) global synchronization.
      clock_.EndStep(/*overlap_comm=*/false);
    }
    peak_buffer_bytes_ =
        std::max(peak_buffer_bytes_, live_inbox_bytes + next_inbox_bytes);

    if (phases == 1) {
      inbox = std::move(next_inbox);
      has_msg = std::move(next_has);
      live_inbox_bytes = next_inbox_bytes;
    }

    bool any_messages = messages_sent_this_superstep > 0;
    ++superstep;  // Counts completed supersteps.
    if (program->AllActive()) {
      if (!wants_more) break;
    } else if (!any_messages && superstep > 1) {
      break;
    }
  }

  // The snapshot's boxed-message copies die with Run; their footprint stays in
  // the watermark.
  clock_.ReleaseMemory(0, obs::MemPhase::kMessageBuffers, ckpt_charged_msgbuf);

  // Fold this run's allocation behavior into the process-wide counters
  // (bench_hotpath's evidence that the arena collapses per-message mallocs
  // into O(slabs) heap allocations).
  {
    ArenaCounters c;
    c.boxed_requests = boxed_requests_;
    if (arena_on_) {
      for (const auto& pool : pools_) {
        auto s = pool->GetStats();
        c.pool_reused += s.reused;
        c.pool_slab_allocations += s.slab_allocations;
        c.pool_slab_bytes += s.slab_bytes;
      }
    } else {
      c.heap_boxed = boxed_requests_;
    }
    internal::AccumulateArenaCounters(c);
  }

  clock_.ChargeMemory(0, obs::MemPhase::kGraph,
                      g_.MemoryBytes() / std::max(1, ranks));
  clock_.ChargeMemory(0, obs::MemPhase::kEngineState,
                      static_cast<uint64_t>(n) * sizeof(Value));
  clock_.ChargeMemory(0, obs::MemPhase::kMessageBuffers,
                      peak_buffer_bytes_ / std::max(1, ranks));
  return superstep;
}

}  // namespace maze::bsp

#endif  // MAZE_BSP_ENGINE_H_
