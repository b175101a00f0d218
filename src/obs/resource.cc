#include "obs/resource.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <sstream>

#include "obs/json.h"
#include "util/check.h"

namespace maze::obs {
namespace internal {

std::atomic<bool> g_resource_enabled{false};

}  // namespace internal

void SetResourceEnabled(bool enabled) {
  internal::g_resource_enabled.store(enabled, std::memory_order_relaxed);
}

const char* MemPhaseName(MemPhase phase) {
  switch (phase) {
    case MemPhase::kGraph:
      return "graph";
    case MemPhase::kEngineState:
      return "engine_state";
    case MemPhase::kMessageBuffers:
      return "message_buffers";
  }
  return "unknown";
}

namespace {

void CasMax(std::atomic<uint64_t>* target, uint64_t value) {
  uint64_t seen = target->load(std::memory_order_relaxed);
  while (value > seen && !target->compare_exchange_weak(
                             seen, value, std::memory_order_relaxed)) {
  }
}

}  // namespace

TrackingArena::TrackingArena(int num_ranks)
    : num_ranks_(num_ranks), slots_(new RankSlot[num_ranks]) {
  MAZE_CHECK(num_ranks >= 1);
  Reset();
}

void TrackingArena::Charge(int rank, MemPhase phase, uint64_t bytes) {
  MAZE_DCHECK(rank >= 0 && rank < num_ranks_);
  RankSlot& slot = slots_[rank];
  const int p = static_cast<int>(phase);
  uint64_t live = slot.live[p].fetch_add(bytes, std::memory_order_relaxed) +
                  bytes;
  CasMax(&slot.peak[p], live);
  uint64_t total = 0;
  for (int i = 0; i < kNumMemPhases; ++i) {
    total += slot.live[i].load(std::memory_order_relaxed);
  }
  CasMax(&slot.total_peak, total);
}

void TrackingArena::Release(int rank, MemPhase phase, uint64_t bytes) {
  MAZE_DCHECK(rank >= 0 && rank < num_ranks_);
  std::atomic<uint64_t>& live = slots_[rank].live[static_cast<int>(phase)];
  uint64_t seen = live.load(std::memory_order_relaxed);
  while (!live.compare_exchange_weak(seen, seen >= bytes ? seen - bytes : 0,
                                     std::memory_order_relaxed)) {
  }
}

uint64_t TrackingArena::LiveBytes(int rank, MemPhase phase) const {
  MAZE_DCHECK(rank >= 0 && rank < num_ranks_);
  return slots_[rank].live[static_cast<int>(phase)].load(
      std::memory_order_relaxed);
}

uint64_t TrackingArena::PhasePeak(MemPhase phase) const {
  uint64_t peak = 0;
  for (int r = 0; r < num_ranks_; ++r) {
    peak = std::max(peak, slots_[r].peak[static_cast<int>(phase)].load(
                              std::memory_order_relaxed));
  }
  return peak;
}

uint64_t TrackingArena::RankPeak(int rank) const {
  MAZE_DCHECK(rank >= 0 && rank < num_ranks_);
  return slots_[rank].total_peak.load(std::memory_order_relaxed);
}

uint64_t TrackingArena::PeakFootprint() const {
  uint64_t peak = 0;
  for (int r = 0; r < num_ranks_; ++r) peak = std::max(peak, RankPeak(r));
  return peak;
}

void TrackingArena::Reset() {
  for (int r = 0; r < num_ranks_; ++r) {
    for (int p = 0; p < kNumMemPhases; ++p) {
      slots_[r].live[p].store(0, std::memory_order_relaxed);
      slots_[r].peak[p].store(0, std::memory_order_relaxed);
    }
    slots_[r].total_peak.store(0, std::memory_order_relaxed);
  }
}

namespace {

std::string Fixed(double v, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, v);
  return buf;
}

std::string Mib(uint64_t bytes) {
  return Fixed(static_cast<double>(bytes) / (1024.0 * 1024.0), 2);
}

}  // namespace

std::string ResourceReport::ToJson() const {
  JsonWriter w;
  w.BeginObject().BeginArray("rows");
  for (const ResourceRow& r : rows_) {
    w.BeginObject()
        .Field("engine", r.engine)
        .Field("algorithm", r.algorithm)
        .Field("dataset", r.dataset)
        .Field("ranks", r.ranks)
        .Field("elapsed_seconds", r.elapsed_seconds)
        .Field("cpu_utilization", r.cpu_utilization)
        .Field("peak_bw_utilization", r.peak_bw_utilization)
        .Field("avg_bw_utilization", r.avg_bw_utilization)
        .Field("footprint_bytes", r.footprint_bytes)
        .Field("graph_bytes", r.graph_bytes)
        .Field("state_bytes", r.state_bytes)
        .Field("msg_buffer_bytes", r.msg_buffer_bytes)
        .Field("wire_bytes", r.wire_bytes)
        .Field("wire_messages", r.wire_messages)
        .Field("step_p50_us", r.step_p50_us)
        .Field("step_p99_us", r.step_p99_us)
        .EndObject();
  }
  w.EndArray().EndObject();
  return w.str();
}

std::string ResourceReport::ToMarkdown() const {
  // One triptych table per algorithm, rows in insertion order: CPU, bandwidth,
  // and the phase-split footprint side by side, Figure 6 style.
  std::vector<std::string> algo_order;
  std::map<std::string, std::vector<const ResourceRow*>> by_algo;
  for (const ResourceRow& r : rows_) {
    if (by_algo.find(r.algorithm) == by_algo.end()) {
      algo_order.push_back(r.algorithm);
    }
    by_algo[r.algorithm].push_back(&r);
  }

  std::ostringstream out;
  for (const std::string& algo : algo_order) {
    out << "### Resource report: " << algo << "\n\n";
    out << "| engine | dataset | ranks | cpu util | peak bw util | avg bw util "
           "| footprint MiB | graph MiB | state MiB | msg buf MiB | wire MiB | "
           "p50 step us | p99 step us |\n";
    out << "|---|---|---|---|---|---|---|---|---|---|---|---|---|\n";
    for (const ResourceRow* r : by_algo[algo]) {
      out << "| " << r->engine << " | " << r->dataset << " | " << r->ranks
          << " | " << Fixed(r->cpu_utilization, 3) << " | "
          << Fixed(r->peak_bw_utilization, 3) << " | "
          << Fixed(r->avg_bw_utilization, 3) << " | "
          << Mib(r->footprint_bytes) << " | " << Mib(r->graph_bytes) << " | "
          << Mib(r->state_bytes) << " | " << Mib(r->msg_buffer_bytes) << " | "
          << Mib(r->wire_bytes) << " | " << Fixed(r->step_p50_us, 1) << " | "
          << Fixed(r->step_p99_us, 1) << " |\n";
    }
    out << "\n";
  }
  return out.str();
}

}  // namespace maze::obs
