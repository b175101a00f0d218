// PR 4 artifact: the modeled cost of fault tolerance. Three series, all
// self-checking (the binary exits non-zero if any invariant fails):
//
//   1. Checkpoint-interval sweep (bspgraph PageRank): modeled elapsed time and
//      recovery stall must increase strictly with checkpoint frequency — the
//      classic Giraph trade-off of paying snapshot I/O every K supersteps.
//   2. Crash recovery: a run that loses a rank mid-computation and restores
//      from its last checkpoint must produce *exactly* the fault-free answers.
//   3. Drop-rate sweep (native PageRank): wire bytes must grow strictly with
//      the drop rate — retransmissions are real traffic in the totals.
//
// Writes BENCH_pr4.json (bench_support/artifact.h).
// Fault-injection correctness across all engines is asserted by
// tests/fault_injection_test.cc; this binary measures the overhead shapes.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "rt/fault.h"
#include "rt/rank_exec.h"

namespace maze::bench {
namespace {

rt::fault::FaultSpec Plan(const std::string& text) {
  auto spec = rt::fault::ParseFaultSpec(text);
  MAZE_CHECK(spec.ok() && "bench_fault_overhead: bad fault plan");
  return std::move(spec).value();
}

struct CkptCell {
  int interval = 0;  // 0 = checkpointing off.
  double elapsed_seconds = 0;
  double recovery_seconds = 0;
  uint64_t checkpoints = 0;
};

struct DropCell {
  double rate = 0;
  uint64_t bytes = 0;
  uint64_t retries = 0;
  double overhead = 1.0;  // bytes / fault-free bytes.
};

int Main() {
  Banner("BENCH_pr4: fault injection & recovery overhead (PR 4 artifact)");
  const int ranks = 8;

  EdgeList directed = GenerateRmat(RmatParams::Graph500(14 + ScaleAdjust(), 16));
  directed.Deduplicate();
  rt::PageRankOptions opt;
  opt.iterations = 5;

  BenchArtifact artifact("BENCH_pr4.json", "fault_overhead");

  // --- 1. Checkpoint-interval sweep (bspgraph) ------------------------------
  // ckpt_lat=0.05 makes the modeled snapshot stall dominate host compute
  // noise, so the strict monotonicity check is about the model, not the host.
  std::vector<CkptCell> ckpt_cells;
  for (int interval : {0, 8, 4, 2, 1}) {
    RunConfig config;
    config.num_ranks = ranks;
    if (interval > 0) {
      config.faults =
          Plan("ckpt=" + std::to_string(interval) + ",ckpt_lat=0.05");
    }
    auto run = RunPageRank(EngineKind::kBspgraph, directed, opt, config);
    ckpt_cells.push_back({interval, run.metrics.elapsed_seconds,
                          run.metrics.recovery_seconds,
                          run.metrics.checkpoints_written});
  }
  std::printf("\ncheckpoint-interval sweep (bspgraph pagerank, %d ranks)\n",
              ranks);
  std::printf("%9s %12s %12s %12s\n", "interval", "elapsed_s", "recovery_s",
              "checkpoints");
  for (const CkptCell& c : ckpt_cells) {
    std::printf("%9d %12.4f %12.4f %12llu\n", c.interval, c.elapsed_seconds,
                c.recovery_seconds,
                static_cast<unsigned long long>(c.checkpoints));
  }
  // The sweep runs from "off" toward checkpointing every superstep; all three
  // columns must increase strictly with checkpoint frequency.
  for (size_t i = 1; i < ckpt_cells.size(); ++i) {
    if (ckpt_cells[i].checkpoints <= ckpt_cells[i - 1].checkpoints ||
        ckpt_cells[i].recovery_seconds <= ckpt_cells[i - 1].recovery_seconds ||
        ckpt_cells[i].elapsed_seconds <= ckpt_cells[i - 1].elapsed_seconds) {
      artifact.Fail(
          "checkpoint cost not strictly increasing between intervals %d and %d",
          ckpt_cells[i - 1].interval, ckpt_cells[i].interval);
    }
  }

  // --- 2. Crash recovery reproduces the fault-free answers ------------------
  // Serial schedule on both sides: answers are then bit-deterministic, so the
  // recovered run must match the fault-free one exactly, not approximately.
  rt::SetSerialRanks(1);
  RunConfig plain;
  plain.num_ranks = ranks;
  auto baseline = RunPageRank(EngineKind::kBspgraph, directed, opt, plain);
  RunConfig crashed = plain;
  crashed.faults = Plan("crash=1@3,ckpt=2,ckpt_lat=0.05");
  auto recovered = RunPageRank(EngineKind::kBspgraph, directed, opt, crashed);
  rt::SetSerialRanks(-1);
  size_t mismatches = 0;
  for (size_t v = 0; v < baseline.ranks.size(); ++v) {
    mismatches += recovered.ranks[v] != baseline.ranks[v];
  }
  std::printf(
      "\ncrash recovery (bspgraph pagerank, crash rank 1 @ superstep 3, "
      "ckpt=2): restarts=%llu checkpoints=%llu recovery=%.4fs "
      "mismatched_vertices=%zu\n",
      static_cast<unsigned long long>(recovered.metrics.crash_restarts),
      static_cast<unsigned long long>(recovered.metrics.checkpoints_written),
      recovered.metrics.recovery_seconds, mismatches);
  if (mismatches != 0 || recovered.metrics.crash_restarts != 1 ||
      recovered.metrics.recovery_seconds <= 0.0) {
    artifact.Fail("crash recovery did not reproduce the fault-free run");
  }

  // --- 3. Drop-rate sweep (native) ------------------------------------------
  std::vector<DropCell> drop_cells;
  for (double rate : {0.0, 0.01, 0.05, 0.10}) {
    RunConfig config;
    config.num_ranks = ranks;
    if (rate > 0) {
      char plan[96];
      std::snprintf(plan, sizeof(plan),
                    "seed=4,drop=%.2f,retries=128,timeout=1e-4", rate);
      config.faults = Plan(plan);
    }
    auto run = RunPageRank(EngineKind::kNative, directed, opt, config);
    DropCell cell{rate, run.metrics.bytes_sent, run.metrics.transport_retries,
                  1.0};
    if (!drop_cells.empty() && drop_cells[0].bytes > 0) {
      cell.overhead = static_cast<double>(cell.bytes) /
                      static_cast<double>(drop_cells[0].bytes);
    }
    drop_cells.push_back(cell);
  }
  std::printf("\ndrop-rate sweep (native pagerank, %d ranks)\n", ranks);
  std::printf("%6s %14s %10s %9s\n", "drop", "bytes", "retries", "overhead");
  for (const DropCell& c : drop_cells) {
    std::printf("%6.2f %14llu %10llu %8.3fx\n", c.rate,
                static_cast<unsigned long long>(c.bytes),
                static_cast<unsigned long long>(c.retries), c.overhead);
  }
  for (size_t i = 1; i < drop_cells.size(); ++i) {
    if (drop_cells[i].bytes <= drop_cells[i - 1].bytes ||
        drop_cells[i].retries <= drop_cells[i - 1].retries) {
      artifact.Fail(
          "wire overhead not strictly increasing between drop rates %.2f and "
          "%.2f",
          drop_cells[i - 1].rate, drop_cells[i].rate);
    }
  }

  // --- JSON artifact ---------------------------------------------------------
  obs::JsonWriter& json = artifact.json();
  json.Field("ranks", ranks).BeginArray("checkpoint_sweep");
  for (const CkptCell& c : ckpt_cells) {
    json.BeginObject()
        .Field("interval", c.interval)
        .Field("elapsed_seconds", c.elapsed_seconds)
        .Field("recovery_seconds", c.recovery_seconds)
        .Field("checkpoints", c.checkpoints)
        .EndObject();
  }
  json.EndArray()
      .BeginObject("crash_recovery")
      .Field("restarts", recovered.metrics.crash_restarts)
      .Field("checkpoints", recovered.metrics.checkpoints_written)
      .Field("recovery_seconds", recovered.metrics.recovery_seconds)
      .Field("mismatched_vertices", mismatches)
      .EndObject()
      .BeginArray("drop_sweep");
  for (const DropCell& c : drop_cells) {
    json.BeginObject()
        .Field("drop_rate", c.rate)
        .Field("bytes_sent", c.bytes)
        .Field("transport_retries", c.retries)
        .Field("byte_overhead", c.overhead)
        .EndObject();
  }
  json.EndArray().Field("self_check_failures", artifact.violation_count());
  return artifact.Finish();
}

}  // namespace
}  // namespace maze::bench

int main() { return maze::bench::Main(); }
