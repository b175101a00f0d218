// System-metrics layer tests: the tracking arena and counting allocator, the
// Exchange message-buffer accounting, schedule invariance of the recorded
// footprints, utilization timelines partitioning the wire totals, and the
// Perfetto counter-track export schema.
#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench_support/report.h"
#include "bench_support/runner.h"
#include "obs/export.h"
#include "obs/obs.h"
#include "obs/resource.h"
#include "rt/exchange.h"
#include "rt/fault.h"
#include "rt/metrics.h"
#include "rt/rank_exec.h"
#include "rt/sim_clock.h"
#include "tests/json_checker.h"
#include "tests/test_graphs.h"

namespace maze {
namespace {

using obs::CountingAllocator;
using obs::MemPhase;
using obs::TrackingArena;
using testutil::CountOccurrences;
using testutil::JsonChecker;

// Force a multi-threaded pool before anything touches it, so the parallel
// schedule really runs ranks concurrently (see rank_parallel_test.cc).
const bool kForcePoolSize = [] {
  setenv("MAZE_THREADS", "4", /*overwrite=*/0);
  return true;
}();

class ResourceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::SetEnabled(false);
    obs::SetResourceEnabled(false);
    obs::ResetAll();
  }
  void TearDown() override {
    obs::SetEnabled(false);
    obs::SetResourceEnabled(false);
    obs::ResetAll();
    rt::SetSerialRanks(-1);
  }
};

// --- TrackingArena --------------------------------------------------------------

TEST_F(ResourceTest, ArenaTracksLiveAndPeakPerPhase) {
  TrackingArena arena(2);
  arena.Charge(0, MemPhase::kGraph, 100);
  arena.Charge(0, MemPhase::kMessageBuffers, 50);
  arena.Release(0, MemPhase::kMessageBuffers, 50);
  arena.Charge(0, MemPhase::kMessageBuffers, 30);
  arena.Charge(1, MemPhase::kGraph, 70);

  EXPECT_EQ(arena.LiveBytes(0, MemPhase::kGraph), 100u);
  EXPECT_EQ(arena.LiveBytes(0, MemPhase::kMessageBuffers), 30u);
  EXPECT_EQ(arena.PhasePeak(MemPhase::kGraph), 100u);       // Max over ranks.
  EXPECT_EQ(arena.PhasePeak(MemPhase::kMessageBuffers), 50u);  // Watermark.
  // Rank 0's footprint peaked at 100 + 50 (graph + first buffer burst).
  EXPECT_EQ(arena.RankPeak(0), 150u);
  EXPECT_EQ(arena.RankPeak(1), 70u);
  EXPECT_EQ(arena.PeakFootprint(), 150u);
}

TEST_F(ResourceTest, ArenaReleaseSaturatesAtZero) {
  TrackingArena arena(1);
  arena.Charge(0, MemPhase::kEngineState, 10);
  arena.Release(0, MemPhase::kEngineState, 25);  // Over-release clamps.
  EXPECT_EQ(arena.LiveBytes(0, MemPhase::kEngineState), 0u);
  EXPECT_EQ(arena.PhasePeak(MemPhase::kEngineState), 10u);
}

TEST_F(ResourceTest, ArenaResetClearsEverything) {
  TrackingArena arena(1);
  arena.Charge(0, MemPhase::kGraph, 64);
  arena.Reset();
  EXPECT_EQ(arena.LiveBytes(0, MemPhase::kGraph), 0u);
  EXPECT_EQ(arena.PeakFootprint(), 0u);
}

// --- CountingAllocator ----------------------------------------------------------

TEST_F(ResourceTest, CountingAllocatorChargesOnlyWhenEnabled) {
  TrackingArena arena(1);
  {
    std::vector<int, CountingAllocator<int>> v(
        CountingAllocator<int>(&arena, 0, MemPhase::kMessageBuffers));
    v.resize(100);  // Disabled: no charge.
    EXPECT_EQ(arena.LiveBytes(0, MemPhase::kMessageBuffers), 0u);
  }
  obs::SetResourceEnabled(true);
  {
    std::vector<int, CountingAllocator<int>> v(
        CountingAllocator<int>(&arena, 0, MemPhase::kMessageBuffers));
    v.reserve(100);
    EXPECT_EQ(arena.LiveBytes(0, MemPhase::kMessageBuffers),
              100 * sizeof(int));
  }
  // Destruction released the buffer; the watermark survives.
  EXPECT_EQ(arena.LiveBytes(0, MemPhase::kMessageBuffers), 0u);
  EXPECT_EQ(arena.PhasePeak(MemPhase::kMessageBuffers), 100 * sizeof(int));
}

TEST_F(ResourceTest, CountingAllocatorNullArenaIsInert) {
  obs::SetResourceEnabled(true);
  std::vector<int, CountingAllocator<int>> v;  // Default: no arena bound.
  v.resize(1000);
  EXPECT_EQ(v.size(), 1000u);
}

// --- Exchange message-buffer accounting -----------------------------------------

TEST_F(ResourceTest, ExchangeChargesBoxesToOwningRanks) {
  obs::SetResourceEnabled(true);
  TrackingArena arena(3);
  {
    rt::Exchange<uint64_t> ex(3, &arena);
    ex.OutBox(0, 2) = {1, 2, 3, 4};
    ex.OutBox(1, 2) = {5};
    // Outbox buffers are charged to the sender.
    EXPECT_GE(arena.LiveBytes(0, MemPhase::kMessageBuffers),
              4 * sizeof(uint64_t));
    EXPECT_GE(arena.LiveBytes(1, MemPhase::kMessageBuffers), sizeof(uint64_t));
    EXPECT_EQ(arena.LiveBytes(2, MemPhase::kMessageBuffers), 0u);

    rt::SimClock clock(3, rt::CommModel::Mpi());
    ex.Deliver(&clock, sizeof(uint64_t));
    // Delivery re-homes the records: dst-bound inbox buffers now hold them.
    EXPECT_GE(arena.LiveBytes(2, MemPhase::kMessageBuffers),
              5 * sizeof(uint64_t));
    EXPECT_EQ(std::vector<uint64_t>(ex.InBox(2, 0).begin(),
                                    ex.InBox(2, 0).end()),
              (std::vector<uint64_t>{1, 2, 3, 4}));
  }
  // Exchange destruction frees every box.
  for (int r = 0; r < 3; ++r) {
    EXPECT_EQ(arena.LiveBytes(r, MemPhase::kMessageBuffers), 0u) << r;
  }
  EXPECT_GT(arena.PeakFootprint(), 0u);
}

TEST_F(ResourceTest, ExchangeDedupTableChargesReceiverMessageBuffers) {
  // Under a transport fault plan, the receiver's dedup table (ids of frames
  // the plan duplicated in flight) is real fault-mode state: it must allocate
  // through the counting allocator and land in the receiving rank's
  // message-buffer budget.
  obs::SetResourceEnabled(true);
  auto spec = rt::fault::ParseFaultSpec("seed=8,dup=0.5").value();
  rt::SimClock clock(2, rt::CommModel::Mpi(), /*trace=*/false, spec);
  rt::Exchange<uint64_t> ex(2, &clock.arena());
  for (int i = 0; i < 400; ++i) {
    ex.OutBox(0, 1).push_back(static_cast<uint64_t>(i));
  }
  const uint64_t receiver_before =
      clock.arena().LiveBytes(1, MemPhase::kMessageBuffers);
  ex.Deliver(&clock, sizeof(uint64_t));
  ASSERT_GT(ex.DedupTableSize(1), 0u);
  // Receiver now holds the inbox plus the dedup ids; the dedup ids alone
  // account for at least their own storage on top of the moved inbox buffer.
  EXPECT_GE(clock.arena().LiveBytes(1, MemPhase::kMessageBuffers),
            receiver_before + 400 * sizeof(uint64_t) +
                ex.DedupTableSize(1) * sizeof(uint64_t));
  EXPECT_EQ(ex.DedupTableSize(0), 0u);
}

TEST_F(ResourceTest, BspCheckpointBuffersAreArenaAttributed) {
  // Superstep checkpoints copy the full run state (values + boxed inboxes);
  // those buffers must show up in the run's phase-attributed footprint, not
  // escape untracked. Compare a checkpointing run against a fault-free one.
  obs::SetResourceEnabled(true);
  EdgeList el = testgraphs::SmallRmat(9);
  rt::PageRankOptions opt;
  opt.iterations = 4;
  bench::RunConfig config;
  config.num_ranks = 4;
  auto plain = bench::RunPageRank(bench::EngineKind::kBspgraph, el, opt,
                                  config);
  config.faults = rt::fault::ParseFaultSpec("ckpt=1,ckpt_lat=0.001").value();
  auto ckpt = bench::RunPageRank(bench::EngineKind::kBspgraph, el, opt,
                                 config);
  EXPECT_GT(ckpt.metrics.checkpoints_written, 0u);
  // Checkpoint copies of the engine state and message buffers raise both
  // phase watermarks above the fault-free run's.
  EXPECT_GT(ckpt.metrics.memory_state_bytes, plain.metrics.memory_state_bytes);
  EXPECT_GE(ckpt.metrics.memory_msgbuf_bytes,
            plain.metrics.memory_msgbuf_bytes);
  EXPECT_GT(ckpt.metrics.memory_peak_bytes, plain.metrics.memory_peak_bytes);
}

TEST_F(ResourceTest, ExchangeWithoutArenaStillDelivers) {
  obs::SetResourceEnabled(true);
  rt::Exchange<int> ex(2);  // No arena bound: the null allocator is inert.
  ex.OutBox(0, 1) = {7, 8};
  ex.Deliver(nullptr);
  EXPECT_EQ(ex.InboundCount(1), 2u);
}

// --- Schedule invariance of the recorded footprint ------------------------------

TEST_F(ResourceTest, FootprintIsScheduleInvariant) {
  // Memory attribution must not depend on how rank tasks interleave: per-rank
  // arena slots plus in-rank sequencing make the serial and rank-parallel
  // schedules record identical watermarks, byte for byte. bspgraph and
  // vertexlab also exercise the dynamic per-step turnstile charges.
  EdgeList el = testgraphs::SmallRmat(9);
  rt::PageRankOptions opt;
  opt.iterations = 4;
  for (bench::EngineKind engine :
       {bench::EngineKind::kNative, bench::EngineKind::kVertexlab,
        bench::EngineKind::kBspgraph, bench::EngineKind::kMatblas,
        bench::EngineKind::kDatalite}) {
    bench::RunConfig config;
    config.num_ranks = 16;

    rt::SetSerialRanks(1);
    auto serial = bench::RunPageRank(engine, el, opt, config);
    rt::SetSerialRanks(0);
    auto parallel = bench::RunPageRank(engine, el, opt, config);

    const char* name = bench::EngineName(engine);
    EXPECT_EQ(parallel.metrics.memory_peak_bytes,
              serial.metrics.memory_peak_bytes)
        << name;
    EXPECT_EQ(parallel.metrics.memory_graph_bytes,
              serial.metrics.memory_graph_bytes)
        << name;
    EXPECT_EQ(parallel.metrics.memory_state_bytes,
              serial.metrics.memory_state_bytes)
        << name;
    EXPECT_EQ(parallel.metrics.memory_msgbuf_bytes,
              serial.metrics.memory_msgbuf_bytes)
        << name;
    EXPECT_GT(serial.metrics.memory_peak_bytes, 0u) << name;
  }
}

// --- Utilization timelines ------------------------------------------------------

TEST_F(ResourceTest, TimelineBucketsSumToExchangeWireTotals) {
  // Drive the clock + Exchange directly: the per-(step, rank) buckets must
  // partition the delivered wire bytes exactly, and every fraction must be a
  // fraction.
  constexpr int kRanks = 4;
  rt::SimClock clock(kRanks, rt::CommModel::Mpi(), /*trace=*/true);
  rt::Exchange<uint64_t> ex(kRanks, &clock.arena());

  uint64_t posted = 0;
  for (int step = 0; step < 5; ++step) {
    for (int src = 0; src < kRanks; ++src) {
      clock.RecordCompute(src, 1e-4 * (src + 1));
      for (int dst = 0; dst < kRanks; ++dst) {
        if (src == dst) continue;
        for (int i = 0; i <= step + src; ++i) {
          ex.OutBox(src, dst).push_back(static_cast<uint64_t>(i));
          posted += sizeof(uint64_t);
        }
      }
    }
    ex.Deliver(&clock, sizeof(uint64_t));
    ex.ClearInboxes();
    clock.EndStep();
  }
  rt::RunMetrics metrics = clock.Finish();
  EXPECT_EQ(metrics.bytes_sent, posted);

  auto buckets = rt::UtilizationTimeline(metrics);
  ASSERT_EQ(buckets.size(), static_cast<size_t>(5 * kRanks));
  uint64_t bucket_bytes = 0;
  for (const rt::UtilizationBucket& b : buckets) {
    bucket_bytes += b.bytes;
    EXPECT_GE(b.cpu_busy, 0.0);
    EXPECT_LE(b.cpu_busy, 1.0);
    EXPECT_GE(b.bw_utilization, 0.0);
    EXPECT_LE(b.bw_utilization, 1.0);
    EXPECT_GT(b.duration_seconds, 0.0);
  }
  EXPECT_EQ(bucket_bytes, metrics.bytes_sent);
  // Rank 3 was given 4x rank 0's compute, so its busy fraction dominates in
  // every step bucket.
  for (size_t i = 0; i + kRanks - 1 < buckets.size(); i += kRanks) {
    EXPECT_GT(buckets[i + kRanks - 1].cpu_busy, buckets[i].cpu_busy);
  }
}

TEST_F(ResourceTest, TimelineEmptyWithoutTrace) {
  rt::SimClock clock(2, rt::CommModel::Mpi());
  clock.RecordCompute(0, 1e-4);
  clock.EndStep();
  rt::RunMetrics metrics = clock.Finish();
  EXPECT_TRUE(rt::UtilizationTimeline(metrics).empty());
}

TEST_F(ResourceTest, TimelineMatchesEngineWireTotals) {
  // End to end through a real engine: traced runs expose per-rank buckets
  // whose byte counts sum back to the run's wire totals.
  EdgeList el = testgraphs::SmallRmat(9);
  rt::PageRankOptions opt;
  opt.iterations = 3;
  bench::RunConfig config;
  config.num_ranks = 4;
  config.trace = true;
  for (bench::EngineKind engine :
       {bench::EngineKind::kNative, bench::EngineKind::kBspgraph}) {
    auto result = bench::RunPageRank(engine, el, opt, config);
    uint64_t bucket_bytes = 0;
    for (const auto& b : rt::UtilizationTimeline(result.metrics)) {
      bucket_bytes += b.bytes;
      EXPECT_LE(b.cpu_busy, 1.0) << bench::EngineName(engine);
      EXPECT_LE(b.bw_utilization, 1.0) << bench::EngineName(engine);
    }
    EXPECT_EQ(bucket_bytes, result.metrics.bytes_sent)
        << bench::EngineName(engine);
  }
}

// --- Counter tracks in the Chrome trace export ----------------------------------

TEST_F(ResourceTest, CounterTracksExportAsPerfettoCounterEvents) {
  obs::SetEnabled(true);
  rt::SimClock clock(2, rt::CommModel::Mpi());
  for (int step = 0; step < 3; ++step) {
    clock.RecordCompute(0, 2e-4);
    clock.RecordCompute(1, 1e-4);
    clock.RecordSend(0, 1, 4096, 1);
    clock.EndStep();
  }
  clock.Finish();
  obs::SetEnabled(false);

  std::string json = obs::ChromeTraceJson();
  EXPECT_TRUE(JsonChecker(json).Valid()) << json.substr(0, 400);
  // One cpu_util and one bw_util sample per rank per step.
  EXPECT_EQ(CountOccurrences(json, "\"ph\":\"C\""), 12u);
  EXPECT_EQ(CountOccurrences(json, "\"name\":\"cpu_util\""), 6u);
  EXPECT_EQ(CountOccurrences(json, "\"name\":\"bw_util\""), 6u);
  // Counter samples land on the synthetic simulated-rank pids, carrying the
  // sample value in args under the track's own name.
  EXPECT_NE(json.find("\"pid\":10000"), std::string::npos);
  EXPECT_NE(json.find("\"pid\":10001"), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"cpu_util\":"), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"bw_util\":"), std::string::npos);
}

// --- ResourceReport rendering ---------------------------------------------------

TEST_F(ResourceTest, ResourceReportJsonAndMarkdown) {
  obs::ResourceReport report;
  obs::ResourceRow row;
  row.engine = "bspgraph";
  row.algorithm = "pagerank \"quoted\"";  // Hostile strings must stay valid.
  row.dataset = "rmat\\scale";
  row.ranks = 4;
  row.elapsed_seconds = 0.125;
  row.cpu_utilization = 0.5;
  row.footprint_bytes = 16u << 20;
  row.msg_buffer_bytes = 12u << 20;
  report.Add(row);
  obs::ResourceRow row2 = row;
  row2.engine = "native";
  row2.algorithm = "pagerank \"quoted\"";
  report.Add(row2);

  std::string json = report.ToJson();
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  EXPECT_NE(json.find("\"footprint_bytes\":16777216"), std::string::npos);

  std::string md = report.ToMarkdown();
  EXPECT_NE(md.find("### Resource report: pagerank \"quoted\""),
            std::string::npos);
  EXPECT_NE(md.find("| bspgraph |"), std::string::npos);
  EXPECT_NE(md.find("| native |"), std::string::npos);
  EXPECT_NE(md.find("16.00"), std::string::npos);  // Footprint MiB.
}

TEST_F(ResourceTest, ResourceRowFromMeasurementFillsUtilizationAndPhases) {
  bench::Measurement m;
  m.engine = bench::EngineKind::kBspgraph;
  m.algorithm = "pagerank";
  m.dataset = "rmat";
  m.ranks = 4;
  m.metrics.elapsed_seconds = 2.0;
  m.metrics.bytes_sent = 8ull << 30;
  m.metrics.peak_network_bw = 2.75e9;
  m.metrics.modeled_peak_bw = 5.5e9;
  m.metrics.memory_peak_bytes = 100;
  m.metrics.memory_graph_bytes = 40;
  m.metrics.memory_state_bytes = 25;
  m.metrics.memory_msgbuf_bytes = 35;
  rt::StepRecord s;
  s.compute_seconds = 1.0;
  s.wire_seconds = 1.0;
  m.metrics.steps = {s};

  obs::ResourceRow row = bench::ResourceRowFrom(m);
  EXPECT_DOUBLE_EQ(row.peak_bw_utilization, 0.5);
  // (8 GiB / 4 ranks) / (2 s * 5.5e9 B/s).
  EXPECT_NEAR(row.avg_bw_utilization,
              (8.0 * (1ull << 30) / 4) / (2.0 * 5.5e9), 1e-12);
  EXPECT_EQ(row.footprint_bytes, 100u);
  EXPECT_EQ(row.graph_bytes, 40u);
  EXPECT_EQ(row.state_bytes, 25u);
  EXPECT_EQ(row.msg_buffer_bytes, 35u);
  EXPECT_NEAR(row.step_p50_us, 2e6, 1e-3);  // One 2 s step.
}

}  // namespace
}  // namespace maze
