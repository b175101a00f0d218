// Serving-layer tests: snapshot epochs, result-cache LRU accounting, canonical
// execution keys, dedup/cache byte-identity across all engines, deterministic
// admission control (rejection + deadline expiry), point/top-k extraction,
// report rendering, and the serve-script driver.
#include "serve/service.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "util/check.h"

#include <gtest/gtest.h>

#include "bench_support/runner.h"
#include "core/datasets.h"
#include "obs/counters.h"
#include "obs/telemetry.h"
#include "rt/rank_exec.h"
#include "serve/bill.h"
#include "serve/cache.h"
#include "serve/script.h"
#include "serve/slo.h"
#include "serve/snapshot.h"
#include "obs/openmetrics.h"
#include "tests/json_checker.h"
#include "tests/openmetrics_checker.h"

namespace maze::serve {
namespace {

// Small stand-in graph shared by most tests; loading is deterministic, so two
// loads produce identical edge lists (the bump-reproducibility tests rely on
// this).
EdgeList TestGraph() {
  auto loaded = TryLoadGraphDataset("facebook", /*scale_adjust=*/-6);
  MAZE_CHECK(loaded.ok());
  return std::move(loaded).value();
}

// ---------------------------------------------------------------------------
// SnapshotRegistry

TEST(SnapshotRegistryTest, InstallAssignsEpochsPerName) {
  SnapshotRegistry registry;
  SnapshotPtr a1 = registry.Install("a", TestGraph());
  EXPECT_EQ(a1->name, "a");
  EXPECT_EQ(a1->epoch, 1u);
  SnapshotPtr b1 = registry.Install("b", TestGraph());
  EXPECT_EQ(b1->epoch, 1u);
  SnapshotPtr a2 = registry.Install("a", TestGraph());
  EXPECT_EQ(a2->epoch, 2u);

  auto got = registry.Get("a");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value()->epoch, 2u);
  // The old generation stays alive for holders of the shared_ptr.
  EXPECT_EQ(a1->epoch, 1u);
}

TEST(SnapshotRegistryTest, GetUnknownIsNotFound) {
  SnapshotRegistry registry;
  EXPECT_EQ(registry.Get("nope").status().code(), StatusCode::kNotFound);
}

TEST(SnapshotRegistryTest, PrebuiltViewsMatchAlgorithmNeeds) {
  SnapshotRegistry registry;
  SnapshotPtr snap = registry.Install("g", TestGraph());
  EXPECT_GT(snap->directed.edges.size(), 0u);
  // Symmetrized view has both directions; oriented view only src < dst.
  EXPECT_GE(snap->symmetric.edges.size(), snap->directed.edges.size());
  for (const Edge& e : snap->oriented.edges) EXPECT_LT(e.src, e.dst);
  EXPECT_GT(snap->MemoryBytes(), 0u);
}

TEST(SnapshotRegistryTest, AllIsNameSorted) {
  SnapshotRegistry registry;
  registry.Install("zeta", TestGraph());
  registry.Install("alpha", TestGraph());
  auto all = registry.All();
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0]->name, "alpha");
  EXPECT_EQ(all[1]->name, "zeta");
}

// ---------------------------------------------------------------------------
// ResultCache

ExecResultPtr MakeResult(const std::string& payload) {
  auto r = std::make_shared<ExecResult>();
  r->payload = payload;
  return r;
}

TEST(ResultCacheTest, LookupHitAndMissAccounting) {
  ResultCache cache(1 << 20);
  EXPECT_EQ(cache.Lookup("k"), nullptr);
  cache.Insert("k", MakeResult("v"));
  ExecResultPtr hit = cache.Lookup("k");
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->payload, "v");
  auto stats = cache.GetStats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(ResultCacheTest, EvictsLeastRecentlyUsedUnderByteBudget) {
  // Each entry costs 100 payload bytes; budget fits two.
  ResultCache cache(200);
  cache.Insert("a", MakeResult(std::string(100, 'a')));
  cache.Insert("b", MakeResult(std::string(100, 'b')));
  // Touch "a" so "b" is now least recently used.
  EXPECT_NE(cache.Lookup("a"), nullptr);
  cache.Insert("c", MakeResult(std::string(100, 'c')));
  EXPECT_NE(cache.Lookup("a"), nullptr);
  EXPECT_EQ(cache.Lookup("b"), nullptr) << "LRU entry should have been evicted";
  EXPECT_NE(cache.Lookup("c"), nullptr);
  auto stats = cache.GetStats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_LE(stats.bytes, 200u);
}

TEST(ResultCacheTest, OversizedResultIsNotCached) {
  ResultCache cache(50);
  cache.Insert("small", MakeResult(std::string(40, 's')));
  cache.Insert("huge", MakeResult(std::string(1000, 'h')));
  EXPECT_EQ(cache.Lookup("huge"), nullptr);
  // The resident entry survives: one oversized insert must not flush the cache.
  EXPECT_NE(cache.Lookup("small"), nullptr);
}

TEST(ResultCacheTest, InsertExistingKeyIsNoOp) {
  ResultCache cache(1 << 20);
  cache.Insert("k", MakeResult("first"));
  cache.Insert("k", MakeResult("second"));
  EXPECT_EQ(cache.Lookup("k")->payload, "first");
  EXPECT_EQ(cache.GetStats().insertions, 1u);
}

// ---------------------------------------------------------------------------
// Canonical execution keys

class ExecKeyTest : public ::testing::Test {
 protected:
  ExecKeyTest() { snap_ = registry_.Install("g", TestGraph()); }
  SnapshotRegistry registry_;
  SnapshotPtr snap_;
};

TEST_F(ExecKeyTest, EmbedsEpochAlgoEngineAndConsumedParams) {
  Request r;
  r.snapshot = "g";
  r.algo = "pagerank";
  r.engine = "native";
  r.iterations = 7;
  auto key = Service::ExecKey(r, *snap_);
  ASSERT_TRUE(key.ok());
  EXPECT_EQ(key.value(), "g@1/pagerank/native/ranks=1/iterations=7");

  r.algo = "bfs";
  r.source = 3;
  key = Service::ExecKey(r, *snap_);
  ASSERT_TRUE(key.ok());
  EXPECT_EQ(key.value(), "g@1/bfs/native/ranks=1/source=3");

  // Params an algorithm does not consume are excluded.
  r.algo = "cc";
  key = Service::ExecKey(r, *snap_);
  ASSERT_TRUE(key.ok());
  EXPECT_EQ(key.value(), "g@1/cc/native/ranks=1");
}

TEST_F(ExecKeyTest, EpochBumpChangesKey) {
  Request r;
  r.snapshot = "g";
  auto k1 = Service::ExecKey(r, *snap_);
  SnapshotPtr bumped = registry_.Install("g", TestGraph());
  auto k2 = Service::ExecKey(r, *bumped);
  ASSERT_TRUE(k1.ok());
  ASSERT_TRUE(k2.ok());
  EXPECT_NE(k1.value(), k2.value());
}

TEST_F(ExecKeyTest, QueryKindSharesTheRunsKey) {
  Request run;
  run.snapshot = "g";
  Request point = run;
  point.kind = QueryKind::kPoint;
  point.vertex = 5;
  Request topk = run;
  topk.kind = QueryKind::kTopK;
  topk.k = 3;
  auto kr = Service::ExecKey(run, *snap_);
  auto kp = Service::ExecKey(point, *snap_);
  auto kt = Service::ExecKey(topk, *snap_);
  ASSERT_TRUE(kr.ok());
  ASSERT_TRUE(kp.ok());
  ASSERT_TRUE(kt.ok());
  EXPECT_EQ(kr.value(), kp.value());
  EXPECT_EQ(kr.value(), kt.value());
}

TEST_F(ExecKeyTest, FaultSpecIsValidatedAndKeyed) {
  Request r;
  r.snapshot = "g";
  r.algo = "pagerank";
  r.engine = "native";
  r.iterations = 3;
  r.faults = "seed=7,straggle=0x64";
  auto key = Service::ExecKey(r, *snap_);
  ASSERT_TRUE(key.ok()) << key.status().ToString();
  EXPECT_EQ(key.value(),
            "g@1/pagerank/native/ranks=1/iterations=3/"
            "faults=seed=7,straggle=0x64");

  r.faults = "bogus=1";
  EXPECT_EQ(Service::ExecKey(r, *snap_).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(ExecKeyTest, RejectsInvalidRequests) {
  Request r;
  r.snapshot = "g";
  r.algo = "sssp";
  EXPECT_EQ(Service::ExecKey(r, *snap_).status().code(),
            StatusCode::kInvalidArgument);
  r.algo = "pagerank";
  r.engine = "spark";
  EXPECT_EQ(Service::ExecKey(r, *snap_).status().code(),
            StatusCode::kInvalidArgument);
  r.engine = "native";
  r.iterations = 0;
  EXPECT_EQ(Service::ExecKey(r, *snap_).status().code(),
            StatusCode::kInvalidArgument);
  r.iterations = 10;
  r.algo = "bfs";
  r.source = static_cast<VertexId>(snap_->directed.num_vertices);
  EXPECT_EQ(Service::ExecKey(r, *snap_).status().code(),
            StatusCode::kInvalidArgument);
  r.source = 0;
  r.kind = QueryKind::kPoint;
  r.vertex = static_cast<VertexId>(snap_->directed.num_vertices);
  EXPECT_EQ(Service::ExecKey(r, *snap_).status().code(),
            StatusCode::kInvalidArgument);
  r.kind = QueryKind::kTopK;
  r.k = 0;
  EXPECT_EQ(Service::ExecKey(r, *snap_).status().code(),
            StatusCode::kInvalidArgument);
  // Triangles has no per-vertex answer to extract from.
  r = Request{};
  r.snapshot = "g";
  r.algo = "triangles";
  r.kind = QueryKind::kPoint;
  EXPECT_EQ(Service::ExecKey(r, *snap_).status().code(),
            StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Service: dedup + cache byte-identity across every engine

Request PageRankRequest(const std::string& engine) {
  Request r;
  r.snapshot = "g";
  r.algo = "pagerank";
  r.engine = engine;
  r.iterations = 3;
  return r;
}

// N concurrent identical requests produce byte-identical payloads from exactly
// one underlying execution — for every engine. This is the core serving-layer
// correctness claim: dedup and caching are invisible to the client.
TEST(ServiceDedupTest, ConcurrentIdenticalRequestsShareOneExecution) {
  constexpr int kCopies = 6;
  for (bench::EngineKind kind : bench::AllEngines()) {
    const std::string engine = bench::EngineName(kind);
    SCOPED_TRACE(engine);

    // Reference payload from an isolated solo run.
    std::string expected;
    {
      Service solo;
      solo.registry().Install("g", TestGraph());
      Response r = solo.Call(PageRankRequest(engine));
      ASSERT_TRUE(r.status.ok()) << r.status.ToString();
      expected = r.payload;
      ASSERT_FALSE(expected.empty());
    }

    Service service;
    service.registry().Install("g", TestGraph());
    // Pause dispatch so all copies are submitted before any executes: the
    // first admits a flight, the rest must join it.
    service.Pause();
    std::vector<std::shared_future<Response>> futures;
    for (int i = 0; i < kCopies; ++i) {
      futures.push_back(service.Submit(PageRankRequest(engine)));
    }
    service.Resume();
    service.Drain();

    int deduped = 0;
    for (auto& f : futures) {
      Response r = f.get();
      ASSERT_TRUE(r.status.ok()) << r.status.ToString();
      EXPECT_EQ(r.payload, expected) << "payload must be byte-identical";
      EXPECT_FALSE(r.cache_hit);
      deduped += r.deduped;
    }
    EXPECT_EQ(deduped, kCopies - 1);

    ServiceStats stats = service.Stats();
    EXPECT_EQ(stats.executed, 1u) << "exactly one underlying execution";
    EXPECT_EQ(stats.admitted, 1u);
    EXPECT_EQ(stats.dedup_joined, static_cast<uint64_t>(kCopies - 1));
    EXPECT_EQ(stats.completed, static_cast<uint64_t>(kCopies));
  }
}

TEST(ServiceCacheTest, RepeatAfterCompletionIsCacheHitWithIdenticalBytes) {
  Service service;
  service.registry().Install("g", TestGraph());
  Response first = service.Call(PageRankRequest("native"));
  ASSERT_TRUE(first.status.ok());
  EXPECT_FALSE(first.cache_hit);

  Response second = service.Call(PageRankRequest("native"));
  ASSERT_TRUE(second.status.ok());
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(second.payload, first.payload);
  EXPECT_EQ(second.queue_seconds, 0.0);

  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.executed, 1u);
  EXPECT_EQ(stats.cache_hits, 1u);
}

TEST(ServiceCacheTest, EpochBumpInvalidatesCachedResults) {
  Service service;
  service.registry().Install("g", TestGraph());
  Response first = service.Call(PageRankRequest("native"));
  ASSERT_TRUE(first.status.ok());
  EXPECT_EQ(first.epoch, 1u);

  service.registry().Install("g", TestGraph());  // Bump to epoch 2.
  Response second = service.Call(PageRankRequest("native"));
  ASSERT_TRUE(second.status.ok());
  EXPECT_FALSE(second.cache_hit) << "bumped epoch must miss the cache";
  EXPECT_EQ(second.epoch, 2u);
  // Same deterministic source: the answer itself is unchanged.
  EXPECT_EQ(second.payload, first.payload);
  EXPECT_EQ(service.Stats().executed, 2u);
}

// A straggler fault plan dilates the modeled clock without perturbing the
// answer, and the spec is part of the execution key (no cache aliasing with
// the clean run).
TEST(ServiceFaultTest, StragglerFaultsDilateModeledTimeNotPayload) {
  Service service;
  service.registry().Install("g", TestGraph());
  Response clean = service.Call(PageRankRequest("native"));
  ASSERT_TRUE(clean.status.ok()) << clean.status.ToString();

  Request faulted_req = PageRankRequest("native");
  faulted_req.faults = "seed=7,straggle=0x64";
  Response faulted = service.Call(faulted_req);
  ASSERT_TRUE(faulted.status.ok()) << faulted.status.ToString();
  EXPECT_FALSE(faulted.cache_hit) << "fault spec must be part of the exec key";
  EXPECT_EQ(faulted.payload, clean.payload)
      << "faults may only change modeled time, never the answer";
  EXPECT_GT(faulted.modeled_seconds, clean.modeled_seconds);
  EXPECT_EQ(service.Stats().executed, 2u);
}

// ---------------------------------------------------------------------------
// Admission control

TEST(ServiceAdmissionTest, QueueFullRejectsWithUnavailable) {
  ServiceOptions options;
  options.queue_depth = 2;
  Service service(options);
  service.registry().Install("g", TestGraph());
  service.Pause();

  // Distinct keys so nothing dedups: with dispatch paused, submissions past
  // the bound must be rejected.
  std::vector<std::shared_future<Response>> admitted;
  for (int it = 1; it <= 2; ++it) {
    Request r = PageRankRequest("native");
    r.iterations = it;
    admitted.push_back(service.Submit(r));
  }
  Request third = PageRankRequest("native");
  third.iterations = 3;
  Response rejected = service.Submit(third).get();
  EXPECT_EQ(rejected.status.code(), StatusCode::kUnavailable);

  service.Resume();
  service.Drain();
  for (auto& f : admitted) EXPECT_TRUE(f.get().status.ok());

  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.admitted, 2u);
  EXPECT_EQ(stats.queue_peak, 2u);
}

TEST(ServiceAdmissionTest, ExpiredDeadlineAnswersDeadlineExceeded) {
  Service service;
  service.registry().Install("g", TestGraph());
  service.Pause();
  Request r = PageRankRequest("native");
  r.deadline_seconds = 1e-4;
  auto expired = service.Submit(r);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  service.Resume();
  service.Drain();
  EXPECT_EQ(expired.get().status.code(), StatusCode::kDeadlineExceeded);
  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.expired, 1u);
  EXPECT_EQ(stats.executed, 0u) << "expired flights must not execute";
}

TEST(ServiceAdmissionTest, FlightSurvivesIfAnyJoinerStillHasBudget) {
  Service service;
  service.registry().Install("g", TestGraph());
  service.Pause();
  Request tight = PageRankRequest("native");
  tight.deadline_seconds = 1e-4;
  auto f_tight = service.Submit(tight);
  Request lax = PageRankRequest("native");  // Same key, no deadline: joins.
  auto f_lax = service.Submit(lax);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  service.Resume();
  service.Drain();
  // One joiner still in budget → the flight executes and everyone is served.
  EXPECT_TRUE(f_tight.get().status.ok());
  EXPECT_TRUE(f_lax.get().status.ok());
  EXPECT_EQ(service.Stats().executed, 1u);
}

TEST(ServiceAdmissionTest, InvalidRequestsFailFastWithoutAdmission) {
  Service service;
  service.registry().Install("g", TestGraph());
  Request unknown_snap = PageRankRequest("native");
  unknown_snap.snapshot = "ghost";
  EXPECT_EQ(service.Call(unknown_snap).status.code(), StatusCode::kNotFound);
  Request bad_algo = PageRankRequest("native");
  bad_algo.algo = "sssp";
  EXPECT_EQ(service.Call(bad_algo).status.code(),
            StatusCode::kInvalidArgument);
  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.invalid, 2u);
  EXPECT_EQ(stats.admitted, 0u);
}

// After Drain, every submission is accounted for exactly once on both axes.
TEST(ServiceAdmissionTest, AccountingIdentityHoldsAfterDrain) {
  ServiceOptions options;
  options.queue_depth = 4;
  Service service(options);
  service.registry().Install("g", TestGraph());
  service.Pause();
  std::vector<std::shared_future<Response>> futures;
  for (int i = 0; i < 12; ++i) {
    Request r = PageRankRequest("native");
    r.iterations = 1 + (i % 6);  // Mix of duplicate and distinct keys.
    futures.push_back(service.Submit(r));
  }
  Request invalid = PageRankRequest("native");
  invalid.snapshot = "ghost";
  futures.push_back(service.Submit(invalid));
  service.Resume();
  service.Drain();
  for (auto& f : futures) f.wait();

  ServiceStats s = service.Stats();
  EXPECT_EQ(s.submitted, 13u);
  EXPECT_EQ(s.submitted, s.completed + s.failed + s.expired + s.rejected +
                             s.invalid);
  EXPECT_EQ(s.submitted,
            s.admitted + s.dedup_joined + s.cache_hits + s.rejected +
                s.invalid);
  EXPECT_EQ(s.queue_depth, 0u);
  EXPECT_EQ(s.inflight, 0u);
}

// ---------------------------------------------------------------------------
// Graceful degradation

TEST(ServiceDegradationTest, LevelTwoShedsMissesButServesHits) {
  Service service;
  service.registry().Install("g", TestGraph());
  ASSERT_TRUE(service.Call(PageRankRequest("native")).status.ok());

  service.SetDegradation(2);
  EXPECT_EQ(service.degradation(), 2);

  // The warm key rides the cache; a fresh key is shed.
  Response hit = service.Call(PageRankRequest("native"));
  EXPECT_TRUE(hit.status.ok());
  EXPECT_TRUE(hit.cache_hit);
  Request miss = PageRankRequest("native");
  miss.iterations = 9;
  Response shed = service.Call(miss);
  EXPECT_EQ(shed.status.code(), StatusCode::kUnavailable);

  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.shed, 1u) << "degradation rejections are counted as shed";
  EXPECT_EQ(stats.cache_hits, 1u);

  // Recovery restores new executions; clamping bounds the level.
  service.SetDegradation(0);
  EXPECT_TRUE(service.Call(miss).status.ok());
  service.SetDegradation(7);
  EXPECT_EQ(service.degradation(), 2);
  service.SetDegradation(-3);
  EXPECT_EQ(service.degradation(), 0);
}

TEST(ServiceDegradationTest, LevelOneHalvesEffectiveQueueDepth) {
  ServiceOptions options;
  options.queue_depth = 4;
  Service service(options);
  service.registry().Install("g", TestGraph());
  service.SetDegradation(1);
  service.Pause();

  std::vector<std::shared_future<Response>> futures;
  for (int it = 1; it <= 3; ++it) {
    Request r = PageRankRequest("native");
    r.iterations = it;
    futures.push_back(service.Submit(r));
  }
  service.Resume();
  service.Drain();

  // Effective depth 4 >> 1 = 2: the third submission bounces, and because the
  // full-depth queue would have admitted it, it counts as shed.
  int ok = 0, unavailable = 0;
  for (auto& f : futures) {
    Response r = f.get();
    (r.status.ok() ? ok : unavailable) += 1;
  }
  EXPECT_EQ(ok, 2);
  EXPECT_EQ(unavailable, 1);
  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.admitted, 2u);
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.shed, 1u);
}

// ---------------------------------------------------------------------------
// Request ids (trace correlation)

TEST(ServiceRequestIdTest, ResponsesCarryMonotonicRequestIds) {
  Service service;
  service.registry().Install("g", TestGraph());
  Response first = service.Call(PageRankRequest("native"));
  Response second = service.Call(PageRankRequest("native"));  // Cache hit.
  ASSERT_TRUE(first.status.ok());
  ASSERT_TRUE(second.status.ok());
  EXPECT_EQ(first.request_id, 1u);
  EXPECT_EQ(second.request_id, 2u);
  EXPECT_TRUE(second.cache_hit);
}

// ---------------------------------------------------------------------------
// SLO watchdog

TEST(SloWatchdogTest, TripsShedsAndRecoversHysteretically) {
  // The watchdog reads process-global serve.* counters through telemetry
  // deltas; reset so this test's windows are self-contained.
  obs::ResetCountersAndHistograms();
  Service service;
  service.registry().Install("g", TestGraph());
  obs::TelemetryRegistry telemetry;
  telemetry.ScrapeOnce();  // Baseline window before arming.

  SloOptions slo;
  slo.p99_target_ms = 1e-3;  // 1 us: every real execution exceeds it.
  slo.burn_threshold = 2.0;
  slo.error_budget = 0.01;
  slo.recover_windows = 2;
  std::ostringstream log;
  SloWatchdog watchdog(slo, &telemetry, &service, &log);
  EXPECT_EQ(service.slo_target_us(), 1u);

  // Three over-target executions: burn = (3/3)/0.01 = 100 >= 2x threshold,
  // so the watchdog jumps straight to level 2.
  for (int it = 1; it <= 3; ++it) {
    Request r = PageRankRequest("native");
    r.iterations = it;
    ASSERT_TRUE(service.Call(r).status.ok());
  }
  telemetry.ScrapeOnce();
  EXPECT_EQ(watchdog.level(), 2) << log.str();
  EXPECT_EQ(service.degradation(), 2);

  // Degraded: fresh keys shed, warm keys still served from cache (and cache
  // hits do not burn budget, so the service can recover).
  Request miss = PageRankRequest("native");
  miss.iterations = 9;
  EXPECT_EQ(service.Call(miss).status.code(), StatusCode::kUnavailable);
  Request hit = PageRankRequest("native");
  hit.iterations = 1;
  EXPECT_TRUE(service.Call(hit).status.ok());

  // Idle windows count as healthy: recover_windows per level step-down.
  telemetry.ScrapeOnce();  // Cache-hit-only window: idle for SLO purposes.
  EXPECT_EQ(watchdog.level(), 2);
  telemetry.ScrapeOnce();
  EXPECT_EQ(watchdog.level(), 1);
  telemetry.ScrapeOnce();
  telemetry.ScrapeOnce();
  EXPECT_EQ(watchdog.level(), 0);
  EXPECT_EQ(service.degradation(), 0);

  // One degrade event, two recover events, all valid one-line JSON.
  auto events = watchdog.EventLines();
  ASSERT_EQ(events.size(), 3u) << log.str();
  EXPECT_NE(events[0].find("\"event\":\"slo_degrade\""), std::string::npos);
  EXPECT_NE(events[1].find("\"event\":\"slo_recover\""), std::string::npos);
  EXPECT_NE(events[2].find("\"event\":\"slo_recover\""), std::string::npos);
  for (const std::string& e : events) {
    EXPECT_TRUE(testutil::JsonChecker(e).Valid()) << e;
  }
  EXPECT_EQ(watchdog.windows_evaluated(), 5u);
}

TEST(SloWatchdogTest, DisarmsOnDestruction) {
  Service service;
  service.registry().Install("g", TestGraph());
  obs::TelemetryRegistry telemetry;
  {
    SloOptions slo;
    SloWatchdog watchdog(slo, &telemetry, &service, nullptr);
    service.SetDegradation(2);
    EXPECT_GT(service.slo_target_us(), 0u);
  }
  EXPECT_EQ(service.slo_target_us(), 0u);
  EXPECT_EQ(service.degradation(), 0);
}

// ---------------------------------------------------------------------------
// Point and top-k extraction

TEST(ServiceQueryTest, PointAndTopKExtractFromTheFullRun) {
  Service service;
  service.registry().Install("g", TestGraph());
  Request run = PageRankRequest("native");
  Response full = service.Call(run);
  ASSERT_TRUE(full.status.ok());

  // Payload: header line then one value per vertex.
  std::vector<std::string> lines;
  std::istringstream in(full.payload);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  ASSERT_GT(lines.size(), 8u);

  Request point = run;
  point.kind = QueryKind::kPoint;
  point.vertex = 7;
  Response pr = service.Call(point);
  ASSERT_TRUE(pr.status.ok());
  EXPECT_TRUE(pr.cache_hit) << "point query must reuse the run's execution";
  // lines[0] is the header; vertex v's value is lines[1 + v].
  EXPECT_EQ(pr.payload, "pagerank vertex 7 = " + lines[1 + 7] + "\n");

  Request topk = run;
  topk.kind = QueryKind::kTopK;
  topk.k = 5;
  Response tr = service.Call(topk);
  ASSERT_TRUE(tr.status.ok());
  EXPECT_TRUE(tr.cache_hit);
  std::istringstream tin(tr.payload);
  std::string header;
  std::getline(tin, header);
  EXPECT_EQ(header, "pagerank top 5");
  double prev = std::numeric_limits<double>::infinity();
  int rows = 0;
  for (std::string line; std::getline(tin, line);) {
    std::istringstream row(line);
    uint64_t vertex;
    double value;
    ASSERT_TRUE(row >> vertex >> value) << line;
    EXPECT_LE(value, prev) << "top-k must be sorted descending";
    prev = value;
    ++rows;
  }
  EXPECT_EQ(rows, 5);
  EXPECT_EQ(service.Stats().executed, 1u)
      << "run, point, and top-k share one execution";
}

// ---------------------------------------------------------------------------
// Report rendering

TEST(ServiceReportTest, JsonIsWellFormedAndMarkdownHasCounters) {
  Service service;
  service.registry().Install("g", TestGraph());
  service.Call(PageRankRequest("native"));
  service.Call(PageRankRequest("native"));  // One hit.
  ServiceReport report = service.Report();
  EXPECT_TRUE(testutil::JsonChecker(report.ToJson()).Valid())
      << report.ToJson();
  std::string md = report.ToMarkdown();
  EXPECT_NE(md.find("cache hits"), std::string::npos);
  EXPECT_NE(md.find("| g |"), std::string::npos) << md;
  ASSERT_EQ(report.snapshots.size(), 1u);
  EXPECT_EQ(report.snapshots[0].name, "g");
  EXPECT_EQ(report.stats.cache_hits, 1u);
}

// ---------------------------------------------------------------------------
// Script driver

TEST(ServeScriptTest, EndToEndScriptRunsAndReports) {
  std::istringstream script(R"(
# comment-only line
load g dataset=facebook scale_adjust=-6
pause
run algo=pagerank engine=native snapshot=g iterations=3 repeat=3
resume
wait
run algo=pagerank engine=native snapshot=g iterations=3
bump g
run algo=pagerank engine=native snapshot=g iterations=3
wait
report
)");
  ScriptOptions options;
  std::ostringstream out;
  ServiceReport report;
  Status s = RunServeScript(script, options, out, &report);
  ASSERT_TRUE(s.ok()) << s.ToString();
  const std::string text = out.str();
  EXPECT_NE(text.find("load g: epoch 1"), std::string::npos) << text;
  EXPECT_NE(text.find("bump g: epoch 2"), std::string::npos) << text;
  // Global submission-order numbering across wait blocks: 3 (repeat) + 1
  // (cache hit) + 1 (post-bump) = 5 responses.
  for (int i = 0; i < 5; ++i) {
    EXPECT_NE(text.find("[" + std::to_string(i) + "] ok"), std::string::npos)
        << "missing response line " << i << " in:\n" << text;
  }
  EXPECT_NE(text.find("hit=1"), std::string::npos) << text;
  EXPECT_NE(text.find("# Service report"), std::string::npos);
  EXPECT_EQ(report.stats.submitted, 5u);
  EXPECT_EQ(report.stats.executed, 2u) << "dedup + cache leave 2 executions";
}

TEST(ServeScriptTest, SloScrapeAndDegradeCommands) {
  obs::ResetCountersAndHistograms();
  std::istringstream script(R"(
load g dataset=facebook scale_adjust=-6
slo target_ms=0.001 burn=2 budget=0.01 recover=1 min=1
degrade 1
degrade 0
run algo=pagerank engine=native snapshot=g iterations=3
wait
scrape
scrape
scrape
report
)");
  ScriptOptions options;
  std::ostringstream out;
  ServiceReport report;
  Status s = RunServeScript(script, options, out, &report);
  ASSERT_TRUE(s.ok()) << s.ToString();
  const std::string text = out.str();
  EXPECT_NE(text.find("slo armed target_ms=0.001 burn=2 budget=0.01"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("degrade level=1"), std::string::npos) << text;
  EXPECT_NE(text.find("degrade level=0"), std::string::npos) << text;
  for (int i = 1; i <= 3; ++i) {
    EXPECT_NE(text.find("scrape " + std::to_string(i)), std::string::npos)
        << text;
  }
  // One over-target execution in window 1 trips the watchdog to level 2
  // (burn = 100); the two idle windows then step it back down (recover=1).
  EXPECT_EQ(testutil::CountOccurrences(text, "\"event\":\"slo_degrade\""), 1u)
      << text;
  EXPECT_EQ(testutil::CountOccurrences(text, "\"event\":\"slo_recover\""), 2u)
      << text;
  // The watchdog hook runs inside the scrape, so its event precedes the
  // script's own "scrape 1" line.
  EXPECT_LT(text.find("\"event\":\"slo_degrade\""), text.find("scrape 1"));
  EXPECT_NE(text.find("shed (SLO degradation)"), std::string::npos) << text;
  EXPECT_EQ(report.degradation, 0);
}

TEST(ServeScriptTest, UnknownSloParameterIsAScriptError) {
  ScriptOptions options;
  std::ostringstream out;
  {
    std::istringstream script("slo burn=2\n");  // Missing target_ms.
    Status s = RunServeScript(script, options, out);
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  }
  {
    std::istringstream script("slo target_ms=5 frob=1\n");
    Status s = RunServeScript(script, options, out);
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(s.message().find("frob"), std::string::npos);
  }
  {
    std::istringstream script("degrade nope\n");
    Status s = RunServeScript(script, options, out);
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  }
}

TEST(ServeScriptTest, ScriptErrorsAreReportedWithLineNumbers) {
  ScriptOptions options;
  std::ostringstream out;
  {
    std::istringstream script("frobnicate g\n");
    Status s = RunServeScript(script, options, out);
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(s.message().find("line 1"), std::string::npos) << s.ToString();
  }
  {
    // Submitting against a never-loaded snapshot is a request-level failure,
    // not a script error: the response line carries the status.
    std::istringstream script(
        "run algo=pagerank engine=native snapshot=ghost\nwait\n");
    std::ostringstream out2;
    Status s = RunServeScript(script, options, out2);
    EXPECT_TRUE(s.ok()) << s.ToString();
    EXPECT_NE(out2.str().find("NOT_FOUND"), std::string::npos) << out2.str();
  }
  {
    // Load failures become script errors carrying the loader's status text.
    std::istringstream script("load g dataset=ghost\n");
    Status s = RunServeScript(script, options, out);
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(s.message().find("NOT_FOUND"), std::string::npos)
        << s.ToString();
  }
}

// ---------------------------------------------------------------------------
// Service-level gauges

// queue depth, inflight, and SLO degradation export as OpenMetrics gauges:
// instantaneous levels the scraper samples, not monotone counters.
TEST(ServiceGaugeTest, ServiceLevelsExportAsGauges) {
  obs::ResetCountersAndHistograms();
  ServiceOptions options;
  options.queue_depth = 8;
  Service service(options);
  service.registry().Install("g", TestGraph());
  obs::TelemetryRegistry telemetry;

  service.Pause();
  std::vector<std::shared_future<Response>> futures;
  for (int it = 1; it <= 3; ++it) {
    Request r = PageRankRequest("native");
    r.iterations = it;
    futures.push_back(service.Submit(r));
  }
  service.SetDegradation(2);  // After the submits: level 2 sheds fresh keys.
  telemetry.ScrapeOnce();
  auto depth = telemetry.LatestGauge("serve.queue_depth");
  auto degradation = telemetry.LatestGauge("serve.degradation");
  ASSERT_TRUE(depth.has_value());
  ASSERT_TRUE(degradation.has_value());
  EXPECT_EQ(depth->value, 3);
  EXPECT_EQ(degradation->value, 2);

  service.SetDegradation(0);
  service.Resume();
  service.Drain();
  for (auto& f : futures) f.wait();
  telemetry.ScrapeOnce();
  depth = telemetry.LatestGauge("serve.queue_depth");
  auto inflight = telemetry.LatestGauge("serve.inflight");
  degradation = telemetry.LatestGauge("serve.degradation");
  ASSERT_TRUE(depth.has_value());
  ASSERT_TRUE(inflight.has_value());
  EXPECT_EQ(depth->value, 0);
  EXPECT_EQ(depth->delta, -3) << "gauge deltas are signed";
  EXPECT_EQ(inflight->value, 0);
  EXPECT_EQ(degradation->value, 0);

  // And the exposition carries them as gauge families.
  std::string text = obs::OpenMetricsText(telemetry);
  testutil::OpenMetricsChecker checker(text);
  ASSERT_TRUE(checker.Valid()) << checker.error();
  EXPECT_EQ(checker.gauges().count("maze_serve_queue_depth"), 1u);
  EXPECT_EQ(checker.gauges().count("maze_serve_inflight"), 1u);
  EXPECT_EQ(checker.gauges().count("maze_serve_degradation"), 1u);
}

// ---------------------------------------------------------------------------
// Query bills (per-request resource attribution)

TEST(BillMathTest, IntegerShareIsAnExactPartition) {
  for (uint64_t v : {0ull, 1ull, 7ull, 100ull, 12345ull}) {
    for (size_t n : {1, 2, 3, 7}) {
      uint64_t sum = 0;
      for (size_t i = 0; i < n; ++i) {
        uint64_t share = IntegerShare(v, i, n);
        EXPECT_LE(share, v / n + 1);
        sum += share;
      }
      EXPECT_EQ(sum, v) << "v=" << v << " n=" << n;
    }
  }
}

TEST(BillMathTest, CostGreaterOrdersByCanonThenWireThenId) {
  QueryBill cheap, dear, tied;
  cheap.request_id = 1;
  cheap.canon_modeled_seconds = 0.5;
  dear.request_id = 2;
  dear.canon_modeled_seconds = 1.5;
  tied.request_id = 3;
  tied.canon_modeled_seconds = 1.5;
  tied.wire_bytes = 10;
  EXPECT_TRUE(CostGreater(dear, cheap));
  EXPECT_FALSE(CostGreater(cheap, dear));
  EXPECT_TRUE(CostGreater(tied, dear)) << "wire bytes break the tie";
  // Full tie: lower request id ranks first (deterministic order).
  QueryBill dup = dear;
  dup.request_id = 9;
  EXPECT_TRUE(CostGreater(dear, dup));
  EXPECT_FALSE(CostGreater(dup, dear));

  std::vector<QueryBill> top = TopCostRanked({cheap, dear, tied}, 2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].request_id, 3u);
  EXPECT_EQ(top[1].request_id, 2u);
}

TEST(FlightRecorderTest, RingKeepsLastCapacityWithSequenceWindows) {
  FlightRecorder recorder(3);
  EXPECT_EQ(recorder.next_seq(), 0u);
  for (uint64_t i = 0; i < 5; ++i) {
    QueryBill b;
    b.request_id = 100 + i;
    b.canon_modeled_seconds = static_cast<double>(i);
    EXPECT_EQ(recorder.Push(b), i);
  }
  EXPECT_EQ(recorder.next_seq(), 5u);
  auto held = recorder.Snapshot();
  ASSERT_EQ(held.size(), 3u) << "capacity bounds the ring";
  EXPECT_EQ(held[0].request_id, 102u);
  EXPECT_EQ(held[2].request_id, 104u);
  // Since() clamps to the oldest held sequence.
  EXPECT_EQ(recorder.Since(4).size(), 1u);
  EXPECT_EQ(recorder.Since(0).size(), 3u);
  EXPECT_EQ(recorder.Since(5).size(), 0u);
  auto top = recorder.TopK(1);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].request_id, 104u);
}

// Every OK response carries a bill; a sole fresh execution is billed the
// whole flight and the ledger conserves.
TEST(ServiceBillTest, FreshCallIsBilledTheWholeFlight) {
  Service service;
  service.registry().Install("g", TestGraph());
  Response r = service.Call(PageRankRequest("native"));
  ASSERT_TRUE(r.status.ok());
  service.Drain();
  ASSERT_NE(r.bill, nullptr);
  EXPECT_EQ(r.bill->request_id, r.request_id);
  EXPECT_EQ(r.bill->path, BillPath::kFresh);
  EXPECT_EQ(r.bill->share_count, 1);
  ASSERT_NE(r.bill->flight, nullptr);
  const FlightCost& flight = *r.bill->flight;
  EXPECT_GT(flight.modeled_seconds, 0.0);
  EXPECT_GT(flight.canon_modeled_seconds, 0.0);
  EXPECT_DOUBLE_EQ(r.bill->modeled_seconds, flight.modeled_seconds);
  EXPECT_EQ(r.bill->wire_bytes, flight.wire_bytes);
  EXPECT_EQ(r.bill->messages, flight.messages);
  // The measured decomposition sums back to the modeled total.
  EXPECT_NEAR(flight.compute_seconds + flight.wire_seconds +
                  flight.imbalance_seconds + flight.fault_seconds,
              flight.modeled_seconds, 1e-9 * flight.modeled_seconds);
  EXPECT_NEAR(flight.canon_compute_seconds + flight.canon_wire_seconds +
                  flight.canon_imbalance_seconds + flight.canon_fault_seconds,
              flight.canon_modeled_seconds,
              1e-9 * flight.canon_modeled_seconds);

  BillLedger ledger = service.Bills();
  EXPECT_EQ(ledger.flights.entries, 1u);
  EXPECT_EQ(ledger.billed.entries, 1u);
  EXPECT_TRUE(BillsConserve(ledger.flights, ledger.billed));
}

// Dedup joiners split one flight N ways: integers exactly, seconds evenly.
TEST(ServiceBillTest, DedupJoinersSplitTheFlightExactly) {
  constexpr int kCopies = 5;
  Service service;
  service.registry().Install("g", TestGraph());
  service.Pause();
  std::vector<std::shared_future<Response>> futures;
  for (int i = 0; i < kCopies; ++i) {
    futures.push_back(service.Submit(PageRankRequest("native")));
  }
  service.Resume();
  service.Drain();

  uint64_t wire_sum = 0, msg_sum = 0;
  double modeled_sum = 0;
  FlightCostPtr flight;
  for (auto& f : futures) {
    Response r = f.get();
    ASSERT_TRUE(r.status.ok());
    ASSERT_NE(r.bill, nullptr);
    EXPECT_EQ(r.bill->path, BillPath::kDedup);
    EXPECT_EQ(r.bill->share_count, kCopies);
    if (flight == nullptr) flight = r.bill->flight;
    EXPECT_EQ(r.bill->flight, flight) << "joiners share one FlightCost";
    wire_sum += r.bill->wire_bytes;
    msg_sum += r.bill->messages;
    modeled_sum += r.bill->modeled_seconds;
  }
  ASSERT_NE(flight, nullptr);
  EXPECT_EQ(wire_sum, flight->wire_bytes) << "integer split must be exact";
  EXPECT_EQ(msg_sum, flight->messages);
  EXPECT_NEAR(modeled_sum, flight->modeled_seconds,
              1e-9 * std::max(1.0, flight->modeled_seconds));

  BillLedger ledger = service.Bills();
  EXPECT_EQ(ledger.flights.entries, 1u);
  EXPECT_EQ(ledger.billed.entries, static_cast<uint64_t>(kCopies));
  EXPECT_TRUE(BillsConserve(ledger.flights, ledger.billed));
}

// Cache hits carry the originating flight for context at zero marginal cost;
// a fully-cached service adds nothing to the billed ledger side.
TEST(ServiceBillTest, CacheHitsAreZeroMarginal) {
  Service service;
  service.registry().Install("g", TestGraph());
  Response first = service.Call(PageRankRequest("native"));
  ASSERT_TRUE(first.status.ok());
  Response second = service.Call(PageRankRequest("native"));
  ASSERT_TRUE(second.status.ok());
  ASSERT_TRUE(second.cache_hit);
  service.Drain();

  ASSERT_NE(second.bill, nullptr);
  EXPECT_EQ(second.bill->path, BillPath::kCacheHit);
  EXPECT_EQ(second.bill->share_count, 0);
  EXPECT_EQ(second.bill->modeled_seconds, 0.0);
  EXPECT_EQ(second.bill->canon_modeled_seconds, 0.0);
  EXPECT_EQ(second.bill->wire_bytes, 0u);
  EXPECT_EQ(second.bill->messages, 0u);
  EXPECT_EQ(second.bill->flight, first.bill->flight)
      << "hit carries the originating execution's cost for context";

  BillLedger ledger = service.Bills();
  EXPECT_EQ(ledger.flights.entries, 1u);
  EXPECT_EQ(ledger.billed.entries, 2u) << "the hit is billed (at zero)";
  EXPECT_EQ(ledger.billed.wire_bytes, ledger.flights.wire_bytes);
  EXPECT_TRUE(BillsConserve(ledger.flights, ledger.billed));
}

// A faulted flight bills its fault time and injection counts, and still
// conserves.
TEST(ServiceBillTest, FaultedFlightBillsFaultTimeAndConserves) {
  Service service;
  service.registry().Install("g", TestGraph());
  Request clean_req = PageRankRequest("native");
  clean_req.ranks = 2;  // Drops need wire traffic, so run on two ranks.
  Response clean = service.Call(clean_req);
  ASSERT_TRUE(clean.status.ok());
  Request faulted_req = clean_req;
  faulted_req.faults = "seed=7,straggle=0x64,drop=0.4";
  Response faulted = service.Call(faulted_req);
  ASSERT_TRUE(faulted.status.ok());
  service.Drain();

  ASSERT_NE(faulted.bill, nullptr);
  EXPECT_GT(faulted.bill->fault_seconds, 0.0);
  EXPECT_GT(faulted.bill->flight->faults_injected, 0u);
  EXPECT_EQ(clean.bill->fault_seconds, 0.0);
  EXPECT_GT(faulted.bill->canon_modeled_seconds,
            clean.bill->canon_modeled_seconds)
      << "the straggler multiplier must surface in the canonical rank";

  BillLedger ledger = service.Bills();
  EXPECT_EQ(ledger.flights.entries, 2u);
  EXPECT_TRUE(BillsConserve(ledger.flights, ledger.billed));
  // The faulted query tops the deterministic cost ranking.
  auto top = service.TopBills(1);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].request_id, faulted.request_id);
}

// The conservation identity across every path at once — fresh, dedup, cache
// hit, invalid, and deadline-expired submissions in one mix.
TEST(ServiceBillTest, ConservationHoldsAcrossMixedPaths) {
  ServiceOptions options;
  options.queue_depth = 16;
  Service service(options);
  service.registry().Install("g", TestGraph());
  // A warm key for cache hits.
  ASSERT_TRUE(service.Call(PageRankRequest("native")).status.ok());

  service.Pause();
  std::vector<std::shared_future<Response>> futures;
  for (int i = 0; i < 12; ++i) {
    Request r = PageRankRequest("native");
    r.iterations = 1 + (i % 4);  // Duplicates dedup; iterations=3 hits cache.
    futures.push_back(service.Submit(r));
  }
  Request expired = PageRankRequest("native");
  expired.iterations = 9;
  expired.deadline_seconds = 1e-4;
  futures.push_back(service.Submit(expired));
  Request invalid = PageRankRequest("native");
  invalid.snapshot = "ghost";
  futures.push_back(service.Submit(invalid));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  service.Resume();
  service.Drain();
  for (auto& f : futures) f.wait();

  uint64_t billed_ok = 1;  // The warm-up call.
  for (auto& f : futures) {
    const Response& r = f.get();
    if (r.status.ok()) {
      ASSERT_NE(r.bill, nullptr) << "every OK response must carry a bill";
      ++billed_ok;
    } else {
      EXPECT_EQ(r.bill, nullptr) << "failed responses are not billed";
    }
  }
  BillLedger ledger = service.Bills();
  EXPECT_EQ(ledger.billed.entries, billed_ok);
  EXPECT_TRUE(BillsConserve(ledger.flights, ledger.billed))
      << "flights " << ledger.flights.ToJson() << " vs billed "
      << ledger.billed.ToJson();
}

// Canonical bill fields are byte-stable across the serial and rank-parallel
// schedules for the same request sequence (the measured fields are not).
TEST(ServiceBillTest, CanonicalBillsAreScheduleInvariant) {
  auto run_sequence = [] {
    Service service;
    service.registry().Install("g", TestGraph());
    std::vector<std::string> lines;
    for (int it : {3, 5}) {
      Request r = PageRankRequest("native");
      r.ranks = 2;
      r.iterations = it;
      Response resp = service.Call(r);
      EXPECT_TRUE(resp.status.ok()) << resp.status.ToString();
      if (resp.bill != nullptr) {
        lines.push_back(BillJson(*resp.bill, /*canonical_only=*/true));
      }
    }
    return lines;
  };
  rt::SetSerialRanks(1);
  auto serial = run_sequence();
  rt::SetSerialRanks(0);
  auto parallel = run_sequence();
  rt::SetSerialRanks(-1);
  ASSERT_EQ(serial.size(), 2u);
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], parallel[i]) << "bill " << i;
  }
}

TEST(ServiceBillTest, ReportRendersLedgerAndTopBills) {
  Service service;
  service.registry().Install("g", TestGraph());
  service.Call(PageRankRequest("native"));
  service.Call(PageRankRequest("native"));  // Cache hit.
  service.Drain();
  ServiceReport report = service.Report();
  EXPECT_TRUE(testutil::JsonChecker(report.ToJson()).Valid())
      << report.ToJson();
  EXPECT_NE(report.ToJson().find("\"bills\""), std::string::npos);
  EXPECT_NE(report.ToJson().find("\"conserved\":true"), std::string::npos)
      << report.ToJson();
  EXPECT_EQ(report.bills.flights.entries, 1u);
  EXPECT_EQ(report.bills.billed.entries, 2u);
  EXPECT_TRUE(testutil::JsonChecker(report.bills.flights.ToJson()).Valid());
  for (const QueryBill& b : report.top_bills) {
    for (bool canonical_only : {false, true}) {
      const std::string bill = BillJson(b, canonical_only);
      EXPECT_TRUE(testutil::JsonChecker(bill).Valid()) << bill;
    }
  }
  ASSERT_FALSE(report.top_bills.empty());
  EXPECT_EQ(report.top_bills[0].request_id, 1u)
      << "the fresh execution outranks its zero-cost cache hit";
  std::string md = report.ToMarkdown();
  EXPECT_NE(md.find("## Query bills"), std::string::npos) << md;
  EXPECT_NE(md.find("conserved=yes"), std::string::npos) << md;
}

TEST(ServeScriptTest, BillsCommandPrintsLedgerAndTopBills) {
  std::istringstream script(R"(
load g dataset=facebook scale_adjust=-6
run algo=pagerank engine=native snapshot=g iterations=3 repeat=2
run algo=pagerank engine=native snapshot=g iterations=5
wait
bills top=2
)");
  ScriptOptions options;
  std::ostringstream out;
  Status s = RunServeScript(script, options, out);
  ASSERT_TRUE(s.ok()) << s.ToString();
  const std::string text = out.str();
  EXPECT_NE(text.find("conserved=yes"), std::string::npos) << text;
  EXPECT_NE(text.find("bill[0] {\"request_id\":"), std::string::npos) << text;
  EXPECT_NE(text.find("bill[1] "), std::string::npos) << text;
  EXPECT_EQ(text.find("bill[2] "), std::string::npos) << "top=2 bounds";
  // iterations=5 costs more than iterations=3 in the canonical rank.
  EXPECT_NE(text.find("iterations=5"), std::string::npos) << text;
  EXPECT_LT(text.find("iterations=5", text.find("bill[0]")),
            text.find("bill[1]"))
      << text;
  {
    std::istringstream bad("bills frob=1\n");
    std::ostringstream out2;
    EXPECT_EQ(RunServeScript(bad, options, out2).code(),
              StatusCode::kInvalidArgument);
  }
}

// An SLO escalation writes the forensic artifacts: a deterministic bills dump
// naming the top-cost request ids, and a Perfetto track of recent flights.
TEST(SloWatchdogTest, EscalationWritesForensicDump) {
  obs::ResetCountersAndHistograms();
  Service service;
  service.registry().Install("g", TestGraph());
  obs::TelemetryRegistry telemetry;
  telemetry.ScrapeOnce();  // Baseline window before arming.

  const std::string dump_path = "serve_test_slo_dump.json";
  const std::string trace_path = "serve_test_slo_flights.json";
  std::remove(dump_path.c_str());
  std::remove(trace_path.c_str());

  SloOptions slo;
  slo.p99_target_ms = 1e-3;  // Every real execution exceeds 1 us.
  slo.dump_path = dump_path;
  slo.perfetto_path = trace_path;
  slo.dump_top_k = 2;
  std::ostringstream log;
  SloWatchdog watchdog(slo, &telemetry, &service, &log);

  std::vector<uint64_t> ids;
  for (int it = 1; it <= 3; ++it) {
    Request r = PageRankRequest("native");
    r.iterations = it;
    Response resp = service.Call(r);
    ASSERT_TRUE(resp.status.ok());
    ids.push_back(resp.request_id);
  }
  telemetry.ScrapeOnce();
  ASSERT_EQ(watchdog.level(), 2) << log.str();

  std::ifstream in(dump_path);
  ASSERT_TRUE(in.good()) << "escalation must write the bills dump";
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string dump = buffer.str();
  EXPECT_TRUE(testutil::JsonChecker(dump).Valid()) << dump;
  EXPECT_NE(dump.find("\"event\":\"slo_trip\""), std::string::npos) << dump;
  EXPECT_NE(dump.find("\"level\":2"), std::string::npos);
  // The tripping window holds all three bills; the top array names the
  // heaviest request ids (iterations=3 then iterations=2).
  for (uint64_t id : ids) {
    EXPECT_NE(dump.find("\"request_id\":" + std::to_string(id)),
              std::string::npos)
        << dump;
  }
  size_t top_pos = dump.find("\"top\"");
  ASSERT_NE(top_pos, std::string::npos);
  EXPECT_LT(dump.find("\"request_id\":" + std::to_string(ids[2]), top_pos),
            dump.find("\"request_id\":" + std::to_string(ids[1]), top_pos))
      << "top array must rank the costliest query first:\n" << dump;
  // Wall-clock fields stay out of the deterministic artifact.
  EXPECT_EQ(dump.find("wall_seconds"), std::string::npos);
  EXPECT_EQ(dump.find("cpu_seconds"), std::string::npos);

  std::ifstream trace(trace_path);
  ASSERT_TRUE(trace.good());
  std::stringstream tbuf;
  tbuf << trace.rdbuf();
  EXPECT_TRUE(testutil::JsonChecker(tbuf.str()).Valid()) << tbuf.str();
  EXPECT_NE(tbuf.str().find("query flights"), std::string::npos);

  std::remove(dump_path.c_str());
  std::remove(trace_path.c_str());
}

}  // namespace
}  // namespace maze::serve
