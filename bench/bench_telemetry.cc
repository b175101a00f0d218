// PR 8 artifact: closed-loop gate for the live telemetry plane (DESIGN.MD §4g).
//
// Phase 1 — live scrape under load. Client threads drive maze::serve through a
// fixed request mix while the main thread pulls /metrics from a MetricsEndpoint
// mid-run. Every exposition must parse under tests/openmetrics_checker.h, and
// consecutive pulls must be monotone (counters and histogram counts never step
// backwards, even while Record races the scrape). After Drain(), the scraped
// maze_serve_* counters must reconcile EXACTLY with ServiceReport accounting:
// the live plane and the post-hoc report are two views of one set of atomics,
// so any divergence is a bug, not noise. (slo_requests == completed -
// cache_hits: cache hits reuse a paid execution and are excluded from SLO
// accounting.)
//
// Phase 2 — SLO watchdog spike/recovery, run twice: once under the serial
// one-rank-at-a-time schedule and once rank-parallel. A clean probe sets the
// p99 target well above clean modeled time; an injected straggler fault plan
// (faults=seed=1,straggle=0x4096) dilates modeled time far past it. The
// watchdog must trip to level 2 on the spike window, shed a fresh execution
// while still serving cache hits, then recover hysteretically over idle
// windows. Because the watchdog judges exact modeled-time counter deltas, its
// structured JSON event log must be BYTE-IDENTICAL across the two schedules —
// and the straggled payload must equal the clean payload (faults dilate the
// modeled clock, never the answer).
//
// Writes BENCH_telemetry.json (bench_support/artifact.h).
//
// Also: `bench_telemetry --check FILE` validates an OpenMetrics exposition
// file and exits 0/1 — CI uses it to vet a curl'd /metrics scrape.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "obs/openmetrics.h"
#include "obs/telemetry.h"
#include "rt/rank_exec.h"
#include "serve/service.h"
#include "serve/slo.h"
#include "tests/json_checker.h"
#include "tests/openmetrics_checker.h"

namespace maze::bench {
namespace {

using serve::Request;
using serve::Response;
using serve::Service;
using serve::ServiceOptions;
using serve::ServiceStats;
using serve::SloOptions;
using serve::SloWatchdog;
using testutil::OpenMetricsChecker;

EdgeList BenchGraph() {
  auto loaded = TryLoadGraphDataset("facebook", ScaleAdjust(-4));
  MAZE_CHECK(loaded.ok());
  return std::move(loaded).value();
}

Request MakeRequest(const std::string& algo, int iterations, VertexId source,
                    int ranks = 1, const std::string& faults = "") {
  Request r;
  r.snapshot = "g";
  r.algo = algo;
  r.engine = "native";
  r.iterations = iterations;
  r.source = source;
  r.ranks = ranks;
  r.faults = faults;
  return r;
}

// --- Phase 1: mid-run scrapes + exact counter reconciliation -----------------

struct ScrapeGate {
  int pulls = 0;
  bool valid = true;
  bool monotonic = true;
  bool exemplars_seen = false;
  bool reconciled = true;
};

ScrapeGate RunScrapeGate(BenchArtifact* artifact) {
  ScrapeGate gate;
  obs::ResetCountersAndHistograms();
  obs::ResetExemplars();

  ServiceOptions options;
  options.workers = 3;
  options.queue_depth = 64;
  Service service(options);
  service.registry().Install("g", BenchGraph());

  obs::TelemetryRegistry telemetry;
  obs::MetricsEndpoint endpoint(&telemetry);
  endpoint.SetReport([&service] { return service.Report().ToJson(); });
  MAZE_CHECK(endpoint.Start(0).ok());

  // 4 closed-loop clients over a 6-key mix, 3 passes each: the repeats force
  // cache hits and dedup joins so every accounting counter moves.
  const std::vector<Request> mix = {
      MakeRequest("pagerank", 2, 0), MakeRequest("pagerank", 3, 0),
      MakeRequest("bfs", 10, 0),     MakeRequest("bfs", 10, 1),
      MakeRequest("cc", 10, 0),      MakeRequest("triangles", 10, 0),
  };
  constexpr int kClients = 4;
  constexpr int kRequestsPerClient = 18;
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kRequestsPerClient; ++i) {
        Response resp = service.Call(mix[(c + i) % mix.size()]);
        if (!resp.status.ok()) {
          artifact->Fail("serve error: %s", resp.status.ToString().c_str());
        }
      }
    });
  }

  // Mid-run pulls: each is a fresh ScrapeOnce racing live Record()s.
  std::string prev_body;
  auto pull = [&](const char* when) {
    auto body = obs::HttpGet(endpoint.port(), "/metrics");
    if (!body.ok()) {
      gate.valid = false;
      artifact->Fail("%s pull: %s", when, body.status().ToString().c_str());
      return std::string();
    }
    ++gate.pulls;
    OpenMetricsChecker checker(body.value());
    if (!checker.Valid()) {
      gate.valid = false;
      artifact->Fail("%s pull invalid: %s", when, checker.error().c_str());
    }
    if (!prev_body.empty()) {
      std::string why;
      if (!OpenMetricsChecker::CheckMonotonic(OpenMetricsChecker(prev_body),
                                              checker, &why)) {
        gate.monotonic = false;
        artifact->Fail("%s pull not monotone: %s", when, why.c_str());
      }
    }
    prev_body = body.value();
    return body.value();
  };
  for (int p = 0; p < 3; ++p) {
    pull("mid-run");
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }

  for (auto& t : clients) t.join();
  service.Drain();
  const std::string final_body = pull("post-drain");
  endpoint.Stop();
  if (final_body.empty()) {
    artifact->Fail("post-drain scrape returned no body");
    return gate;
  }
  gate.exemplars_seen =
      final_body.find("# {request_id=\"") != std::string::npos;
  if (!gate.exemplars_seen) {
    artifact->Fail("no request-id exemplars in final scrape");
  }

  // Exact reconciliation against the post-Drain report. The scrape is
  // cumulative and this process ran exactly one Service since the reset, so
  // every number must match to the unit.
  const ServiceStats stats = service.Stats();
  OpenMetricsChecker checker(final_body);
  MAZE_CHECK(checker.Valid());
  const auto& counters = checker.counters();
  // One exact equality; records the mismatch instead of aborting so the
  // artifact lists every divergent counter at once.
  auto must_equal = [&](const char* what, std::optional<uint64_t> got,
                        uint64_t want) {
    if (got == want) return;
    gate.reconciled = false;
    if (got) {
      artifact->Fail("reconcile %s: scraped %llu != stats %llu", what,
                     static_cast<unsigned long long>(*got),
                     static_cast<unsigned long long>(want));
    } else {
      artifact->Fail("reconcile %s: missing from exposition", what);
    }
  };
  auto scraped = [&](const std::string& family) -> std::optional<uint64_t> {
    auto it = counters.find(family);
    if (it == counters.end()) return std::nullopt;
    return it->second;
  };
  must_equal("submitted", scraped("maze_serve_submitted"), stats.submitted);
  must_equal("rejected", scraped("maze_serve_rejected"), stats.rejected);
  must_equal("shed", scraped("maze_serve_shed"), stats.shed);
  must_equal("invalid", scraped("maze_serve_invalid"), stats.invalid);
  must_equal("cache_hit", scraped("maze_serve_cache_hit"), stats.cache_hits);
  must_equal("dedup_joined", scraped("maze_serve_dedup_joined"),
             stats.dedup_joined);
  must_equal("admitted", scraped("maze_serve_admitted"), stats.admitted);
  must_equal("executed", scraped("maze_serve_executed"), stats.executed);
  must_equal("exec_failed", scraped("maze_serve_exec_failed"),
             stats.exec_failed);
  must_equal("completed", scraped("maze_serve_completed"), stats.completed);
  must_equal("failed", scraped("maze_serve_failed"), stats.failed);
  must_equal("expired", scraped("maze_serve_expired"), stats.expired);
  // SLO accounting covers paid work only: cache hits are excluded.
  must_equal("slo_requests", scraped("maze_serve_slo_requests"),
             stats.completed - stats.cache_hits);
  must_equal("slo_over_target (unarmed)",
             scraped("maze_serve_slo_over_target"), 0);
  // Latency is recorded for every answered request; modeled time only for
  // paid executions.
  const auto& hists = checker.histograms();
  auto hist_count =
      [&](const std::string& family) -> std::optional<uint64_t> {
        auto it = hists.find(family);
        if (it == hists.end() || !it->second.has_count) return std::nullopt;
        return it->second.count;
      };
  must_equal("latency_us count", hist_count("maze_serve_latency_us"),
             stats.completed + stats.failed + stats.expired);
  must_equal("modeled_us count", hist_count("maze_serve_modeled_us"),
             stats.completed - stats.cache_hits);

  std::printf(
      "scrape gate: %d pulls, valid %s, monotone %s, exemplars %s, "
      "reconciled %s (%llu submitted, %llu cache hits, %llu dedup)\n",
      gate.pulls, gate.valid ? "ok" : "FAILED",
      gate.monotonic ? "ok" : "FAILED", gate.exemplars_seen ? "ok" : "FAILED",
      gate.reconciled ? "ok" : "FAILED",
      static_cast<unsigned long long>(stats.submitted),
      static_cast<unsigned long long>(stats.cache_hits),
      static_cast<unsigned long long>(stats.dedup_joined));
  return gate;
}

// --- Phase 2: watchdog spike/shed/recovery, serial vs rank-parallel ----------

struct WatchdogRun {
  double target_ms = 0;
  std::vector<std::string> events;
  uint64_t shed = 0;
  uint64_t windows = 0;
  int peak_level = 0;
  int final_level = 0;
  bool payload_stable = true;   // Straggled payload == clean payload.
  bool shed_then_served = true; // Level 2 sheds misses, serves hits, recovers.
};

constexpr char kSpikeFaults[] = "seed=1,straggle=0x4096";

WatchdogRun RunWatchdogScenario(bool serial, BenchArtifact* artifact) {
  rt::SetSerialRanks(serial ? 1 : 0);
  WatchdogRun run;

  ServiceOptions options;
  options.workers = 1;
  options.queue_depth = 8;
  Service service(options);
  service.registry().Install("g", BenchGraph());

  // Clean probe fixes the target: 8x clean modeled time leaves every clean
  // request (up to iterations=5 below) under target, while the x4096 rank-0
  // straggler dilates modeled time orders of magnitude past it. The target is
  // a pure function of the deterministic modeled clock, so both schedules
  // derive the identical value — a precondition for byte-stable event logs.
  Response probe = service.Call(MakeRequest("pagerank", 2, 0, /*ranks=*/4));
  if (!probe.status.ok()) {
    artifact->Fail("probe: %s", probe.status.ToString().c_str());
    return run;
  }
  run.target_ms = probe.modeled_seconds * 1e3 * 8;
  service.Drain();

  obs::TelemetryRegistry telemetry;
  telemetry.ScrapeOnce();  // Baseline: absorbs all prior cumulative counts.

  std::ostringstream log;
  SloOptions slo;
  slo.p99_target_ms = run.target_ms;
  slo.burn_threshold = 2.0;
  slo.error_budget = 0.01;
  slo.recover_windows = 2;
  slo.min_window_requests = 1;
  SloWatchdog watchdog(slo, &telemetry, &service, &log);

  auto call = [&](int iterations, const std::string& faults) {
    return service.Call(
        MakeRequest("pagerank", iterations, 0, /*ranks=*/4, faults));
  };

  // Window 1 — healthy: three clean executions, all under target.
  std::map<int, std::string> clean_payloads;
  for (int it : {3, 4, 5}) {
    Response r = call(it, "");
    if (!r.status.ok()) {
      artifact->Fail("clean it=%d: %s", it, r.status.ToString().c_str());
    }
    clean_payloads[it] = r.payload;
  }
  telemetry.ScrapeOnce();
  if (watchdog.level() != 0) {
    artifact->Fail("degraded on clean window (level %d)", watchdog.level());
  }

  // Window 2 — spike: the same three requests under a straggler fault plan.
  // Distinct execution keys (faults are keyed), identical payloads, dilated
  // modeled clock: burn = (3/3)/0.01 = 100 >= 2x threshold, straight to 2.
  for (int it : {3, 4, 5}) {
    Response r = call(it, kSpikeFaults);
    if (!r.status.ok()) {
      artifact->Fail("straggled it=%d: %s", it, r.status.ToString().c_str());
    }
    if (r.payload != clean_payloads[it]) {
      run.payload_stable = false;
      artifact->Fail("straggled payload diverges from clean (it=%d)", it);
    }
    if (r.modeled_seconds * 1e3 <= run.target_ms) {
      artifact->Fail("straggled modeled time %.3f ms under target %.3f ms",
                     r.modeled_seconds * 1e3, run.target_ms);
    }
  }
  telemetry.ScrapeOnce();
  run.peak_level = watchdog.level();
  if (run.peak_level != 2) {
    artifact->Fail("spike window left level %d, want 2", run.peak_level);
  }

  // Window 3 — degraded service: a fresh key is shed, a cached key is served.
  {
    Response miss = call(9, "");
    Response hit = call(3, "");
    if (miss.status.code() != StatusCode::kUnavailable || !hit.status.ok() ||
        !hit.cache_hit) {
      run.shed_then_served = false;
      artifact->Fail("level 2 must shed misses and serve hits");
    }
  }
  // Windows 3..6 — idle (shed and cache-hit traffic is excluded from SLO
  // accounting), so four healthy windows walk 2 -> 1 -> 0 at two per step.
  for (int w = 0; w < 4; ++w) telemetry.ScrapeOnce();
  run.final_level = watchdog.level();
  if (run.final_level != 0) {
    artifact->Fail("recovery stalled at level %d", run.final_level);
  }
  {
    Response after = call(9, "");
    if (!after.status.ok()) {
      run.shed_then_served = false;
      artifact->Fail("recovered service still shedding");
    }
  }

  run.events = watchdog.EventLines();
  run.windows = watchdog.windows_evaluated();
  run.shed = service.Stats().shed;
  for (const std::string& e : run.events) {
    if (!testutil::JsonChecker(e).Valid()) {
      artifact->Fail("event not valid JSON: %s", e.c_str());
    }
  }
  if (run.shed == 0) artifact->Fail("no requests shed during degradation");
  return run;
}

int CheckExpositionFile(const char* path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "bench_telemetry --check: cannot read %s\n", path);
    return 1;
  }
  std::ostringstream body;
  body << in.rdbuf();
  OpenMetricsChecker checker(body.str());
  if (!checker.Valid()) {
    std::fprintf(stderr, "bench_telemetry --check: %s: %s\n", path,
                 checker.error().c_str());
    return 1;
  }
  std::printf("bench_telemetry --check: %s ok (%zu counter families, "
              "%zu histogram families)\n",
              path, checker.counters().size(), checker.histograms().size());
  return 0;
}

int Main() {
  Banner("BENCH_telemetry: live scrape gate + SLO watchdog spike/recovery "
         "(PR 8 artifact)");
  BenchArtifact artifact("BENCH_telemetry.json", "telemetry");

  const ScrapeGate gate = RunScrapeGate(&artifact);

  const WatchdogRun serial = RunWatchdogScenario(/*serial=*/true, &artifact);
  const WatchdogRun parallel =
      RunWatchdogScenario(/*serial=*/false, &artifact);
  rt::SetSerialRanks(-1);
  const bool byte_stable = serial.events == parallel.events;
  if (!byte_stable) {
    artifact.Fail(
        "watchdog events diverge between schedules (%zu serial vs %zu "
        "parallel lines)",
        serial.events.size(), parallel.events.size());
    for (const std::string& e : serial.events) {
      std::fprintf(stderr, "  serial:   %s\n", e.c_str());
    }
    for (const std::string& e : parallel.events) {
      std::fprintf(stderr, "  parallel: %s\n", e.c_str());
    }
  }
  std::printf(
      "watchdog: target %.3f ms, peak level %d, final level %d, %llu shed, "
      "%llu windows, %zu events, byte-stable %s\n",
      serial.target_ms, serial.peak_level, serial.final_level,
      static_cast<unsigned long long>(serial.shed),
      static_cast<unsigned long long>(serial.windows), serial.events.size(),
      byte_stable ? "ok" : "FAILED");
  for (const std::string& e : serial.events) std::printf("  %s\n", e.c_str());

  obs::JsonWriter& json = artifact.json();
  json.BeginObject("scrape_gate")
      .Field("pulls", gate.pulls)
      .Field("valid", gate.valid)
      .Field("monotonic", gate.monotonic)
      .Field("exemplars_seen", gate.exemplars_seen)
      .Field("reconciled", gate.reconciled)
      .EndObject()
      .BeginObject("watchdog")
      .Field("spike_faults", kSpikeFaults)
      .Field("peak_level", serial.peak_level)
      .Field("final_level", serial.final_level)
      .Field("shed", serial.shed)
      .Field("windows", serial.windows)
      .Field("payload_stable_under_faults",
             serial.payload_stable && parallel.payload_stable)
      .Field("byte_stable_across_schedules", byte_stable)
      .BeginArray("events");
  // Event lines are themselves JSON objects; embed them raw.
  for (const std::string& e : serial.events) json.Raw(e);
  json.EndArray().EndObject();
  return artifact.Finish();
}

}  // namespace
}  // namespace maze::bench

int main(int argc, char** argv) {
  if (argc >= 2 && std::string(argv[1]) == "--check") {
    if (argc != 3) {
      std::fprintf(stderr, "usage: bench_telemetry --check FILE\n");
      return 1;
    }
    return maze::bench::CheckExpositionFile(argv[2]);
  }
  return maze::bench::Main();
}
