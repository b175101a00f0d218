// PR 6 artifact: closed-loop load generation against maze::serve::Service.
//
// A sweep of client counts (1..16 closed-loop threads, each waiting for its
// response before sending the next request) drives a fixed mix of 8 distinct
// query keys — pagerank/bfs/cc/triangles across three engines — through one
// service. Between sweeps the snapshot epoch is bumped, so every sweep starts
// cache-cold and re-exercises admission, dedup, execution, and caching.
// Reported per client count: throughput, p50/p99 latency, and hit/dedup rates.
//
// Self-checking (non-zero exit on violation):
//   1. Byte identity — every successful response payload equals the payload an
//      isolated fresh service produced for the same request. Dedup'd and
//      cached responses must be indistinguishable from solo executions.
//   2. No spurious backpressure — the closed-loop phase bounds outstanding
//      requests by the client count, which is below the queue depth, so
//      rejections must be zero.
//   3. Exact backpressure — with dispatch paused and the queue filled to its
//      bound with distinct keys, further distinct submissions are rejected
//      (kUnavailable) while identical ones still join in-flight work: rejects
//      happen iff the queue is at its bound.
//   4. Bill conservation — after the full concurrent sweep (plus a faulted
//      tail), the per-request bills sum exactly back to the engine-run flight
//      costs: integers exactly, seconds to <= 1e-9 relative (serve/bill.h).
//   5. SLO-trip forensic determinism — the same serialized request sequence,
//      run once under the serial and once under the rank-parallel schedule,
//      trips the watchdog into byte-identical bills dumps (canonical fields
//      only; the dump names the same top-cost request ids either way).
//
// Writes BENCH_serve.json (bench_support/artifact.h).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "obs/counters.h"
#include "obs/openmetrics.h"
#include "obs/telemetry.h"
#include "rt/rank_exec.h"
#include "serve/bill.h"
#include "serve/service.h"
#include "serve/slo.h"

namespace maze::bench {
namespace {

using serve::QueryKind;
using serve::Request;
using serve::Response;
using serve::Service;
using serve::ServiceOptions;
using serve::ServiceStats;

// The fixed request mix: 8 distinct execution keys over three cheap engines.
std::vector<Request> RequestMix() {
  std::vector<Request> mix;
  auto add = [&](const std::string& algo, const std::string& engine,
                 int iterations, VertexId source) {
    Request r;
    r.snapshot = "g";
    r.algo = algo;
    r.engine = engine;
    r.iterations = iterations;
    r.source = source;
    mix.push_back(r);
  };
  add("pagerank", "native", 3, 0);
  add("pagerank", "native", 5, 0);
  add("pagerank", "vertexlab", 3, 0);
  add("pagerank", "matblas", 3, 0);
  add("bfs", "native", 10, 0);
  add("bfs", "native", 10, 1);
  add("cc", "native", 10, 0);
  add("triangles", "native", 10, 0);
  return mix;
}

// Parameter signature independent of snapshot epoch: the graph source is
// deterministic, so expected payloads hold across bumps.
std::string VariantKey(const Request& r) {
  return r.algo + "/" + r.engine + "/it=" + std::to_string(r.iterations) +
         "/src=" + std::to_string(r.source);
}

EdgeList ServeGraph() {
  auto loaded = TryLoadGraphDataset("facebook", ScaleAdjust(-2));
  MAZE_CHECK(loaded.ok());
  return std::move(loaded).value();
}

struct SweepRow {
  int clients = 0;
  uint64_t requests = 0;
  double seconds = 0;
  double throughput_rps = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  double hit_rate = 0;
  double dedup_rate = 0;
  uint64_t rejected = 0;
};

double PercentileMs(std::vector<double>& sorted_seconds, double q) {
  if (sorted_seconds.empty()) return 0;
  size_t idx = static_cast<size_t>(q * (sorted_seconds.size() - 1));
  return sorted_seconds[idx] * 1e3;
}

std::string Slurp(const std::string& path) {
  std::string content;
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return content;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) content.append(buf, n);
  std::fclose(f);
  return content;
}

// Check 5 driver: a fixed serialized request sequence under a forced rank
// schedule (1 = serial, 0 = rank-parallel), with the watchdog armed to trip
// at its single scrape and dump forensics to `dump_path`. Returns the dump
// bytes. The process-global serve counters are reset and a baseline scrape
// taken before arming, so the evaluation window holds exactly this sequence.
std::string SloTripDumpForSchedule(int forced_serial,
                                   const std::string& dump_path) {
  rt::SetSerialRanks(forced_serial);
  obs::ResetCountersAndHistograms();
  Service service(ServiceOptions{});
  service.registry().Install("g", ServeGraph());
  obs::TelemetryRegistry telemetry;
  telemetry.ScrapeOnce();  // Baseline window before arming.

  serve::SloOptions slo;
  slo.p99_target_ms = 1e-3;  // 1 us: every execution lands over target.
  slo.dump_top_k = 3;
  slo.dump_path = dump_path;
  serve::SloWatchdog watchdog(slo, &telemetry, &service, nullptr);

  // Serialized calls so request ids and the amortization order are schedule
  // independent; ranks=2 gives the rank-parallel schedule real work, and the
  // faulted straggler must top the canonical cost ranking in both dumps.
  for (int it : {2, 4}) {
    Request r;
    r.snapshot = "g";
    r.algo = "pagerank";
    r.engine = "native";
    r.iterations = it;
    r.ranks = 2;
    Response resp = service.Call(r);
    if (!resp.status.ok()) {
      std::fprintf(stderr, "FAIL: slo-trip sequence: %s\n",
                   resp.status.ToString().c_str());
    }
    if (it == 2) service.Call(r);  // A cache hit rides along at zero cost.
  }
  Request straggler;
  straggler.snapshot = "g";
  straggler.algo = "pagerank";
  straggler.engine = "native";
  straggler.iterations = 3;
  straggler.ranks = 2;
  straggler.faults = "seed=7,straggle=0x64";
  service.Call(straggler);

  telemetry.ScrapeOnce();  // Trips the watchdog; writes the dump.
  rt::SetSerialRanks(-1);
  return Slurp(dump_path);
}

int Main() {
  Banner("BENCH_serve: concurrent query service under closed-loop load "
         "(PR 6 artifact)");
  BenchArtifact artifact("BENCH_serve.json", "serve");

  const std::vector<Request> mix = RequestMix();

  // Expected payload per variant, from an isolated service: the byte-identity
  // reference every concurrent response is checked against.
  std::map<std::string, std::string> expected;
  {
    Service solo(ServiceOptions{});
    solo.registry().Install("g", ServeGraph());
    for (const Request& r : mix) {
      Response resp = solo.Call(r);
      if (!resp.status.ok()) {
        artifact.Fail("solo %s: %s", VariantKey(r).c_str(),
                      resp.status.ToString().c_str());
        continue;
      }
      expected[VariantKey(r)] = resp.payload;
    }
  }

  // --- Closed-loop client sweep --------------------------------------------
  const std::vector<int> client_counts = {1, 2, 4, 8, 16};
  constexpr int kRequestsPerClient = 32;
  // Outstanding requests never exceed the client count in a closed loop, so
  // a queue deeper than max(clients) makes rejections impossible (check 2).
  ServiceOptions options;
  options.workers = 3;
  options.queue_depth = 32;
  Service service(options);
  service.registry().Install("g", ServeGraph());

  std::vector<SweepRow> rows;
  uint64_t identity_mismatches = 0;
  uint64_t closed_loop_rejects = 0;
  for (int clients : client_counts) {
    // Cache-cold start for every sweep; answers stay identical (check 1).
    service.registry().Install("g", ServeGraph());
    ServiceStats before = service.Stats();

    std::mutex mu;
    std::vector<double> latencies;
    uint64_t mismatches = 0;
    auto t0 = std::chrono::steady_clock::now();
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        for (int i = 0; i < kRequestsPerClient; ++i) {
          const Request& r = mix[(c + i) % mix.size()];
          Response resp = service.Call(r);
          std::lock_guard<std::mutex> lock(mu);
          if (!resp.status.ok()) {
            artifact.Fail("clients=%d %s: %s", clients, VariantKey(r).c_str(),
                          resp.status.ToString().c_str());
          } else if (resp.payload != expected[VariantKey(r)]) {
            ++mismatches;
            artifact.Fail(
                "clients=%d %s: payload diverges from solo run (hit=%d "
                "dedup=%d epoch=%llu)",
                clients, VariantKey(r).c_str(), resp.cache_hit, resp.deduped,
                static_cast<unsigned long long>(resp.epoch));
          }
          latencies.push_back(resp.latency_seconds);
        }
      });
    }
    for (auto& t : threads) t.join();
    service.Drain();
    double seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
    ServiceStats after = service.Stats();

    SweepRow row;
    row.clients = clients;
    row.requests = static_cast<uint64_t>(clients) * kRequestsPerClient;
    row.seconds = seconds;
    row.throughput_rps = seconds > 0 ? row.requests / seconds : 0;
    std::sort(latencies.begin(), latencies.end());
    row.p50_ms = PercentileMs(latencies, 0.50);
    row.p99_ms = PercentileMs(latencies, 0.99);
    row.hit_rate =
        static_cast<double>(after.cache_hits - before.cache_hits) /
        row.requests;
    row.dedup_rate =
        static_cast<double>(after.dedup_joined - before.dedup_joined) /
        row.requests;
    row.rejected = after.rejected - before.rejected;
    rows.push_back(row);

    identity_mismatches += mismatches;
    closed_loop_rejects += row.rejected;
    if (row.rejected != 0) {
      artifact.Fail(
          "clients=%d: %llu rejections in a closed loop whose queue depth "
          "exceeds the client count",
          clients, static_cast<unsigned long long>(row.rejected));
    }
    std::printf(
        "clients=%2d  %6llu req  %7.1f req/s  p50 %7.3f ms  p99 %7.3f ms  "
        "hit %4.2f  dedup %4.2f  rejected %llu\n",
        clients, static_cast<unsigned long long>(row.requests),
        row.throughput_rps, row.p50_ms, row.p99_ms, row.hit_rate,
        row.dedup_rate, static_cast<unsigned long long>(row.rejected));
  }

  // --- Exact backpressure: rejects iff the queue is at its bound -----------
  uint64_t paused_rejects = 0, paused_admitted = 0, paused_dedup = 0;
  bool admission_exact = true;
  {
    ServiceOptions small;
    small.workers = 2;
    small.queue_depth = 4;
    Service gate(small);
    gate.registry().Install("g", ServeGraph());
    gate.Pause();
    std::vector<std::shared_future<Response>> admitted;
    // Fill the queue to its bound with distinct keys.
    for (int it = 1; it <= 4; ++it) {
      Request r = mix[0];
      r.iterations = 10 + it;
      admitted.push_back(gate.Submit(r));
    }
    // Identical key: must join in-flight work, not be rejected.
    {
      Request r = mix[0];
      r.iterations = 11;
      admitted.push_back(gate.Submit(r));
    }
    // Distinct keys past the bound: every one must be rejected.
    std::vector<std::shared_future<Response>> overflow;
    for (int it = 1; it <= 3; ++it) {
      Request r = mix[0];
      r.iterations = 20 + it;
      overflow.push_back(gate.Submit(r));
    }
    gate.Resume();
    gate.Drain();
    for (auto& f : overflow) {
      if (f.get().status.code() != StatusCode::kUnavailable) {
        admission_exact = false;
      }
    }
    for (auto& f : admitted) {
      if (!f.get().status.ok()) admission_exact = false;
    }
    ServiceStats s = gate.Stats();
    paused_rejects = s.rejected;
    paused_admitted = s.admitted;
    paused_dedup = s.dedup_joined;
    if (s.rejected != 3 || s.admitted != 4 || s.dedup_joined != 1) {
      admission_exact = false;
    }
    if (!admission_exact) {
      artifact.Fail(
          "admission not exact: admitted=%llu rejected=%llu dedup=%llu (want "
          "4/3/1)",
          static_cast<unsigned long long>(s.admitted),
          static_cast<unsigned long long>(s.rejected),
          static_cast<unsigned long long>(s.dedup_joined));
    }
  }

  // --- Bill conservation over the whole concurrent run (check 4) -----------
  // Tail the sweep with faulted flights so fault seconds are on the ledger
  // too, then require both sides to agree.
  for (int seed : {3, 7}) {
    Request r = mix[0];
    r.iterations = 30 + seed;
    r.faults = "seed=" + std::to_string(seed) + ",straggle=0x64";
    Response resp = service.Call(r);
    if (!resp.status.ok()) {
      artifact.Fail("faulted tail: %s", resp.status.ToString().c_str());
    }
  }
  service.Drain();
  serve::BillLedger ledger = service.Bills();
  const bool bills_conserve =
      serve::BillsConserve(ledger.flights, ledger.billed);
  if (!bills_conserve) {
    artifact.Fail("bill conservation: flights %s vs billed %s",
                  ledger.flights.ToJson().c_str(),
                  ledger.billed.ToJson().c_str());
  }

  // --- SLO-trip forensic determinism (check 5) ------------------------------
  const std::string dump_serial = "bench_serve_slo_dump_serial.json";
  const std::string dump_parallel = "bench_serve_slo_dump_parallel.json";
  std::string serial_dump = SloTripDumpForSchedule(1, dump_serial);
  std::string parallel_dump = SloTripDumpForSchedule(0, dump_parallel);
  const bool dump_stable =
      !serial_dump.empty() && serial_dump == parallel_dump;
  const bool dump_names_culprit =
      serial_dump.find("\"top\"") != std::string::npos &&
      serial_dump.find("\"faults_injected\"") != std::string::npos;
  if (!dump_stable) {
    artifact.Fail(
        "SLO-trip dump differs across schedules (%zu vs %zu bytes); kept %s / "
        "%s for diffing",
        serial_dump.size(), parallel_dump.size(), dump_serial.c_str(),
        dump_parallel.c_str());
  } else {
    std::remove(dump_serial.c_str());
    std::remove(dump_parallel.c_str());
  }
  if (!dump_names_culprit) artifact.Fail("SLO-trip dump names no culprits");

  std::printf("self-check: identity %s, closed-loop rejects %s, "
              "admission bound %s, bill conservation %s, slo dump %s\n",
              identity_mismatches == 0 ? "ok" : "FAILED",
              closed_loop_rejects == 0 ? "ok" : "FAILED",
              admission_exact ? "ok" : "FAILED",
              bills_conserve ? "ok" : "FAILED",
              dump_stable && dump_names_culprit ? "ok" : "FAILED");

  // --- BENCH_serve.json ----------------------------------------------------
  obs::JsonWriter& json = artifact.json();
  json.Field("request_mix", mix.size()).BeginArray("sweep");
  for (const SweepRow& r : rows) {
    json.BeginObject()
        .Field("clients", r.clients)
        .Field("requests", r.requests)
        .Field("seconds", r.seconds)
        .Field("throughput_rps", r.throughput_rps)
        .Field("p50_ms", r.p50_ms)
        .Field("p99_ms", r.p99_ms)
        .Field("hit_rate", r.hit_rate)
        .Field("dedup_rate", r.dedup_rate)
        .Field("rejected", r.rejected)
        .EndObject();
  }
  json.EndArray()
      .BeginObject("admission_check")
      .Field("admitted", paused_admitted)
      .Field("rejected", paused_rejects)
      .Field("dedup_joined", paused_dedup)
      .Field("exact", admission_exact)
      .EndObject()
      .Field("identity_mismatches", identity_mismatches)
      .BeginObject("bill_conservation")
      .Key("flights")
      .Raw(ledger.flights.ToJson())
      .Key("billed")
      .Raw(ledger.billed.ToJson())
      .Field("conserved", bills_conserve)
      .EndObject()
      .Field("slo_dump_stable", dump_stable && dump_names_culprit);
  return artifact.Finish();
}

}  // namespace
}  // namespace maze::bench

int main() {
  // MAZE_TELEMETRY="listen=PORT,interval=S" exposes /metrics for the whole
  // run, so CI can curl a live scrape mid-bench (telemetry.yml).
  auto live = maze::obs::StartTelemetryFromEnv();
  if (!live.ok()) {
    std::fprintf(stderr, "MAZE_TELEMETRY: %s\n",
                 live.status().ToString().c_str());
    return 1;
  }
  if (live.value().endpoint != nullptr) {
    std::printf("telemetry: listening on 127.0.0.1:%d\n",
                live.value().endpoint->port());
  }
  return maze::bench::Main();
}
