#include "serve/service.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <numeric>
#include <utility>

#include "bench_support/runner.h"
#include "obs/json.h"
#include "obs/obs.h"
#include "obs/telemetry.h"
#include "rt/fault.h"

namespace maze::serve {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Shortest round-trippable decimal form; integral doubles print as integers
// ("3", not "3.0000000000000000e+00"), so BFS levels and CC labels stay
// readable while PageRank scores keep full precision.
std::string FormatValue(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

bool AlgoHasPerVertexResult(const std::string& algo) {
  return algo == "pagerank" || algo == "bfs" || algo == "cc";
}

// Runs the request's algorithm on its pinned snapshot and serializes the
// answer canonically. The payload is a pure function of (snapshot, algo,
// engine, params): engine answers are schedule-invariant (PR 2), so a cached
// or deduped payload is byte-identical to a fresh run's.
StatusOr<ExecResultPtr> ExecuteRequest(const Request& request,
                                       const Snapshot& snap) {
  auto engine = bench::EngineByName(request.engine);
  MAZE_RETURN_IF_ERROR(engine.status());
  bench::RunConfig config;
  config.num_ranks = request.ranks;
  // Every serve execution is traced: the per-step records feed the bill's
  // attribution decomposition (ComputeFlightCost).
  config.trace = true;
  if (!request.faults.empty()) {
    auto faults = rt::fault::ParseFaultSpec(request.faults);
    MAZE_RETURN_IF_ERROR(faults.status());
    config.faults = std::move(faults).value();
  }

  auto result = std::make_shared<ExecResult>();
  rt::RunMetrics run_metrics;
  char head[160];
  if (request.algo == "pagerank") {
    rt::PageRankOptions opt;
    opt.iterations = request.iterations;
    auto r = bench::RunPageRank(engine.value(), snap.directed, opt, config);
    result->per_vertex.assign(r.ranks.begin(), r.ranks.end());
    result->summary = "pagerank: " + std::to_string(r.iterations) + " iterations";
    result->modeled_seconds = r.metrics.elapsed_seconds;
    run_metrics = std::move(r.metrics);
    std::snprintf(head, sizeof(head), "pagerank n=%zu iterations=%d\n",
                  r.ranks.size(), r.iterations);
  } else if (request.algo == "bfs") {
    rt::BfsOptions opt;
    opt.source = request.source;
    auto r = bench::RunBfs(engine.value(), snap.symmetric, opt, config);
    uint64_t reached = 0;
    result->per_vertex.reserve(r.distance.size());
    for (uint32_t d : r.distance) {
      bool hit = d != kInfiniteDistance;
      reached += hit;
      result->per_vertex.push_back(hit ? static_cast<double>(d) : -1.0);
    }
    result->summary = "bfs: reached " + std::to_string(reached) +
                      " vertices in " + std::to_string(r.levels) + " levels";
    result->modeled_seconds = r.metrics.elapsed_seconds;
    run_metrics = std::move(r.metrics);
    std::snprintf(head, sizeof(head), "bfs n=%zu source=%u levels=%d\n",
                  r.distance.size(), request.source, r.levels);
  } else if (request.algo == "cc") {
    auto r = bench::RunConnectedComponents(engine.value(), snap.symmetric, {},
                                           config);
    result->per_vertex.assign(r.label.begin(), r.label.end());
    result->summary =
        "cc: " + std::to_string(r.num_components) + " components";
    result->modeled_seconds = r.metrics.elapsed_seconds;
    run_metrics = std::move(r.metrics);
    std::snprintf(head, sizeof(head), "cc n=%zu components=%llu\n",
                  r.label.size(),
                  static_cast<unsigned long long>(r.num_components));
  } else if (request.algo == "triangles") {
    // §6.1.3: bspgraph triangle counting needs superstep splitting (as in the
    // CLI run command).
    if (engine.value() == bench::EngineKind::kBspgraph) config.bsp_phases = 100;
    auto r = bench::RunTriangleCount(engine.value(), snap.oriented, {}, config);
    result->summary = "triangles: " + std::to_string(r.triangles);
    result->modeled_seconds = r.metrics.elapsed_seconds;
    run_metrics = std::move(r.metrics);
    std::snprintf(head, sizeof(head), "triangles %llu\n",
                  static_cast<unsigned long long>(r.triangles));
  } else {
    return Status::InvalidArgument("unknown algo '" + request.algo + "'");
  }
  result->cost = std::make_shared<FlightCost>(
      ComputeFlightCost(run_metrics, config.num_ranks, config.faults));

  result->payload = head;
  for (double v : result->per_vertex) {
    result->payload += FormatValue(v);
    result->payload += '\n';
  }
  return ExecResultPtr(std::move(result));
}

// Extracts the per-request view of a shared execution result.
Response BuildResponse(const Request& request, const ExecResult& result,
                       uint64_t epoch) {
  Response r;
  r.epoch = epoch;
  r.summary = result.summary;
  r.modeled_seconds = result.modeled_seconds;
  switch (request.kind) {
    case QueryKind::kRun:
      r.payload = result.payload;
      break;
    case QueryKind::kPoint:
      r.payload = request.algo + " vertex " + std::to_string(request.vertex) +
                  " = " + FormatValue(result.per_vertex[request.vertex]) + "\n";
      break;
    case QueryKind::kTopK: {
      size_t k = std::min<size_t>(request.k, result.per_vertex.size());
      std::vector<uint32_t> order(result.per_vertex.size());
      std::iota(order.begin(), order.end(), 0u);
      std::partial_sort(order.begin(), order.begin() + k, order.end(),
                        [&](uint32_t a, uint32_t b) {
                          if (result.per_vertex[a] != result.per_vertex[b]) {
                            return result.per_vertex[a] > result.per_vertex[b];
                          }
                          return a < b;  // Deterministic tie-break.
                        });
      r.payload = request.algo + " top " + std::to_string(k) + "\n";
      for (size_t i = 0; i < k; ++i) {
        r.payload += std::to_string(order[i]) + " " +
                     FormatValue(result.per_vertex[order[i]]) + "\n";
      }
      break;
    }
  }
  return r;
}

// Every obs handle the dispatch path touches, resolved through the locked
// registry exactly once (the PR 2/7 Exchange::ObserveDeliver pattern). After
// the first request warms this struct, the serve hot path performs zero
// registry lookups per request — serve_stress_test pins that with
// obs::RegistryLookups().
struct ServeObs {
  obs::Counter& submitted = obs::GetCounter("serve.submitted");
  obs::Counter& invalid = obs::GetCounter("serve.invalid");
  obs::Counter& rejected = obs::GetCounter("serve.rejected");
  obs::Counter& shed = obs::GetCounter("serve.shed");
  obs::Counter& cache_hit = obs::GetCounter("serve.cache_hit");
  obs::Counter& dedup_joined = obs::GetCounter("serve.dedup_joined");
  obs::Counter& admitted = obs::GetCounter("serve.admitted");
  obs::Counter& executed = obs::GetCounter("serve.executed");
  obs::Counter& exec_failed = obs::GetCounter("serve.exec_failed");
  obs::Counter& completed = obs::GetCounter("serve.completed");
  obs::Counter& failed = obs::GetCounter("serve.failed");
  obs::Counter& expired = obs::GetCounter("serve.expired");
  obs::Counter& slo_requests = obs::GetCounter("serve.slo_requests");
  obs::Counter& slo_over_target = obs::GetCounter("serve.slo_over_target");
  obs::Histogram& latency_us = obs::GetHistogram("serve.latency_us");
  obs::Histogram& queue_wait_us = obs::GetHistogram("serve.queue_wait_us");
  obs::Histogram& modeled_us = obs::GetHistogram("serve.modeled_us");
  obs::ExemplarStore& latency_exemplars = obs::GetExemplars("serve.latency_us");
  obs::ExemplarStore& modeled_exemplars = obs::GetExemplars("serve.modeled_us");
  // Instantaneous service levels, exported as OpenMetrics gauges.
  obs::Gauge& queue_depth = obs::GetGauge("serve.queue_depth");
  obs::Gauge& inflight = obs::GetGauge("serve.inflight");
  obs::Gauge& degradation = obs::GetGauge("serve.degradation");
  // Per-request attribution (bill.h): flight/billed totals as counters plus
  // marginal-cost distributions with request-id exemplars, so a scrape can
  // walk from a maze_bill_* p99 bucket to the request that landed there.
  obs::Counter& bill_flights = obs::GetCounter("bill.flights");
  obs::Counter& bill_wire_bytes = obs::GetCounter("bill.wire_bytes");
  obs::Counter& bill_messages = obs::GetCounter("bill.messages");
  obs::Histogram& bill_modeled_us = obs::GetHistogram("bill.request_modeled_us");
  obs::Histogram& bill_wire = obs::GetHistogram("bill.request_wire_bytes");
  obs::ExemplarStore& bill_modeled_exemplars =
      obs::GetExemplars("bill.request_modeled_us");
  obs::ExemplarStore& bill_wire_exemplars =
      obs::GetExemplars("bill.request_wire_bytes");

  static ServeObs& Get() {
    static ServeObs* o = new ServeObs();
    return *o;
  }
};

uint64_t ToMicros(double seconds) {
  return static_cast<uint64_t>(seconds * 1e6);
}

obs::HistogramSnapshot SnapshotOf(const char* name, const obs::Histogram& h) {
  obs::HistogramSnapshot s;
  s.name = name;
  s.count = h.count();
  s.sum = h.sum();
  s.max = h.max();
  s.p50 = h.P50();
  s.p95 = h.P95();
  s.p99 = h.P99();
  return s;
}

}  // namespace

// One admitted execution: the canonical key, the pinned snapshot, the request
// whose parameters drive the engine, and everyone waiting on the answer.
struct Service::Flight {
  std::string key;
  SnapshotPtr snap;
  Request origin;
  uint64_t origin_id = 0;  // Request id of the joiner that opened the flight.

  struct Joiner {
    Request req;
    std::promise<Response> promise;
    Clock::time_point submitted;
    bool deduped = false;
    uint64_t request_id = 0;
  };
  // Guarded by Service::mu_ until the flight is retired from inflight_.
  std::vector<Joiner> joiners;
};

StatusOr<std::string> Service::ExecKey(const Request& request,
                                       const Snapshot& snap) {
  auto engine = bench::EngineByName(request.engine);
  MAZE_RETURN_IF_ERROR(engine.status());
  if (request.ranks < 1) {
    return Status::InvalidArgument("ranks must be >= 1");
  }
  const VertexId n = snap.directed.num_vertices;
  std::string key = snap.name + "@" + std::to_string(snap.epoch) + "/" +
                    request.algo + "/" + request.engine +
                    "/ranks=" + std::to_string(request.ranks);
  if (request.algo == "pagerank") {
    if (request.iterations < 1) {
      return Status::InvalidArgument("pagerank needs iterations >= 1");
    }
    key += "/iterations=" + std::to_string(request.iterations);
  } else if (request.algo == "bfs") {
    if (request.source >= n) {
      return Status::InvalidArgument("bfs source " +
                                     std::to_string(request.source) +
                                     " out of range (n=" + std::to_string(n) +
                                     ")");
    }
    key += "/source=" + std::to_string(request.source);
  } else if (request.algo != "cc" && request.algo != "triangles") {
    return Status::InvalidArgument("unknown algo '" + request.algo +
                                   "' (pagerank|bfs|cc|triangles)");
  }
  if (request.kind != QueryKind::kRun &&
      !AlgoHasPerVertexResult(request.algo)) {
    return Status::InvalidArgument("algo '" + request.algo +
                                   "' has no per-vertex result for "
                                   "point/top-k queries");
  }
  if (request.kind == QueryKind::kPoint && request.vertex >= n) {
    return Status::InvalidArgument(
        "point vertex " + std::to_string(request.vertex) + " out of range (n=" +
        std::to_string(n) + ")");
  }
  if (request.kind == QueryKind::kTopK && request.k < 1) {
    return Status::InvalidArgument("top-k needs k >= 1");
  }
  if (!request.faults.empty()) {
    auto spec = rt::fault::ParseFaultSpec(request.faults);
    MAZE_RETURN_IF_ERROR(spec.status());
    // Keyed by the spec text, not its parse: two spellings of one plan are
    // distinct keys, which errs toward re-executing rather than aliasing.
    key += "/faults=" + request.faults;
  }
  return key;
}

Service::Service(const ServiceOptions& options)
    : options_(options),
      cache_(options.cache_bytes),
      recorder_(options.bill_ring) {
  ServeObs::Get();  // Resolve every obs handle before the first request.
  int workers = std::max(1, options.workers);
  workers_.reserve(workers);
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerMain(); });
  }
}

Service::~Service() {
  Resume();
  Drain();
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

std::shared_future<Response> Service::Submit(const Request& request) {
  const Clock::time_point submitted = Clock::now();
  const uint64_t request_id =
      next_request_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  ServeObs& so = ServeObs::Get();
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.submitted;
  }
  so.submitted.Add(1);

  auto reply_now = [&](Response r) {
    r.latency_seconds = SecondsSince(submitted);
    r.request_id = request_id;
    std::promise<Response> p;
    p.set_value(std::move(r));
    return p.get_future().share();
  };
  auto fail_now = [&](Status status, uint64_t ServiceStats::*counter,
                      obs::Counter& obs_counter, bool shed = false) {
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++(stats_.*counter);
      if (shed) ++stats_.shed;
    }
    obs_counter.Add(1);
    if (shed) so.shed.Add(1);
    Response r;
    r.status = std::move(status);
    return reply_now(std::move(r));
  };

  auto snap_or = registry_.Get(request.snapshot);
  if (!snap_or.ok()) {
    return fail_now(snap_or.status(), &ServiceStats::invalid, so.invalid);
  }
  SnapshotPtr snap = std::move(snap_or).value();
  auto key_or = ExecKey(request, *snap);
  if (!key_or.ok()) {
    return fail_now(key_or.status(), &ServiceStats::invalid, so.invalid);
  }
  const std::string& key = key_or.value();

  if (ExecResultPtr hit = cache_.Lookup(key)) {
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.cache_hits;
      ++stats_.completed;
    }
    so.cache_hit.Add(1);
    so.completed.Add(1);
    Response r = BuildResponse(request, *hit, snap->epoch);
    r.cache_hit = true;
    // Zero-marginal bill: the execution was already paid for; the flight cost
    // rides along for context only (share_count 0 keeps it off the ledger's
    // additive fields).
    auto bill = std::make_shared<QueryBill>();
    bill->request_id = request_id;
    bill->key = key;
    bill->path = BillPath::kCacheHit;
    bill->share_count = 0;
    bill->flight = hit->cost;
    bill->wall_seconds = SecondsSince(submitted);
    bill->wall_end_us = static_cast<uint64_t>(obs::NowMicros());
    r.bill = bill;
    auto fut = reply_now(std::move(r));
    ObserveResponse(fut.get());
    RecordBill(bill);
    return fut;
  }

  std::unique_lock<std::mutex> lock(mu_);
  if (auto it = inflight_.find(key); it != inflight_.end()) {
    Flight::Joiner joiner;
    joiner.req = request;
    joiner.submitted = submitted;
    joiner.deduped = true;
    joiner.request_id = request_id;
    auto fut = joiner.promise.get_future().share();
    it->second->joiners.push_back(std::move(joiner));
    lock.unlock();
    {
      std::lock_guard<std::mutex> slock(stats_mu_);
      ++stats_.dedup_joined;
    }
    so.dedup_joined.Add(1);
    return fut;
  }
  // Degradation gates only *new executions*: cache hits and dedup joins above
  // ride work that is already paid for. Level 2 sheds every miss; level 1
  // halves the effective queue depth so backpressure kicks in earlier.
  const int degradation = degradation_.load(std::memory_order_relaxed);
  if (degradation >= 2) {
    lock.unlock();
    return fail_now(
        Status::Unavailable("shedding new executions (degradation level 2)"),
        &ServiceStats::rejected, so.rejected, /*shed=*/true);
  }
  size_t effective_depth =
      degradation > 0 ? std::max<size_t>(1, options_.queue_depth >> degradation)
                      : options_.queue_depth;
  if (queue_.size() >= effective_depth) {
    const bool shed = queue_.size() < options_.queue_depth;
    lock.unlock();
    return fail_now(
        Status::Unavailable("admission queue full (depth " +
                            std::to_string(effective_depth) + ")"),
        &ServiceStats::rejected, so.rejected, shed);
  }

  auto flight = std::make_shared<Flight>();
  flight->key = key;
  flight->snap = std::move(snap);
  flight->origin = request;
  flight->origin_id = request_id;
  Flight::Joiner joiner;
  joiner.req = request;
  joiner.submitted = submitted;
  joiner.request_id = request_id;
  auto fut = joiner.promise.get_future().share();
  flight->joiners.push_back(std::move(joiner));
  inflight_.emplace(key, flight);
  queue_.push_back(std::move(flight));
  queue_peak_ = std::max<uint64_t>(queue_peak_, queue_.size());
  so.queue_depth.Set(static_cast<int64_t>(queue_.size()));
  lock.unlock();
  work_cv_.notify_one();
  {
    std::lock_guard<std::mutex> slock(stats_mu_);
    ++stats_.admitted;
  }
  so.admitted.Add(1);
  return fut;
}

void Service::SetDegradation(int level) {
  const int clamped = std::clamp(level, 0, 2);
  degradation_.store(clamped, std::memory_order_relaxed);
  ServeObs::Get().degradation.Set(clamped);
}

void Service::ObserveResponse(const Response& r) {
  ServeObs& so = ServeObs::Get();
  const uint64_t latency_us = ToMicros(r.latency_seconds);
  latency_us_.Record(latency_us);
  so.latency_us.Record(latency_us);
  so.latency_exemplars.Record(latency_us, r.request_id);
  // Modeled-time and SLO accounting cover paid work only: a cache hit's
  // modeled_seconds describes the execution it reused, not this response, and
  // counting it would keep the burn rate pinned high under full shedding
  // (cache-only traffic) so the watchdog could never recover.
  if (!r.status.ok() || r.cache_hit) return;
  const uint64_t modeled_us = ToMicros(r.modeled_seconds);
  modeled_us_.Record(modeled_us);
  so.modeled_us.Record(modeled_us);
  so.modeled_exemplars.Record(modeled_us, r.request_id);
  so.slo_requests.Add(1);
  const uint64_t target = slo_target_us_.load(std::memory_order_relaxed);
  if (target != 0 && modeled_us > target) so.slo_over_target.Add(1);
}

void Service::RecordBill(const std::shared_ptr<const QueryBill>& bill) {
  ServeObs& so = ServeObs::Get();
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ledger_.billed.AddBill(*bill);
  }
  recorder_.Push(*bill);
  // Distributions use the canonical marginal cost — deterministic across
  // schedules, so the same request sequence fills the same buckets.
  const uint64_t modeled_us = ToMicros(bill->canon_modeled_seconds);
  so.bill_modeled_us.Record(modeled_us);
  so.bill_modeled_exemplars.Record(modeled_us, bill->request_id);
  so.bill_wire.Record(bill->wire_bytes);
  so.bill_wire_exemplars.Record(bill->wire_bytes, bill->request_id);
}

BillLedger Service::Bills() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return ledger_;
}

std::vector<QueryBill> Service::RecentBills() const {
  return recorder_.Snapshot();
}

std::vector<QueryBill> Service::TopBills(size_t k) const {
  return recorder_.TopK(k);
}

uint64_t Service::bill_seq() const { return recorder_.next_seq(); }

std::vector<QueryBill> Service::BillsSince(uint64_t seq) const {
  return recorder_.Since(seq);
}

Response Service::Call(const Request& request) {
  return Submit(request).get();
}

void Service::Pause() {
  std::lock_guard<std::mutex> lock(mu_);
  paused_ = true;
}

void Service::Resume() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    paused_ = false;
  }
  work_cv_.notify_all();
}

void Service::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  drain_cv_.wait(lock, [&] { return queue_.empty() && active_ == 0; });
}

void Service::WorkerMain() {
  ServeObs& so = ServeObs::Get();
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    work_cv_.wait(lock,
                  [&] { return stop_ || (!paused_ && !queue_.empty()); });
    if (stop_) return;
    FlightPtr flight = std::move(queue_.front());
    queue_.pop_front();
    ++active_;
    so.queue_depth.Set(static_cast<int64_t>(queue_.size()));
    so.inflight.Set(active_);
    lock.unlock();
    ExecuteFlight(flight);
    lock.lock();
    --active_;
    so.inflight.Set(active_);
    if (queue_.empty() && active_ == 0) drain_cv_.notify_all();
  }
}

void Service::ExecuteFlight(const FlightPtr& flight) {
  const Clock::time_point exec_start = Clock::now();

  // A flight expires only when *every* joined request's queue-wait budget has
  // passed: as long as one joiner is still willing to wait, executing serves
  // them all. Deadlines bound time in queue, not execution.
  bool expired;
  {
    std::lock_guard<std::mutex> lock(mu_);
    expired = !flight->joiners.empty();
    for (const Flight::Joiner& j : flight->joiners) {
      if (j.req.deadline_seconds <= 0 ||
          std::chrono::duration<double>(exec_start - j.submitted).count() <=
              j.req.deadline_seconds) {
        expired = false;
        break;
      }
    }
  }

  StatusOr<ExecResultPtr> result =
      Status::DeadlineExceeded("queue-wait deadline passed before dispatch");
  if (!expired) {
    // The span carries the opening joiner's request id, so a latency-exemplar
    // request_id finds this slice (and the engine spans nested under it on
    // this thread) in the Perfetto trace.
    const double span_start = obs::Enabled() ? obs::NowMicros() : 0;
    result = ExecuteRequest(flight->origin, *flight->snap);
    if (obs::Enabled()) {
      obs::PushSpanWithId("serve.execute", "serve", 0, -1, span_start,
                          obs::NowMicros() - span_start, flight->origin_id);
    }
    // Publish before retiring the flight: a submitter racing with retirement
    // either joins (fulfilled below) or finds the cache populated.
    if (result.ok()) cache_.Insert(flight->key, result.value());
  }

  std::vector<Flight::Joiner> joiners;
  {
    std::lock_guard<std::mutex> lock(mu_);
    inflight_.erase(flight->key);
    joiners.swap(flight->joiners);
  }

  const uint64_t epoch = flight->snap->epoch;
  const size_t share_n = joiners.size();
  uint64_t completed = 0, failed = 0, expired_count = 0;
  std::vector<Response> responses;
  responses.reserve(joiners.size());
  std::vector<std::shared_ptr<const QueryBill>> bills;
  ServeObs& so = ServeObs::Get();
  for (size_t i = 0; i < joiners.size(); ++i) {
    Flight::Joiner& j = joiners[i];
    Response r;
    if (result.ok()) {
      r = BuildResponse(j.req, *result.value(), epoch);
      r.deduped = j.deduped;
      // Joiners that attached after dispatch have a negative wait: they never
      // queued, they boarded a flight already in the air.
      r.queue_seconds = std::max(
          0.0, std::chrono::duration<double>(exec_start - j.submitted).count());
      const uint64_t queue_us = ToMicros(r.queue_seconds);
      queue_wait_us_.Record(queue_us);
      so.queue_wait_us.Record(queue_us);
      ++completed;
    } else {
      r.status = result.status();
      r.epoch = epoch;
      if (r.status.code() == StatusCode::kDeadlineExceeded) {
        ++expired_count;
      } else {
        ++failed;
      }
    }
    r.latency_seconds = SecondsSince(j.submitted);
    r.request_id = j.request_id;
    if (result.ok()) {
      // Joiner i of N is billed the i-th share of the flight, in submission
      // order — exact for integers (IntegerShare), even for seconds.
      auto bill = std::make_shared<QueryBill>();
      bill->request_id = j.request_id;
      bill->key = flight->key;
      bill->path = share_n == 1 ? BillPath::kFresh : BillPath::kDedup;
      FillShare(result.value()->cost, i, share_n, bill.get());
      bill->wall_seconds = r.latency_seconds;
      bill->wall_end_us = static_cast<uint64_t>(obs::NowMicros());
      r.bill = bill;
      bills.push_back(std::move(bill));
    }
    ObserveResponse(r);
    responses.push_back(std::move(r));
  }

  // Publish the accounting BEFORE fulfilling any joiner: a client whose Call()
  // just returned must see stats that include its own request.
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    if (expired) {
      stats_.expired += expired_count;
    } else if (result.ok()) {
      ++stats_.executed;
      // The flight side of the conservation ledger: one entry per execution,
      // added exactly once no matter how many joiners split it.
      ledger_.flights.AddFlight(*result.value()->cost);
    } else {
      ++stats_.exec_failed;
    }
    stats_.completed += completed;
    stats_.failed += failed;
  }
  if (!expired) {
    (result.ok() ? so.executed : so.exec_failed).Add(1);
  }
  if (result.ok()) {
    const FlightCost& cost = *result.value()->cost;
    so.bill_flights.Add(1);
    so.bill_wire_bytes.Add(cost.wire_bytes);
    so.bill_messages.Add(cost.messages);
  }
  so.completed.Add(completed);
  so.failed.Add(failed);
  so.expired.Add(expired_count);
  for (const auto& bill : bills) RecordBill(bill);

  for (size_t i = 0; i < joiners.size(); ++i) {
    joiners[i].promise.set_value(std::move(responses[i]));
  }
}

ServiceStats Service::Stats() const {
  ServiceStats s;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    s = stats_;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    s.queue_depth = queue_.size();
    s.queue_peak = queue_peak_;
    s.inflight = static_cast<uint64_t>(active_);
  }
  s.cache = cache_.GetStats();
  return s;
}

ServiceReport Service::Report() const {
  ServiceReport report;
  report.options = options_;
  report.stats = Stats();
  report.degradation = degradation();
  report.latency = SnapshotOf("serve.latency_us", latency_us_);
  report.queue_wait = SnapshotOf("serve.queue_wait_us", queue_wait_us_);
  report.modeled = SnapshotOf("serve.modeled_us", modeled_us_);
  report.bills = Bills();
  report.top_bills = TopBills(5);
  for (const SnapshotPtr& snap : registry_.All()) {
    ServiceReport::SnapshotRow row;
    row.name = snap->name;
    row.epoch = snap->epoch;
    row.vertices = snap->directed.num_vertices;
    row.edges = snap->directed.edges.size();
    row.bytes = snap->MemoryBytes();
    report.snapshots.push_back(std::move(row));
  }
  return report;
}

std::string ServiceReport::ToJson() const {
  obs::JsonWriter w;
  w.BeginObject()
      .BeginObject("options")
      .Field("workers", options.workers)
      .Field("queue_depth", options.queue_depth)
      .Field("cache_bytes", options.cache_bytes)
      .EndObject();
  w.BeginObject("stats")
      .Field("submitted", stats.submitted)
      .Field("admitted", stats.admitted)
      .Field("rejected", stats.rejected)
      .Field("shed", stats.shed)
      .Field("invalid", stats.invalid)
      .Field("cache_hits", stats.cache_hits)
      .Field("dedup_joined", stats.dedup_joined)
      .Field("executed", stats.executed)
      .Field("exec_failed", stats.exec_failed)
      .Field("completed", stats.completed)
      .Field("failed", stats.failed)
      .Field("expired", stats.expired)
      .Field("queue_depth", stats.queue_depth)
      .Field("queue_peak", stats.queue_peak)
      .Field("inflight", stats.inflight)
      .EndObject();
  w.Field("degradation", degradation);
  auto hist = [&w](const char* name, const obs::HistogramSnapshot& h) {
    w.BeginObject(name);
    obs::WriteHistogramFields(h, &w);
    w.EndObject();
  };
  hist("latency_us", latency);
  hist("queue_wait_us", queue_wait);
  hist("modeled_us", modeled);
  w.BeginObject("bills")
      .Key("flights")
      .Raw(bills.flights.ToJson())
      .Key("billed")
      .Raw(bills.billed.ToJson())
      .Field("conserved", BillsConserve(bills.flights, bills.billed))
      .EndObject();
  w.BeginArray("top_bills");
  for (const QueryBill& b : top_bills) {
    w.Raw(BillJson(b, /*canonical_only=*/false));
  }
  w.EndArray();
  w.BeginObject("cache")
      .Field("hits", stats.cache.hits)
      .Field("misses", stats.cache.misses)
      .Field("insertions", stats.cache.insertions)
      .Field("evictions", stats.cache.evictions)
      .Field("entries", stats.cache.entries)
      .Field("bytes", stats.cache.bytes)
      .Field("byte_budget", stats.cache.byte_budget)
      .EndObject();
  w.BeginArray("snapshots");
  for (const SnapshotRow& s : snapshots) {
    w.BeginObject()
        .Field("name", s.name)
        .Field("epoch", s.epoch)
        .Field("vertices", s.vertices)
        .Field("edges", s.edges)
        .Field("bytes", s.bytes)
        .EndObject();
  }
  w.EndArray().EndObject();
  return w.str();
}

std::string ServiceReport::ToMarkdown() const {
  std::string out = "# Service report\n\n";
  out += "workers=" + std::to_string(options.workers) +
         " queue_depth=" + std::to_string(options.queue_depth) +
         " cache_bytes=" + std::to_string(options.cache_bytes) + "\n\n";
  out += "## Requests\n\n| counter | value |\n|---|---|\n";
  auto row = [&](const char* name, uint64_t v) {
    out += std::string("| ") + name + " | " + std::to_string(v) + " |\n";
  };
  row("submitted", stats.submitted);
  row("admitted (new executions queued)", stats.admitted);
  row("rejected (queue full)", stats.rejected);
  row("shed (SLO degradation)", stats.shed);
  row("invalid", stats.invalid);
  row("cache hits", stats.cache_hits);
  row("dedup joins", stats.dedup_joined);
  row("executed", stats.executed);
  row("completed", stats.completed);
  row("failed", stats.failed + stats.exec_failed);
  row("expired (deadline)", stats.expired);
  row("queue peak", stats.queue_peak);
  out += "\n## Latency (microseconds)\n\n";
  out += "| series | count | p50 | p95 | p99 | max |\n|---|---|---|---|---|---|\n";
  auto hrow = [&](const char* name, const obs::HistogramSnapshot& h) {
    out += std::string("| ") + name + " | " + std::to_string(h.count) + " | " +
           std::to_string(h.p50) + " | " + std::to_string(h.p95) + " | " +
           std::to_string(h.p99) + " | " + std::to_string(h.max) + " |\n";
  };
  hrow("request latency", latency);
  hrow("queue wait", queue_wait);
  hrow("modeled run time", modeled);
  out += "\n## Query bills\n\n";
  out += "flights=" + std::to_string(bills.flights.entries) +
         " billed=" + std::to_string(bills.billed.entries) + " conserved=" +
         (BillsConserve(bills.flights, bills.billed) ? "yes" : "NO") + "\n\n";
  out += "| rank | request | path | share | canon modeled s | wire bytes | "
         "messages |\n|---|---|---|---|---|---|---|\n";
  for (size_t i = 0; i < top_bills.size(); ++i) {
    const QueryBill& b = top_bills[i];
    char canon[32];
    std::snprintf(canon, sizeof(canon), "%.6g", b.canon_modeled_seconds);
    out += "| " + std::to_string(i + 1) + " | " +
           std::to_string(b.request_id) + " | " + BillPathName(b.path) +
           " | " + std::to_string(b.share_count) + " | " + canon + " | " +
           std::to_string(b.wire_bytes) + " | " + std::to_string(b.messages) +
           " |\n";
  }
  out += "\n## Cache\n\n| hits | misses | insertions | evictions | entries | "
         "bytes | budget |\n|---|---|---|---|---|---|---|\n| " +
         std::to_string(stats.cache.hits) + " | " +
         std::to_string(stats.cache.misses) + " | " +
         std::to_string(stats.cache.insertions) + " | " +
         std::to_string(stats.cache.evictions) + " | " +
         std::to_string(stats.cache.entries) + " | " +
         std::to_string(stats.cache.bytes) + " | " +
         std::to_string(stats.cache.byte_budget) + " |\n";
  out += "\n## Snapshots\n\n| name | epoch | vertices | edges | bytes "
         "|\n|---|---|---|---|---|\n";
  for (const SnapshotRow& s : snapshots) {
    out += "| " + s.name + " | " + std::to_string(s.epoch) + " | " +
           std::to_string(s.vertices) + " | " + std::to_string(s.edges) +
           " | " + std::to_string(s.bytes) + " |\n";
  }
  return out;
}

}  // namespace maze::serve
