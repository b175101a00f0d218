// serve_mixed: a closed loop of kClients threads against one Service, each
// client waiting for its reply before sending the next request. The op
// sequence is seeded: requests draw Zipf-skewed over 24 execution keys, and
// every kRequestsPerBlock requests the snapshot is re-installed, which bumps the
// epoch so the cache goes cold and concurrent misses dedup onto one flight.
//
// Beside the loop, cold probes send PageRank and BFS to every engine through a
// Service without a result cache; they give run_<engine>_s for this workload.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "core/io.h"
#include "serve/service.h"
#include "trace.h"
#include "util/timer.h"

namespace perfbench {
namespace {

using maze::VertexId;
using maze::serve::QueryKind;
using maze::serve::Request;
using maze::serve::Response;
using maze::serve::Service;
using maze::serve::ServiceOptions;

constexpr int kClients = 4;
constexpr int kRequestsPerBlock = 250;  // Requests between re-installs.
constexpr int kBlocks = 16;             // ~4000 requests per sequence pass.
constexpr double kZipfExponent = 2.6;
constexpr int kPointVertices = 8;
constexpr int kTopK = 10;
constexpr const char* kSnapshot = "g";

struct Op {
  bool install = false;
  Request request;
};

// The 24 execution keys, hottest first. Sources index the four BFS sources.
struct KeySpec {
  const char* algo;
  const char* engine;
  int iterations;
  int source;
  int ranks;
};
constexpr KeySpec kKeys[] = {
    {"pagerank", "native", 5, 0, 1},  {"bfs", "native", 0, 0, 1},
    {"pagerank", "gmat", 5, 0, 1},    {"cc", "native", 0, 0, 1},
    {"pagerank", "native", 10, 0, 1}, {"bfs", "gmat", 0, 0, 1},
    {"pagerank", "matblas", 5, 0, 1}, {"bfs", "native", 0, 1, 1},
    {"pagerank", "vertexlab", 5, 0, 1}, {"pagerank", "native", 5, 0, 4},
    {"bfs", "matblas", 0, 0, 1},      {"pagerank", "gmat", 10, 0, 1},
    {"cc", "gmat", 0, 0, 1},          {"bfs", "native", 0, 2, 1},
    {"bfs", "gmat", 0, 1, 1},         {"pagerank", "matblas", 10, 0, 1},
    {"cc", "matblas", 0, 0, 1},       {"bfs", "native", 0, 3, 1},
    {"bfs", "gmat", 0, 2, 1},         {"bfs", "matblas", 0, 1, 1},
    {"bfs", "gmat", 0, 0, 4},         {"bfs", "gmat", 0, 3, 1},
    {"bfs", "matblas", 0, 2, 1},      {"bfs", "matblas", 0, 3, 1},
};
constexpr int kNumKeys = sizeof(kKeys) / sizeof(kKeys[0]);

// SplitMix64, kept in the benchmark (not util/prng.h) so that the op sequence
// a seed gives cannot change when the program's own PRNG does.
struct Rng {
  uint64_t state;
  uint64_t Next() {
    uint64_t z = (state += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  uint64_t NextBounded(uint64_t bound) { return Next() % bound; }
};

std::string RequestKey(const Request& r) {
  return std::to_string(static_cast<int>(r.kind)) + "/" + r.algo + "/" +
         r.engine + "/r" + std::to_string(r.ranks) + "/i" +
         std::to_string(r.iterations) + "/s" + std::to_string(r.source) +
         "/v" + std::to_string(r.vertex) + "/k" + std::to_string(r.k);
}

// The sequence's composition is fixed; the seed only orders it. Each key gets
// its Zipf share of the kBlocks * kRequestsPerBlock requests (largest
// remainder, at least one each). Its occurrences are spread evenly over the
// sequence, and each block is then shuffled. So every pass does the same work
// whatever the seed, and seeds differ in interleaving and graph only.
std::vector<Op> MakeOps(const Input& input, uint64_t seed) {
  const int total = kBlocks * kRequestsPerBlock;
  std::vector<double> share(kNumKeys);
  double share_sum = 0;
  for (int i = 0; i < kNumKeys; ++i) {
    share[i] = std::pow(i + 1, -kZipfExponent);
    share_sum += share[i];
  }
  std::vector<int> count(kNumKeys, 1);
  std::vector<std::pair<double, int>> remainders;
  int assigned = kNumKeys;
  for (int i = 0; i < kNumKeys; ++i) {
    double exact = (total - kNumKeys) * share[i] / share_sum;
    count[i] += static_cast<int>(exact);
    assigned += static_cast<int>(exact);
    remainders.emplace_back(-(exact - std::floor(exact)), i);
  }
  std::sort(remainders.begin(), remainders.end());
  for (int r = 0; assigned < total; ++r, ++assigned) {
    ++count[remainders[r].second];
  }

  // BFS sources: the four highest-degree vertices (the first is the batch
  // source). Point queries pick from seeded vertices.
  std::vector<uint64_t> degree(input.symmetric.num_vertices, 0);
  for (const maze::Edge& e : input.symmetric.edges) ++degree[e.src];
  std::vector<VertexId> by_degree(degree.size());
  for (VertexId v = 0; v < by_degree.size(); ++v) by_degree[v] = v;
  std::partial_sort(by_degree.begin(), by_degree.begin() + 4, by_degree.end(),
                    [&](VertexId a, VertexId b) {
                      return degree[a] != degree[b] ? degree[a] > degree[b]
                                                    : a < b;
                    });
  Rng rng{seed ^ 0x5EEDC0DE5EEDC0DEull};
  std::vector<VertexId> points(kPointVertices);
  for (VertexId& v : points) {
    v = static_cast<VertexId>(rng.NextBounded(input.directed.num_vertices));
  }

  // Occurrence j of key i sits at (j + offset_i) / count_i along the
  // sequence; golden-ratio offsets stagger the rare keys across blocks.
  std::vector<std::pair<double, Request>> placed;
  for (int i = 0; i < kNumKeys; ++i) {
    const KeySpec& spec = kKeys[i];
    double offset = std::fmod(0.6180339887498949 * (i + 1), 1.0);
    for (int j = 0; j < count[i]; ++j) {
      Request r;
      r.snapshot = kSnapshot;
      r.algo = spec.algo;
      r.engine = spec.engine;
      r.ranks = spec.ranks;
      r.iterations = r.algo == "pagerank" ? spec.iterations : 10;
      r.source = r.algo == "bfs" ? by_degree[spec.source] : 0;
      switch ((i + j) % 3) {
        case 0:
          r.kind = QueryKind::kRun;
          break;
        case 1:
          r.kind = QueryKind::kPoint;
          r.vertex = points[j % kPointVertices];
          break;
        default:
          r.kind = QueryKind::kTopK;
          r.k = kTopK;
          break;
      }
      placed.emplace_back((j + offset) / count[i], r);
    }
  }
  std::stable_sort(placed.begin(), placed.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });

  std::vector<Op> ops;
  for (int block = 0; block < kBlocks; ++block) {
    size_t begin = ops.size();
    for (int i = 0; i < kRequestsPerBlock; ++i) {
      Op op;
      op.request = placed[block * kRequestsPerBlock + i].second;
      ops.push_back(op);
    }
    for (size_t i = ops.size() - 1; i > begin; --i) {
      std::swap(ops[i], ops[begin + rng.NextBounded(i - begin + 1)]);
    }
    Op install;
    install.install = true;
    ops.push_back(install);
  }
  return ops;
}

// Whitespace-separated tokens agree exactly, or as numbers within the PageRank
// tolerance when `tolerant`. Sets *nondeterministic when the bytes differ but
// the values agree.
bool PayloadsAgree(const std::string& got, const std::string& want,
                   bool tolerant, bool* nondeterministic) {
  if (got == want) return true;
  if (!tolerant) return false;
  std::istringstream a(got);
  std::istringstream b(want);
  std::string x;
  std::string y;
  while (true) {
    bool more_a = static_cast<bool>(a >> x);
    bool more_b = static_cast<bool>(b >> y);
    if (more_a != more_b) return false;
    if (!more_a) break;
    if (x == y) continue;
    char* end_x = nullptr;
    char* end_y = nullptr;
    double vx = std::strtod(x.c_str(), &end_x);
    double vy = std::strtod(y.c_str(), &end_y);
    if (*end_x != '\0' || *end_y != '\0') return false;
    if (!(std::abs(vx - vy) <= kPageRankRelTol * std::abs(vy))) return false;
  }
  *nondeterministic = true;
  return true;
}

// Expected payload per distinct request, from a solo Service that sees one
// request at a time.
std::map<std::string, std::string> SoloPayloads(const std::vector<Op>& ops,
                                                const Input& input,
                                                Outcome* out) {
  Service solo(ServiceOptions{});
  solo.registry().Install(kSnapshot, input.directed);
  std::map<std::string, std::string> expected;
  for (const Op& op : ops) {
    if (op.install) continue;
    std::string key = RequestKey(op.request);
    if (expected.count(key) != 0) continue;
    Response r = solo.Call(op.request);
    if (!r.status.ok()) {
      out->Violation("solo " + key + ": " + r.status.ToString());
      continue;
    }
    expected[key] = r.payload;
  }
  return expected;
}

// Splits a miss's Service::Call span by the service's own timings: queue wait,
// then execution (or, for a dedup join, the wait on the flight it boarded).
void AddReportedSpans(const ScopedSpan& call, const Response& r,
                      const std::string& engine) {
  if (!r.status.ok() || r.cache_hit) return;
  call.AddReportedChild("serve.queue", "queue wait", 0, r.queue_seconds * 1e6);
  call.AddReportedChild(engine, "execute", r.queue_seconds * 1e6,
                        (r.latency_seconds - r.queue_seconds) * 1e6);
}

struct LoopResult {
  std::vector<double> latency_s;  // Every answered request.
  std::vector<double> hit_s;
  std::vector<double> miss_s;     // Fresh executions and dedup joins.
  std::vector<double> queue_s;    // Of misses.
  std::vector<double> install_s;
  double exec_s = 0;              // Fresh executions: latency minus queue.
  uint64_t requests = 0;
  uint64_t failed = 0;
  uint64_t nondeterministic = 0;
  uint64_t ops = 0;
  double wall_s = 0;
  maze::serve::ServiceStats stats;
  uint64_t final_epoch = 0;
};

// Runs the closed loop on a fresh Service until `budget_s` passes, or over
// exactly the first `fixed_ops` ops when that is > 0.
LoopResult RunLoop(const std::vector<Op>& ops, const Input& input,
                   const std::map<std::string, std::string>& expected,
                   double budget_s, uint64_t fixed_ops, Outcome* out) {
  Service service(ServiceOptions{});
  service.registry().Install(kSnapshot, input.directed);
  std::atomic<uint64_t> next{0};
  std::mutex mu;
  LoopResult result;

  auto client = [&](int id) {
    LoopResult local;
    std::vector<std::string> violations;
    ScopedSpan client_span("bench", "client " + std::to_string(id));
    maze::Timer since_start;
    while (true) {
      if (fixed_ops == 0 && since_start.Seconds() >= budget_s) break;
      uint64_t i = next.fetch_add(1);
      if (fixed_ops > 0 && i >= fixed_ops) break;
      const Op& op = ops[i % ops.size()];
      ++local.ops;
      if (op.install) {
        maze::Timer t;
        ScopedSpan s("serve", "SnapshotRegistry::Install");
        service.registry().Install(kSnapshot, input.directed);
        local.install_s.push_back(t.Seconds());
        continue;
      }
      maze::Timer t;
      Response r;
      {
        ScopedSpan s("serve", "Service::Call");
        r = service.Call(op.request);
        s.set_request_id(r.request_id);
        AddReportedSpans(s, r, op.request.engine);
      }
      double latency = t.Seconds();
      ++local.requests;
      if (!r.status.ok()) {
        ++local.failed;
        if (violations.size() < 4) {
          violations.push_back("request failed: " + r.status.ToString());
        }
        continue;
      }
      local.latency_s.push_back(latency);
      if (r.cache_hit) {
        local.hit_s.push_back(latency);
      } else {
        local.miss_s.push_back(latency);
        local.queue_s.push_back(r.queue_seconds);
        if (!r.deduped) local.exec_s += r.latency_seconds - r.queue_seconds;
      }
      std::string key = RequestKey(op.request);
      auto it = expected.find(key);
      bool nondeterministic = false;
      if (it == expected.end() ||
          !PayloadsAgree(r.payload, it->second,
                         op.request.algo == "pagerank", &nondeterministic)) {
        ++local.failed;
        if (violations.size() < 4) {
          violations.push_back("payload of " + key +
                               " differs from the solo service's");
        }
      }
      local.nondeterministic += nondeterministic;
    }
    std::lock_guard<std::mutex> lock(mu);
    auto append = [](std::vector<double>& to, const std::vector<double>& from) {
      to.insert(to.end(), from.begin(), from.end());
    };
    append(result.latency_s, local.latency_s);
    append(result.hit_s, local.hit_s);
    append(result.miss_s, local.miss_s);
    append(result.queue_s, local.queue_s);
    append(result.install_s, local.install_s);
    result.exec_s += local.exec_s;
    result.requests += local.requests;
    result.failed += local.failed;
    result.nondeterministic += local.nondeterministic;
    result.ops += local.ops;
    for (const std::string& v : violations) out->Violation(v);
  };

  maze::Timer wall;
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) clients.emplace_back(client, c);
  for (std::thread& t : clients) t.join();
  result.wall_s = wall.Seconds();
  service.Drain();
  result.stats = service.Stats();
  auto snap = service.registry().Get(kSnapshot);
  result.final_epoch = snap.ok() ? snap.value()->epoch : 0;

  out->attempted += result.ops;
  out->failed += result.failed;
  // Non-vacuity: the loop must have exercised every serve path it exists for.
  if (result.hit_s.empty()) out->Violation("serve loop saw no cache hits");
  if (result.stats.executed == 0) out->Violation("serve loop executed nothing");
  if (result.stats.dedup_joined == 0) {
    out->Violation("serve loop saw no dedup join");
  }
  if (result.install_s.empty() || result.final_epoch < 2) {
    out->Violation("serve loop saw no epoch bump");
  }
  return result;
}

// Parses the per-vertex values of a run payload (header line, then one value
// per line).
std::vector<double> PayloadValues(const std::string& payload) {
  std::vector<double> values;
  size_t pos = payload.find('\n');
  while (pos != std::string::npos && pos + 1 < payload.size()) {
    values.push_back(std::strtod(payload.c_str() + pos + 1, nullptr));
    pos = payload.find('\n', pos + 1);
  }
  return values;
}

struct Probe {
  std::map<std::string, std::vector<double>> job_s;  // Per engine.
  std::map<std::string, EngineLayerSamples> layer;
  // Per engine: the first PageRank and BFS payloads, to count repetitions
  // whose bytes differ.
  std::map<std::string, std::pair<std::string, std::string>> first;
  uint64_t nondeterministic_jobs = 0;
};

// Cold PageRank + BFS on every engine through a cache-less Service, checked
// against the serial references: whole rounds until `budget_s` has passed,
// at least `min_rounds`. Samples accumulate into *probe.
void RunProbes(const Input& input, const References& refs, double budget_s,
               int min_rounds, Probe* probe, Outcome* out) {
  ServiceOptions options;
  options.cache_bytes = 0;  // Every call executes.
  Service service(options);
  service.registry().Install(kSnapshot, input.directed);
  std::vector<double> want_bfs(refs.bfs.size());
  for (size_t v = 0; v < refs.bfs.size(); ++v) {
    want_bfs[v] = refs.bfs[v] == maze::kInfiniteDistance ? -1.0 : refs.bfs[v];
  }
  uint64_t request_id = 0;
  maze::Timer elapsed;
  for (int round = 0; round < min_rounds || elapsed.Seconds() < budget_s;
       ++round) {
    for (maze::bench::EngineKind kind : maze::bench::AllEngines()) {
      const std::string e = maze::bench::EngineName(kind);
      ScopedSpan job("bench", "probe " + e, ++request_id);
      Request pr;
      pr.snapshot = kSnapshot;
      pr.algo = "pagerank";
      pr.engine = e;
      pr.iterations = kPageRankIterations;
      Request bfs = pr;
      bfs.algo = "bfs";
      bfs.source = input.bfs_source;
      Response answers[2];
      double wall[2];
      for (int i = 0; i < 2; ++i) {
        maze::Timer t;
        ScopedSpan s("serve", "Service::Call");
        answers[i] = service.Call(i == 0 ? pr : bfs);
        s.set_request_id(answers[i].request_id);
        AddReportedSpans(s, answers[i], e);
        wall[i] = t.Seconds();
      }
      out->attempted += 2;
      bool ok = answers[0].status.ok() && answers[1].status.ok() &&
                PageRankMatches(PayloadValues(answers[0].payload),
                                refs.pagerank) &&
                PayloadValues(answers[1].payload) == want_bfs;
      if (!ok) {
        ++out->failed;
        out->Violation("cold probe on " + e + " disagrees with the reference");
        continue;
      }
      auto [it, inserted] = probe->first.try_emplace(
          e, std::make_pair(answers[0].payload, answers[1].payload));
      if (!inserted && (it->second.first != answers[0].payload ||
                        it->second.second != answers[1].payload)) {
        ++probe->nondeterministic_jobs;
      }
      probe->job_s[e].push_back(wall[0] + wall[1]);
      EngineLayerSamples& l = probe->layer[e];
      // A cache-less service runs every call fresh, so each bill carries its
      // whole flight.
      const maze::serve::FlightCost& pb = *answers[0].bill->flight;
      const maze::serve::FlightCost& bb = *answers[1].bill->flight;
      double compute = pb.compute_seconds + bb.compute_seconds;
      l.pagerank_s.push_back(wall[0]);
      l.bfs_s.push_back(wall[1]);
      l.compute_s.push_back(compute);
      l.residual_s.push_back(wall[0] + wall[1] - compute);
      l.mem_peak_bytes = std::max({l.mem_peak_bytes, pb.peak_bytes, bb.peak_bytes});
      l.wire_bytes = pb.wire_bytes + bb.wire_bytes;
      l.messages = pb.messages + bb.messages;
    }
  }
}

}  // namespace

void RunServe(const Args& args, Outcome* out) {
  // Set-up as a service operator pays it: read the file, install a snapshot
  // (dedup, symmetrize and orient inside Install).
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    maze::Timer t;
    auto loaded = maze::ReadEdgeListBinary(args.input);
    if (!loaded.ok()) {
      out->Violation("input read failed: " + loaded.status().ToString());
      return;
    }
    Service service(ServiceOptions{});
    service.registry().Install(kSnapshot, std::move(loaded).value());
    setup_s.push_back(t.Seconds());
  }

  Input input = LoadInput(args.input);
  References refs = ComputeReferences(input, out);
  std::vector<Op> ops = MakeOps(input, args.seed);
  std::map<std::string, std::string> expected = SoloPayloads(ops, input, out);

  if (!args.trace) {
    // Probes run before and after the loop, so their samples span the whole
    // run and host drift within it averages out; the loop's metrics settle
    // sooner than the probes' per-engine medians, so it gets the smaller share.
    Probe probe;
    RunProbes(input, refs, args.seconds * 0.35, 2, &probe, out);
    LoopResult loop = RunLoop(ops, input, expected, args.seconds * 0.3, 0, out);
    RunProbes(input, refs, args.seconds * 0.35, 2, &probe, out);
    Metrics& m = out->metrics;
    m.Set("setup_s", Median(setup_s));
    for (const auto& [engine, samples] : probe.job_s) {
      m.Set("run_" + engine + "_s", Median(samples));
    }
    SetRequestMetrics(loop.latency_s, loop.wall_s, out);
    out->info.emplace_back("hit_rate",
                           std::to_string(static_cast<double>(loop.hit_s.size()) /
                                          loop.requests));
    out->info.emplace_back("nondeterministic_payloads",
                           std::to_string(loop.nondeterministic));
    return;
  }

  // Traced run: an untraced loop, then a traced loop over the same ops.
  LoopResult plain = RunLoop(ops, input, expected, args.seconds / 4, 0, out);
  SetTracing(true);
  LoopResult traced = RunLoop(ops, input, expected, 0, plain.ops, out);
  Probe probe;
  RunProbes(input, refs, args.seconds / 4, 3, &probe, out);
  MeasureCoreLayer(args, input, out);
  SetTracing(false);

  for (const auto& [engine, samples] : probe.layer) {
    SetEngineLayer(engine, samples, out);
  }
  Metrics& m = out->metrics;
  const maze::serve::ServiceStats& st = traced.stats;
  double completed = static_cast<double>(traced.latency_s.size());
  m.Set("engine.nondeterministic_jobs",
        static_cast<double>(probe.nondeterministic_jobs));
  m.Set("serve.requests", static_cast<double>(traced.requests));
  m.Set("serve.hit_p50_us", Percentile(traced.hit_s, 0.50) * 1e6);
  m.Set("serve.hit_p99_us", Percentile(traced.hit_s, 0.99) * 1e6);
  m.Set("serve.miss_p50_ms", Percentile(traced.miss_s, 0.50) * 1e3);
  m.Set("serve.miss_p99_ms", Percentile(traced.miss_s, 0.99) * 1e3);
  m.Set("serve.queue_wait_p99_ms", Percentile(traced.queue_s, 0.99) * 1e3);
  m.Set("serve.exec_s", traced.exec_s);
  m.Set("serve.install_s", Median(traced.install_s));
  m.Set("serve.hit_rate", static_cast<double>(traced.hit_s.size()) / completed);
  m.Set("serve.dedup_rate", static_cast<double>(st.dedup_joined) / completed);
  m.Set("serve.executions", static_cast<double>(st.executed));
  m.Set("serve.rejected", static_cast<double>(st.rejected));
  m.Set("serve.nondeterministic_payloads",
        static_cast<double>(plain.nondeterministic + traced.nondeterministic));
  m.Set("obs.overhead_ratio", traced.wall_s / plain.wall_s);
  out->info.emplace_back("requests", std::to_string(traced.requests));
}

}  // namespace perfbench
