#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

#include "core/graph.h"
#include "core/io.h"
#include "native/reference.h"
#include "obs/obs.h"
#include "obs/resource.h"
#include "trace.h"
#include "util/timer.h"

namespace perfbench {

using maze::EdgeList;
using maze::Graph;
using maze::GraphDirections;
using maze::VertexId;

namespace {

// Engines in the order the metrics list them.
constexpr const char* kEngineOrder[] = {"native",   "matblas",  "gmat",
                                        "vertexlab", "bspgraph", "datalite",
                                        "taskflow"};

}  // namespace

void Metrics::Add(const std::string& name, const std::string& unit,
                  double initial) {
  rows_.push_back(Row{name, unit, initial});
}

Metrics Metrics::EndToEnd() {
  const double unset = std::numeric_limits<double>::quiet_NaN();
  Metrics m;
  m.Add("setup_s", "s", unset);
  for (const char* e : kEngineOrder) {
    m.Add(std::string("run_") + e + "_s", "s", unset);
  }
  m.Add("req_p50_ms", "ms", unset);
  m.Add("req_tail_ms", "ms", unset);
  m.Add("req_per_s", "1/s", unset);
  m.Add("peak_rss_mib", "MiB", unset);
  return m;
}

Metrics Metrics::PerLayer() {
  Metrics m;
  m.Add("core.read_s", "s", 0);
  m.Add("core.symmetrize_s", "s", 0);
  m.Add("core.csr_out_s", "s", 0);
  m.Add("core.csr_both_s", "s", 0);
  m.Add("core.input_edges", "count", 0);
  for (const char* e : kEngineOrder) {
    std::string p = e;
    m.Add(p + ".pagerank_s", "s", 0);
    m.Add(p + ".bfs_s", "s", 0);
    m.Add(p + ".compute_s", "s", 0);
    m.Add(p + ".residual_s", "s", 0);
    m.Add(p + ".mem_peak_bytes", "bytes", 0);
    m.Add(p + ".wire_bytes", "bytes", 0);
    m.Add(p + ".messages", "count", 0);
    m.Add(p + ".steps", "count", 0);
  }
  m.Add("engine.nondeterministic_jobs", "count", 0);
  m.Add("serve.requests", "count", 0);
  m.Add("serve.hit_p50_us", "us", 0);
  m.Add("serve.hit_p99_us", "us", 0);
  m.Add("serve.miss_p50_ms", "ms", 0);
  m.Add("serve.miss_p99_ms", "ms", 0);
  m.Add("serve.queue_wait_p99_ms", "ms", 0);
  m.Add("serve.exec_s", "s", 0);
  m.Add("serve.install_s", "s", 0);
  m.Add("serve.hit_rate", "ratio", 0);
  m.Add("serve.dedup_rate", "ratio", 0);
  m.Add("serve.executions", "count", 0);
  m.Add("serve.rejected", "count", 0);
  m.Add("serve.nondeterministic_payloads", "count", 0);
  m.Add("obs.overhead_ratio", "ratio", 0);
  return m;
}

void Metrics::Set(const std::string& name, double value) {
  for (Row& r : rows_) {
    if (r.name == name) {
      r.value = value;
      return;
    }
  }
  std::fprintf(stderr, "perfbench: internal error: unknown metric %s\n",
               name.c_str());
  std::abort();
}

std::vector<std::string> Metrics::Unset() const {
  std::vector<std::string> names;
  for (const Row& r : rows_) {
    if (std::isnan(r.value)) names.push_back(r.name);
  }
  return names;
}

std::string Metrics::ToJson() const {
  std::string out = "{";
  char buf[192];
  for (size_t i = 0; i < rows_.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", rows_[i].name.c_str(), rows_[i].value,
                  rows_[i].unit.c_str());
    out += buf;
  }
  return out + "}";
}

void Outcome::Violation(const std::string& what) {
  correct = false;
  if (violations.size() < 8) violations.push_back(what);
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + mid, v.end());
  double hi = v[mid];
  if (v.size() % 2 == 1) return hi;
  double lo = *std::max_element(v.begin(), v.begin() + mid);
  return (lo + hi) / 2;
}

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

double TailQuantile(size_t n) {
  if (n == 0) return 0.5;
  return std::clamp(1.0 - 10.0 / static_cast<double>(n), 0.5, 0.99);
}

void SetRequestMetrics(const std::vector<double>& latency_s, double wall_s,
                       Outcome* out) {
  double q = TailQuantile(latency_s.size());
  out->metrics.Set("req_p50_ms", Percentile(latency_s, 0.50) * 1e3);
  out->metrics.Set("req_tail_ms", Percentile(latency_s, q) * 1e3);
  out->metrics.Set("req_per_s", static_cast<double>(latency_s.size()) / wall_s);
  out->info.emplace_back("requests_timed", std::to_string(latency_s.size()));
  out->info.emplace_back("tail_quantile", std::to_string(q));
}

double PeakRssMib() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

Input LoadInput(const std::string& path) {
  auto loaded = maze::ReadEdgeListBinary(path);
  if (!loaded.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", loaded.status().ToString().c_str());
    std::exit(1);
  }
  Input in;
  in.directed = std::move(loaded).value();
  in.symmetric = in.directed;
  in.symmetric.Symmetrize();

  uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      h ^= (word >> (8 * i)) & 0xff;
      h *= 0x100000001b3ull;
    }
  };
  mix(in.directed.num_vertices);
  for (const maze::Edge& e : in.directed.edges) {
    mix((static_cast<uint64_t>(e.src) << 32) | e.dst);
  }
  in.fingerprint = h;

  std::vector<uint64_t> degree(in.symmetric.num_vertices, 0);
  for (const maze::Edge& e : in.symmetric.edges) ++degree[e.src];
  in.bfs_source = static_cast<VertexId>(
      std::max_element(degree.begin(), degree.end()) - degree.begin());
  return in;
}

References ComputeReferences(const Input& input, Outcome* out) {
  out->input_fingerprint = input.fingerprint;
  out->input_vertices = input.directed.num_vertices;
  out->input_edges = input.directed.size();
  out->bfs_source = input.bfs_source;
  References refs;
  Graph both = Graph::FromEdges(input.directed, GraphDirections::kBoth);
  refs.pagerank =
      maze::native::ReferencePageRank(both, kPageRankIterations, kJump);
  Graph sym = Graph::FromEdges(input.symmetric, GraphDirections::kOutOnly);
  refs.bfs = maze::native::ReferenceBfs(sym, input.bfs_source);
  for (uint32_t d : refs.bfs) refs.bfs_reached += d != maze::kInfiniteDistance;
  // Non-vacuity: a BFS that stops near its source would let a broken engine
  // agree with the reference on almost nothing.
  if (refs.bfs_reached * 4 < input.directed.num_vertices) {
    out->Violation("reference BFS reaches only " +
                   std::to_string(refs.bfs_reached) + " vertices");
  }
  return refs;
}

bool PageRankMatches(const std::vector<double>& got,
                     const std::vector<double>& want) {
  if (got.size() != want.size()) return false;
  for (size_t i = 0; i < got.size(); ++i) {
    if (!(std::abs(got[i] - want[i]) <= kPageRankRelTol * std::abs(want[i]))) {
      return false;
    }
  }
  return true;
}

maze::bench::RunConfig BaseConfig(int ranks, bool trace) {
  maze::bench::RunConfig config;
  config.num_ranks = ranks;
  config.trace = trace;
  config.faults = maze::rt::fault::FaultSpec{};  // Disabled.
  return config;
}

void SetTracing(bool on) {
  if (on) maze::obs::ResetAll();
  maze::obs::SetEnabled(on);
  maze::obs::SetResourceEnabled(on);
  Spans().SetEnabled(on);
}

void MeasureCoreLayer(const Args& args, const Input& input, Outcome* out) {
  std::vector<double> read_s, sym_s, out_s, both_s;
  for (int rep = 0; rep < 3; ++rep) {
    ScopedSpan round("bench", "core_probe");
    maze::Timer t;
    {
      ScopedSpan s("core", "ReadEdgeListBinary");
      auto loaded = maze::ReadEdgeListBinary(args.input);
      if (!loaded.ok()) out->Violation("re-read of the input failed");
    }
    read_s.push_back(t.Seconds());
    EdgeList copy = input.directed;
    t.Start();
    {
      ScopedSpan s("core", "EdgeList::Symmetrize");
      copy.Symmetrize();
    }
    sym_s.push_back(t.Seconds());
    t.Start();
    {
      ScopedSpan s("core", "Graph::FromEdges(out)");
      Graph g = Graph::FromEdges(input.symmetric, GraphDirections::kOutOnly);
    }
    out_s.push_back(t.Seconds());
    t.Start();
    {
      ScopedSpan s("core", "Graph::FromEdges(both)");
      Graph g = Graph::FromEdges(input.directed, GraphDirections::kBoth);
    }
    both_s.push_back(t.Seconds());
  }
  out->metrics.Set("core.read_s", Median(read_s));
  out->metrics.Set("core.symmetrize_s", Median(sym_s));
  out->metrics.Set("core.csr_out_s", Median(out_s));
  out->metrics.Set("core.csr_both_s", Median(both_s));
  out->metrics.Set("core.input_edges",
                   static_cast<double>(input.directed.size()));
}

void SetEngineLayer(const std::string& engine, const EngineLayerSamples& s,
                    Outcome* out) {
  Metrics& m = out->metrics;
  m.Set(engine + ".pagerank_s", Median(s.pagerank_s));
  m.Set(engine + ".bfs_s", Median(s.bfs_s));
  m.Set(engine + ".compute_s", Median(s.compute_s));
  m.Set(engine + ".residual_s", Median(s.residual_s));
  m.Set(engine + ".mem_peak_bytes", static_cast<double>(s.mem_peak_bytes));
  m.Set(engine + ".wire_bytes", static_cast<double>(s.wire_bytes));
  m.Set(engine + ".messages", static_cast<double>(s.messages));
  m.Set(engine + ".steps", static_cast<double>(s.steps));
}

}  // namespace perfbench
