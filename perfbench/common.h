// Shared pieces of the benchmark program: arguments, the metric catalogue, the
// input and its references, correctness checks, and the traced core-layer
// probe. The workloads themselves live in batch.cc and serve.cc.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "bench_support/runner.h"
#include "core/edge_list.h"
#include "core/types.h"

namespace perfbench {

struct Args {
  std::string workload;
  std::string input;    // Binary edge-list file made by perfbench_gen.
  std::string out_dir;  // Result record, trace files.
  std::string src_digest;
  uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
};

constexpr int kPageRankIterations = 5;
constexpr double kJump = 0.3;
// PageRank agreement with the serial reference, relative per value.
constexpr double kPageRankRelTol = 1e-9;
// Repetitions of each set-up step; setup_s is their median.
constexpr int kSetupReps = 5;

// Metrics in print order. End-to-end metrics start as NaN and must all be set
// by the workload; per-layer metrics start at 0, which reads "this layer is not
// exercised on this workload".
class Metrics {
 public:
  static Metrics EndToEnd();
  static Metrics PerLayer();

  void Set(const std::string& name, double value);
  // Names still NaN (never set).
  std::vector<std::string> Unset() const;
  std::string ToJson() const;

 private:
  struct Row {
    std::string name;
    std::string unit;
    double value;
  };
  void Add(const std::string& name, const std::string& unit, double initial);
  std::vector<Row> rows_;
};

// What one workload run produced.
struct Outcome {
  explicit Outcome(bool trace)
      : metrics(trace ? Metrics::PerLayer() : Metrics::EndToEnd()) {}

  // Records a correctness violation; the run exits non-zero.
  void Violation(const std::string& what);

  bool correct = true;
  uint64_t attempted = 0;
  // Identifies the input the numbers came from (set by ComputeReferences).
  uint64_t input_fingerprint = 0;
  uint64_t input_vertices = 0;
  uint64_t input_edges = 0;
  maze::VertexId bfs_source = 0;
  uint64_t failed = 0;
  Metrics metrics;
  std::vector<std::string> violations;  // First few, for the report.
  std::vector<std::pair<std::string, std::string>> info;  // Extra report rows.
};

double Median(std::vector<double> v);
// Nearest-rank percentile, q in [0, 1]; 0 for an empty sample.
double Percentile(std::vector<double> v, double q);
// The highest quantile, up to 0.99, that leaves at least ten of `n` samples
// beyond it: the tail a sample of this size can report.
double TailQuantile(size_t n);
// Sets req_p50_ms, req_tail_ms and req_per_s from request latencies and the
// wall time they were measured over, with sample count and quantile in info.
void SetRequestMetrics(const std::vector<double>& latency_s, double wall_s,
                       Outcome* out);
double PeakRssMib();

// The loaded input: the deduplicated directed list the file holds and its
// symmetrized view, plus the BFS source every workload uses.
struct Input {
  maze::EdgeList directed;
  maze::EdgeList symmetric;
  maze::VertexId bfs_source = 0;  // Highest degree, lowest id on ties.
  uint64_t fingerprint = 0;       // FNV-1a over vertex count and edges.
};

// Reads the input file once, untimed, and derives the views.
Input LoadInput(const std::string& path);

// Serial reference answers for the jobs every workload runs.
struct References {
  std::vector<double> pagerank;
  std::vector<uint32_t> bfs;
  uint64_t bfs_reached = 0;
};
References ComputeReferences(const Input& input, Outcome* out);

bool PageRankMatches(const std::vector<double>& got,
                     const std::vector<double>& want);

// Engine configuration with the fault plan pinned off, whatever the
// environment says.
maze::bench::RunConfig BaseConfig(int ranks, bool trace);

// Turns on (or off) everything a traced run records: the program's obs spans
// and resource tracking, and the benchmark's own span log.
void SetTracing(bool on);

// Times the core layer's public calls (read, symmetrize, both CSR builds)
// under spans and sets the core.* per-layer metrics.
void MeasureCoreLayer(const Args& args, const Input& input, Outcome* out);

// Fills `<engine>.*` per-layer metrics from per-job samples.
struct EngineLayerSamples {
  std::vector<double> pagerank_s;
  std::vector<double> bfs_s;
  std::vector<double> compute_s;   // Per job (PageRank + BFS).
  std::vector<double> residual_s;  // Per job: wall minus compute.
  uint64_t mem_peak_bytes = 0;
  uint64_t wire_bytes = 0;  // Per job.
  uint64_t messages = 0;    // Per job.
  uint64_t steps = 0;       // Per job.
};
void SetEngineLayer(const std::string& engine, const EngineLayerSamples& s,
                    Outcome* out);

void RunBatch(const Args& args, int ranks, Outcome* out);
void RunServe(const Args& args, Outcome* out);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
