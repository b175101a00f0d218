// Reproduces Figure 6 (a-d): CPU utilization, peak achieved network bandwidth,
// memory footprint, and network bytes sent per node for 4-node runs of every
// algorithm, normalized as in the paper's caption. Also prints the Section 5.4
// sanity analysis: slowdown predicted from (bytes sent / peak BW) vs measured,
// the unified resource report, and self-checks of the paper's qualitative
// ordering (exit 1 on violation): bspgraph's footprint exceeds vertexlab's and
// native's, every utilization fraction lands in [0, 1], and the per-(step,
// rank) bandwidth buckets partition each run's wire totals exactly.
#include "bench/bench_common.h"

#include "obs/resource.h"
#include "rt/metrics.h"
#include "util/table.h"

namespace maze::bench {
namespace {

void PredictVsMeasured(const std::vector<Measurement>& rows) {
  // §5.4: "network bytes sent / peak network bandwidth" predicts the framework
  // slowdowns for network-bound PageRank within ~2.5x.
  const Measurement* native = nullptr;
  for (const Measurement& m : rows) {
    if (m.engine == EngineKind::kNative) native = &m;
  }
  if (native == nullptr) return;
  double native_wire = native->metrics.BytesPerRank(native->ranks) /
                       std::max(1.0, native->metrics.peak_network_bw);
  TextTable table(
      "Section 5.4: slowdown predicted from network metrics vs measured "
      "(PageRank, 4 nodes)");
  table.SetHeader({"Engine", "Predicted", "Measured", "Ratio"});
  for (const Measurement& m : rows) {
    if (m.engine == EngineKind::kNative) continue;
    double wire = m.metrics.BytesPerRank(m.ranks) /
                  std::max(1.0, m.metrics.peak_network_bw);
    double predicted = wire / std::max(1e-12, native_wire);
    double measured = m.seconds / std::max(1e-12, native->seconds);
    table.AddRow({EngineName(m.engine), FormatDouble(predicted, 1) + "x",
                  FormatDouble(measured, 1) + "x",
                  FormatDouble(measured / std::max(1e-12, predicted), 2)});
  }
  std::printf("%s\n", table.Render().c_str());
}

// Finds an algorithm panel's row for `engine` (null when absent).
const Measurement* RowFor(const std::vector<Measurement>& rows,
                          EngineKind engine) {
  for (const Measurement& m : rows) {
    if (m.engine == engine) return &m;
  }
  return nullptr;
}

// Self-checks of the quantities behind Figure 6. Appends one line per
// violation so a CI run fails loudly instead of shipping bogus panels.
void CheckInvariants(const std::vector<Measurement>& all,
                     const std::vector<Measurement>& pr,
                     std::vector<std::string>* violations) {
  // (1) The Giraph-like engine's boxed, fully buffered messaging dominates the
  // footprint ordering on PageRank (§6.1.3 / Figure 6).
  const Measurement* bsp = RowFor(pr, EngineKind::kBspgraph);
  const Measurement* vertex = RowFor(pr, EngineKind::kVertexlab);
  const Measurement* native = RowFor(pr, EngineKind::kNative);
  if (bsp == nullptr || vertex == nullptr || native == nullptr) {
    violations->push_back("pagerank panel is missing an engine row");
  } else {
    if (bsp->metrics.memory_peak_bytes <= vertex->metrics.memory_peak_bytes) {
      violations->push_back("bspgraph pagerank footprint <= vertexlab");
    }
    if (bsp->metrics.memory_peak_bytes <= native->metrics.memory_peak_bytes) {
      violations->push_back("bspgraph pagerank footprint <= native");
    }
  }
  for (const Measurement& m : all) {
    obs::ResourceRow row = ResourceRowFrom(m);
    const std::string cell =
        std::string(EngineName(m.engine)) + "/" + m.algorithm;
    // (2) Every utilization fraction is a fraction.
    auto in_unit = [](double v) { return v >= 0.0 && v <= 1.0 + 1e-9; };
    if (!in_unit(row.cpu_utilization)) {
      violations->push_back(cell + ": cpu_utilization outside [0, 1]");
    }
    if (!in_unit(row.peak_bw_utilization)) {
      violations->push_back(cell + ": peak_bw_utilization outside [0, 1]");
    }
    if (!in_unit(row.avg_bw_utilization)) {
      violations->push_back(cell + ": avg_bw_utilization outside [0, 1]");
    }
    // (3) The utilization timeline partitions the run's wire totals: per-rank
    // bucket bytes sum back to exactly the bytes the clock charged, and every
    // bucket's fractions are fractions.
    uint64_t bucket_bytes = 0;
    for (const rt::UtilizationBucket& b : rt::UtilizationTimeline(m.metrics)) {
      bucket_bytes += b.bytes;
      if (!in_unit(b.cpu_busy) || !in_unit(b.bw_utilization)) {
        violations->push_back(cell + ": timeline bucket fraction outside "
                                     "[0, 1]");
        break;
      }
    }
    if (bucket_bytes != m.metrics.bytes_sent) {
      violations->push_back(
          cell + ": timeline buckets sum to " + std::to_string(bucket_bytes) +
          " bytes, clock charged " + std::to_string(m.metrics.bytes_sent));
    }
  }
}

int Run() {
  Banner("Figure 6: system-level metrics on 4-node runs");
  int adjust = ScaleAdjust();
  Fig6Normalization norm;

  EdgeList directed = LoadGraphDataset("rmat", adjust);
  EdgeList undirected = directed;
  undirected.Symmetrize();
  EdgeList oriented = TriangleDataset("rmat", adjust);
  BipartiteGraph ratings = LoadRatingsDataset("netflix", adjust).ToGraph();

  // Traced runs: the per-step timeline feeds the utilization buckets, the
  // bucket-sum self-check, and the report's step-time percentiles.
  std::vector<Measurement> pr;
  std::vector<Measurement> bfs;
  std::vector<Measurement> cf;
  std::vector<Measurement> tc;
  for (EngineKind engine : MultiNodeEngines()) {
    pr.push_back(MeasurePageRank(engine, directed, "rmat", 4,
                                 /*iterations=*/5, /*trace=*/true));
    bfs.push_back(MeasureBfs(engine, undirected, "rmat", 4, /*trace=*/true));
    cf.push_back(MeasureCf(engine, ratings, "netflix", 4, /*iterations=*/2,
                           /*k=*/16, /*trace=*/true));
    tc.push_back(MeasureTriangles(engine, oriented, "rmat", 4,
                                  /*bsp_phases_for_tc=*/100, /*trace=*/true));
  }

  std::printf("%s\n", RenderSystemMetrics("Figure 6(a): PageRank", pr, norm)
                          .c_str());
  std::printf("%s\n", RenderSystemMetrics("Figure 6(b): BFS", bfs, norm)
                          .c_str());
  std::printf("%s\n",
              RenderSystemMetrics("Figure 6(c): Collaborative Filtering", cf,
                                  norm)
                  .c_str());
  std::printf("%s\n",
              RenderSystemMetrics("Figure 6(d): Triangle Counting", tc, norm)
                  .c_str());
  PredictVsMeasured(pr);

  std::vector<Measurement> all;
  for (const auto* panel : {&pr, &bfs, &cf, &tc}) {
    all.insert(all.end(), panel->begin(), panel->end());
  }
  obs::ResourceReport report;
  for (const Measurement& m : all) report.Add(ResourceRowFrom(m));
  std::printf("%s", report.ToMarkdown().c_str());

  BenchArtifact artifact("BENCH_pr3.json", /*bench=*/"");
  artifact.json().Key("resource").Raw(report.ToJson());
  std::vector<std::string> violations;
  CheckInvariants(all, pr, &violations);
  for (const std::string& v : violations) artifact.Fail("%s", v.c_str());
  std::printf(
      "Paper shape: native/matblas reach the highest peak BW (MPI class),\n"
      "datalite ~2x vertexlab's socket rate, bspgraph lowest BW and CPU\n"
      "utilization, and bspgraph the largest memory and byte volumes.\n");
  return artifact.Finish();
}

}  // namespace
}  // namespace maze::bench

int main() { return maze::bench::Run(); }
