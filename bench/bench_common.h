// Shared helpers for the table/figure reproduction binaries.
//
// Every bench accepts the MAZE_SCALE_ADJUST environment variable (default -2):
// it shifts the RMAT scale of every dataset stand-in, so `MAZE_SCALE_ADJUST=0`
// approaches the repository's full stand-in sizes and more negative values give
// quick smoke runs. Benches print the same rows/series as the paper's tables
// and figures; absolute times are this machine's, shapes are what reproduce.
#ifndef MAZE_BENCH_BENCH_COMMON_H_
#define MAZE_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench_support/artifact.h"
#include "bench_support/report.h"
#include "bench_support/runner.h"
#include "core/datasets.h"
#include "core/ratings_gen.h"
#include "core/rmat.h"
#include "obs/export.h"
#include "obs/obs.h"
#include "rt/sim_clock.h"

namespace maze::bench {

// Prints a bench banner tying the binary to its paper artifact, and configures
// the modeled node width: benches charge compute as if each simulated rank were
// one of the paper's 48-hardware-thread Xeon nodes (MAZE_NODE_THREADS
// overrides), so the compute:network balance matches the modeled platform
// whose fabric speeds the CommModels describe.
inline void Banner(const std::string& what) {
  const char* node_env = std::getenv("MAZE_NODE_THREADS");
  rt::SetModeledNodeThreads(node_env != nullptr ? std::atoi(node_env) : 48);
  // MAZE_TRACE=<path> records the whole bench run as a Chrome trace written at
  // exit (load in https://ui.perfetto.dev).
  if (const char* trace_env = std::getenv("MAZE_TRACE");
      trace_env != nullptr && trace_env[0] != '\0') {
    static std::string trace_path;  // atexit handler needs stable storage.
    trace_path = trace_env;
    obs::ResetAll();
    obs::SetEnabled(true);
    std::atexit([] {
      obs::SetEnabled(false);
      Status s = obs::WriteChromeTrace(trace_path);
      if (s.ok()) {
        std::printf("trace: wrote %s\n", trace_path.c_str());
      } else {
        std::fprintf(stderr, "trace: %s\n", s.ToString().c_str());
      }
    });
  }
  std::printf("==============================================================\n");
  std::printf("%s\n", what.c_str());
  std::printf(
      "(scale adjust %d via MAZE_SCALE_ADJUST; modeled node width %d threads "
      "via MAZE_NODE_THREADS)\n",
      ScaleAdjust(), rt::ModeledNodeThreads());
  std::printf("==============================================================\n");
}

// Triangle-counting stand-ins: the paper generates TC inputs with the
// low-triangle RMAT parameters (§4.1.2) and orients them; message volume is
// O(sum deg^2), so TC benches run two scales smaller than the other algorithms.
inline EdgeList TriangleDataset(const std::string& name, int adjust) {
  RmatParams params = RmatParams::TriangleCounting(14 + adjust, 12);
  if (name == "livejournal") params.seed = 313;
  if (name == "facebook") params.seed = 111;
  if (name == "wikipedia") params.seed = 212;
  if (name == "twitter") {
    params.seed = 414;
    params.scale += 2;
  }
  if (name == "rmat") params.seed = 515;
  EdgeList el = GenerateRmat(params);
  el.OrientBySmallerId();
  return el;
}

// --- Measurement wrappers: one table/figure cell each -------------------------
//
// Each cell is measured best-of-`reps`: the first run warms caches and the
// allocator; the fastest run is reported (reduces single-run noise on shared
// machines without changing any shape). Gated benchmarks that compare two
// engines' ratios (bench_gmat_ninja_gap) pass a larger `reps` so scheduler
// noise on either side cannot flip the verdict.

inline Measurement MeasurePageRank(EngineKind engine, const EdgeList& directed,
                                   const std::string& dataset, int ranks,
                                   int iterations = 5, bool trace = false,
                                   int reps = 2) {
  rt::PageRankOptions opt;
  opt.iterations = iterations;
  RunConfig config;
  config.num_ranks = ranks;
  config.trace = trace;
  auto result = RunPageRank(engine, directed, opt, config);
  for (int r = 1; r < reps; ++r) {
    auto again = RunPageRank(engine, directed, opt, config);
    if (again.metrics.elapsed_seconds < result.metrics.elapsed_seconds) {
      result = std::move(again);
    }
  }
  // The paper reports time per iteration for PageRank (Figure 3a).
  return {engine, "pagerank", dataset, ranks,
          result.metrics.elapsed_seconds / iterations, result.metrics};
}

// BFS sources come from the giant component: the highest-degree vertex (a
// low-id source can be isolated in a skewed random graph).
inline VertexId BusiestVertex(const EdgeList& edges) {
  std::vector<uint32_t> degree(edges.num_vertices, 0);
  for (const Edge& e : edges.edges) ++degree[e.src];
  VertexId best = 0;
  for (VertexId v = 1; v < edges.num_vertices; ++v) {
    if (degree[v] > degree[best]) best = v;
  }
  return best;
}

inline Measurement MeasureBfs(EngineKind engine, const EdgeList& undirected,
                              const std::string& dataset, int ranks,
                              bool trace = false, int reps = 2) {
  RunConfig config;
  config.num_ranks = ranks;
  config.trace = trace;
  rt::BfsOptions opt;
  opt.source = BusiestVertex(undirected);
  auto result = RunBfs(engine, undirected, opt, config);
  for (int r = 1; r < reps; ++r) {
    auto again = RunBfs(engine, undirected, opt, config);
    if (again.metrics.elapsed_seconds < result.metrics.elapsed_seconds) {
      result = std::move(again);
    }
  }
  return {engine, "bfs", dataset, ranks, result.metrics.elapsed_seconds,
          result.metrics};
}

inline Measurement MeasureTriangles(EngineKind engine, const EdgeList& oriented,
                                    const std::string& dataset, int ranks,
                                    int bsp_phases_for_tc = 100,
                                    bool trace = false) {
  RunConfig config;
  config.num_ranks = ranks;
  config.trace = trace;
  // §6.1.3: Giraph triangle counting only runs with superstep splitting.
  if (engine == EngineKind::kBspgraph) config.bsp_phases = bsp_phases_for_tc;
  auto warm = RunTriangleCount(engine, oriented, {}, config);
  auto result = RunTriangleCount(engine, oriented, {}, config);
  if (warm.metrics.elapsed_seconds < result.metrics.elapsed_seconds) {
    result = std::move(warm);
  }
  return {engine, "triangles", dataset, ranks, result.metrics.elapsed_seconds,
          result.metrics};
}

inline Measurement MeasureCf(EngineKind engine, const BipartiteGraph& ratings,
                             const std::string& dataset, int ranks,
                             int iterations = 2, int k = 16,
                             bool trace = false) {
  rt::CfOptions opt;
  opt.k = k;
  opt.iterations = iterations;
  // Native/taskflow run SGD; others fall back to GD (§3.2). Either way the
  // paper compares time per iteration (§5.2).
  opt.method = rt::CfMethod::kSgd;
  RunConfig config;
  config.num_ranks = ranks;
  config.trace = trace;
  if (engine == EngineKind::kBspgraph) config.bsp_phases = 10;
  auto warm = RunCf(engine, ratings, opt, config);
  auto result = RunCf(engine, ratings, opt, config);
  if (warm.metrics.elapsed_seconds < result.metrics.elapsed_seconds) {
    result = std::move(warm);
  }
  return {engine, "cf", dataset, ranks,
          result.metrics.elapsed_seconds / iterations, result.metrics};
}

}  // namespace maze::bench

#endif  // MAZE_BENCH_BENCH_COMMON_H_
