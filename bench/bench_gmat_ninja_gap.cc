// ROADMAP item 1 artifact: the GraphMat claim, measured. The gmat engine
// compiles vertex programs down to semiring SpMV over the 2-D tiling; if the
// compilation is worth anything, its modeled time must land within a small
// constant of native's what-if lower bound (the "ninja gap" closed), while the
// interpreted vertexlab engine stays further out.
//
// Gates (exit 1 and "ok": false on violation):
//   1. at 1 rank, gmat elapsed <= MAZE_GMAT_TOL (default 1.2) x native's
//      best-case what-if bound, for PageRank and BFS;
//   2. gmat's gap is strictly smaller than vertexlab's on both algorithms
//      (compilation beats interpretation);
//   3. answers are exact: byte-identical PageRank vectors and BFS distance
//      arrays against the native runs at 1 rank.
// A 4-rank sweep is reported for context but not gated (wire time enters and
// the bound chases a different regime).
//
// Writes BENCH_gmat.json (bench_support/artifact.h).
#include "bench/bench_common.h"

#include <cmath>
#include <cstdlib>
#include <string>
#include <vector>

#include "obs/attrib.h"

namespace maze::bench {
namespace {

double Tolerance() {
  const char* env = std::getenv("MAZE_GMAT_TOL");
  if (env != nullptr && env[0] != '\0') return std::atof(env);
  return 1.2;
}

struct GapRow {
  std::string algorithm;
  int ranks = 1;
  double native_elapsed = 0;
  double native_best_case = 0;
  double gmat_elapsed = 0;
  double vertexlab_elapsed = 0;
  double gmat_gap = 0;       // gmat elapsed / native best-case bound.
  double vertexlab_gap = 0;  // same denominator, the interpreter's distance.
  bool gated = false;
};

GapRow MakeRow(const Measurement& native, const Measurement& gmat,
               const Measurement& vlab, bool gated) {
  GapRow row;
  row.algorithm = native.algorithm;
  row.ranks = native.ranks;
  row.native_elapsed = native.metrics.elapsed_seconds;
  row.native_best_case =
      obs::attrib::Attribute(native.metrics).bounds.best_case_seconds;
  row.gmat_elapsed = gmat.metrics.elapsed_seconds;
  row.vertexlab_elapsed = vlab.metrics.elapsed_seconds;
  row.gmat_gap = row.gmat_elapsed / row.native_best_case;
  row.vertexlab_gap = row.vertexlab_elapsed / row.native_best_case;
  row.gated = gated;
  return row;
}

int Run() {
  Banner("ROADMAP 1: gmat ninja gap vs native what-if bound (PR + BFS)");
  const int adjust = ScaleAdjust();
  const double tol = Tolerance();

  EdgeList directed = LoadGraphDataset("rmat", adjust);
  EdgeList undirected = directed;
  undirected.Symmetrize();

  std::vector<GapRow> rows;
  BenchArtifact artifact("BENCH_gmat.json", "gmat");

  for (int ranks : {1, 4}) {
    const bool gated = ranks == 1;  // Multi-rank is report-only (wire regime).
    // Gated rows compare two engines' best-case ratio, so both sides get
    // extra repetitions: one noisy scheduler hiccup in a ~2ms denominator
    // must not decide pass/fail.
    const int reps = gated ? 5 : 2;
    rows.push_back(MakeRow(
        MeasurePageRank(EngineKind::kNative, directed, "rmat", ranks,
                        /*iterations=*/5, /*trace=*/true, reps),
        MeasurePageRank(EngineKind::kGmat, directed, "rmat", ranks,
                        /*iterations=*/5, /*trace=*/true, reps),
        MeasurePageRank(EngineKind::kVertexlab, directed, "rmat", ranks,
                        /*iterations=*/5, /*trace=*/true, reps),
        gated));
    rows.push_back(
        MakeRow(MeasureBfs(EngineKind::kNative, undirected, "rmat", ranks,
                           /*trace=*/true, reps),
                MeasureBfs(EngineKind::kGmat, undirected, "rmat", ranks,
                           /*trace=*/true, reps),
                MeasureBfs(EngineKind::kVertexlab, undirected, "rmat", ranks,
                           /*trace=*/true, reps),
                gated));
  }

  for (const GapRow& r : rows) {
    std::printf(
        "%-9s ranks=%d  native=%.6fs  bound=%.6fs  gmat=%.6fs (%.3fx)  "
        "vertexlab=%.6fs (%.3fx)%s\n",
        r.algorithm.c_str(), r.ranks, r.native_elapsed, r.native_best_case,
        r.gmat_elapsed, r.gmat_gap, r.vertexlab_elapsed, r.vertexlab_gap,
        r.gated ? "" : "  [report-only]");
    if (!r.gated) continue;
    if (!(r.native_best_case > 0)) {
      artifact.Fail("%s: native best-case bound is not positive",
                    r.algorithm.c_str());
      continue;
    }
    if (r.gmat_gap > tol) {
      artifact.Fail("%s: gmat gap %f exceeds tolerance %f",
                    r.algorithm.c_str(), r.gmat_gap, tol);
    }
    if (!(r.gmat_gap < r.vertexlab_gap)) {
      artifact.Fail("%s: gmat gap %f does not beat the interpreter's %f",
                    r.algorithm.c_str(), r.gmat_gap, r.vertexlab_gap);
    }
  }

  // Exactness gate: the compiled engine must return the *same bytes* as
  // native at one rank, where both fold per-destination in ascending source
  // order — no "close enough" tolerance hiding a lowering bug.
  {
    rt::PageRankOptions opt;
    opt.iterations = 5;
    RunConfig config;
    config.num_ranks = 1;
    auto native = RunPageRank(EngineKind::kNative, directed, opt, config);
    auto gmat = RunPageRank(EngineKind::kGmat, directed, opt, config);
    if (native.ranks != gmat.ranks) {
      artifact.Fail("pagerank: gmat ranks vector is not byte-identical to native");
    }
    rt::BfsOptions bopt;
    bopt.source = BusiestVertex(undirected);
    auto nbfs = RunBfs(EngineKind::kNative, undirected, bopt, config);
    auto gbfs = RunBfs(EngineKind::kGmat, undirected, bopt, config);
    if (nbfs.distance != gbfs.distance) {
      artifact.Fail("bfs: gmat distance vector differs from native");
    }
  }

  obs::JsonWriter& json = artifact.json();
  json.Field("tolerance", tol).BeginArray("rows");
  for (const GapRow& r : rows) {
    json.BeginObject()
        .Field("algorithm", r.algorithm)
        .Field("ranks", r.ranks)
        .Field("native_elapsed_seconds", r.native_elapsed)
        .Field("native_best_case_seconds", r.native_best_case)
        .Field("gmat_elapsed_seconds", r.gmat_elapsed)
        .Field("vertexlab_elapsed_seconds", r.vertexlab_elapsed)
        .Field("gmat_gap", r.gmat_gap)
        .Field("vertexlab_gap", r.vertexlab_gap)
        .Field("gated", r.gated)
        .EndObject();
  }
  json.EndArray();
  std::printf(
      "Paper shape (GraphMat, §6): compiling the vertex program to semiring\n"
      "SpMV closes most of the ninja gap — gmat tracks native's what-if bound\n"
      "within ~%.1fx while the interpreted engine pays the abstraction tax.\n",
      tol);
  return artifact.Finish();
}

}  // namespace
}  // namespace maze::bench

int main() { return maze::bench::Run(); }
