// batch_1rank / batch_16rank: PageRank and BFS jobs on every engine, called
// through the bench_support runner, round-robin so that drift on the host
// touches every engine alike. Round 0 of each pass warms caches and the pool;
// its jobs are checked but not timed into the medians.
#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "common.h"
#include "core/io.h"
#include "trace.h"
#include "util/timer.h"

namespace perfbench {
namespace {

using maze::bench::EngineKind;
using maze::bench::EngineName;

struct EngineRun {
  EngineKind kind = EngineKind::kNative;
  std::vector<double> job_s;  // Measured rounds only.
  EngineLayerSamples layer;
  std::vector<double> first_pagerank;
  std::vector<uint32_t> first_bfs;
  uint64_t nondeterministic_jobs = 0;
};

struct Pass {
  std::vector<EngineRun> engines;
  std::vector<double> call_s;  // Every measured PageRank and BFS call.
  double measured_wall_s = 0;  // Wall time of the measured rounds.
  int rounds = 0;              // Including the warm-up round.
};

// Sum over steps of the max-rank measured compute (steps are recorded only
// when the run is traced).
double StepComputeSeconds(const maze::rt::RunMetrics& m) {
  double sum = 0;
  for (const maze::rt::StepRecord& step : m.steps) sum += step.compute_seconds;
  return sum;
}

template <typename T>
bool SameBytes(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

// Checks one job's outputs and wire counts; returns the number of failed calls.
int CheckJob(EngineKind kind, int ranks, const maze::rt::PageRankResult& pr,
             const maze::rt::BfsResult& bfs, const References& refs,
             Outcome* out) {
  std::string e = EngineName(kind);
  int failed = 0;
  if (!PageRankMatches(pr.ranks, refs.pagerank)) {
    out->Violation(e + " PageRank differs from the reference by > 1e-9");
    ++failed;
  }
  if (bfs.distance != refs.bfs) {
    out->Violation(e + " BFS distances differ from the reference");
    ++failed;
  }
  // One rank moves no bytes; at 16 ranks every multi-node engine must, or the
  // rt layer is not being exercised at all.
  bool multi_node = ranks > 1 && kind != EngineKind::kTaskflow;
  for (uint64_t bytes : {pr.metrics.bytes_sent, bfs.metrics.bytes_sent}) {
    if (multi_node ? bytes == 0 : bytes != 0) {
      out->Violation(e + " wire bytes " + std::to_string(bytes) + " at ranks=" +
                     std::to_string(ranks));
      ++failed;
      break;
    }
  }
  return failed;
}

// Runs rounds until `budget_s` has passed (at least two rounds), or exactly
// `fixed_rounds` rounds when that is > 0.
Pass RunPass(const std::vector<EngineKind>& kinds, const Input& input,
             const References& refs, int ranks, bool traced, double budget_s,
             int fixed_rounds, Outcome* out) {
  Pass pass;
  for (EngineKind k : kinds) {
    pass.engines.emplace_back();
    pass.engines.back().kind = k;
  }
  maze::bench::RunConfig config = BaseConfig(ranks, traced);
  maze::rt::PageRankOptions pr_opt;
  pr_opt.iterations = kPageRankIterations;
  pr_opt.jump = kJump;
  maze::rt::BfsOptions bfs_opt;
  bfs_opt.source = input.bfs_source;

  maze::Timer elapsed;
  uint64_t job_id = 0;
  for (int round = 0;; ++round) {
    if (fixed_rounds > 0 ? round >= fixed_rounds
                         : round >= 2 && elapsed.Seconds() >= budget_s) {
      break;
    }
    const bool measured = round > 0;
    maze::Timer round_timer;
    ScopedSpan round_span("bench", "round " + std::to_string(round));
    for (EngineRun& run : pass.engines) {
      const std::string e = EngineName(run.kind);
      ScopedSpan job_span("bench", "job " + e, ++job_id);
      maze::Timer t;
      maze::rt::PageRankResult pr;
      {
        ScopedSpan s(e, "RunPageRank");
        pr = maze::bench::RunPageRank(run.kind, input.directed, pr_opt, config);
      }
      double pr_s = t.Seconds();
      t.Start();
      maze::rt::BfsResult bfs;
      {
        ScopedSpan s(e, "RunBfs");
        bfs = maze::bench::RunBfs(run.kind, input.symmetric, bfs_opt, config);
      }
      double bfs_s = t.Seconds();

      out->attempted += 2;
      out->failed += CheckJob(run.kind, ranks, pr, bfs, refs, out);
      if (run.first_pagerank.empty()) {
        run.first_pagerank = pr.ranks;
        run.first_bfs = bfs.distance;
      } else if (!SameBytes(pr.ranks, run.first_pagerank) ||
                 !SameBytes(bfs.distance, run.first_bfs)) {
        ++run.nondeterministic_jobs;  // Within tolerance, or CheckJob failed.
      }
      if (!measured) continue;

      run.job_s.push_back(pr_s + bfs_s);
      pass.call_s.push_back(pr_s);
      pass.call_s.push_back(bfs_s);
      double compute = StepComputeSeconds(pr.metrics) +
                       StepComputeSeconds(bfs.metrics);
      EngineLayerSamples& l = run.layer;
      l.pagerank_s.push_back(pr_s);
      l.bfs_s.push_back(bfs_s);
      l.compute_s.push_back(compute);
      l.residual_s.push_back(pr_s + bfs_s - compute);
      l.mem_peak_bytes = std::max({l.mem_peak_bytes, pr.metrics.memory_peak_bytes,
                                   bfs.metrics.memory_peak_bytes});
      l.wire_bytes = pr.metrics.bytes_sent + bfs.metrics.bytes_sent;
      l.messages = pr.metrics.messages_sent + bfs.metrics.messages_sent;
      l.steps = pr.metrics.steps.size() + bfs.metrics.steps.size();
    }
    if (measured) pass.measured_wall_s += round_timer.Seconds();
    pass.rounds = round + 1;
  }
  return pass;
}

}  // namespace

void RunBatch(const Args& args, int ranks, Outcome* out) {
  // Set-up as a user pays it: read the file, symmetrize for BFS.
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    maze::Timer t;
    auto loaded = maze::ReadEdgeListBinary(args.input);
    if (!loaded.ok()) {
      out->Violation("input read failed: " + loaded.status().ToString());
      return;
    }
    maze::EdgeList symmetric = std::move(loaded).value();
    symmetric.Symmetrize();
    setup_s.push_back(t.Seconds());
  }

  Input input = LoadInput(args.input);
  References refs = ComputeReferences(input, out);
  std::vector<EngineKind> kinds = maze::bench::AllEngines();

  if (!args.trace) {
    Pass pass = RunPass(kinds, input, refs, ranks, false, args.seconds, 0, out);
    Metrics& m = out->metrics;
    m.Set("setup_s", Median(setup_s));
    for (const EngineRun& run : pass.engines) {
      m.Set(std::string("run_") + EngineName(run.kind) + "_s",
            Median(run.job_s));
    }
    SetRequestMetrics(pass.call_s, pass.measured_wall_s, out);
    uint64_t nondeterministic = 0;
    for (const EngineRun& run : pass.engines) {
      nondeterministic += run.nondeterministic_jobs;
    }
    out->info.emplace_back("rounds", std::to_string(pass.rounds));
    out->info.emplace_back("nondeterministic_jobs",
                           std::to_string(nondeterministic));
    return;
  }

  // Traced run: an untraced pass, then the same rounds with tracing on.
  Pass plain = RunPass(kinds, input, refs, ranks, false, args.seconds / 2, 0, out);
  SetTracing(true);
  Pass traced = RunPass(kinds, input, refs, ranks, true, 0, plain.rounds, out);
  MeasureCoreLayer(args, input, out);
  SetTracing(false);

  uint64_t nondeterministic = 0;
  for (size_t i = 0; i < traced.engines.size(); ++i) {
    SetEngineLayer(EngineName(traced.engines[i].kind), traced.engines[i].layer,
                   out);
    nondeterministic += plain.engines[i].nondeterministic_jobs +
                        traced.engines[i].nondeterministic_jobs;
  }
  out->metrics.Set("engine.nondeterministic_jobs",
                   static_cast<double>(nondeterministic));
  out->metrics.Set("obs.overhead_ratio",
                   traced.measured_wall_s / plain.measured_wall_s);
  out->info.emplace_back("rounds", std::to_string(plain.rounds));
}

}  // namespace perfbench
