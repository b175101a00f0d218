// PR 2 artifact: host wall-clock of the rank-parallel schedule vs the serial
// one-rank-at-a-time schedule, per engine, at 16 and 64 simulated ranks.
// Writes BENCH_pr2.json (bench_support/artifact.h) with the raw seconds, the
// speedups, and the host's core count — the speedup is bounded by the cores
// available, so a 1-core host honestly reports ~1x.
//
// Correctness of the comparison (identical answers and identical modeled wire
// totals between schedules) is asserted by tests/rank_parallel_test.cc; this
// binary only measures wall time.
#include <cstdio>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "rt/rank_exec.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace maze::bench {
namespace {

struct Cell {
  std::string engine;
  std::string algo;
  int ranks = 0;
  double serial_seconds = 0;
  double parallel_seconds = 0;
  double Speedup() const {
    return parallel_seconds > 0 ? serial_seconds / parallel_seconds : 0;
  }
};

double TimeRun(int forced_serial, const std::function<void()>& run) {
  rt::SetSerialRanks(forced_serial);
  Timer t;
  run();
  double s = t.Seconds();
  rt::SetSerialRanks(-1);
  return s;
}

int Main() {
  Banner(
      "BENCH_pr2: rank-parallel vs serial schedule wall-clock "
      "(PR 2 tentpole artifact)");
  const unsigned host_cores = std::thread::hardware_concurrency();
  const unsigned pool_threads = ThreadPool::Default().num_threads();

  EdgeList directed = GenerateRmat(RmatParams::Graph500(14 + ScaleAdjust(), 16));
  directed.Deduplicate();
  EdgeList undirected = directed;
  undirected.Symmetrize();

  rt::PageRankOptions pr_opt;
  pr_opt.iterations = 8;
  rt::BfsOptions bfs_opt{0};

  std::vector<Cell> cells;
  for (int ranks : {16, 64}) {
    for (EngineKind engine : MultiNodeEngines()) {
      RunConfig config;
      config.num_ranks = ranks;
      {
        Cell c{EngineName(engine), "pagerank", ranks, 0, 0};
        c.serial_seconds = TimeRun(1, [&] {
          RunPageRank(engine, directed, pr_opt, config);
        });
        c.parallel_seconds = TimeRun(0, [&] {
          RunPageRank(engine, directed, pr_opt, config);
        });
        cells.push_back(c);
      }
      {
        Cell c{EngineName(engine), "bfs", ranks, 0, 0};
        c.serial_seconds = TimeRun(1, [&] {
          RunBfs(engine, undirected, bfs_opt, config);
        });
        c.parallel_seconds = TimeRun(0, [&] {
          RunBfs(engine, undirected, bfs_opt, config);
        });
        cells.push_back(c);
      }
    }
  }

  std::printf("host cores %u, pool threads %u\n", host_cores, pool_threads);
  std::printf("%-10s %-9s %6s %12s %12s %8s\n", "engine", "algo", "ranks",
              "serial_s", "parallel_s", "speedup");
  for (const Cell& c : cells) {
    std::printf("%-10s %-9s %6d %12.4f %12.4f %7.2fx\n", c.engine.c_str(),
                c.algo.c_str(), c.ranks, c.serial_seconds, c.parallel_seconds,
                c.Speedup());
  }

  BenchArtifact artifact("BENCH_pr2.json", "rank_parallel_vs_serial");
  obs::JsonWriter& json = artifact.json();
  json.Field("host_cores", host_cores)
      .Field("pool_threads", pool_threads)
      .Field("note",
             "speedup is bounded by host cores; on a 1-core host the "
             "schedules tie by construction")
      .BeginArray("cells");
  for (const Cell& c : cells) {
    json.BeginObject()
        .Field("engine", c.engine)
        .Field("algo", c.algo)
        .Field("ranks", c.ranks)
        .Field("serial_seconds", c.serial_seconds)
        .Field("parallel_seconds", c.parallel_seconds)
        .Field("speedup", c.Speedup())
        .EndObject();
  }
  json.EndArray();
  return artifact.Finish();
}

}  // namespace
}  // namespace maze::bench

int main() { return maze::bench::Main(); }
