// CLI command-surface tests: parsing, format dispatch, error reporting, and
// end-to-end generate/convert/stats/run flows through the library entry point.
#include "cli/cli.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "core/datasets.h"
#include "core/io.h"
#include "tests/json_checker.h"
#include "tests/openmetrics_checker.h"
#include "util/thread_pool.h"

namespace maze::cli {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

Status RunCli(std::initializer_list<std::string> args, std::string* output) {
  std::ostringstream out;
  Status status = RunCommand(std::vector<std::string>(args), out);
  *output = out.str();
  return status;
}

TEST(CliTest, EmptyCommandIsUsageError) {
  std::string out;
  Status s = RunCli({}, &out);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("usage"), std::string::npos);
}

TEST(CliTest, UnknownCommandRejected) {
  std::string out;
  EXPECT_EQ(RunCli({"frobnicate"}, &out).code(), StatusCode::kInvalidArgument);
}

TEST(CliTest, FlagWithoutValueRejected) {
  std::string out;
  Status s = RunCli({"generate", "--scale"}, &out);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST(CliTest, NonIntegerFlagRejected) {
  std::string out;
  Status s = RunCli({"generate", "--scale", "large", "--out", "/tmp/x.txt"}, &out);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("integer"), std::string::npos);
}

TEST(CliTest, GenerateRequiresOut) {
  std::string out;
  EXPECT_EQ(RunCli({"generate", "--scale", "8"}, &out).code(),
            StatusCode::kInvalidArgument);
}

TEST(CliTest, GenerateStatsRoundTrip) {
  std::string path = TempPath("cli_graph.txt");
  std::string out;
  ASSERT_TRUE(RunCli({"generate", "--kind", "graph", "--scale", "8", "--out",
                   path},
                  &out)
                  .ok());
  EXPECT_NE(out.find("wrote"), std::string::npos);
  ASSERT_TRUE(RunCli({"stats", path}, &out).ok());
  EXPECT_NE(out.find("vertices"), std::string::npos);
  EXPECT_NE(out.find("256"), std::string::npos);  // 2^8 vertices.
  std::remove(path.c_str());
}

TEST(CliTest, ConvertAcrossAllFormats) {
  std::string txt = TempPath("cli_a.txt");
  std::string bin = TempPath("cli_a.bin");
  std::string mtx = TempPath("cli_a.mtx");
  std::string out;
  ASSERT_TRUE(
      RunCli({"generate", "--kind", "graph", "--scale", "7", "--out", txt}, &out)
          .ok());
  ASSERT_TRUE(RunCli({"convert", txt, bin}, &out).ok());
  ASSERT_TRUE(RunCli({"convert", bin, mtx}, &out).ok());
  ASSERT_TRUE(RunCli({"convert", mtx, TempPath("cli_b.txt")}, &out).ok());
  auto original = ReadEdgeListText(txt);
  auto round_tripped = ReadEdgeListText(TempPath("cli_b.txt"));
  ASSERT_TRUE(original.ok());
  ASSERT_TRUE(round_tripped.ok());
  EXPECT_EQ(original.value().edges, round_tripped.value().edges);
  for (const std::string& p : {txt, bin, mtx, TempPath("cli_b.txt")}) {
    std::remove(p.c_str());
  }
}

TEST(CliTest, ConvertUnknownExtensionRejected) {
  std::string out;
  Status s = RunCli({"convert", "in.json", "out.txt"}, &out);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST(CliTest, DatasetsListsRegistry) {
  std::string out;
  ASSERT_TRUE(RunCli({"datasets"}, &out).ok());
  EXPECT_NE(out.find("facebook"), std::string::npos);
  EXPECT_NE(out.find("yahoomusic"), std::string::npos);
}

TEST(CliTest, RunPageRankOnGeneratedFile) {
  std::string path = TempPath("cli_run.bin");
  std::string out;
  ASSERT_TRUE(
      RunCli({"generate", "--kind", "graph", "--scale", "8", "--out", path}, &out)
          .ok());
  ASSERT_TRUE(RunCli({"run", "--algo", "pagerank", "--engine", "native",
                   "--input", path, "--iterations", "3"},
                  &out)
                  .ok());
  EXPECT_NE(out.find("pagerank: 3 iterations"), std::string::npos);
  EXPECT_NE(out.find("engine=native"), std::string::npos);
  std::remove(path.c_str());
}

TEST(CliTest, FlagEqualsValueSyntax) {
  std::string path = TempPath("cli_eq.txt");
  std::string out;
  ASSERT_TRUE(RunCli({"generate", "--kind=graph", "--scale=8", "--out=" + path},
                  &out)
                  .ok())
      << out;
  ASSERT_TRUE(RunCli({"run", "--algo=pagerank", "--engine=native",
                   "--input=" + path, "--iterations=2"},
                  &out)
                  .ok())
      << out;
  EXPECT_NE(out.find("pagerank: 2 iterations"), std::string::npos);
  std::remove(path.c_str());
}

TEST(CliTest, RunWithTraceWritesChromeTrace) {
  std::string graph = TempPath("cli_trace_graph.txt");
  std::string trace = TempPath("cli_trace.json");
  std::string out;
  ASSERT_TRUE(RunCli({"generate", "--kind", "graph", "--scale", "8", "--out",
                   graph},
                  &out)
                  .ok());
  ASSERT_TRUE(RunCli({"run", "--algo", "pagerank", "--engine", "all", "--ranks",
                   "2", "--iterations", "2", "--input", graph,
                   "--trace=" + trace},
                  &out)
                  .ok())
      << out;
  EXPECT_NE(out.find("trace: wrote"), std::string::npos);

  std::string json;
  {
    FILE* f = std::fopen(trace.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) json.append(buf, n);
    std::fclose(f);
  }
  // Spans from several engine families land in one trace, plus simulated wire
  // spans on the synthetic pids.
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"native\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"vertexlab\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"matblas\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"datalite\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"bspgraph\""), std::string::npos);
  EXPECT_NE(json.find("\"pid\":10000"), std::string::npos);
  std::remove(graph.c_str());
  std::remove(trace.c_str());
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

TEST(CliTest, RunWithExplainWritesAttributionAndPrintsMarkdown) {
  std::string graph = TempPath("cli_explain_graph.txt");
  std::string explain = TempPath("cli_explain.json");
  std::string out;
  ASSERT_TRUE(RunCli({"generate", "--kind", "graph", "--scale", "8", "--out",
                   graph},
                  &out)
                  .ok());
  ASSERT_TRUE(RunCli({"run", "--algo", "pagerank", "--engine", "all", "--ranks",
                   "2", "--iterations", "2", "--input", graph,
                   "--explain=" + explain},
                  &out)
                  .ok())
      << out;
  EXPECT_NE(out.find("explain: wrote"), std::string::npos);
  // The markdown table: one row per engine with a verdict column.
  EXPECT_NE(out.find("# Time attribution (critical path)"), std::string::npos);
  EXPECT_NE(out.find("| native |"), std::string::npos);
  EXPECT_NE(out.find("| bspgraph |"), std::string::npos);
  EXPECT_NE(out.find("-bound"), std::string::npos);

  std::string json = Slurp(explain);
  EXPECT_TRUE(testutil::JsonChecker(json).Valid()) << json;
  EXPECT_NE(json.find("\"rows\""), std::string::npos);
  EXPECT_NE(json.find("\"critical_wire_seconds\""), std::string::npos);
  EXPECT_NE(json.find("\"what_if\""), std::string::npos);
  EXPECT_NE(json.find("\"binding_term\""), std::string::npos);
  std::remove(graph.c_str());
  std::remove(explain.c_str());
}

TEST(CliTest, RunMetricsJsonIncludesAttributionBlock) {
  std::string graph = TempPath("cli_attrib_graph.txt");
  std::string metrics = TempPath("cli_attrib_metrics.json");
  std::string out;
  ASSERT_TRUE(RunCli({"generate", "--kind", "graph", "--scale", "8", "--out",
                   graph},
                  &out)
                  .ok());
  ASSERT_TRUE(RunCli({"run", "--algo", "pagerank", "--engine", "native",
                   "--ranks", "2", "--iterations", "2", "--input", graph,
                   "--metrics=" + metrics},
                  &out)
                  .ok())
      << out;
  std::string json = Slurp(metrics);
  EXPECT_TRUE(testutil::JsonChecker(json).Valid()) << json;
  EXPECT_NE(json.find("\"resource\""), std::string::npos);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"attribution\""), std::string::npos);
  EXPECT_NE(json.find("\"components\""), std::string::npos);
  EXPECT_NE(json.find("\"verdict\""), std::string::npos);
  std::remove(graph.c_str());
  std::remove(metrics.c_str());
}

TEST(CliTest, TraceIncludesCriticalPathTrack) {
  std::string graph = TempPath("cli_crit_graph.txt");
  std::string trace = TempPath("cli_crit_trace.json");
  std::string out;
  ASSERT_TRUE(RunCli({"generate", "--kind", "graph", "--scale", "8", "--out",
                   graph},
                  &out)
                  .ok());
  ASSERT_TRUE(RunCli({"run", "--algo", "pagerank", "--engine", "native",
                   "--ranks", "2", "--iterations", "2", "--input", graph,
                   "--trace=" + trace},
                  &out)
                  .ok())
      << out;
  std::string json = Slurp(trace);
  EXPECT_NE(json.find("critical path (modeled)"), std::string::npos);
  EXPECT_NE(json.find("\"pid\":20000"), std::string::npos);
  EXPECT_NE(json.find("\"binding_rank\""), std::string::npos);
  std::remove(graph.c_str());
  std::remove(trace.c_str());
}

// A malformed MAZE_FAULTS is an INVALID_ARGUMENT status from run and serve,
// never an abort, even when --faults would override it.
TEST(CliTest, MalformedFaultsEnvIsInvalidArgument) {
  ASSERT_EQ(::setenv("MAZE_FAULTS", "bogus", 1), 0);
  std::string out;
  Status alone =
      RunCli({"run", "--engine", "native", "--algo", "pagerank", "--dataset",
              "rmat"},
             &out);
  Status with_flag =
      RunCli({"run", "--engine", "native", "--algo", "pagerank", "--dataset",
              "rmat", "--faults=seed=1"},
             &out);
  Status serve = RunCli({"serve", "--script", "/nonexistent"}, &out);
  ::unsetenv("MAZE_FAULTS");
  EXPECT_EQ(alone.code(), StatusCode::kInvalidArgument) << alone.ToString();
  EXPECT_NE(alone.message().find("MAZE_FAULTS"), std::string::npos);
  EXPECT_EQ(with_flag.code(), StatusCode::kInvalidArgument)
      << with_flag.ToString();
  EXPECT_EQ(serve.code(), StatusCode::kInvalidArgument) << serve.ToString();
}

TEST(CliTest, RunNeedsInputOrDataset) {
  std::string out;
  Status s = RunCli({"run", "--algo", "bfs", "--engine", "native"}, &out);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST(CliTest, RunRejectsUnknownEngineAndAlgo) {
  std::string out;
  EXPECT_FALSE(
      RunCli({"run", "--algo", "pagerank", "--engine", "spark", "--dataset",
           "facebook"},
          &out)
          .ok());
  EXPECT_FALSE(RunCli({"run", "--algo", "pagerink", "--engine", "native",
                    "--dataset", "facebook"},
                   &out)
                   .ok());
}

TEST(CliTest, UnknownEngineErrorListsValidNames) {
  std::string out;
  Status s = RunCli({"run", "--algo", "pagerank", "--engine", "spark",
                  "--dataset", "facebook"},
                 &out);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  // The message enumerates the registry so a typo is actionable.
  EXPECT_NE(s.message().find("spark"), std::string::npos) << s.message();
  EXPECT_NE(s.message().find("native"), std::string::npos) << s.message();
  EXPECT_NE(s.message().find("gmat"), std::string::npos) << s.message();
  EXPECT_NE(s.message().find("taskflow"), std::string::npos) << s.message();
}

TEST(CliTest, RunGmatEngineOnDatasetStandin) {
  std::string out;
  ASSERT_TRUE(RunCli({"run", "--algo", "pagerank", "--engine", "gmat",
                   "--dataset", "facebook", "--iterations", "2", "--ranks",
                   "4"},
                  &out)
                  .ok())
      << out;
  EXPECT_NE(out.find("engine=gmat"), std::string::npos) << out;
}

TEST(CliTest, EngineAllIncludesGmat) {
  std::string graph = TempPath("cli_engine_all_gmat.txt");
  std::string out;
  ASSERT_TRUE(RunCli({"generate", "--kind", "graph", "--scale", "7", "--out",
                   graph},
                  &out)
                  .ok());
  ASSERT_TRUE(RunCli({"run", "--algo", "pagerank", "--engine", "all", "--ranks",
                   "4", "--iterations", "2", "--input", graph},
                  &out)
                  .ok())
      << out;
  // The registry-driven sweep covers all seven engines, gmat included.
  EXPECT_NE(out.find("engine=gmat"), std::string::npos) << out;
  EXPECT_NE(out.find("engine=native"), std::string::npos) << out;
  std::remove(graph.c_str());
}

TEST(CliTest, RunTrianglesOnDatasetStandin) {
  std::string out;
  // Uses the registry stand-in path (scaled down inside the CLI).
  ASSERT_TRUE(RunCli({"run", "--algo", "triangles", "--engine", "taskflow",
                   "--dataset", "facebook"},
                  &out)
                  .ok())
      << out;
  EXPECT_NE(out.find("triangles:"), std::string::npos);
}

TEST(CliTest, RunUnknownDatasetIsNotFoundWithValidNames) {
  std::string out;
  Status s = RunCli({"run", "--algo", "pagerank", "--engine", "native",
                  "--dataset", "ghost"},
                 &out);
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  // The error names valid alternatives so the listing is actionable.
  EXPECT_NE(s.message().find("facebook"), std::string::npos) << s.ToString();
}

TEST(CliTest, RunGraphAlgoOnRatingsDatasetIsInvalid) {
  std::string out;
  Status s = RunCli({"run", "--algo", "pagerank", "--engine", "native",
                  "--dataset", "netflix"},
                 &out);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST(CliTest, RunCfOnGraphDatasetIsInvalid) {
  std::string out;
  Status s = RunCli({"run", "--algo", "cf", "--engine", "native", "--dataset",
                  "facebook"},
                 &out);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST(CliTest, ThreadsFlagResizesDefaultPool) {
  unsigned before = ThreadPool::Default().num_threads();
  std::string out;
  ASSERT_TRUE(RunCli({"run", "--algo", "pagerank", "--engine", "native",
                   "--iterations", "2", "--dataset", "facebook", "--threads",
                   "3"},
                  &out)
                  .ok())
      << out;
  EXPECT_NE(out.find("threads: 3"), std::string::npos) << out;
  EXPECT_EQ(ThreadPool::Default().num_threads(), 3u);
  ThreadPool::Default().Resize(before);  // Restore for other tests.
}

TEST(CliTest, ThreadsFlagRejectsNonPositive) {
  std::string out;
  Status s = RunCli({"run", "--algo", "pagerank", "--engine", "native",
                  "--dataset", "facebook", "--threads", "0"},
                 &out);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("threads"), std::string::npos);
}

TEST(CliTest, ServeNeedsScript) {
  std::string out;
  Status s = RunCli({"serve"}, &out);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("script"), std::string::npos);
}

TEST(CliTest, ServeRunsScriptAndWritesReport) {
  std::string script_path = TempPath("cli_serve_script.txt");
  {
    std::ofstream f(script_path);
    f << "load g dataset=facebook scale_adjust=-6\n"
      << "run algo=pagerank engine=native snapshot=g iterations=2 repeat=2\n"
      << "wait\n"
      << "report\n";
  }
  std::string report_path = TempPath("cli_serve_report.json");
  std::string out;
  ASSERT_TRUE(RunCli({"serve", "--script", script_path, "--workers", "2",
                   "--report", report_path},
                  &out)
                  .ok())
      << out;
  EXPECT_NE(out.find("load g: epoch 1"), std::string::npos) << out;
  EXPECT_NE(out.find("[0] ok pagerank"), std::string::npos) << out;
  EXPECT_NE(out.find("# Service report"), std::string::npos) << out;
  std::string json = Slurp(report_path);
  EXPECT_NE(json.find("\"submitted\":2"), std::string::npos) << json;
  std::remove(script_path.c_str());
  std::remove(report_path.c_str());
}

TEST(CliTest, ServeRejectsBadOptionValues) {
  std::string out;
  EXPECT_EQ(RunCli({"serve", "--script", "/nonexistent", "--queue-depth", "0"},
                &out)
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(RunCli({"serve", "--script", "/nonexistent", "--workers", "0"},
                &out)
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(
      RunCli({"serve", "--script", "/nonexistent/x.txt"}, &out).code(),
      StatusCode::kIoError);
}

TEST(CliTest, ServeListenSloAndScrapeFile) {
  std::string script_path = TempPath("cli_serve_telemetry_script.txt");
  std::string metrics_path = TempPath("cli_serve_scrape.om");
  {
    std::ofstream f(script_path);
    f << "load g dataset=facebook scale_adjust=-6\n"
      << "run algo=pagerank engine=native snapshot=g iterations=2 "
         "faults=seed=1,straggle=0x64\n"
      << "wait\n"
      << "scrape file=" << metrics_path << "\n";
  }
  std::string out;
  // --listen 0 binds an ephemeral port; --slo-p99-ms arms the watchdog (its
  // stderr events are not asserted here — bench_telemetry byte-checks them).
  ASSERT_TRUE(RunCli({"serve", "--script", script_path, "--listen", "0",
                   "--slo-p99-ms", "0.001", "--slo-burn", "2"},
                  &out)
                  .ok())
      << out;
  EXPECT_NE(out.find("telemetry: listening on 127.0.0.1:"), std::string::npos)
      << out;
  EXPECT_NE(out.find("scrape 1"), std::string::npos) << out;
  std::string exposition = Slurp(metrics_path);
  testutil::OpenMetricsChecker checker(exposition);
  EXPECT_TRUE(checker.Valid()) << checker.error();
  EXPECT_EQ(checker.counters().count("maze_serve_submitted"), 1u)
      << exposition;
  std::remove(script_path.c_str());
  std::remove(metrics_path.c_str());
}

TEST(CliTest, ServeMetricsFlagWritesFinalTelemetryJson) {
  std::string script_path = TempPath("cli_serve_metrics_script.txt");
  std::string metrics_path = TempPath("cli_serve_metrics.json");
  {
    std::ofstream f(script_path);
    f << "load g dataset=facebook scale_adjust=-6\n"
      << "run algo=pagerank engine=native snapshot=g iterations=2 repeat=2\n"
      << "wait\n"
      << "scrape\n"
      << "bills\n";
  }
  std::string out;
  ASSERT_TRUE(
      RunCli({"serve", "--script", script_path, "--metrics", metrics_path},
             &out)
          .ok())
      << out;
  EXPECT_NE(out.find("metrics: wrote " + metrics_path), std::string::npos)
      << out;
  EXPECT_NE(out.find("conserved=yes"), std::string::npos) << out;
  std::string json = Slurp(metrics_path);
  EXPECT_TRUE(testutil::JsonChecker(json).Valid()) << json;
  // The artifact bundles the final service report with the telemetry rings:
  // counter, gauge, and histogram series with their per-scrape windows.
  EXPECT_NE(json.find("\"report\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"bills\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"gauges\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"telemetry\""), std::string::npos) << json;
  EXPECT_NE(json.find("serve.queue_depth"), std::string::npos) << json;
  EXPECT_NE(json.find("\"windows\""), std::string::npos) << json;
  std::remove(script_path.c_str());
  std::remove(metrics_path.c_str());
}

TEST(CliTest, ServeSloDumpWritesForensicsOnTrip) {
  std::string script_path = TempPath("cli_serve_dump_script.txt");
  std::string dump_path = TempPath("cli_serve_slo_dump.json");
  {
    std::ofstream f(script_path);
    // 1 us target: the execution window trips the watchdog at its scrape.
    f << "load g dataset=facebook scale_adjust=-6\n"
      << "run algo=pagerank engine=native snapshot=g iterations=2\n"
      << "wait\n"
      << "scrape\n";
  }
  std::string out;
  ASSERT_TRUE(RunCli({"serve", "--script", script_path, "--slo-p99-ms",
                   "0.001", "--slo-dump", dump_path},
                  &out)
                  .ok())
      << out;
  std::string dump = Slurp(dump_path);
  EXPECT_TRUE(testutil::JsonChecker(dump).Valid()) << dump;
  EXPECT_NE(dump.find("\"event\":\"slo_trip\""), std::string::npos) << dump;
  EXPECT_NE(dump.find("\"request_id\":1"), std::string::npos) << dump;
  std::remove(script_path.c_str());
  std::remove(dump_path.c_str());

  // The forensics flags only make sense with an armed watchdog.
  EXPECT_EQ(RunCli({"serve", "--script", script_path, "--slo-dump", "x.json"},
                &out)
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(
      RunCli({"serve", "--script", script_path, "--slo-perfetto", "x.json"},
             &out)
          .code(),
      StatusCode::kInvalidArgument);
}

TEST(CliTest, ServeRejectsBadTelemetryFlags) {
  std::string out;
  EXPECT_EQ(RunCli({"serve", "--script", "/nonexistent", "--listen", "abc"},
                &out)
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(RunCli({"serve", "--script", "/nonexistent", "--listen", "70000"},
                &out)
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(
      RunCli({"serve", "--script", "/nonexistent", "--slo-p99-ms", "0"}, &out)
          .code(),
      StatusCode::kInvalidArgument);
  EXPECT_EQ(
      RunCli({"serve", "--script", "/nonexistent", "--slo-p99-ms", "x"}, &out)
          .code(),
      StatusCode::kInvalidArgument);
  EXPECT_EQ(
      RunCli({"serve", "--script", "/nonexistent", "--slo-burn", "-1"}, &out)
          .code(),
      StatusCode::kInvalidArgument);
}

TEST(CliTest, DatasetsListsEveryRegistryEntry) {
  std::string out;
  ASSERT_TRUE(RunCli({"datasets"}, &out).ok());
  for (const DatasetInfo& info : AllDatasets()) {
    EXPECT_NE(out.find(info.name), std::string::npos)
        << "missing " << info.name << " in:\n" << out;
  }
}

TEST(CliTest, GenerateRatings) {
  std::string path = TempPath("cli_ratings.txt");
  std::string out;
  ASSERT_TRUE(RunCli({"generate", "--kind", "ratings", "--scale", "9", "--items",
                   "64", "--out", path},
                  &out)
                  .ok());
  EXPECT_NE(out.find("ratings"), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace maze::cli
