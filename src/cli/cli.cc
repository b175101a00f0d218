#include "cli/cli.h"

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>

#include "bench_support/report.h"
#include "bench_support/runner.h"
#include "core/datasets.h"
#include "core/degree.h"
#include "core/graph.h"
#include "core/io.h"
#include "core/ratings_gen.h"
#include "core/rmat.h"
#include "native/cc.h"
#include "obs/attrib.h"
#include "obs/counters.h"
#include "obs/export.h"
#include "obs/json.h"
#include "obs/obs.h"
#include "obs/openmetrics.h"
#include "obs/resource.h"
#include "obs/telemetry.h"
#include "serve/script.h"
#include "serve/slo.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace maze::cli {
namespace {

// --- Flag parsing ---------------------------------------------------------------

// Splits "--flag value" pairs from positional arguments.
struct ParsedArgs {
  std::vector<std::string> positional;
  std::map<std::string, std::string> flags;
};

StatusOr<ParsedArgs> Parse(const std::vector<std::string>& args) {
  ParsedArgs parsed;
  for (size_t i = 0; i < args.size(); ++i) {
    if (args[i].rfind("--", 0) == 0) {
      // Both "--flag=value" and "--flag value" are accepted.
      size_t eq = args[i].find('=');
      if (eq != std::string::npos) {
        parsed.flags[args[i].substr(2, eq - 2)] = args[i].substr(eq + 1);
        continue;
      }
      if (i + 1 >= args.size()) {
        return Status::InvalidArgument("flag " + args[i] + " needs a value");
      }
      parsed.flags[args[i].substr(2)] = args[i + 1];
      ++i;
    } else {
      parsed.positional.push_back(args[i]);
    }
  }
  return parsed;
}

std::string FlagOr(const ParsedArgs& parsed, const std::string& name,
                   const std::string& fallback) {
  auto it = parsed.flags.find(name);
  return it == parsed.flags.end() ? fallback : it->second;
}

StatusOr<int> IntFlagOr(const ParsedArgs& parsed, const std::string& name,
                        int fallback) {
  auto it = parsed.flags.find(name);
  if (it == parsed.flags.end()) return fallback;
  char* end = nullptr;
  long value = std::strtol(it->second.c_str(), &end, 10);
  if (end == it->second.c_str() || *end != '\0') {
    return Status::InvalidArgument("flag --" + name + " expects an integer, got " +
                                   it->second);
  }
  return static_cast<int>(value);
}

StatusOr<double> DoubleFlagOr(const ParsedArgs& parsed, const std::string& name,
                              double fallback) {
  auto it = parsed.flags.find(name);
  if (it == parsed.flags.end()) return fallback;
  char* end = nullptr;
  double value = std::strtod(it->second.c_str(), &end);
  if (end == it->second.c_str() || *end != '\0') {
    return Status::InvalidArgument("flag --" + name + " expects a number, got " +
                                   it->second);
  }
  return value;
}

// --- Format dispatch ---------------------------------------------------------------

enum class Format { kText, kBinary, kMatrixMarket };

StatusOr<Format> FormatOf(const std::string& path) {
  auto ends_with = [&](const char* suffix) {
    std::string s = suffix;
    return path.size() >= s.size() &&
           path.compare(path.size() - s.size(), s.size(), s) == 0;
  };
  if (ends_with(".txt") || ends_with(".el")) return Format::kText;
  if (ends_with(".bin")) return Format::kBinary;
  if (ends_with(".mtx")) return Format::kMatrixMarket;
  return Status::InvalidArgument(
      "cannot infer format from '" + path + "' (use .txt, .bin, or .mtx)");
}

Status WriteAs(const EdgeList& edges, const std::string& path) {
  auto format = FormatOf(path);
  MAZE_RETURN_IF_ERROR(format.status());
  switch (format.value()) {
    case Format::kText:
      return WriteEdgeListText(edges, path);
    case Format::kBinary:
      return WriteEdgeListBinary(edges, path);
    case Format::kMatrixMarket:
      return WriteMatrixMarket(edges, path);
  }
  return Status::InvalidArgument("unreachable");
}

StatusOr<EdgeList> ReadAs(const std::string& path) {
  auto format = FormatOf(path);
  MAZE_RETURN_IF_ERROR(format.status());
  switch (format.value()) {
    case Format::kText:
      return ReadEdgeListText(path);
    case Format::kBinary:
      return ReadEdgeListBinary(path);
    case Format::kMatrixMarket:
      return ReadMatrixMarket(path);
  }
  return Status::InvalidArgument("unreachable");
}

// --- Commands ------------------------------------------------------------------------

Status CmdGenerate(const ParsedArgs& parsed, std::ostream& out) {
  std::string kind = FlagOr(parsed, "kind", "graph");
  auto scale = IntFlagOr(parsed, "scale", 14);
  MAZE_RETURN_IF_ERROR(scale.status());
  auto edge_factor = IntFlagOr(parsed, "edge-factor", 16);
  MAZE_RETURN_IF_ERROR(edge_factor.status());
  auto seed = IntFlagOr(parsed, "seed", 1);
  MAZE_RETURN_IF_ERROR(seed.status());
  std::string out_path = FlagOr(parsed, "out", "");
  if (out_path.empty()) return Status::InvalidArgument("--out is required");

  if (kind == "ratings") {
    // Ratings matrices only have a text form: "user item rating" lines.
    RatingsParams params;
    params.scale = scale.value();
    params.edge_factor = edge_factor.value();
    auto items = IntFlagOr(parsed, "items", 1024);
    MAZE_RETURN_IF_ERROR(items.status());
    params.num_items = static_cast<VertexId>(items.value());
    params.seed = static_cast<uint64_t>(seed.value());
    RatingsDataset ds = GenerateRatings(params);
    FILE* f = std::fopen(out_path.c_str(), "w");
    if (f == nullptr) return Status::IoError("cannot open " + out_path);
    std::fprintf(f, "# users: %u items: %u\n", ds.num_users, ds.num_items);
    for (const Rating& r : ds.ratings) {
      std::fprintf(f, "%u %u %.1f\n", r.user, r.item, r.value);
    }
    std::fclose(f);
    out << "wrote " << ds.ratings.size() << " ratings (" << ds.num_users
        << " users x " << ds.num_items << " items) to " << out_path << "\n";
    return Status::OK();
  }

  EdgeList edges;
  if (kind == "graph") {
    edges = GenerateRmat(RmatParams::Graph500(scale.value(), edge_factor.value(),
                                              seed.value()));
    edges.Deduplicate();
  } else if (kind == "triangles") {
    edges = GenerateRmat(RmatParams::TriangleCounting(
        scale.value(), edge_factor.value(), seed.value()));
    edges.OrientBySmallerId();
  } else {
    return Status::InvalidArgument("unknown --kind '" + kind +
                                   "' (graph|triangles|ratings)");
  }
  MAZE_RETURN_IF_ERROR(WriteAs(edges, out_path));
  out << "wrote " << edges.edges.size() << " edges over " << edges.num_vertices
      << " vertices to " << out_path << "\n";
  return Status::OK();
}

Status CmdConvert(const ParsedArgs& parsed, std::ostream& out) {
  if (parsed.positional.size() != 2) {
    return Status::InvalidArgument("usage: convert IN OUT");
  }
  auto edges = ReadAs(parsed.positional[0]);
  MAZE_RETURN_IF_ERROR(edges.status());
  MAZE_RETURN_IF_ERROR(WriteAs(edges.value(), parsed.positional[1]));
  out << "converted " << parsed.positional[0] << " -> " << parsed.positional[1]
      << " (" << edges.value().edges.size() << " edges)\n";
  return Status::OK();
}

Status CmdStats(const ParsedArgs& parsed, std::ostream& out) {
  if (parsed.positional.size() != 1) {
    return Status::InvalidArgument("usage: stats PATH");
  }
  auto edges = ReadAs(parsed.positional[0]);
  MAZE_RETURN_IF_ERROR(edges.status());
  Graph g = Graph::FromEdges(edges.value(), GraphDirections::kOutOnly);
  DegreeStats stats = ComputeOutDegreeStats(g);
  TextTable table("Graph statistics: " + parsed.positional[0]);
  table.SetHeader({"Metric", "Value"});
  table.AddRow({"vertices", std::to_string(g.num_vertices())});
  table.AddRow({"edges", std::to_string(g.num_edges())});
  table.AddRow({"max out-degree", std::to_string(stats.max_degree)});
  table.AddRow({"mean out-degree", FormatDouble(stats.mean_degree, 2)});
  table.AddRow({"top-1% edge share", FormatDouble(stats.top1pct_edge_share, 3)});
  table.AddRow({"power-law exponent",
                FormatDouble(stats.power_law_exponent, 2)});
  out << table.Render();
  return Status::OK();
}

Status CmdDatasets(std::ostream& out) {
  TextTable table("Dataset registry (run --dataset NAME / serve `load`)");
  table.SetHeader({"Name", "Replaces", "Paper |V|", "Paper |E|", "Kind"});
  for (const DatasetInfo& info : AllDatasets()) {
    table.AddRow({info.name, info.paper_name,
                  std::to_string(info.paper_vertices),
                  std::to_string(info.paper_edges),
                  info.is_ratings ? "ratings (cf)" : "graph"});
  }
  out << table.Render();
  return Status::OK();
}

// A default RunConfig (and every engine config) reads MAZE_FAULTS through
// rt::fault::SpecFromEnv, which aborts on a malformed plan. run and serve vet
// the variable here first, so a bad plan is an INVALID_ARGUMENT status even
// when --faults would override it.
Status CheckFaultsEnv() {
  const char* env = std::getenv("MAZE_FAULTS");
  if (env == nullptr || *env == '\0') return Status::OK();
  Status s = rt::fault::ParseFaultSpec(env).status();
  if (s.ok()) return s;
  return Status::InvalidArgument("MAZE_FAULTS: " + s.message());
}

// --threads N resizes the process-wide scheduler before engine work starts.
// Absent flag = keep the MAZE_THREADS/hardware sizing.
Status ApplyThreadsFlag(const ParsedArgs& parsed, std::ostream& out) {
  if (parsed.flags.find("threads") == parsed.flags.end()) return Status::OK();
  auto threads = IntFlagOr(parsed, "threads", 0);
  MAZE_RETURN_IF_ERROR(threads.status());
  if (threads.value() < 1) {
    return Status::InvalidArgument("--threads must be >= 1");
  }
  ThreadPool::Default().Resize(static_cast<unsigned>(threads.value()));
  out << "threads: " << ThreadPool::Default().num_threads() << "\n";
  return Status::OK();
}

// Runs one (algo, engine) pair and prints its summary + metrics line. When
// `report` is non-null, appends the run's resource row to it; when
// `attribution` is non-null, appends the run's critical-path decomposition
// (and annotates the live trace when spans are being recorded).
Status RunOnce(const std::string& algo, bench::EngineKind engine,
               const EdgeList& edges, const std::string& dataset,
               int iterations, bench::RunConfig config,
               obs::ResourceReport* report,
               obs::attrib::AttributionReport* attribution,
               std::ostream& out) {
  rt::RunMetrics metrics;
  std::string summary;
  if (algo == "pagerank") {
    rt::PageRankOptions opt;
    opt.iterations = iterations;
    auto r = bench::RunPageRank(engine, edges, opt, config);
    metrics = r.metrics;
    summary = "pagerank: " + std::to_string(r.iterations) + " iterations";
  } else if (algo == "bfs") {
    EdgeList sym = edges;
    sym.Symmetrize();
    auto r = bench::RunBfs(engine, sym, rt::BfsOptions{0}, config);
    metrics = r.metrics;
    uint64_t reached = 0;
    for (uint32_t d : r.distance) reached += d != kInfiniteDistance;
    summary = "bfs: reached " + std::to_string(reached) + " vertices in " +
              std::to_string(r.levels) + " levels";
  } else if (algo == "triangles") {
    EdgeList oriented = edges;
    oriented.OrientBySmallerId();
    if (engine == bench::EngineKind::kBspgraph) config.bsp_phases = 100;
    auto r = bench::RunTriangleCount(engine, oriented, {}, config);
    metrics = r.metrics;
    summary = "triangles: " + std::to_string(r.triangles);
  } else if (algo == "cc") {
    EdgeList sym = edges;
    sym.Symmetrize();
    auto r = bench::RunConnectedComponents(engine, sym, {}, config);
    metrics = r.metrics;
    summary = "cc: " + std::to_string(r.num_components) + " components";
  } else if (algo == "cf") {
    std::string name = dataset.empty() ? "netflix" : dataset;
    auto ratings = TryLoadRatingsDataset(name, -2);
    MAZE_RETURN_IF_ERROR(ratings.status());
    BipartiteGraph g = ratings.value().ToGraph();
    rt::CfOptions opt;
    opt.k = 16;
    opt.iterations = iterations;
    opt.method = rt::CfMethod::kSgd;
    if (engine == bench::EngineKind::kBspgraph) config.bsp_phases = 10;
    auto r = bench::RunCf(engine, g, opt, config);
    metrics = r.metrics;
    summary = "cf: rmse " + FormatDouble(r.final_rmse, 4);
  } else {
    return Status::InvalidArgument("unknown --algo '" + algo + "'");
  }

  out << summary << "\n";
  out << "engine=" << bench::EngineName(engine) << " ranks=" << config.num_ranks
      << " simulated_seconds=" << FormatDouble(metrics.elapsed_seconds, 5)
      << " net_bytes=" << metrics.bytes_sent
      << " peak_mem_bytes=" << metrics.memory_peak_bytes << "\n";
  if (config.faults.enabled) {
    out << "faults: injected=" << metrics.faults_injected
        << " retries=" << metrics.transport_retries
        << " dups=" << metrics.duplicated_frames
        << " checkpoints=" << metrics.checkpoints_written
        << " restarts=" << metrics.crash_restarts << " recovery_seconds="
        << FormatDouble(metrics.recovery_seconds, 5) << "\n";
  }
  std::string dataset_label =
      dataset.empty() ? (algo == "cf" ? "netflix" : "input") : dataset;
  if (attribution != nullptr || obs::Enabled()) {
    obs::attrib::Attribution attributed = obs::attrib::Attribute(metrics);
    // Overlay the critical path onto the live trace (no-op unless spans are
    // being recorded) even when no attribution report was requested.
    obs::attrib::AnnotateTrace(attributed, bench::EngineName(engine));
    if (attribution != nullptr) {
      obs::attrib::AttributionRow row;
      row.engine = bench::EngineName(engine);
      row.algorithm = algo;
      row.dataset = dataset_label;
      row.ranks = config.num_ranks;
      row.attribution = std::move(attributed);
      attribution->Add(std::move(row));
    }
  }
  if (report != nullptr) {
    bench::Measurement m;
    m.engine = engine;
    m.algorithm = algo;
    m.dataset = dataset_label;
    m.ranks = config.num_ranks;
    m.seconds = metrics.elapsed_seconds;
    m.metrics = std::move(metrics);
    report->Add(bench::ResourceRowFrom(m));
  }
  return Status::OK();
}

// Name-sorted registry snapshots as [{"name": ..., ...}] arrays, the tail of
// both --metrics dumps. Counters and gauges carry one "value".
template <typename Snapshot>
void WriteValues(const char* key, const std::vector<Snapshot>& snapshots,
                 obs::JsonWriter* w) {
  w->BeginArray(key);
  for (const Snapshot& s : snapshots) {
    w->BeginObject().Field("name", s.name).Field("value", s.value).EndObject();
  }
  w->EndArray();
}

void WriteHistograms(obs::JsonWriter* w) {
  w->BeginArray("histograms");
  for (const obs::HistogramSnapshot& h : obs::SnapshotHistograms()) {
    w->BeginObject().Field("name", h.name);
    obs::WriteHistogramFields(h, w);
    w->EndObject();
  }
  w->EndArray();
}

// The --metrics dump: the resource report, the critical-path attribution
// summary, and name-sorted counter and histogram snapshots, one JSON object.
Status WriteMetricsJson(const obs::ResourceReport& report,
                        const obs::attrib::AttributionReport& attribution,
                        const std::string& path) {
  obs::JsonWriter w;
  w.BeginObject()
      .Key("resource")
      .Raw(report.ToJson())
      .Key("attribution")
      .Raw(attribution.ToJson());
  WriteValues("counters", obs::SnapshotCounters(), &w);
  WriteHistograms(&w);
  w.EndObject();
  return obs::WriteJsonFile(path, w.str());
}

Status CmdRun(const ParsedArgs& parsed, std::ostream& out) {
  MAZE_RETURN_IF_ERROR(CheckFaultsEnv());
  MAZE_RETURN_IF_ERROR(ApplyThreadsFlag(parsed, out));
  std::string algo = FlagOr(parsed, "algo", "pagerank");
  std::string engine_name = FlagOr(parsed, "engine", "native");
  auto ranks = IntFlagOr(parsed, "ranks", 1);
  MAZE_RETURN_IF_ERROR(ranks.status());
  auto iterations = IntFlagOr(parsed, "iterations", 10);
  MAZE_RETURN_IF_ERROR(iterations.status());
  std::string trace_path = FlagOr(parsed, "trace", "");
  std::string metrics_path = FlagOr(parsed, "metrics", "");
  std::string explain_path = FlagOr(parsed, "explain", "");

  // "--engine all" sweeps every engine that supports the rank count.
  std::vector<bench::EngineKind> engines;
  if (engine_name == "all") {
    engines = ranks.value() > 1 ? bench::MultiNodeEngines()
                                : bench::AllEngines();
  } else {
    auto engine = bench::EngineByName(engine_name);
    MAZE_RETURN_IF_ERROR(engine.status());
    engines.push_back(engine.value());
  }

  bench::RunConfig config;
  config.num_ranks = ranks.value();
  // The resource report wants the per-step timeline for its percentiles, and
  // attribution can only explain steps that were recorded.
  config.trace =
      !metrics_path.empty() || !trace_path.empty() || !explain_path.empty();

  // Fault plan: --faults=<spec> wins over the MAZE_FAULTS environment plan
  // (which RunConfig already defaulted to).
  std::string faults_spec = FlagOr(parsed, "faults", "");
  if (!faults_spec.empty()) {
    auto faults = rt::fault::ParseFaultSpec(faults_spec);
    MAZE_RETURN_IF_ERROR(faults.status());
    config.faults = std::move(faults).value();
  }

  // Input: an edge-list file or a registry stand-in.
  EdgeList edges;
  std::string input = FlagOr(parsed, "input", "");
  std::string dataset = FlagOr(parsed, "dataset", "");
  if (algo != "cf") {
    if (!input.empty()) {
      auto loaded = ReadAs(input);
      MAZE_RETURN_IF_ERROR(loaded.status());
      edges = std::move(loaded).value();
    } else if (!dataset.empty()) {
      auto loaded = TryLoadGraphDataset(dataset, -2);
      MAZE_RETURN_IF_ERROR(loaded.status());
      edges = std::move(loaded).value();
    } else {
      return Status::InvalidArgument("run needs --input or --dataset");
    }
  }

  if (!trace_path.empty() || !metrics_path.empty()) {
    obs::ResetAll();
    obs::SetEnabled(true);
    obs::SetResourceEnabled(true);
  }

  obs::ResourceReport report;
  obs::attrib::AttributionReport attribution;
  bool want_attribution = !metrics_path.empty() || !explain_path.empty();
  for (bench::EngineKind engine : engines) {
    MAZE_RETURN_IF_ERROR(RunOnce(algo, engine, edges, dataset,
                                 iterations.value(), config,
                                 metrics_path.empty() ? nullptr : &report,
                                 want_attribution ? &attribution : nullptr,
                                 out));
  }

  if (!trace_path.empty() || !metrics_path.empty()) {
    obs::SetEnabled(false);
    obs::SetResourceEnabled(false);
  }
  if (!trace_path.empty()) {
    MAZE_RETURN_IF_ERROR(obs::WriteChromeTrace(trace_path));
    out << "trace: wrote " << trace_path
        << " (load in https://ui.perfetto.dev or chrome://tracing)\n";
    out << obs::SummaryText();
  }
  if (!metrics_path.empty()) {
    MAZE_RETURN_IF_ERROR(WriteMetricsJson(report, attribution, metrics_path));
    out << "metrics: wrote " << metrics_path << "\n";
    out << report.ToMarkdown();
  }
  if (!explain_path.empty()) {
    MAZE_RETURN_IF_ERROR(
        obs::WriteJsonFile(explain_path, attribution.ToJson()));
    out << "explain: wrote " << explain_path << "\n";
    out << attribution.ToMarkdown();
  }
  return Status::OK();
}

// The serve --metrics dump: the final ServiceReport plus name-sorted
// counter/gauge/histogram snapshots and the telemetry time-series rings, one
// JSON object — everything the live endpoint could have served, persisted at
// exit for offline analysis.
Status WriteServeMetricsJson(const serve::ServiceReport& report,
                             const obs::TelemetryRegistry& telemetry,
                             const std::string& path) {
  obs::JsonWriter w;
  w.BeginObject().Key("report").Raw(report.ToJson());
  WriteValues("counters", obs::SnapshotCounters(), &w);
  WriteValues("gauges", obs::SnapshotGauges(), &w);
  WriteHistograms(&w);
  w.BeginObject("telemetry").Field("scrapes", telemetry.scrapes());
  // One {"name", "windows": [...]} entry per series; `window` writes the
  // fields of one scrape window.
  auto series = [&w](const char* key, const auto& all, auto window) {
    w.BeginArray(key);
    for (const auto& s : all) {
      w.BeginObject().Field("name", s.name).BeginArray("windows");
      for (const auto& win : s.windows) {
        w.BeginObject().Field("scrape", win.scrape);
        window(win);
        w.EndObject();
      }
      w.EndArray().EndObject();
    }
    w.EndArray();
  };
  auto value_delta = [&w](const auto& win) {
    w.Field("value", win.value).Field("delta", win.delta);
  };
  series("counters", telemetry.Counters(), value_delta);
  series("gauges", telemetry.Gauges(), value_delta);
  series("histograms", telemetry.Histograms(),
         [&w](const obs::HistogramWindow& win) {
           w.Field("count", win.count)
               .Field("sum", win.sum)
               .Field("delta_count", win.delta_count)
               .Field("delta_sum", win.delta_sum)
               .Field("delta_p50", win.delta_p50)
               .Field("delta_p99", win.delta_p99)
               .Field("delta_max", win.delta_max);
         });
  w.EndObject().EndObject();
  return obs::WriteJsonFile(path, w.str());
}

Status CmdServe(const ParsedArgs& parsed, std::ostream& out) {
  MAZE_RETURN_IF_ERROR(CheckFaultsEnv());
  MAZE_RETURN_IF_ERROR(ApplyThreadsFlag(parsed, out));
  std::string script_path = FlagOr(parsed, "script", "");
  if (script_path.empty()) {
    return Status::InvalidArgument("serve needs --script PATH");
  }

  serve::ScriptOptions options;
  auto workers = IntFlagOr(parsed, "workers", options.service.workers);
  MAZE_RETURN_IF_ERROR(workers.status());
  if (workers.value() < 1) {
    return Status::InvalidArgument("--workers must be >= 1");
  }
  options.service.workers = workers.value();
  auto queue_depth = IntFlagOr(parsed, "queue-depth",
                               static_cast<int>(options.service.queue_depth));
  MAZE_RETURN_IF_ERROR(queue_depth.status());
  if (queue_depth.value() < 1) {
    return Status::InvalidArgument("--queue-depth must be >= 1");
  }
  options.service.queue_depth = static_cast<size_t>(queue_depth.value());
  auto cache_bytes = IntFlagOr(parsed, "cache-bytes",
                               static_cast<int>(options.service.cache_bytes));
  MAZE_RETURN_IF_ERROR(cache_bytes.status());
  if (cache_bytes.value() < 0) {
    return Status::InvalidArgument("--cache-bytes must be >= 0");
  }
  options.service.cache_bytes = static_cast<size_t>(cache_bytes.value());
  auto scale_adjust =
      IntFlagOr(parsed, "scale-adjust", options.default_scale_adjust);
  MAZE_RETURN_IF_ERROR(scale_adjust.status());
  options.default_scale_adjust = scale_adjust.value();

  auto listen = IntFlagOr(parsed, "listen", -1);
  MAZE_RETURN_IF_ERROR(listen.status());
  if (parsed.flags.count("listen") != 0 &&
      (listen.value() < 0 || listen.value() > 65535)) {
    return Status::InvalidArgument("--listen must be a port in [0, 65535]");
  }
  auto slo_p99 = DoubleFlagOr(parsed, "slo-p99-ms", 0.0);
  MAZE_RETURN_IF_ERROR(slo_p99.status());
  if (parsed.flags.count("slo-p99-ms") != 0 && slo_p99.value() <= 0) {
    return Status::InvalidArgument("--slo-p99-ms must be > 0");
  }
  auto slo_burn = DoubleFlagOr(parsed, "slo-burn", 2.0);
  MAZE_RETURN_IF_ERROR(slo_burn.status());
  if (slo_burn.value() <= 0) {
    return Status::InvalidArgument("--slo-burn must be > 0");
  }
  std::string slo_dump = FlagOr(parsed, "slo-dump", "");
  std::string slo_perfetto = FlagOr(parsed, "slo-perfetto", "");
  if ((!slo_dump.empty() || !slo_perfetto.empty()) &&
      parsed.flags.count("slo-p99-ms") == 0) {
    return Status::InvalidArgument(
        "--slo-dump/--slo-perfetto need --slo-p99-ms (no watchdog to trip)");
  }

  std::ifstream script(script_path);
  if (!script) return Status::IoError("cannot open " + script_path);

  serve::Service service(options.service);

  // MAZE_TELEMETRY configures the scrape interval, ring depth, file sink, and
  // (optionally) the endpoint port; --listen overrides the port. Port 0 binds
  // an ephemeral port, printed below so callers can find it.
  obs::TelemetrySpec spec;
  const char* env = std::getenv("MAZE_TELEMETRY");
  if (env != nullptr && *env != '\0') {
    auto parsed_spec = obs::ParseTelemetrySpec(env);
    MAZE_RETURN_IF_ERROR(parsed_spec.status());
    spec = parsed_spec.value();
  }
  if (listen.value() >= 0) spec.listen_port = listen.value();
  obs::TelemetryRegistry telemetry(spec.options);
  std::unique_ptr<obs::MetricsEndpoint> endpoint;
  if (spec.listen_port >= 0) {
    endpoint = std::make_unique<obs::MetricsEndpoint>(&telemetry);
    endpoint->SetHealthz([&service] {
      obs::JsonWriter w;
      w.BeginObject().Field("status", "ok");
      return w.Field("degradation", service.degradation()).EndObject().str();
    });
    endpoint->SetReport([&service] { return service.Report().ToJson(); });
    MAZE_RETURN_IF_ERROR(endpoint->Start(spec.listen_port));
    out << "telemetry: listening on 127.0.0.1:" << endpoint->port() << "\n";
  }
  // Background scraping only when something consumes it live; script `scrape`
  // commands still work without the thread.
  if (endpoint != nullptr || !spec.options.file_sink.empty()) telemetry.Start();

  std::unique_ptr<serve::SloWatchdog> watchdog;
  if (parsed.flags.count("slo-p99-ms") != 0) {
    serve::SloOptions slo;
    slo.p99_target_ms = slo_p99.value();
    slo.burn_threshold = slo_burn.value();
    slo.dump_path = slo_dump;
    slo.perfetto_path = slo_perfetto;
    // Events go to stderr: background scrapes emit from the telemetry thread,
    // and stderr is a synchronized standard stream while `out` may not be.
    watchdog = std::make_unique<serve::SloWatchdog>(slo, &telemetry, &service,
                                                    &std::cerr);
  }

  serve::ServiceReport report;
  Status run =
      serve::RunServeScript(service, script, options, out, &report, &telemetry);
  watchdog.reset();  // Unhooks before the registry stops.
  if (endpoint != nullptr) endpoint->Stop();
  telemetry.Stop();
  MAZE_RETURN_IF_ERROR(run);

  std::string report_path = FlagOr(parsed, "report", "");
  if (!report_path.empty()) {
    MAZE_RETURN_IF_ERROR(obs::WriteJsonFile(report_path, report.ToJson()));
    out << "report: wrote " << report_path << "\n";
  }
  std::string metrics_path = FlagOr(parsed, "metrics", "");
  if (!metrics_path.empty()) {
    MAZE_RETURN_IF_ERROR(WriteServeMetricsJson(report, telemetry, metrics_path));
    out << "metrics: wrote " << metrics_path << "\n";
  }
  return Status::OK();
}

}  // namespace

Status RunCommand(const std::vector<std::string>& args, std::ostream& out) {
  if (args.empty()) {
    return Status::InvalidArgument(
        "usage: maze_cli generate|convert|stats|datasets|run|serve ...");
  }
  auto parsed = Parse(std::vector<std::string>(args.begin() + 1, args.end()));
  MAZE_RETURN_IF_ERROR(parsed.status());
  const std::string& command = args[0];
  if (command == "generate") return CmdGenerate(parsed.value(), out);
  if (command == "convert") return CmdConvert(parsed.value(), out);
  if (command == "stats") return CmdStats(parsed.value(), out);
  if (command == "datasets") return CmdDatasets(out);
  if (command == "run") return CmdRun(parsed.value(), out);
  if (command == "serve") return CmdServe(parsed.value(), out);
  return Status::InvalidArgument("unknown command '" + command + "'");
}

int Main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  Status status = RunCommand(args, std::cout);
  if (!status.ok()) {
    std::cerr << "maze_cli: " << status.ToString() << "\n";
    return 1;
  }
  return 0;
}

}  // namespace maze::cli
