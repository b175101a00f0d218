// perfbench: runs one benchmark workload against the maze libraries and
// prints its metrics. Normally started by run.py, which builds this binary and
// generates the input file first.
//
//   perfbench --workload batch_1rank|batch_16rank|serve_mixed
//                    --input PATH --seed N --seconds S --trace 0|1
//                    --out-dir DIR [--src-digest HEX]
//
// The last stdout line is one JSON object {correct, attempted, failed,
// metrics}: end-to-end metrics with --trace 0, per-layer metrics with
// --trace 1. The line before it carries host provenance and the input
// fingerprint; DIR receives the same record plus, for traced runs, the span
// trace. The exit code is non-zero on any correctness violation.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <utility>

#include "common.h"
#include "obs/export.h"
#include "obs/json.h"
#include "trace.h"
#include "util/thread_pool.h"

namespace perfbench {
namespace {

// Variables that change which code path the program takes; a number measured
// under one of them is not a number for the default build.
constexpr const char* kPathChangingEnv[] = {
    "MAZE_FAULTS",       "MAZE_NATIVE_OPT", "MAZE_BSP_ARENA",
    "MAZE_SERIAL_RANKS", "MAZE_TELEMETRY",  "MAZE_TRACE"};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--input") {
      args->input = value;
    } else if (flag == "--out-dir") {
      args->out_dir = value;
    } else if (flag == "--src-digest") {
      args->src_digest = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->input.empty() && !args->out_dir.empty() &&
         args->seconds > 0 &&
         (args->workload == "batch_1rank" || args->workload == "batch_16rank" ||
          args->workload == "serve_mixed");
}

// sysfs cache size of the given level ("unknown" when not exposed).
std::string CacheSize(int level) {
  for (int index = 0; index < 8; ++index) {
    std::string dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(index) + "/";
    std::ifstream level_file(dir + "level");
    std::ifstream type_file(dir + "type");
    std::ifstream size_file(dir + "size");
    int l = 0;
    std::string type;
    std::string size;
    if (!(level_file >> l) || !(type_file >> type) || !(size_file >> size)) {
      continue;
    }
    if (l == level && type != "Instruction") return size;
  }
  return "unknown";
}

// Cumulative {steal, total} jiffies over all CPUs from /proc/stat; {0, 0}
// where it is not readable.
std::pair<uint64_t, uint64_t> StealJiffies() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  uint64_t field[8] = {};
  if (!(stat >> cpu) || cpu != "cpu") return {0, 0};
  uint64_t total = 0;
  for (uint64_t& f : field) {
    if (!(stat >> f)) return {0, 0};
    total += f;
  }
  return {field[7], total};  // user nice system idle iowait irq softirq steal
}

std::string Str(const std::string& s) {
  std::string quoted = "\"";
  quoted += maze::obs::JsonEscape(s);
  quoted += '"';
  return quoted;
}

std::string ProvenanceJson(const Args& args, const Outcome& out) {
  const char* threads_env = std::getenv("MAZE_THREADS");
  char fingerprint[32];
  std::snprintf(fingerprint, sizeof(fingerprint), "%016llx",
                static_cast<unsigned long long>(out.input_fingerprint));
  return std::string("{") +
         "\"workload\": " + Str(args.workload) +
         ", \"seed\": " + std::to_string(args.seed) +
         ", \"seconds\": " + std::to_string(args.seconds) +
         ", \"trace\": " + (args.trace ? "1" : "0") +
         ", \"input_fingerprint\": " + Str(fingerprint) +
         ", \"input_vertices\": " + std::to_string(out.input_vertices) +
         ", \"input_edges\": " + std::to_string(out.input_edges) +
         ", \"bfs_source\": " + std::to_string(out.bfs_source) +
         ", \"cores\": " + std::to_string(std::thread::hardware_concurrency()) +
         ", \"pool_threads\": " +
         std::to_string(maze::ThreadPool::Default().num_threads()) +
         ", \"maze_threads_env\": " + Str(threads_env ? threads_env : "") +
         ", \"l2\": " + Str(CacheSize(2)) + ", \"l3\": " + Str(CacheSize(3)) +
         ", \"compiler\": " + Str(PERFBENCH_COMPILER) +
         ", \"build_type\": " + Str(PERFBENCH_BUILD_TYPE) +
         ", \"git_sha\": " + Str(PERFBENCH_GIT_SHA) +
         ", \"src_digest\": " + Str(args.src_digest) + "}";
}

std::string Stem(const Args& args) {
  return args.out_dir + "/" + args.workload + "-seed" +
         std::to_string(args.seed) + (args.trace ? "-trace" : "");
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload "
                 "batch_1rank|batch_16rank|serve_mixed --input PATH --seed N "
                 "--seconds S --trace 0|1 --out-dir DIR [--src-digest HEX]\n");
    return 2;
  }
  for (const char* name : kPathChangingEnv) {
    if (std::getenv(name) != nullptr) {
      std::fprintf(stderr,
                   "perfbench: refusing to run with %s set; it changes the "
                   "code path being measured\n",
                   name);
      return 2;
    }
  }

  // Time the hypervisor gave this VM's CPUs to other guests during the run: a
  // high share marks numbers measured on a contended host.
  const std::pair<uint64_t, uint64_t> steal_before = StealJiffies();
  Outcome out(args.trace);
  if (args.workload == "serve_mixed") {
    RunServe(args, &out);
  } else {
    RunBatch(args, args.workload == "batch_1rank" ? 1 : 16, &out);
  }
  const std::pair<uint64_t, uint64_t> steal_after = StealJiffies();
  if (steal_after.second > steal_before.second) {
    out.info.emplace_back(
        "host_steal_share",
        std::to_string(static_cast<double>(steal_after.first -
                                           steal_before.first) /
                        static_cast<double>(steal_after.second -
                                            steal_before.second)));
  }
  if (!args.trace) out.metrics.Set("peak_rss_mib", PeakRssMib());
  for (const std::string& name : out.metrics.Unset()) {
    out.Violation("metric " + name + " was not measured");
  }

  std::string provenance = ProvenanceJson(args, out);
  std::string stem = Stem(args);
  if (args.trace) {
    std::vector<SpanRecord> spans = Spans().Records();
    std::string table = SelfTimeTable(LayerSelfSeconds(spans));
    std::printf("per-layer self time (benchmark spans, traced pass):\n%s",
                table.c_str());
    if (!Spans().WriteChromeTrace(stem + ".spans.json")) {
      out.Violation("cannot write " + stem + ".spans.json");
    }
    maze::Status s = maze::obs::WriteChromeTrace(stem + ".obs.json");
    if (!s.ok()) out.Violation("obs trace: " + s.ToString());
    std::printf("trace: %zu spans -> %s.spans.json, program trace -> %s.obs.json\n",
                spans.size(), stem.c_str(), stem.c_str());
  }
  for (const std::string& v : out.violations) {
    std::fprintf(stderr, "perfbench: VIOLATION: %s\n", v.c_str());
  }

  out.info.emplace_back(
      "failed_frac",
      std::to_string(out.attempted > 0 ? static_cast<double>(out.failed) /
                                             static_cast<double>(out.attempted)
                                       : 0.0));
  std::string info = "{";
  for (const auto& [key, value] : out.info) {
    info += (info.size() > 1 ? ", " : "") + Str(key) + ": " + Str(value);
  }
  info += "}";
  char head[160];
  std::snprintf(head, sizeof(head),
                "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": ",
                out.correct ? "true" : "false",
                static_cast<unsigned long long>(out.attempted),
                static_cast<unsigned long long>(out.failed));
  std::string result = head + out.metrics.ToJson() + "}";

  std::ofstream record(stem + ".json");
  record << "{\"provenance\": " << provenance << ",\n \"info\": " << info
         << ",\n \"result\": " << result << "}\n";
  if (!record.good()) {
    std::fprintf(stderr, "perfbench: cannot write %s.json\n", stem.c_str());
    return 1;
  }
  std::printf("{\"provenance\": %s, \"info\": %s}\n", provenance.c_str(),
              info.c_str());
  std::printf("%s\n", result.c_str());
  std::fflush(stdout);
  return out.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
