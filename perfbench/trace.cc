#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <unordered_map>
#include <utility>

#include "obs/json.h"

namespace perfbench {
namespace {

std::atomic<uint64_t> g_next_span_id{1};
std::atomic<uint32_t> g_next_tid{1};

struct ThreadState {
  uint32_t tid = g_next_tid.fetch_add(1);
  std::vector<const SpanRecord*> open;  // Innermost last.
};

ThreadState& Thread() {
  thread_local ThreadState state;
  return state;
}

double NowMicros() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration<double, std::micro>(Clock::now() - epoch)
      .count();
}

}  // namespace

void SpanLog::SetEnabled(bool enabled) {
  enabled_.store(enabled, std::memory_order_relaxed);
}

bool SpanLog::enabled() const {
  return enabled_.load(std::memory_order_relaxed);
}

void SpanLog::Push(SpanRecord record) {
  std::lock_guard<std::mutex> lock(mu_);
  records_.push_back(std::move(record));
}

std::vector<SpanRecord> SpanLog::Records() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_;
}

bool SpanLog::WriteChromeTrace(const std::string& path) const {
  std::vector<SpanRecord> records = Records();
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
  for (size_t i = 0; i < records.size(); ++i) {
    const SpanRecord& r = records[i];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                 "\"parent\":%llu,\"request_id\":%llu}}",
                 i == 0 ? "" : ",", maze::obs::JsonEscape(r.name).c_str(),
                 maze::obs::JsonEscape(r.layer).c_str(), r.tid, r.start_us,
                 r.dur_us, static_cast<unsigned long long>(r.id),
                 static_cast<unsigned long long>(r.parent),
                 static_cast<unsigned long long>(r.request_id));
  }
  std::fprintf(f, "\n]}\n");
  bool ok = !std::ferror(f);
  return std::fclose(f) == 0 && ok;
}

SpanLog& Spans() {
  static SpanLog* log = new SpanLog();
  return *log;
}

ScopedSpan::ScopedSpan(std::string layer, std::string name,
                       uint64_t request_id) {
  if (!Spans().enabled()) return;
  active_ = true;
  ThreadState& t = Thread();
  record_.layer = std::move(layer);
  record_.name = std::move(name);
  record_.id = g_next_span_id.fetch_add(1);
  record_.tid = t.tid;
  if (!t.open.empty()) {
    record_.parent = t.open.back()->id;
    if (request_id == 0) request_id = t.open.back()->request_id;
  }
  record_.request_id = request_id;
  t.open.push_back(&record_);
  record_.start_us = NowMicros();
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  record_.dur_us = NowMicros() - record_.start_us;
  Thread().open.pop_back();
  Spans().Push(std::move(record_));
}

void ScopedSpan::AddReportedChild(std::string layer, std::string name,
                                  double offset_us, double dur_us) const {
  if (!active_ || dur_us <= 0) return;
  SpanRecord child;
  child.layer = std::move(layer);
  child.name = std::move(name);
  child.id = g_next_span_id.fetch_add(1);
  child.parent = record_.id;
  child.request_id = record_.request_id;
  child.tid = record_.tid;
  child.start_us = record_.start_us + offset_us;
  child.dur_us = dur_us;
  Spans().Push(std::move(child));
}

std::map<std::string, double> LayerSelfSeconds(
    const std::vector<SpanRecord>& records) {
  std::unordered_map<uint64_t, std::vector<std::pair<double, double>>> children;
  for (const SpanRecord& r : records) {
    if (r.parent != 0) {
      children[r.parent].emplace_back(r.start_us, r.start_us + r.dur_us);
    }
  }
  std::map<std::string, double> self;
  for (const SpanRecord& r : records) {
    double begin = r.start_us;
    double end = r.start_us + r.dur_us;
    double covered = 0;
    auto it = children.find(r.id);
    if (it != children.end()) {
      std::vector<std::pair<double, double>>& kids = it->second;
      std::sort(kids.begin(), kids.end());
      double cursor = begin;
      for (auto [b, e] : kids) {
        b = std::max(b, cursor);
        e = std::min(e, end);
        if (e > b) {
          covered += e - b;
          cursor = e;
        }
      }
    }
    self[r.layer] += (r.dur_us - covered) * 1e-6;
  }
  return self;
}

std::string SelfTimeTable(const std::map<std::string, double>& self_seconds) {
  double total = 0;
  for (const auto& [layer, s] : self_seconds) total += s;
  std::vector<std::pair<double, std::string>> rows;
  for (const auto& [layer, s] : self_seconds) rows.emplace_back(s, layer);
  std::sort(rows.rbegin(), rows.rend());
  std::string out = "layer          self_s      share\n";
  char line[96];
  for (const auto& [s, layer] : rows) {
    std::snprintf(line, sizeof(line), "%-12s %9.4f %9.1f%%\n", layer.c_str(),
                  s, total > 0 ? 100.0 * s / total : 0.0);
    out += line;
  }
  std::snprintf(line, sizeof(line), "%-12s %9.4f\n", "total", total);
  out += line;
  return out;
}

}  // namespace perfbench
