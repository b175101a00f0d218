// In-memory span log for the benchmark's traced runs.
//
// The benchmark wraps every call it makes into a maze layer (core, an engine,
// serve) in a ScopedSpan. Spans nest through a per-thread parent stack and
// inherit the enclosing request id, so one job or one serve request groups
// all of its spans. Nothing is written until the run ends: WriteChromeTrace
// renders the log as Chrome/Perfetto JSON, and LayerSelfSeconds turns it into
// per-layer self time (a span's duration minus the part of it that its child
// spans cover).
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  std::string layer;  // "bench", "core", "serve" or an engine name.
  std::string name;
  uint64_t id = 0;
  uint64_t parent = 0;      // 0 = root.
  uint64_t request_id = 0;  // Job index (batch) or serve request id.
  uint32_t tid = 0;
  double start_us = 0;  // Steady clock, since the first span of the process.
  double dur_us = 0;
};

class SpanLog {
 public:
  void SetEnabled(bool enabled);
  bool enabled() const;
  void Push(SpanRecord record);
  std::vector<SpanRecord> Records() const;
  // Writes the log as Chrome trace-event JSON; returns false on I/O failure.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<SpanRecord> records_;  // Guarded by mu_.
};

// The process-wide log every ScopedSpan records into.
SpanLog& Spans();

// Records [construction, destruction) on the calling thread when the log is
// enabled; otherwise costs one relaxed flag read.
class ScopedSpan {
 public:
  ScopedSpan(std::string layer, std::string name, uint64_t request_id = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  // For spans whose request id is only known once the call returns.
  void set_request_id(uint64_t id) { record_.request_id = id; }

  // Records a child of this span from timings the callee reported rather
  // than ones the benchmark measured (e.g. a serve request's queue wait).
  // `offset_us` is from this span's start. No-op when this span is inactive.
  void AddReportedChild(std::string layer, std::string name, double offset_us,
                        double dur_us) const;

 private:
  bool active_ = false;
  SpanRecord record_;
};

// Self seconds per layer over the whole log.
std::map<std::string, double> LayerSelfSeconds(
    const std::vector<SpanRecord>& records);

// Renders LayerSelfSeconds as a fixed-width text table with each layer's
// share of the total.
std::string SelfTimeTable(const std::map<std::string, double>& self_seconds);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
