#include "obs/export.h"

#include <map>
#include <set>
#include <sstream>

#include "obs/counters.h"
#include "obs/json.h"
#include "obs/obs.h"
#include "util/table.h"

namespace maze::obs {

std::string ChromeTraceJson() {
  std::vector<Event> events = SnapshotEvents();
  JsonWriter w;
  w.BeginObject().BeginArray("traceEvents");

  // Name the process tracks: measured ranks, their simulated-wire shadows, and
  // the critical-path track when attribution annotations are present.
  std::set<int> measured_ranks;
  std::set<int> wire_ranks;  // Wire spans and counter tracks share these pids.
  bool critical_path = false;
  for (const Event& e : events) {
    switch (e.kind) {
      case EventKind::kSpan:
        measured_ranks.insert(e.rank);
        break;
      case EventKind::kWireSpan:
      case EventKind::kCounter:
        wire_ranks.insert(e.rank);
        break;
      case EventKind::kCritSpan:
      case EventKind::kFlowStart:
      case EventKind::kFlowEnd:
        critical_path = true;
        break;
    }
  }
  auto process_name = [&w](int pid, const std::string& name) {
    w.BeginObject()
        .Field("ph", "M")
        .Field("pid", pid)
        .Field("name", "process_name")
        .BeginObject("args")
        .Field("name", name)
        .EndObject()
        .EndObject();
  };
  for (int r : measured_ranks) {
    process_name(r, "rank " + std::to_string(r) + " (measured)");
  }
  for (int r : wire_ranks) {
    process_name(kSimWirePidBase + r,
                 "rank " + std::to_string(r) + " (simulated wire)");
  }
  if (critical_path) process_name(kCritPathPid, "critical path (modeled)");

  // Every event but a flow end opens with ph/pid (and tid where it has one).
  auto begin = [&w](const char* ph, int pid) -> JsonWriter& {
    return w.BeginObject().Field("ph", ph).Field("pid", pid);
  };
  for (const Event& e : events) {
    if (e.kind == EventKind::kSpan) {
      // Measured spans reuse Event::bytes for the serving-layer request id
      // (PushSpanWithId); non-zero ids become a slice arg so an exemplar's
      // request_id finds its trace slice by search.
      begin("X", e.rank)
          .Field("tid", e.tid)
          .Field("ts", e.ts_us)
          .Field("dur", e.dur_us)
          .Field("name", e.name)
          .Field("cat", e.cat)
          .BeginObject("args")
          .Field("rank", e.rank)
          .Field("step", e.step);
      if (e.bytes != 0) w.Field("request_id", e.bytes);
      w.EndObject().EndObject();
    } else if (e.kind == EventKind::kCounter) {
      // Counter tracks ("C") live in the simulated clock domain alongside the
      // wire spans: one series per (rank pid, track name).
      begin("C", kSimWirePidBase + e.rank)
          .Field("name", e.name)
          .Field("cat", e.cat)
          .Field("ts", e.ts_us)
          .BeginObject("args")
          .Field(e.name, e.value)
          .EndObject()
          .EndObject();
    } else if (e.kind == EventKind::kCritSpan) {
      // One slice per step barrier on the critical-path track, named by its
      // binding term; args pin the binding rank and load-imbalance factor.
      begin("X", kCritPathPid)
          .Field("tid", 0)
          .Field("ts", e.ts_us)
          .Field("dur", e.dur_us)
          .Field("name", e.name)
          .Field("cat", e.cat)
          .BeginObject("args")
          .Field("binding_rank", e.rank)
          .Field("step", e.step)
          .Field("imbalance_factor", e.value)
          .EndObject()
          .EndObject();
    } else if (e.kind == EventKind::kFlowStart ||
               e.kind == EventKind::kFlowEnd) {
      // Flow arrows linking binding slices across steps ("s" starts inside the
      // upstream slice, "f" with bp=e binds to the enclosing downstream one).
      const bool start = e.kind == EventKind::kFlowStart;
      w.BeginObject().Field("ph", start ? "s" : "f");
      if (!start) w.Field("bp", "e");
      w.Field("pid", kCritPathPid)
          .Field("tid", 0)
          .Field("id", e.bytes)
          .Field("ts", e.ts_us)
          .Field("name", e.name)
          .Field("cat", e.cat)
          .BeginObject("args")
          .Field("binding_rank", e.rank)
          .Field("step", e.step)
          .EndObject()
          .EndObject();
    } else {
      // Simulated wire time: one async begin/end pair per SimClock step & rank.
      const int pid = kSimWirePidBase + e.rank;
      begin("b", pid)
          .Field("tid", 0)
          .Field("id", e.tid)
          .Field("ts", e.ts_us)
          .Field("name", e.name)
          .Field("cat", e.cat)
          .BeginObject("args")
          .Field("rank", e.rank)
          .Field("step", e.step)
          .Field("bytes", e.bytes)
          .Field("messages", e.msgs)
          .EndObject()
          .EndObject();
      begin("e", pid)
          .Field("tid", 0)
          .Field("id", e.tid)
          .Field("ts", e.ts_us + e.dur_us)
          .Field("name", e.name)
          .Field("cat", e.cat)
          .EndObject();
    }
  }

  w.EndArray()
      .Field("displayTimeUnit", "ms")
      .BeginObject("otherData")
      .Field("droppedEvents", DroppedEvents())
      .BeginObject("counters");
  for (const CounterSnapshot& c : SnapshotCounters()) w.Field(c.name, c.value);
  w.EndObject().BeginObject("histograms");
  for (const HistogramSnapshot& h : SnapshotHistograms()) {
    w.BeginObject(h.name);
    WriteHistogramFields(h, &w);
    w.EndObject();
  }
  w.EndObject().EndObject().EndObject();
  return w.str();
}

Status WriteChromeTrace(const std::string& path) {
  return WriteJsonFile(path, ChromeTraceJson());
}

std::string SummaryText() {
  std::ostringstream out;

  // Spans rolled up by (category, name).
  std::map<std::pair<std::string, std::string>, std::pair<uint64_t, double>>
      span_totals;
  for (const Event& e : SnapshotEvents()) {
    if (e.kind != EventKind::kSpan) continue;
    auto& [count, total_us] = span_totals[{e.cat, e.name}];
    ++count;
    total_us += e.dur_us;
  }
  if (!span_totals.empty()) {
    TextTable spans("obs: phase spans");
    spans.SetHeader({"Category", "Phase", "Count", "Total ms", "Mean us"});
    for (const auto& [key, value] : span_totals) {
      spans.AddRow({key.first, key.second, std::to_string(value.first),
                    FormatDouble(value.second / 1e3, 3),
                    FormatDouble(value.second / static_cast<double>(value.first),
                                 1)});
    }
    out << spans.Render();
  }

  std::vector<CounterSnapshot> counters = SnapshotCounters();
  if (!counters.empty()) {
    TextTable table("obs: counters");
    table.SetHeader({"Counter", "Value"});
    for (const CounterSnapshot& c : counters) {
      table.AddRow({c.name, std::to_string(c.value)});
    }
    out << table.Render();
  }

  std::vector<HistogramSnapshot> hists = SnapshotHistograms();
  if (!hists.empty()) {
    TextTable table("obs: histograms");
    table.SetHeader({"Histogram", "Count", "Mean", "p50", "p95", "p99", "Max"});
    for (const HistogramSnapshot& h : hists) {
      double mean =
          h.count == 0 ? 0.0
                       : static_cast<double>(h.sum) / static_cast<double>(h.count);
      table.AddRow({h.name, std::to_string(h.count), FormatDouble(mean, 1),
                    std::to_string(h.p50), std::to_string(h.p95),
                    std::to_string(h.p99), std::to_string(h.max)});
    }
    out << table.Render();
  }

  if (uint64_t dropped = DroppedEvents(); dropped > 0) {
    out << "obs: " << dropped << " events dropped to ring-buffer wrap\n";
  }
  return out.str();
}

}  // namespace maze::obs
