#include "obs/attrib.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <sstream>

#include "obs/json.h"
#include "obs/obs.h"

namespace maze::obs::attrib {
namespace {

std::string Fixed(double v, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, v);
  return buf;
}

// Max / mean / argmax of one barrier term. Falls back to the aggregate (which
// is a max by construction) when the record carries no per-rank vector: mean
// degrades to the max, imbalance reads as zero, and argmax stays -1.
struct TermStats {
  double max = 0;
  double mean = 0;
  int argmax = -1;
};

TermStats StatsFor(const std::vector<double>& per_rank, double aggregate_max) {
  TermStats s;
  if (per_rank.empty()) {
    s.max = aggregate_max;
    s.mean = aggregate_max;
    return s;
  }
  s.max = per_rank[0];
  s.argmax = 0;
  double sum = per_rank[0];
  for (size_t r = 1; r < per_rank.size(); ++r) {
    sum += per_rank[r];
    if (per_rank[r] > s.max) {  // Strict: ties resolve to the lowest rank.
      s.max = per_rank[r];
      s.argmax = static_cast<int>(r);
    }
  }
  s.mean = sum / static_cast<double>(per_rank.size());
  // Accumulation rounding can push the mean a ulp past the max; pin it so
  // imbalance excess stays >= 0 and the perfect-balance bound stays <= actual.
  if (s.mean > s.max) s.mean = s.max;
  return s;
}

StepAttribution AttributeStep(const rt::StepRecord& s) {
  StepAttribution a;
  a.step = s.step;
  TermStats c = StatsFor(s.rank_compute_seconds, s.compute_seconds);
  TermStats w = StatsFor(s.rank_wire_seconds, s.wire_seconds);
  TermStats f = StatsFor(s.rank_fault_seconds, s.fault_seconds);

  // Which terms the barrier actually charges: both when sequential, only the
  // larger when the engine overlaps comm with compute (compute wins ties).
  const bool compute_counted = !s.overlapped || c.max >= w.max;
  const bool wire_counted = !s.overlapped || c.max < w.max;

  a.compute_seconds = compute_counted ? c.mean : 0;
  a.wire_seconds = wire_counted ? w.mean : 0;
  a.imbalance_seconds = (compute_counted ? c.max - c.mean : 0) +
                        (wire_counted ? w.max - w.mean : 0);
  a.fault_seconds = f.max;
  double base = s.overlapped ? std::max(c.max, w.max) : c.max + w.max;
  a.step_seconds = base + f.max;
  a.imbalance_factor = c.mean > 0 ? c.max / c.mean : 1.0;

  // Binding term: the barrier's single largest charged contribution; its
  // argmax rank is the step's critical rank. Ties prefer compute, then wire —
  // deterministic so output bytes never depend on evaluation order.
  const double cv = compute_counted ? c.max : 0;
  const double wv = wire_counted ? w.max : 0;
  if (cv <= 0 && wv <= 0 && f.max <= 0) {
    a.binding_term = BindingTerm::kNone;
    a.binding_rank = -1;
  } else if (cv >= wv && cv >= f.max) {
    a.binding_term = BindingTerm::kCompute;
    a.binding_rank = c.argmax;
  } else if (wv >= f.max) {
    a.binding_term = BindingTerm::kWire;
    a.binding_rank = w.argmax;
  } else {
    a.binding_term = BindingTerm::kFault;
    a.binding_rank = f.argmax;
  }
  return a;
}

}  // namespace

const char* BindingTermName(BindingTerm term) {
  switch (term) {
    case BindingTerm::kNone:
      return "none";
    case BindingTerm::kCompute:
      return "compute";
    case BindingTerm::kWire:
      return "wire";
    case BindingTerm::kFault:
      return "fault";
    case BindingTerm::kImbalance:
      return "imbalance";
  }
  return "none";
}

BindingTerm Attribution::DominantComponent() const {
  double best = critical_compute_seconds;
  BindingTerm term = BindingTerm::kCompute;
  if (critical_wire_seconds > best) {
    best = critical_wire_seconds;
    term = BindingTerm::kWire;
  }
  if (imbalance_idle_seconds > best) {
    best = imbalance_idle_seconds;
    term = BindingTerm::kImbalance;
  }
  if (fault_recovery_seconds > best) {
    best = fault_recovery_seconds;
    term = BindingTerm::kFault;
  }
  return best > 0 ? term : BindingTerm::kNone;
}

const char* Attribution::Verdict() const {
  switch (DominantComponent()) {
    case BindingTerm::kCompute:
      return "compute-bound";
    case BindingTerm::kWire:
      return "network-bound";
    case BindingTerm::kImbalance:
      return "imbalance-bound";
    case BindingTerm::kFault:
      return "fault-bound";
    case BindingTerm::kNone:
      break;
  }
  return "idle";
}

Attribution Attribute(const rt::RunMetrics& metrics) {
  Attribution out;
  if (metrics.steps.empty()) return out;
  out.available = true;

  double elapsed = 0;
  double factor_weight = 0;     // sum of step seconds
  double factor_weighted = 0;   // sum of factor * step seconds
  for (const rt::StepRecord& s : metrics.steps) {
    out.steps.push_back(AttributeStep(s));
    const StepAttribution& a = out.steps.back();

    out.critical_compute_seconds += a.compute_seconds;
    out.critical_wire_seconds += a.wire_seconds;
    out.imbalance_idle_seconds += a.imbalance_seconds;
    out.fault_recovery_seconds += a.fault_seconds;
    elapsed += a.step_seconds;

    out.max_imbalance_factor =
        std::max(out.max_imbalance_factor, a.imbalance_factor);
    if (a.step_seconds > 0) {
      factor_weight += a.step_seconds;
      factor_weighted += a.imbalance_factor * a.step_seconds;
    }

    // What-if bounds, one counterfactual at a time from the same records.
    TermStats c = StatsFor(s.rank_compute_seconds, s.compute_seconds);
    TermStats w = StatsFor(s.rank_wire_seconds, s.wire_seconds);
    TermStats f = StatsFor(s.rank_fault_seconds, s.fault_seconds);
    double base = s.overlapped ? std::max(c.max, w.max) : c.max + w.max;
    out.bounds.infinite_bandwidth_seconds += c.max + f.max;
    out.bounds.perfect_balance_seconds +=
        (s.overlapped ? std::max(c.mean, w.mean) : c.mean + w.mean) + f.max;
    out.bounds.zero_fault_seconds += base;
    out.bounds.best_case_seconds += c.mean;

    // Per-rank slack against this barrier (only meaningful with a per-rank
    // breakdown; missing vectors read as zero busy time for that term).
    size_t ranks = std::max({s.rank_compute_seconds.size(),
                             s.rank_wire_seconds.size(),
                             s.rank_fault_seconds.size()});
    if (ranks == 0) continue;
    if (out.rank_slack_seconds.size() < ranks) {
      out.rank_slack_seconds.resize(ranks, 0.0);
    }
    for (size_t r = 0; r < ranks; ++r) {
      double cr =
          r < s.rank_compute_seconds.size() ? s.rank_compute_seconds[r] : 0;
      double wr = r < s.rank_wire_seconds.size() ? s.rank_wire_seconds[r] : 0;
      double fr = r < s.rank_fault_seconds.size() ? s.rank_fault_seconds[r] : 0;
      double busy = (s.overlapped ? std::max(cr, wr) : cr + wr) + fr;
      double slack = a.step_seconds - busy;
      if (slack > 0) out.rank_slack_seconds[r] += slack;
    }
  }

  out.num_ranks = static_cast<int>(out.rank_slack_seconds.size());
  // The sum of recomputed barrier times; bitwise-equal to the clock's
  // elapsed_seconds for engine-produced traces (same maxes, same fold order).
  out.elapsed_seconds = elapsed;
  out.mean_imbalance_factor =
      factor_weight > 0 ? factor_weighted / factor_weight : 1.0;
  return out;
}

std::string Attribution::ToJson() const {
  JsonWriter w;
  w.BeginObject().Field("available", available);
  if (!available) return w.EndObject().str();
  w.Field("num_ranks", num_ranks)
      .Field("elapsed_seconds", elapsed_seconds)
      .BeginObject("components")
      .Field("critical_compute_seconds", critical_compute_seconds)
      .Field("critical_wire_seconds", critical_wire_seconds)
      .Field("imbalance_idle_seconds", imbalance_idle_seconds)
      .Field("fault_recovery_seconds", fault_recovery_seconds)
      .EndObject()
      .Field("component_sum_seconds", ComponentSum())
      .Field("verdict", Verdict())
      .Field("max_imbalance_factor", max_imbalance_factor)
      .Field("mean_imbalance_factor", mean_imbalance_factor)
      .BeginObject("what_if")
      .Field("infinite_bandwidth_seconds", bounds.infinite_bandwidth_seconds)
      .Field("perfect_balance_seconds", bounds.perfect_balance_seconds)
      .Field("zero_fault_seconds", bounds.zero_fault_seconds)
      .Field("best_case_seconds", bounds.best_case_seconds)
      .EndObject();
  w.BeginArray("rank_slack_seconds");
  for (double slack : rank_slack_seconds) w.Value(slack);
  w.EndArray().BeginArray("steps");
  for (const StepAttribution& a : steps) {
    w.BeginObject()
        .Field("step", a.step)
        .Field("seconds", a.step_seconds)
        .Field("binding_term", BindingTermName(a.binding_term))
        .Field("binding_rank", a.binding_rank)
        .Field("compute", a.compute_seconds)
        .Field("wire", a.wire_seconds)
        .Field("imbalance", a.imbalance_seconds)
        .Field("fault", a.fault_seconds)
        .Field("imbalance_factor", a.imbalance_factor)
        .EndObject();
  }
  w.EndArray().EndObject();
  return w.str();
}

std::string AttributionReport::ToJson() const {
  JsonWriter w;
  w.BeginObject().BeginArray("rows");
  for (const AttributionRow& r : rows_) {
    w.BeginObject()
        .Field("engine", r.engine)
        .Field("algorithm", r.algorithm)
        .Field("dataset", r.dataset)
        .Field("ranks", r.ranks)
        .Key("attribution")
        .Raw(r.attribution.ToJson())
        .EndObject();
  }
  w.EndArray().EndObject();
  return w.str();
}

std::string AttributionReport::ToMarkdown() const {
  // Group rows per algorithm like the resource report: one table per
  // algorithm, engines as rows — the paper's cross-framework reading order.
  std::map<std::string, std::vector<const AttributionRow*>> by_algo;
  for (const AttributionRow& r : rows_) {
    by_algo[r.algorithm].push_back(&r);
  }
  std::ostringstream out;
  out << "# Time attribution (critical path)\n";
  for (const auto& [algo, rows] : by_algo) {
    out << "\n## " << algo << "\n\n"
        << "| engine | dataset | ranks | elapsed s | compute s | wire s | "
           "imbalance s | fault s | wire % | imb. max | x inf-bw | x balanced "
           "| x no-fault | x best | verdict |\n"
        << "|---|---|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|"
           "---:|---|\n";
    for (const AttributionRow* r : rows) {
      const Attribution& a = r->attribution;
      if (!a.available) {
        out << "| " << r->engine << " | " << r->dataset << " | " << r->ranks
            << " | - | - | - | - | - | - | - | - | - | - | - | not traced |\n";
        continue;
      }
      auto speedup = [&](double bound) {
        return bound > 0 ? Fixed(a.elapsed_seconds / bound, 2)
                         : std::string("-");
      };
      double wire_pct = a.elapsed_seconds > 0
                            ? 100.0 * a.critical_wire_seconds / a.elapsed_seconds
                            : 0;
      out << "| " << r->engine << " | " << r->dataset << " | " << r->ranks
          << " | " << Fixed(a.elapsed_seconds, 6) << " | "
          << Fixed(a.critical_compute_seconds, 6) << " | "
          << Fixed(a.critical_wire_seconds, 6) << " | "
          << Fixed(a.imbalance_idle_seconds, 6) << " | "
          << Fixed(a.fault_recovery_seconds, 6) << " | " << Fixed(wire_pct, 1)
          << " | " << Fixed(a.max_imbalance_factor, 2) << " | "
          << speedup(a.bounds.infinite_bandwidth_seconds) << " | "
          << speedup(a.bounds.perfect_balance_seconds) << " | "
          << speedup(a.bounds.zero_fault_seconds) << " | "
          << speedup(a.bounds.best_case_seconds) << " | " << a.Verdict()
          << " |\n";
    }
  }
  out << "\nColumns: the four components sum to the modeled elapsed time; "
         "`wire %` is the critical-wire share (the paper's network-bound "
         "test); `x inf-bw`/`x balanced`/`x no-fault`/`x best` are the "
         "speedups a counterfactual run would get with infinite bandwidth, "
         "perfect load balance, zero faults, or all three at once — the "
         "remaining \"ninja gap\" of each framework.\n";
  return out.str();
}

void AnnotateTrace(const Attribution& attribution, const char* engine_cat) {
  if (!Enabled() || !attribution.available) return;
  // Slices live in the simulated clock domain: step barriers tile [0, elapsed)
  // exactly, so accumulate begin times the same way SimClock charged them.
  double t_us = 0;
  uint64_t pending_flow = 0;
  bool have_flow = false;
  for (const StepAttribution& a : attribution.steps) {
    double dur_us = a.step_seconds * 1e6;
    if (a.step_seconds <= 0) continue;  // Trailing/zero barriers draw nothing.
    PushCritSpan(BindingTermName(a.binding_term), engine_cat, a.binding_rank,
                 a.step, t_us, dur_us, a.imbalance_factor);
    if (have_flow) {
      // Arrow from the previous binding slice into this one: the handoff of
      // the run's critical path between (possibly different) binding ranks.
      PushFlowEnd("critical-path", engine_cat, a.binding_rank, a.step,
                  t_us + dur_us * 0.5, pending_flow);
    }
    pending_flow = PushFlowStart("critical-path", engine_cat, a.binding_rank,
                                 a.step, t_us + dur_us * 0.5);
    have_flow = true;
    t_us += dur_us;
  }
}

}  // namespace maze::obs::attrib
