#include "serve/bill.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "obs/attrib.h"
#include "obs/json.h"

namespace maze::serve {

namespace {

// Replaces measured per-rank compute with a pure function of schedule-
// invariant inputs — the attrib_differential_test canonicalization, extended
// with the plan's straggler multiplier so a deliberately slowed rank dilates
// the canonical clock the way it dilates the measured one. Everything else in
// the records (wire seconds, bytes, fault stalls) is already modeled and
// schedule-invariant.
void CanonicalizeCompute(rt::RunMetrics* m, const rt::fault::FaultSpec& faults) {
  double elapsed = 0;
  for (rt::StepRecord& s : m->steps) {
    if (!s.rank_compute_seconds.empty() && s.StepSeconds() > 0) {
      double max = 0;
      for (size_t r = 0; r < s.rank_compute_seconds.size(); ++r) {
        uint64_t bytes = r < s.rank_bytes.size() ? s.rank_bytes[r] : 0;
        double fake = (1e-4 * (1 + (s.step * 31 + static_cast<int>(r) * 7) % 5) +
                       static_cast<double>(bytes) * 1e-12) *
                      faults.StragglerMultiplier(static_cast<int>(r));
        s.rank_compute_seconds[r] = fake;
        max = std::max(max, fake);
      }
      s.compute_seconds = max;
    }
    elapsed += s.StepSeconds();
  }
  m->elapsed_seconds = elapsed;
}

}  // namespace

FlightCost ComputeFlightCost(const rt::RunMetrics& metrics, int ranks,
                             const rt::fault::FaultSpec& faults) {
  FlightCost c;
  c.ranks = ranks;
  c.modeled_seconds = metrics.elapsed_seconds;
  obs::attrib::Attribution a = obs::attrib::Attribute(metrics);
  if (a.available) {
    c.compute_seconds = a.critical_compute_seconds;
    c.wire_seconds = a.critical_wire_seconds;
    c.imbalance_seconds = a.imbalance_idle_seconds;
    c.fault_seconds = a.fault_recovery_seconds;
  } else {
    // Untraced run: nothing to split, charge the whole clock as compute.
    c.compute_seconds = metrics.elapsed_seconds;
  }
  c.cpu_seconds = metrics.total_compute_seconds;

  rt::RunMetrics canon = metrics;
  CanonicalizeCompute(&canon, faults);
  obs::attrib::Attribution ca = obs::attrib::Attribute(canon);
  c.canon_modeled_seconds = canon.elapsed_seconds;
  if (ca.available) {
    c.canon_compute_seconds = ca.critical_compute_seconds;
    c.canon_wire_seconds = ca.critical_wire_seconds;
    c.canon_imbalance_seconds = ca.imbalance_idle_seconds;
    c.canon_fault_seconds = ca.fault_recovery_seconds;
  } else {
    c.canon_compute_seconds = canon.elapsed_seconds;
  }

  c.wire_bytes = metrics.bytes_sent;
  c.messages = metrics.messages_sent;
  c.state_bytes = metrics.memory_state_bytes;
  c.msgbuf_bytes = metrics.memory_msgbuf_bytes;
  c.peak_bytes = metrics.memory_peak_bytes;
  c.faults_injected = metrics.faults_injected;
  c.transport_retries = metrics.transport_retries;
  return c;
}

const char* BillPathName(BillPath path) {
  switch (path) {
    case BillPath::kFresh:
      return "fresh";
    case BillPath::kDedup:
      return "dedup";
    case BillPath::kCacheHit:
      return "cache_hit";
  }
  return "unknown";
}

void FillShare(const FlightCostPtr& flight, size_t i, size_t n,
               QueryBill* bill) {
  const FlightCost& c = *flight;
  const double dn = static_cast<double>(n);
  bill->share_count = static_cast<int>(n);
  bill->modeled_seconds = c.modeled_seconds / dn;
  bill->compute_seconds = c.compute_seconds / dn;
  bill->wire_seconds = c.wire_seconds / dn;
  bill->imbalance_seconds = c.imbalance_seconds / dn;
  bill->fault_seconds = c.fault_seconds / dn;
  bill->cpu_seconds = c.cpu_seconds / dn;
  bill->canon_modeled_seconds = c.canon_modeled_seconds / dn;
  bill->wire_bytes = IntegerShare(c.wire_bytes, i, n);
  bill->messages = IntegerShare(c.messages, i, n);
  bill->flight = flight;
}

void BillTotals::AddFlight(const FlightCost& cost) {
  ++entries;
  modeled_seconds += cost.modeled_seconds;
  compute_seconds += cost.compute_seconds;
  wire_seconds += cost.wire_seconds;
  imbalance_seconds += cost.imbalance_seconds;
  fault_seconds += cost.fault_seconds;
  cpu_seconds += cost.cpu_seconds;
  wire_bytes += cost.wire_bytes;
  messages += cost.messages;
}

void BillTotals::AddBill(const QueryBill& bill) {
  ++entries;
  modeled_seconds += bill.modeled_seconds;
  compute_seconds += bill.compute_seconds;
  wire_seconds += bill.wire_seconds;
  imbalance_seconds += bill.imbalance_seconds;
  fault_seconds += bill.fault_seconds;
  cpu_seconds += bill.cpu_seconds;
  wire_bytes += bill.wire_bytes;
  messages += bill.messages;
}

std::string BillTotals::ToJson() const {
  obs::JsonWriter w;
  w.BeginObject()
      .Field("entries", entries)
      .Field("modeled_seconds", modeled_seconds)
      .Field("compute_seconds", compute_seconds)
      .Field("wire_seconds", wire_seconds)
      .Field("imbalance_seconds", imbalance_seconds)
      .Field("fault_seconds", fault_seconds)
      .Field("cpu_seconds", cpu_seconds)
      .Field("wire_bytes", wire_bytes)
      .Field("messages", messages)
      .EndObject();
  return w.str();
}

namespace {
bool Close(double flight, double billed, double rel_tol) {
  double scale = std::max(1.0, std::abs(flight));
  return std::abs(flight - billed) <= rel_tol * scale;
}
}  // namespace

bool BillsConserve(const BillTotals& flights, const BillTotals& billed,
                   double rel_tol) {
  return flights.wire_bytes == billed.wire_bytes &&
         flights.messages == billed.messages &&
         Close(flights.modeled_seconds, billed.modeled_seconds, rel_tol) &&
         Close(flights.compute_seconds, billed.compute_seconds, rel_tol) &&
         Close(flights.wire_seconds, billed.wire_seconds, rel_tol) &&
         Close(flights.imbalance_seconds, billed.imbalance_seconds, rel_tol) &&
         Close(flights.fault_seconds, billed.fault_seconds, rel_tol) &&
         Close(flights.cpu_seconds, billed.cpu_seconds, rel_tol);
}

bool CostGreater(const QueryBill& a, const QueryBill& b) {
  if (a.canon_modeled_seconds != b.canon_modeled_seconds) {
    return a.canon_modeled_seconds > b.canon_modeled_seconds;
  }
  if (a.wire_bytes != b.wire_bytes) return a.wire_bytes > b.wire_bytes;
  return a.request_id < b.request_id;
}

std::vector<QueryBill> TopCostRanked(std::vector<QueryBill> bills, size_t k) {
  std::sort(bills.begin(), bills.end(), CostGreater);
  if (bills.size() > k) bills.resize(k);
  return bills;
}

std::string BillJson(const QueryBill& bill, bool canonical_only) {
  obs::JsonWriter w;
  w.BeginObject()
      .Field("request_id", bill.request_id)
      .Field("key", bill.key)
      .Field("path", BillPathName(bill.path))
      .Field("share_count", bill.share_count);
  if (!canonical_only) {
    w.Field("modeled_seconds", bill.modeled_seconds)
        .Field("compute_seconds", bill.compute_seconds)
        .Field("wire_seconds", bill.wire_seconds)
        .Field("imbalance_seconds", bill.imbalance_seconds)
        .Field("fault_seconds", bill.fault_seconds)
        .Field("cpu_seconds", bill.cpu_seconds)
        .Field("wall_seconds", bill.wall_seconds);
  }
  w.Field("canon_modeled_seconds", bill.canon_modeled_seconds)
      .Field("wire_bytes", bill.wire_bytes)
      .Field("messages", bill.messages);
  if (bill.flight != nullptr) {
    const FlightCost& c = *bill.flight;
    w.BeginObject("flight").Field("ranks", c.ranks);
    if (!canonical_only) {
      w.Field("modeled_seconds", c.modeled_seconds)
          .Field("cpu_seconds", c.cpu_seconds);
    }
    w.Field("canon_modeled_seconds", c.canon_modeled_seconds)
        .Field("canon_compute_seconds", c.canon_compute_seconds)
        .Field("canon_wire_seconds", c.canon_wire_seconds)
        .Field("canon_imbalance_seconds", c.canon_imbalance_seconds)
        .Field("canon_fault_seconds", c.canon_fault_seconds)
        .Field("wire_bytes", c.wire_bytes)
        .Field("messages", c.messages)
        .Field("state_bytes", c.state_bytes)
        .Field("msgbuf_bytes", c.msgbuf_bytes)
        .Field("peak_bytes", c.peak_bytes)
        .Field("faults_injected", c.faults_injected)
        .Field("transport_retries", c.transport_retries)
        .EndObject();
  }
  w.EndObject();
  return w.str();
}

FlightRecorder::FlightRecorder(size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {
  ring_.reserve(capacity_);
}

uint64_t FlightRecorder::Push(QueryBill bill) {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t seq = next_seq_++;
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(bill));
  } else {
    ring_[seq % capacity_] = std::move(bill);
  }
  return seq;
}

uint64_t FlightRecorder::next_seq() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_seq_;
}

std::vector<QueryBill> FlightRecorder::Since(uint64_t seq) const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t held = ring_.size();
  uint64_t oldest = next_seq_ - held;
  if (seq < oldest) seq = oldest;
  std::vector<QueryBill> out;
  out.reserve(next_seq_ - seq);
  for (uint64_t s = seq; s < next_seq_; ++s) {
    out.push_back(ring_[s % capacity_]);
  }
  return out;
}

std::vector<QueryBill> FlightRecorder::Snapshot() const { return Since(0); }

std::vector<QueryBill> FlightRecorder::TopK(size_t k) const {
  return TopCostRanked(Snapshot(), k);
}

std::string ForensicDumpJson(const SloTripInfo& trip,
                             const std::vector<QueryBill>& window,
                             const std::vector<QueryBill>& ring, size_t top_k) {
  obs::JsonWriter w;
  auto bill_array = [&w](const char* key, const std::vector<QueryBill>& bills) {
    w.BeginArray(key);
    for (const QueryBill& b : bills) w.Raw(BillJson(b, /*canonical_only=*/true));
    w.EndArray();
  };
  w.BeginObject()
      .Field("event", "slo_trip")
      .Field("scrape", trip.scrape)
      .Field("level", trip.level)
      .Field("prev_level", trip.prev_level);
  bill_array("window", window);
  bill_array("ring", ring);
  // The named culprits: the window's bills ranked by deterministic cost. An
  // idle tripping window (e.g. a burst that drained before the scrape) falls
  // back to ranking the ring.
  bill_array("top", TopCostRanked(window.empty() ? ring : window, top_k));
  w.EndObject();
  return w.str();
}

Status WriteFlightsTrace(const std::string& path,
                         const std::vector<QueryBill>& bills) {
  obs::JsonWriter w;
  w.BeginObject().BeginArray("traceEvents");
  w.BeginObject()
      .Field("name", "process_name")
      .Field("ph", "M")
      .Field("pid", kFlightsPid)
      .Field("tid", 0)
      .BeginObject("args")
      .Field("name", "query flights")
      .EndObject()
      .EndObject();
  for (const QueryBill& b : bills) {
    uint64_t dur = static_cast<uint64_t>(b.wall_seconds * 1e6);
    uint64_t ts = b.wall_end_us > dur ? b.wall_end_us - dur : 0;
    w.BeginObject()
        .Field("name", b.key)
        .Field("cat", "flight")
        .Field("ph", "X")
        .Field("pid", kFlightsPid)
        .Field("tid", 0)
        .Field("ts", ts)
        .Field("dur", dur)
        .BeginObject("args")
        .Field("request_id", b.request_id)
        .Field("path", BillPathName(b.path))
        .Field("canon_modeled_us", b.canon_modeled_seconds * 1e6)
        .Field("wire_bytes", b.wire_bytes)
        .EndObject()
        .EndObject();
  }
  w.EndArray().Field("displayTimeUnit", "ms").EndObject();
  return obs::WriteJsonFile(path, w.str());
}

}  // namespace maze::serve
