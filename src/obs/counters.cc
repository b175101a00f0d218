#include "obs/counters.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <map>
#include <memory>
#include <mutex>

#include "obs/json.h"

namespace maze::obs {
namespace {

// Leaked singletons: counter/histogram references handed out must stay valid
// even during static destruction of client code.
struct CounterRegistry {
  std::mutex mu;
  std::map<std::string, std::unique_ptr<Counter>> counters;
  std::map<std::string, std::unique_ptr<Gauge>> gauges;
  std::map<std::string, std::unique_ptr<Histogram>> histograms;

  static CounterRegistry& Get() {
    static CounterRegistry* r = new CounterRegistry();
    return *r;
  }
};

std::atomic<uint64_t> g_registry_lookups{0};

}  // namespace

int Histogram::BucketIndex(uint64_t value) {
  if (value < kSubBuckets) return static_cast<int>(value);
  int msb = std::bit_width(value) - 1;  // In [kSubBits, 63].
  int sub = static_cast<int>((value >> (msb - kSubBits)) & (kSubBuckets - 1));
  return kSubBuckets * (msb - kSubBits + 1) + sub;
}

uint64_t Histogram::BucketUpperBound(int index) {
  if (index < kSubBuckets) return static_cast<uint64_t>(index);
  int msb = index / kSubBuckets + kSubBits - 1;
  int sub = index % kSubBuckets;
  return ((static_cast<uint64_t>(kSubBuckets + sub + 1)) << (msb - kSubBits)) - 1;
}

void Histogram::Record(uint64_t value) {
  buckets_[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  uint64_t prev = max_.load(std::memory_order_relaxed);
  while (prev < value &&
         !max_.compare_exchange_weak(prev, value, std::memory_order_relaxed)) {
  }
}

double Histogram::Mean() const {
  uint64_t n = count();
  return n == 0 ? 0.0 : static_cast<double>(sum()) / static_cast<double>(n);
}

uint64_t Histogram::Percentile(double p) const {
  uint64_t n = count();
  if (n == 0) return 0;
  p = std::clamp(p, 0.0, 100.0);
  uint64_t rank = static_cast<uint64_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
  if (rank == 0) rank = 1;
  uint64_t cumulative = 0;
  for (int i = 0; i < kNumBuckets; ++i) {
    cumulative += buckets_[i].load(std::memory_order_relaxed);
    if (cumulative >= rank) return BucketUpperBound(i);
  }
  return max();
}

void Histogram::Reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

std::array<uint64_t, Histogram::kNumBuckets> Histogram::SnapshotBuckets()
    const {
  std::array<uint64_t, kNumBuckets> out;
  for (int i = 0; i < kNumBuckets; ++i) {
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return out;
}

Counter& GetCounter(const std::string& name) {
  g_registry_lookups.fetch_add(1, std::memory_order_relaxed);
  CounterRegistry& reg = CounterRegistry::Get();
  std::lock_guard<std::mutex> lock(reg.mu);
  auto& slot = reg.counters[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& GetGauge(const std::string& name) {
  g_registry_lookups.fetch_add(1, std::memory_order_relaxed);
  CounterRegistry& reg = CounterRegistry::Get();
  std::lock_guard<std::mutex> lock(reg.mu);
  auto& slot = reg.gauges[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& GetHistogram(const std::string& name) {
  g_registry_lookups.fetch_add(1, std::memory_order_relaxed);
  CounterRegistry& reg = CounterRegistry::Get();
  std::lock_guard<std::mutex> lock(reg.mu);
  auto& slot = reg.histograms[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>();
  return *slot;
}

uint64_t RegistryLookups() {
  return g_registry_lookups.load(std::memory_order_relaxed);
}

namespace internal {
void BumpRegistryLookup() {
  g_registry_lookups.fetch_add(1, std::memory_order_relaxed);
}
}  // namespace internal

std::vector<std::pair<std::string, Counter*>> AllCounters() {
  CounterRegistry& reg = CounterRegistry::Get();
  std::lock_guard<std::mutex> lock(reg.mu);
  std::vector<std::pair<std::string, Counter*>> out;
  out.reserve(reg.counters.size());
  for (const auto& [name, counter] : reg.counters) {
    out.emplace_back(name, counter.get());
  }
  return out;
}

std::vector<std::pair<std::string, Gauge*>> AllGauges() {
  CounterRegistry& reg = CounterRegistry::Get();
  std::lock_guard<std::mutex> lock(reg.mu);
  std::vector<std::pair<std::string, Gauge*>> out;
  out.reserve(reg.gauges.size());
  for (const auto& [name, gauge] : reg.gauges) {
    out.emplace_back(name, gauge.get());
  }
  return out;
}

std::vector<std::pair<std::string, Histogram*>> AllHistograms() {
  CounterRegistry& reg = CounterRegistry::Get();
  std::lock_guard<std::mutex> lock(reg.mu);
  std::vector<std::pair<std::string, Histogram*>> out;
  out.reserve(reg.histograms.size());
  for (const auto& [name, h] : reg.histograms) {
    out.emplace_back(name, h.get());
  }
  return out;
}

std::vector<CounterSnapshot> SnapshotCounters() {
  CounterRegistry& reg = CounterRegistry::Get();
  std::lock_guard<std::mutex> lock(reg.mu);
  std::vector<CounterSnapshot> out;
  out.reserve(reg.counters.size());
  for (const auto& [name, counter] : reg.counters) {
    out.push_back({name, counter->value()});
  }
  return out;
}

std::vector<GaugeSnapshot> SnapshotGauges() {
  CounterRegistry& reg = CounterRegistry::Get();
  std::lock_guard<std::mutex> lock(reg.mu);
  std::vector<GaugeSnapshot> out;
  out.reserve(reg.gauges.size());
  for (const auto& [name, gauge] : reg.gauges) {
    out.push_back({name, gauge->value()});
  }
  return out;
}

std::vector<HistogramSnapshot> SnapshotHistograms() {
  CounterRegistry& reg = CounterRegistry::Get();
  std::lock_guard<std::mutex> lock(reg.mu);
  std::vector<HistogramSnapshot> out;
  out.reserve(reg.histograms.size());
  for (const auto& [name, h] : reg.histograms) {
    out.push_back({name, h->count(), h->sum(), h->max(), h->P50(), h->P95(),
                   h->P99()});
  }
  return out;
}

void ResetCountersAndHistograms() {
  CounterRegistry& reg = CounterRegistry::Get();
  std::lock_guard<std::mutex> lock(reg.mu);
  for (auto& [name, counter] : reg.counters) counter->Reset();
  for (auto& [name, gauge] : reg.gauges) gauge->Reset();
  for (auto& [name, h] : reg.histograms) h->Reset();
}

void WriteHistogramFields(const HistogramSnapshot& h, JsonWriter* w) {
  w->Field("count", h.count)
      .Field("sum", h.sum)
      .Field("max", h.max)
      .Field("p50", h.p50)
      .Field("p95", h.p95)
      .Field("p99", h.p99);
}

}  // namespace maze::obs
