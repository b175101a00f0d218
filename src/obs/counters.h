// Named monotonic counters and log-linear histograms.
//
// Counters accumulate totals (bytes over a rank pair, messages delivered);
// histograms capture distributions (message sizes, inbox depths, per-superstep
// latencies) in fixed memory with bounded relative error, HdrHistogram-style:
// values below 2^kSubBits land in exact unit buckets; above that, each power
// of two is split into 2^kSubBits linear sub-buckets, so any recorded value is
// reported within 1/2^kSubBits (12.5%) of its true magnitude.
//
// Both are registered by name in a process-wide registry; lookups take a lock,
// so hot paths should cache the returned reference (registered objects are
// never destroyed before process exit). Record/Add are lock-free.
#ifndef MAZE_OBS_COUNTERS_H_
#define MAZE_OBS_COUNTERS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace maze::obs {

class Counter {
 public:
  void Add(uint64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

// A value that goes both ways (queue depth, in-flight count, degradation
// level): Set publishes the current level, Add nudges it. Unlike counters,
// gauges carry no monotonicity contract — the telemetry scraper records the
// sampled value per window, and the OpenMetrics exposition renders the bare
// sample (no `_total`).
class Gauge {
 public:
  void Set(int64_t value) { value_.store(value, std::memory_order_relaxed); }
  void Add(int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

class Histogram {
 public:
  // 2^3 = 8 sub-buckets per power of two: <= 12.5% relative bucket width.
  static constexpr int kSubBits = 3;
  static constexpr int kSubBuckets = 1 << kSubBits;
  // Unit buckets [0, kSubBuckets) + 8 sub-buckets for each msb in [3, 63].
  static constexpr int kNumBuckets = kSubBuckets * 62;

  void Record(uint64_t value);

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  uint64_t max() const { return max_.load(std::memory_order_relaxed); }
  double Mean() const;

  // Nearest-rank percentile, p in [0, 100]; returns the inclusive upper bound
  // of the bucket holding the rank-th smallest recorded value (exact for
  // values < kSubBuckets). 0 when empty.
  uint64_t Percentile(double p) const;
  uint64_t P50() const { return Percentile(50); }
  uint64_t P95() const { return Percentile(95); }
  uint64_t P99() const { return Percentile(99); }

  void Reset();

  // Bucket geometry, exposed for the boundary-math tests.
  static int BucketIndex(uint64_t value);
  static uint64_t BucketUpperBound(int index);  // Inclusive.

  // Relaxed per-bucket loads. Each bucket is individually monotone under
  // concurrent Record, so a count derived by summing this array can never
  // decrease between two snapshots — the property the telemetry scraper
  // depends on (count_ read separately could be ahead of the bucket the
  // racing Record already bumped, or behind it, depending on scrape timing).
  std::array<uint64_t, kNumBuckets> SnapshotBuckets() const;

 private:
  std::array<std::atomic<uint64_t>, kNumBuckets> buckets_{};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> max_{0};
};

// Registry lookup; creates on first use. The reference stays valid for the
// life of the process (Reset zeroes values but never invalidates).
Counter& GetCounter(const std::string& name);
Gauge& GetGauge(const std::string& name);
Histogram& GetHistogram(const std::string& name);

// Total GetCounter/GetGauge/GetHistogram/GetExemplars calls so far. Each lookup takes
// the registry lock, so per-request hot paths must cache the returned
// references; serve_stress_test asserts the delta across a request storm is
// zero using this.
uint64_t RegistryLookups();

namespace internal {
// Lets sibling registries (telemetry's exemplar store) count toward
// RegistryLookups without exposing the counter itself.
void BumpRegistryLookup();
}  // namespace internal

// Name-sorted (name, object) pairs for every registered counter/histogram.
// The pointers stay valid for the life of the process; does not count as a
// lookup (it is the scraper's periodic enumeration, not a hot-path miss).
std::vector<std::pair<std::string, Counter*>> AllCounters();
std::vector<std::pair<std::string, Gauge*>> AllGauges();
std::vector<std::pair<std::string, Histogram*>> AllHistograms();

struct CounterSnapshot {
  std::string name;
  uint64_t value = 0;
};
struct GaugeSnapshot {
  std::string name;
  int64_t value = 0;
};
struct HistogramSnapshot {
  std::string name;
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t max = 0;
  uint64_t p50 = 0;
  uint64_t p95 = 0;
  uint64_t p99 = 0;
};

class JsonWriter;
// Appends count, sum, max, p50, p95 and p99 to the object open in `*w`.
void WriteHistogramFields(const HistogramSnapshot& h, JsonWriter* w);

// Name-sorted snapshots of every registered counter/gauge/histogram.
std::vector<CounterSnapshot> SnapshotCounters();
std::vector<GaugeSnapshot> SnapshotGauges();
std::vector<HistogramSnapshot> SnapshotHistograms();

// Zeroes all registered counters, gauges, and histograms (names stay
// registered).
void ResetCountersAndHistograms();

}  // namespace maze::obs

#endif  // MAZE_OBS_COUNTERS_H_
