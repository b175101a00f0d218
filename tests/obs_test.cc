#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench_support/artifact.h"
#include "obs/counters.h"
#include "obs/export.h"
#include "obs/json.h"
#include "obs/obs.h"
#include "tests/json_checker.h"
#include "util/thread_pool.h"

namespace maze::obs {
namespace {

using testutil::CountOccurrences;
using testutil::JsonChecker;

// Each TEST runs in its own process (gtest_discover_tests), but tests within
// one suite share the process-global registries; reset defensively.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SetEnabled(false);
    ResetAll();
  }
  void TearDown() override {
    SetEnabled(false);
    ResetAll();
  }
};

TEST_F(ObsTest, DisabledSpansRecordNothing) {
  {
    MAZE_OBS_SPAN("idle", "test", 0, 0);
  }
  EmitSpanEndingNow("idle2", "test", 0, 0, 0.001);
  EXPECT_TRUE(SnapshotEvents().empty());
}

TEST_F(ObsTest, SpanRoundTrip) {
  SetEnabled(true);
  {
    MAZE_OBS_SPAN("work", "test", 3, 7);
  }
  EmitSpanEndingNow("late", "test", 1, 2, 0.0005);
  SetEnabled(false);
  auto events = SnapshotEvents();
  ASSERT_EQ(events.size(), 2u);
  bool saw_work = false;
  bool saw_late = false;
  for (const Event& e : events) {
    if (std::string(e.name) == "work") {
      saw_work = true;
      EXPECT_EQ(e.rank, 3);
      EXPECT_EQ(e.step, 7);
      EXPECT_GE(e.dur_us, 0.0);
    }
    if (std::string(e.name) == "late") {
      saw_late = true;
      EXPECT_EQ(e.rank, 1);
      EXPECT_NEAR(e.dur_us, 500.0, 1.0);
    }
  }
  EXPECT_TRUE(saw_work);
  EXPECT_TRUE(saw_late);
}

TEST_F(ObsTest, CounterAtomicUnderContention) {
  Counter& c = GetCounter("test.contended");
  constexpr uint64_t kPerSlot = 1000;
  constexpr uint64_t kSlots = 64;
  ParallelFor(kSlots, 1, [&](uint64_t lo, uint64_t hi) {
    for (uint64_t s = lo; s < hi; ++s) {
      for (uint64_t i = 0; i < kPerSlot; ++i) c.Add(1);
    }
  });
  EXPECT_EQ(c.value(), kSlots * kPerSlot);
}

TEST_F(ObsTest, HistogramExactBelowEight) {
  // Values below 8 land in exact unit buckets: recorded == reported.
  Histogram& h = GetHistogram("test.small");
  for (uint64_t v = 0; v < 8; ++v) h.Record(v);
  EXPECT_EQ(h.count(), 8u);
  EXPECT_EQ(h.Percentile(1), 0u);
  EXPECT_EQ(h.Percentile(100), 7u);
  EXPECT_EQ(h.max(), 7u);
}

TEST_F(ObsTest, HistogramBucketBoundaries) {
  // Log-linear buckets with 8 sub-buckets per power of two: 1000 and 1023
  // share the [960, 1023] bucket, whose inclusive upper bound is 1023; 1024
  // starts the next power's first bucket [1024, 1151].
  EXPECT_EQ(Histogram::BucketIndex(1000), Histogram::BucketIndex(1023));
  EXPECT_NE(Histogram::BucketIndex(1023), Histogram::BucketIndex(1024));
  EXPECT_EQ(Histogram::BucketUpperBound(Histogram::BucketIndex(1023)), 1023u);
  EXPECT_EQ(Histogram::BucketUpperBound(Histogram::BucketIndex(1024)), 1151u);

  // Relative error of the reported bound stays under 12.5% (1/8).
  for (uint64_t v : {9u, 100u, 1000u, 65537u, 1000000u}) {
    uint64_t bound = Histogram::BucketUpperBound(Histogram::BucketIndex(v));
    EXPECT_GE(bound, v);
    EXPECT_LE(static_cast<double>(bound - v), 0.125 * static_cast<double>(v));
  }
}

TEST_F(ObsTest, HistogramPercentilesNearestRank) {
  Histogram& h = GetHistogram("test.pct");
  // 100 samples of 10, one of 1000: p50/p95 report 10's bucket bound, p99 is
  // still in the bulk, p100 (max) catches the outlier's bucket.
  for (int i = 0; i < 100; ++i) h.Record(10);
  h.Record(1000);
  EXPECT_EQ(h.P50(), 10u);
  EXPECT_EQ(h.P95(), 10u);
  EXPECT_EQ(h.P99(), 10u);
  EXPECT_EQ(h.Percentile(100), 1023u);  // Bucket bound covering 1000.
  EXPECT_EQ(h.max(), 1000u);            // Exact max tracked separately.
}

TEST_F(ObsTest, HistogramConcurrentRecords) {
  Histogram& h = GetHistogram("test.mt");
  constexpr uint64_t kRecords = 20000;
  ParallelFor(kRecords, 64, [&](uint64_t lo, uint64_t hi) {
    for (uint64_t i = lo; i < hi; ++i) h.Record(i % 128);
  });
  EXPECT_EQ(h.count(), kRecords);
}

// --- Chrome trace JSON shape ---------------------------------------------------

TEST_F(ObsTest, ChromeTraceJsonIsValidWithBalancedAsyncEvents) {
  SetEnabled(true);
  EmitSpanEndingNow("compute", "native", 0, 0, 0.001);
  EmitSpanEndingNow("compute", "native", 1, 0, 0.002);
  PushWireSpan("wire", 0, 0, /*sim_ts_us=*/100.0, /*sim_dur_us=*/50.0,
               /*bytes=*/4096, /*msgs=*/2);
  PushWireSpan("wire", 1, 1, /*sim_ts_us=*/200.0, /*sim_dur_us=*/75.0,
               /*bytes=*/8192, /*msgs=*/3);
  GetCounter("test.bytes").Add(4096);
  GetHistogram("test.sizes").Record(512);
  SetEnabled(false);

  std::string json = ChromeTraceJson();
  EXPECT_TRUE(JsonChecker(json).Valid()) << json.substr(0, 400);

  // Every async begin has a matching end (same count; the exporter writes the
  // pair from a single wire record, so ids always match up).
  EXPECT_EQ(CountOccurrences(json, "\"ph\":\"b\""), 2u);
  EXPECT_EQ(CountOccurrences(json, "\"ph\":\"e\""), 2u);
  // Complete spans and process-name metadata are present.
  EXPECT_EQ(CountOccurrences(json, "\"ph\":\"X\""), 2u);
  EXPECT_GE(CountOccurrences(json, "process_name"), 2u);
  // Wire spans render on the synthetic simulated-rank pids.
  EXPECT_NE(json.find("\"pid\":10000"), std::string::npos);
  EXPECT_NE(json.find("\"pid\":10001"), std::string::npos);
  // Counters and histograms ride along in otherData.
  EXPECT_NE(json.find("test.bytes"), std::string::npos);
  EXPECT_NE(json.find("test.sizes"), std::string::npos);
}

TEST_F(ObsTest, SummaryTextListsSpansCountersHistograms) {
  SetEnabled(true);
  EmitSpanEndingNow("gather", "native", 0, 0, 0.002);
  GetCounter("wire.bytes[0->1]").Add(1024);
  GetHistogram("exchange.batch_records").Record(33);
  SetEnabled(false);
  std::string text = SummaryText();
  EXPECT_NE(text.find("gather"), std::string::npos);
  EXPECT_NE(text.find("wire.bytes[0->1]"), std::string::npos);
  EXPECT_NE(text.find("exchange.batch_records"), std::string::npos);
}

// --- JSON escaping ------------------------------------------------------------

TEST_F(ObsTest, JsonEscapeHandlesSpecialCharacters) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(JsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(JsonEscape("a\nb\tc\rd"), "a\\nb\\tc\\rd");
  EXPECT_EQ(JsonEscape("\b\f"), "\\b\\f");
  EXPECT_EQ(JsonEscape(std::string("\x01\x1f")), "\\u0001\\u001f");
  // Bytes >= 0x80 (UTF-8 continuation) pass through untouched; no
  // sign-extension garbage like ￿ffc3.
  EXPECT_EQ(JsonEscape("caf\xc3\xa9"), "caf\xc3\xa9");
}

TEST_F(ObsTest, ChromeTraceJsonEscapesHostileNames) {
  // Regression: counter/histogram names with quotes, backslashes, and control
  // bytes used to break the exported JSON.
  SetEnabled(true);
  EmitSpanEndingNow("evil\"span\\name", "cat\negory", 0, 0, 0.001);
  GetCounter("bytes\"quoted\"[0->1]").Add(7);
  GetHistogram("hist\\back\nslash").Record(42);
  SetEnabled(false);
  std::string json = ChromeTraceJson();
  EXPECT_TRUE(JsonChecker(json).Valid()) << json.substr(0, 400);
  EXPECT_NE(json.find("evil\\\"span\\\\name"), std::string::npos);
  std::string summary = SummaryText();
  EXPECT_NE(summary.find("bytes\"quoted\"[0->1]"), std::string::npos);
}

// --- Histogram percentile accuracy ---------------------------------------------

// Exact nearest-rank percentile of a sorted sample.
uint64_t ExactPercentile(std::vector<uint64_t> sorted, double pct) {
  std::sort(sorted.begin(), sorted.end());
  size_t rank = static_cast<size_t>(std::ceil(pct / 100.0 * sorted.size()));
  if (rank == 0) rank = 1;
  return sorted[std::min(rank, sorted.size()) - 1];
}

TEST_F(ObsTest, HistogramPercentilesWithinBucketErrorBound) {
  // Log-linear buckets (8 sub-buckets per power of two) guarantee the reported
  // percentile never undershoots the exact nearest-rank value and overshoots
  // by at most 12.5%. Check on distributions with different shapes.
  struct Case {
    const char* name;
    std::vector<uint64_t> values;
  };
  std::vector<Case> cases;
  {
    Case uniform{"uniform", {}};
    for (uint64_t i = 1; i <= 1000; ++i) uniform.values.push_back(i);
    cases.push_back(std::move(uniform));
    Case geometric{"geometric", {}};
    for (uint64_t i = 0; i < 1000; ++i) {
      geometric.values.push_back(1ull << (i % 20));
    }
    cases.push_back(std::move(geometric));
    Case heavy_tail{"heavy_tail", {}};
    for (uint64_t i = 0; i < 990; ++i) heavy_tail.values.push_back(100);
    for (uint64_t i = 0; i < 10; ++i) heavy_tail.values.push_back(1000000);
    cases.push_back(std::move(heavy_tail));
  }
  for (const Case& c : cases) {
    Histogram& h = GetHistogram(std::string("test.acc.") + c.name);
    for (uint64_t v : c.values) h.Record(v);
    for (double pct : {50.0, 99.0}) {
      uint64_t exact = ExactPercentile(c.values, pct);
      uint64_t approx = pct == 50.0 ? h.P50() : h.P99();
      EXPECT_GE(approx, exact) << c.name << " p" << pct;
      EXPECT_LE(static_cast<double>(approx),
                std::ceil(1.125 * static_cast<double>(exact)))
          << c.name << " p" << pct;
    }
  }
}

TEST_F(ObsTest, ResetAllClearsEverything) {
  SetEnabled(true);
  EmitSpanEndingNow("x", "t", 0, 0, 0.001);
  GetCounter("test.c").Add(5);
  GetHistogram("test.h").Record(5);
  SetEnabled(false);
  ResetAll();
  EXPECT_TRUE(SnapshotEvents().empty());
  EXPECT_EQ(GetCounter("test.c").value(), 0u);
  EXPECT_EQ(GetHistogram("test.h").count(), 0u);
}

TEST(JsonWriterTest, EscapesQuotesAndControlBytes) {
  JsonWriter w;
  w.BeginObject()
      .Field("q\"k", "a\"b\\c")
      .Field("ctl", std::string("\n\t\x01\x1f\0z", 6))
      .EndObject();
  EXPECT_EQ(w.str(),
            "{\"q\\\"k\":\"a\\\"b\\\\c\",\"ctl\":\"\\n\\t\\u0001\\u001f"
            "\\u0000z\"}");
  EXPECT_TRUE(JsonChecker(w.str()).Valid());
}

TEST(JsonWriterTest, CommasInNestedAndEmptyContainers) {
  JsonWriter w;
  w.BeginObject()
      .BeginObject("empty_obj")
      .EndObject()
      .BeginArray("empty_arr")
      .EndArray()
      .BeginArray("nested")
      .BeginArray()
      .EndArray()
      .BeginObject()
      .Field("a", 1)
      .BeginArray("b")
      .Value(2)
      .BeginObject()
      .EndObject()
      .Value("s")
      .EndArray()
      .EndObject()
      .Raw("{\"raw\":true}")
      .Null()
      .EndArray()
      .Field("last", false)
      .EndObject();
  EXPECT_EQ(w.str(),
            "{\"empty_obj\":{},\"empty_arr\":[],\"nested\":[[],{\"a\":1,"
            "\"b\":[2,{},\"s\"]},{\"raw\":true},null],\"last\":false}");
  EXPECT_TRUE(JsonChecker(w.str()).Valid());
  EXPECT_EQ(JsonWriter().BeginArray().EndArray().str(), "[]");
}

TEST(JsonWriterTest, IntegersAreExact) {
  JsonWriter w;
  w.BeginArray()
      .Value(std::numeric_limits<uint64_t>::max())
      .Value(std::numeric_limits<int64_t>::min())
      .Value(0)
      .Value(-7)
      .Value(true)
      .EndArray();
  EXPECT_EQ(w.str(),
            "[18446744073709551615,-9223372036854775808,0,-7,true]");
}

TEST(JsonWriterTest, DoublesRoundTripBitExact) {
  const double values[] = {0.0,
                           -0.0,
                           1.0,
                           0.1,
                           0.1 + 0.2,
                           1.0 / 3.0,
                           3 * 1e-4,
                           1e-300,
                           std::numeric_limits<double>::min(),
                           std::numeric_limits<double>::denorm_min(),
                           std::numeric_limits<double>::max(),
                           123456789.123456789,
                           -2.5e17,
                           6.02214076e23};
  for (double v : values) {
    JsonWriter w;
    w.Value(v);
    const std::string text = w.str();
    EXPECT_TRUE(JsonChecker(text).Valid()) << text;
    char* end = nullptr;
    const double back = std::strtod(text.c_str(), &end);
    EXPECT_EQ(*end, '\0') << text;
    EXPECT_EQ(std::memcmp(&back, &v, sizeof(v)), 0) << text;
    // Equal doubles give equal bytes.
    JsonWriter again;
    again.Value(back);
    EXPECT_EQ(again.str(), text);
  }
  JsonWriter w;
  w.BeginArray()
      .Value(std::numeric_limits<double>::infinity())
      .Value(std::nan(""))
      .Value(2.0)
      .EndArray();
  EXPECT_EQ(w.str(), "[null,null,2]");
}

TEST(JsonWriterTest, WriteJsonFileAppendsNewlineAndReportsFailure) {
  const std::string path = testing::TempDir() + "/json_writer_test.json";
  ASSERT_TRUE(WriteJsonFile(path, "{}").ok());
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  char buf[8] = {};
  EXPECT_EQ(std::fread(buf, 1, sizeof(buf), f), 3u);
  std::fclose(f);
  EXPECT_STREQ(buf, "{}\n");
  std::remove(path.c_str());
  EXPECT_EQ(WriteJsonFile("/nonexistent-dir/x.json", "{}").code(),
            StatusCode::kIoError);
}

// Sets an environment variable for one scope and restores the previous value.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    if (old != nullptr) old_ = old;
    had_ = old != nullptr;
    ::setenv(name, value, 1);
  }
  ~ScopedEnv() {
    if (had_) {
      ::setenv(name_, old_.c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }

 private:
  const char* name_;
  std::string old_;
  bool had_ = false;
};

std::string SlurpFile(const std::string& path) {
  std::string out;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return out;
  char buf[4096];
  for (size_t n; (n = std::fread(buf, 1, sizeof(buf), f)) > 0;) {
    out.append(buf, n);
  }
  std::fclose(f);
  return out;
}

TEST(BenchArtifactTest, EmptyBenchJsonMeansDefaultName) {
  {
    ScopedEnv env("MAZE_BENCH_JSON", "");
    EXPECT_EQ(bench::BenchJsonPath("BENCH_x.json"), "BENCH_x.json");
  }
  {
    ScopedEnv env("MAZE_BENCH_JSON", "/some/where.json");
    EXPECT_EQ(bench::BenchJsonPath("BENCH_x.json"), "/some/where.json");
  }
  ::unsetenv("MAZE_BENCH_JSON");
  EXPECT_EQ(bench::BenchJsonPath("BENCH_x.json"), "BENCH_x.json");
}

TEST(BenchArtifactTest, WritesCommonFieldsViolationsAndOk) {
  const std::string path = testing::TempDir() + "/bench_artifact_test.json";
  ScopedEnv out("MAZE_BENCH_JSON", path.c_str());
  ScopedEnv scale("MAZE_SCALE_ADJUST", "-4");

  bench::BenchArtifact failed("BENCH_unused.json", "unit");
  failed.json().Field("rows", 3);
  failed.Fail("gate %d broke: \"%s\"", 7, "why");
  EXPECT_EQ(failed.Finish(), 1);
  std::string json = SlurpFile(path);
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  EXPECT_EQ(json,
            "{\"bench\":\"unit\",\"scale_adjust\":-4,\"rows\":3,"
            "\"violations\":[\"gate 7 broke: \\\"why\\\"\"],\"ok\":false}\n");

  // No bench name: no common fields, and a clean run exits 0.
  bench::BenchArtifact clean("BENCH_unused.json", "");
  clean.json().Key("resource").Raw("{\"rows\":[]}");
  EXPECT_EQ(clean.Finish(), 0);
  EXPECT_EQ(SlurpFile(path),
            "{\"resource\":{\"rows\":[]},\"violations\":[],\"ok\":true}\n");
  std::remove(path.c_str());
}

TEST(BenchArtifactTest, UnwritablePathIsNonZeroExit) {
  ScopedEnv out("MAZE_BENCH_JSON", "/nonexistent-dir/BENCH_x.json");
  bench::BenchArtifact artifact("BENCH_x.json", "unit");
  EXPECT_EQ(artifact.Finish(), 1);
}

}  // namespace
}  // namespace maze::obs
