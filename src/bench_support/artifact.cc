#include "bench_support/artifact.h"

#include <cstdarg>
#include <cstdio>
#include <cstdlib>

namespace maze::bench {

int ScaleAdjust(int extra) {
  const char* s = std::getenv("MAZE_SCALE_ADJUST");
  return (s != nullptr ? std::atoi(s) : -2) + extra;
}

std::string BenchJsonPath(const std::string& default_name) {
  const char* env = std::getenv("MAZE_BENCH_JSON");
  return env != nullptr && *env != '\0' ? env : default_name;
}

BenchArtifact::BenchArtifact(const std::string& default_name,
                             std::string_view bench)
    : path_(BenchJsonPath(default_name)) {
  json_.BeginObject();
  if (!bench.empty()) {
    json_.Field("bench", bench).Field("scale_adjust", ScaleAdjust());
  }
}

void BenchArtifact::Fail(const char* format, ...) {
  va_list args;
  va_start(args, format);
  va_list copy;
  va_copy(copy, args);
  const int length = std::vsnprintf(nullptr, 0, format, copy);
  va_end(copy);
  std::string why(length > 0 ? length : 0, '\0');
  std::vsnprintf(why.data(), why.size() + 1, format, args);
  va_end(args);
  std::lock_guard<std::mutex> lock(mu_);
  std::fprintf(stderr, "FAIL: %s\n", why.c_str());
  violations_.push_back(std::move(why));
}

size_t BenchArtifact::violation_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return violations_.size();
}

int BenchArtifact::Finish() {
  std::lock_guard<std::mutex> lock(mu_);
  json_.BeginArray("violations");
  for (const std::string& v : violations_) json_.Value(v);
  json_.EndArray().Field("ok", violations_.empty()).EndObject();
  Status written = obs::WriteJsonFile(path_, json_.str());
  if (!written.ok()) {
    std::fprintf(stderr, "bench json: %s\n", written.ToString().c_str());
    return 1;
  }
  std::printf("bench json: wrote %s\n", path_.c_str());
  return violations_.empty() ? 0 : 1;
}

}  // namespace maze::bench
