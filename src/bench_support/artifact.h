// The BENCH_*.json artifact every gated bench binary writes: one helper owns
// the output path, the common fields, the gate verdict and the exit code.
//
// An artifact is one JSON object (obs/json.h). It opens with "bench" and
// "scale_adjust" when the bench has a name, then the bench's own fields, and
// always closes with "violations" (the failed gates, in order) and "ok". The
// path is MAZE_BENCH_JSON, or the bench's default name when that variable is
// unset or empty.
#ifndef MAZE_BENCH_SUPPORT_ARTIFACT_H_
#define MAZE_BENCH_SUPPORT_ARTIFACT_H_

#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json.h"

namespace maze::bench {

// MAZE_SCALE_ADJUST (default -2) plus `extra`: the RMAT scale shift every
// bench applies to its dataset stand-ins.
int ScaleAdjust(int extra = 0);

// MAZE_BENCH_JSON, or `default_name` when it is unset or empty.
std::string BenchJsonPath(const std::string& default_name);

class BenchArtifact {
 public:
  // A non-empty `bench` writes the common "bench" and "scale_adjust" fields.
  BenchArtifact(const std::string& default_name, std::string_view bench);

  // The artifact object, open for the bench's own fields.
  obs::JsonWriter& json() { return json_; }

  // Records a failed gate: printed to stderr and listed under "violations".
  // Safe to call from several threads.
  void Fail(const char* format, ...) __attribute__((format(printf, 2, 3)));
  size_t violation_count() const;

  // Closes the object with "violations" and "ok" and writes it. Returns the
  // bench's exit code: 0 only if every gate held and the file was written.
  int Finish();

 private:
  std::string path_;
  obs::JsonWriter json_;
  mutable std::mutex mu_;
  std::vector<std::string> violations_;  // Guarded by mu_.
};

}  // namespace maze::bench

#endif  // MAZE_BENCH_SUPPORT_ARTIFACT_H_
