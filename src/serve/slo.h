// SLO watchdog: error-budget burn over the telemetry rings, with hysteretic
// graceful degradation through the admission queue (DESIGN.md §4g).
//
// Each telemetry scrape closes one evaluation window. The watchdog judges the
// window on the serve.slo_requests / serve.slo_over_target counter deltas
// (Service::SetSloTargetUs): `over` counts OK non-cache-hit responses whose
// *modeled* run time exceeded the p99 target (cache hits reuse paid work and
// are excluded from SLO accounting). Judging modeled time through exact counters —
// rather than bucketed wall-clock percentiles — keeps every number the
// watchdog emits a pure function of the request sequence, so the bench can
// byte-compare the structured log across serial and rank-parallel schedules.
//
// Window math (all exact integer arithmetic):
//   burn            = (over / requests) / error_budget
//   p99_over_target = over > requests - ceil(0.99 * requests)
//     (the nearest-rank p99 exceeds the target iff more than 1% of the
//      window's requests did)
// State machine, evaluated per window:
//   burn >= burn_threshold          -> escalate one level (jump straight to 2
//                                      when burn >= 2x threshold)
//   burn <  burn_threshold / 2      -> healthy; recover_windows consecutive
//                                      healthy windows step one level down
//   otherwise                       -> hold (hysteresis band)
// Windows with fewer than min_window_requests requests are idle and count as
// healthy: a fully-shed service must be able to recover.
//
// Events are one-line JSON objects ("slo_degrade", "slo_recover", and — when
// log_windows is set — "slo_window") appended to the log stream and retained
// in EventLines() for tests.
//
// SLO-trip forensics: when dump_path is set, every escalation writes a
// deterministic JSON artifact (bill.h ForensicDumpJson) naming the bills that
// landed inside the tripping scrape window plus the flight-recorder ring and
// the top-cost culprits; perfetto_path additionally writes a Chrome-trace
// track of the recorder's recent flights. The window is delimited by the
// recorder sequence captured at the end of the previous scrape, so "the
// tripping window's bills" is exact, not time-based.
#ifndef MAZE_SERVE_SLO_H_
#define MAZE_SERVE_SLO_H_

#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "obs/telemetry.h"
#include "serve/service.h"

namespace maze::serve {

struct SloOptions {
  double p99_target_ms = 50.0;   // Modeled-time p99 target.
  double burn_threshold = 2.0;   // Degrade when burn reaches this.
  double error_budget = 0.01;    // Allowed over-target fraction (1%).
  int recover_windows = 2;       // Healthy windows per level step-down.
  uint64_t min_window_requests = 1;  // Below this a window is idle.
  bool log_windows = false;      // Emit slo_window lines for every scrape.
  // Forensics on escalation (empty = disabled). dump_path receives the
  // deterministic bills JSON; perfetto_path the wall-clock flights trace.
  std::string dump_path;
  std::string perfetto_path;
  size_t dump_top_k = 5;         // Culprits named in the dump's "top" array.
};

class SloWatchdog {
 public:
  // Arms the service (SetSloTargetUs) and hooks `telemetry`'s scrapes. The
  // watchdog must be destroyed before `telemetry` and `service`; destruction
  // unhooks, disarms the SLO target, and resets degradation to 0.
  SloWatchdog(const SloOptions& options, obs::TelemetryRegistry* telemetry,
              Service* service, std::ostream* log);
  ~SloWatchdog();

  SloWatchdog(const SloWatchdog&) = delete;
  SloWatchdog& operator=(const SloWatchdog&) = delete;

  int level() const;
  uint64_t windows_evaluated() const;
  std::vector<std::string> EventLines() const;

 private:
  void OnScrape(uint64_t scrape);
  void Emit(const std::string& line);
  void EmitDumpError(const std::string& path);

  const SloOptions options_;
  obs::TelemetryRegistry* const telemetry_;
  Service* const service_;
  std::ostream* const log_;
  size_t hook_token_ = 0;

  // Writes the forensic artifacts for an escalation to `level` at `scrape`
  // (called with mu_ held; window_start is the recorder seq that opened the
  // tripping window).
  void DumpForensics(uint64_t scrape, int level, int prev_level,
                     uint64_t window_start);

  mutable std::mutex mu_;
  int level_ = 0;
  int healthy_streak_ = 0;
  uint64_t windows_ = 0;
  uint64_t window_start_seq_ = 0;  // Recorder seq at the last scrape's end.
  std::vector<std::string> events_;
};

}  // namespace maze::serve

#endif  // MAZE_SERVE_SLO_H_
