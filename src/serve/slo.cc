#include "serve/slo.h"

#include <algorithm>
#include <cmath>

#include "obs/json.h"

namespace maze::serve {

SloWatchdog::SloWatchdog(const SloOptions& options,
                         obs::TelemetryRegistry* telemetry, Service* service,
                         std::ostream* log)
    : options_(options), telemetry_(telemetry), service_(service), log_(log) {
  service_->SetSloTargetUs(
      static_cast<uint64_t>(options_.p99_target_ms * 1000.0));
  window_start_seq_ = service_->bill_seq();
  hook_token_ =
      telemetry_->AddScrapeHook([this](uint64_t scrape) { OnScrape(scrape); });
}

SloWatchdog::~SloWatchdog() {
  telemetry_->RemoveScrapeHook(hook_token_);
  service_->SetSloTargetUs(0);
  service_->SetDegradation(0);
}

int SloWatchdog::level() const {
  std::lock_guard<std::mutex> lock(mu_);
  return level_;
}

uint64_t SloWatchdog::windows_evaluated() const {
  std::lock_guard<std::mutex> lock(mu_);
  return windows_;
}

std::vector<std::string> SloWatchdog::EventLines() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_;
}

void SloWatchdog::Emit(const std::string& line) {
  events_.push_back(line);
  if (log_ != nullptr) *log_ << line << "\n";
}

void SloWatchdog::EmitDumpError(const std::string& path) {
  obs::JsonWriter w;
  w.BeginObject().Field("event", "slo_dump_error").Field("path", path);
  Emit(w.EndObject().str());
}

void SloWatchdog::OnScrape(uint64_t scrape) {
  auto total = telemetry_->LatestCounter("serve.slo_requests");
  auto over_w = telemetry_->LatestCounter("serve.slo_over_target");
  const uint64_t requests = total ? total->delta : 0;
  const uint64_t over = over_w ? over_w->delta : 0;

  std::lock_guard<std::mutex> lock(mu_);
  ++windows_;

  const bool idle = requests < options_.min_window_requests;
  const double burn =
      idle ? 0.0
           : (static_cast<double>(over) / static_cast<double>(requests)) /
                 options_.error_budget;
  // Nearest-rank p99 exceeds the target iff the number of over-target values
  // is larger than the count of ranks above the p99 rank.
  const uint64_t allowed =
      requests == 0
          ? 0
          : requests - static_cast<uint64_t>(
                           std::ceil(0.99 * static_cast<double>(requests)));
  const bool p99_over = !idle && over > allowed;

  const int old_level = level_;
  if (!idle && burn >= options_.burn_threshold) {
    healthy_streak_ = 0;
    level_ = burn >= 2.0 * options_.burn_threshold ? 2
                                                   : std::min(2, level_ + 1);
  } else if (idle || burn < options_.burn_threshold / 2.0) {
    ++healthy_streak_;
    if (level_ > 0 && healthy_streak_ >= options_.recover_windows) {
      --level_;
      healthy_streak_ = 0;
    }
  } else {
    healthy_streak_ = 0;  // Hysteresis band: hold the current level.
  }

  auto fields = [&](const char* event) {
    obs::JsonWriter w;
    w.BeginObject()
        .Field("event", event)
        .Field("scrape", scrape)
        .Field("level", level_)
        .Field("requests", requests)
        .Field("over_target", over)
        .Field("burn", burn)
        .Field("p99_over_target", p99_over)
        .Field("target_ms", options_.p99_target_ms)
        .EndObject();
    return w.str();
  };
  if (level_ != old_level) {
    service_->SetDegradation(level_);
    Emit(fields(level_ > old_level ? "slo_degrade" : "slo_recover"));
    if (level_ > old_level) {
      DumpForensics(scrape, level_, old_level, window_start_seq_);
    }
  }
  if (options_.log_windows) Emit(fields("slo_window"));
  // Close this evaluation window: bills recorded from here on belong to the
  // next scrape's window.
  window_start_seq_ = service_->bill_seq();
}

void SloWatchdog::DumpForensics(uint64_t scrape, int level, int prev_level,
                                uint64_t window_start) {
  if (options_.dump_path.empty() && options_.perfetto_path.empty()) return;
  std::vector<QueryBill> ring = service_->RecentBills();
  if (!options_.dump_path.empty()) {
    SloTripInfo trip;
    trip.scrape = scrape;
    trip.level = level;
    trip.prev_level = prev_level;
    std::string dump = ForensicDumpJson(trip, service_->BillsSince(window_start),
                                        ring, options_.dump_top_k);
    if (!obs::WriteJsonFile(options_.dump_path, dump).ok()) {
      EmitDumpError(options_.dump_path);
    }
  }
  if (!options_.perfetto_path.empty() &&
      !WriteFlightsTrace(options_.perfetto_path, ring).ok()) {
    EmitDumpError(options_.perfetto_path);
  }
}

}  // namespace maze::serve
