#include "obs/openmetrics.h"

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <map>

#include "obs/json.h"

namespace maze::obs {
namespace {

bool NameChar(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_' || c == ':';
}

// Closes fd on scope exit (every early return in the socket code).
struct FdCloser {
  int fd;
  ~FdCloser() {
    if (fd >= 0) ::close(fd);
  }
};

std::string HttpResponse(const char* status, const char* content_type,
                         const std::string& body) {
  std::string out = "HTTP/1.0 ";
  out += status;
  out += "\r\nContent-Type: ";
  out += content_type;
  out += "\r\nContent-Length: " + std::to_string(body.size()) +
         "\r\nConnection: close\r\n\r\n";
  out += body;
  return out;
}

void SendAll(int fd, const std::string& data) {
  size_t sent = 0;
  while (sent < data.size()) {
    ssize_t n = ::send(fd, data.data() + sent, data.size() - sent, 0);
    if (n <= 0) return;
    sent += static_cast<size_t>(n);
  }
}

// The OpenMetrics content type; Prometheus scrapers accept it.
constexpr char kMetricsContentType[] =
    "application/openmetrics-text; version=1.0.0; charset=utf-8";

}  // namespace

std::string OpenMetricsName(const std::string& name) {
  std::string out = "maze_";
  out.reserve(out.size() + name.size());
  for (char c : name) out += NameChar(c) ? c : '_';
  return out;
}

std::string OpenMetricsEscape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '"') {
      out += "\\\"";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

std::string OpenMetricsText(const TelemetryRegistry& telemetry) {
  std::string out;
  // Sanitized-name order, so the exposition is stable regardless of internal
  // naming; sharing a sanitized name keeps the last series (see header).
  std::map<std::string, const CounterSeries*> counters;
  std::map<std::string, const GaugeSeries*> gauges;
  std::map<std::string, const HistogramSeries*> histograms;
  auto counter_series = telemetry.Counters();
  auto gauge_series = telemetry.Gauges();
  auto histogram_series = telemetry.Histograms();
  for (const auto& s : counter_series) counters[OpenMetricsName(s.name)] = &s;
  for (const auto& s : gauge_series) gauges[OpenMetricsName(s.name)] = &s;
  for (const auto& s : histogram_series) {
    histograms[OpenMetricsName(s.name)] = &s;
  }

  std::map<std::string, std::vector<std::pair<int, Exemplar>>> exemplars;
  for (const auto& [name, store] : AllExemplars()) {
    exemplars[OpenMetricsName(name)] = store->Snapshot();
  }

  for (const auto& [name, series] : counters) {
    if (series->windows.empty()) continue;
    out += "# TYPE " + name + " counter\n";
    out += "# HELP " + name + " maze counter '" +
           OpenMetricsEscape(series->name) + "'\n";
    out += name + "_total " + std::to_string(series->windows.back().value) +
           "\n";
  }

  // Gauges render as a bare sample (no _total suffix): the sampled level at
  // the latest scrape.
  for (const auto& [name, series] : gauges) {
    if (series->windows.empty()) continue;
    out += "# TYPE " + name + " gauge\n";
    out += "# HELP " + name + " maze gauge '" +
           OpenMetricsEscape(series->name) + "'\n";
    out += name + " " + std::to_string(series->windows.back().value) + "\n";
  }

  for (const auto& [name, series] : histograms) {
    if (series->windows.empty()) continue;
    const HistogramWindow& latest = series->windows.back();
    out += "# TYPE " + name + " histogram\n";
    out += "# HELP " + name + " maze histogram '" +
           OpenMetricsEscape(series->name) + "'\n";
    auto ex_it = exemplars.find(name);
    size_t ex_pos = 0;
    uint64_t cumulative = 0;
    for (int i = 0; i < Histogram::kNumBuckets; ++i) {
      if (series->buckets[i] == 0) {
        if (ex_it != exemplars.end()) {
          while (ex_pos < ex_it->second.size() &&
                 ex_it->second[ex_pos].first <= i) {
            ++ex_pos;
          }
        }
        continue;
      }
      cumulative += series->buckets[i];
      out += name + "_bucket{le=\"" +
             std::to_string(Histogram::BucketUpperBound(i)) + "\"} " +
             std::to_string(cumulative);
      if (ex_it != exemplars.end()) {
        while (ex_pos < ex_it->second.size() &&
               ex_it->second[ex_pos].first < i) {
          ++ex_pos;
        }
        if (ex_pos < ex_it->second.size() &&
            ex_it->second[ex_pos].first == i) {
          const Exemplar& ex = ex_it->second[ex_pos].second;
          out += " # {request_id=\"" + std::to_string(ex.request_id) + "\"} " +
                 std::to_string(ex.value);
          ++ex_pos;
        }
      }
      out += "\n";
    }
    out += name + "_bucket{le=\"+Inf\"} " + std::to_string(latest.count) + "\n";
    out += name + "_count " + std::to_string(latest.count) + "\n";
    out += name + "_sum " + std::to_string(latest.sum) + "\n";
  }

  out += "# EOF\n";
  return out;
}

MetricsEndpoint::MetricsEndpoint(TelemetryRegistry* telemetry)
    : telemetry_(telemetry) {}

MetricsEndpoint::~MetricsEndpoint() { Stop(); }

void MetricsEndpoint::SetHealthz(std::function<std::string()> handler) {
  healthz_ = std::move(handler);
}

void MetricsEndpoint::SetReport(std::function<std::string()> handler) {
  report_ = std::move(handler);
}

Status MetricsEndpoint::Start(int port) {
  if (listen_fd_ >= 0) return Status::FailedPrecondition("already started");
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::IoError("socket() failed");
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return Status::Unavailable("bind(127.0.0.1:" + std::to_string(port) +
                               ") failed: " + std::strerror(errno));
  }
  if (::listen(fd, 16) != 0) {
    ::close(fd);
    return Status::IoError("listen() failed");
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    ::close(fd);
    return Status::IoError("getsockname() failed");
  }
  listen_fd_ = fd;
  port_ = ntohs(addr.sin_port);
  stop_.store(false, std::memory_order_release);
  acceptor_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void MetricsEndpoint::Stop() {
  if (listen_fd_ < 0) return;
  stop_.store(true, std::memory_order_release);
  // Self-connect to unblock accept(); harmless if accept already returned.
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd >= 0) {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<uint16_t>(port_));
    ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
    ::close(fd);
  }
  acceptor_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
  port_ = -1;
}

void MetricsEndpoint::AcceptLoop() {
  while (!stop_.load(std::memory_order_acquire)) {
    int conn = ::accept(listen_fd_, nullptr, nullptr);
    if (conn < 0) continue;
    if (stop_.load(std::memory_order_acquire)) {
      ::close(conn);
      return;
    }
    HandleConnection(conn);
  }
}

void MetricsEndpoint::HandleConnection(int fd) {
  FdCloser closer{fd};
  // Read until the end of the request head; 4 KiB is plenty for "GET /path".
  char buf[4096];
  size_t used = 0;
  while (used < sizeof(buf) - 1) {
    ssize_t n = ::recv(fd, buf + used, sizeof(buf) - 1 - used, 0);
    if (n <= 0) break;
    used += static_cast<size_t>(n);
    buf[used] = '\0';
    if (std::strstr(buf, "\r\n\r\n") != nullptr ||
        std::strstr(buf, "\n\n") != nullptr) {
      break;
    }
  }
  buf[used] = '\0';
  if (std::strncmp(buf, "GET ", 4) != 0) {
    SendAll(fd, HttpResponse("405 Method Not Allowed", "text/plain",
                             "only GET is supported\n"));
    return;
  }
  const char* path_start = buf + 4;
  const char* path_end = path_start;
  while (*path_end != '\0' && *path_end != ' ' && *path_end != '\r' &&
         *path_end != '\n') {
    ++path_end;
  }
  std::string path(path_start, path_end);

  if (path == "/metrics") {
    telemetry_->ScrapeOnce();
    SendAll(fd, HttpResponse("200 OK", kMetricsContentType,
                             OpenMetricsText(*telemetry_)));
  } else if (path == "/healthz") {
    std::string body =
        healthz_
            ? healthz_()
            : JsonWriter().BeginObject().Field("status", "ok").EndObject().str();
    SendAll(fd, HttpResponse("200 OK", "application/json", body));
  } else if (path == "/report") {
    if (report_) {
      SendAll(fd, HttpResponse("200 OK", "application/json", report_()));
    } else {
      SendAll(fd, HttpResponse("404 Not Found", "text/plain",
                               "no report handler\n"));
    }
  } else {
    SendAll(fd, HttpResponse("404 Not Found", "text/plain",
                             "unknown path '" + path + "'\n"));
  }
}

StatusOr<LiveTelemetry> StartTelemetryFromEnv(const char* env_name) {
  LiveTelemetry live;
  const char* env = std::getenv(env_name);
  if (env == nullptr || *env == '\0') return live;
  auto spec = ParseTelemetrySpec(env);
  MAZE_RETURN_IF_ERROR(spec.status());
  live.telemetry = std::make_unique<TelemetryRegistry>(spec.value().options);
  live.telemetry->Start();
  if (spec.value().listen_port >= 0) {
    live.endpoint = std::make_unique<MetricsEndpoint>(live.telemetry.get());
    MAZE_RETURN_IF_ERROR(live.endpoint->Start(spec.value().listen_port));
  }
  return live;
}

StatusOr<std::string> HttpGet(int port, const std::string& path) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::IoError("socket() failed");
  FdCloser closer{fd};
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return Status::Unavailable("connect(127.0.0.1:" + std::to_string(port) +
                               ") failed: " + std::strerror(errno));
  }
  std::string request = "GET " + path + " HTTP/1.0\r\n\r\n";
  SendAll(fd, request);
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  size_t head_end = response.find("\r\n\r\n");
  if (head_end == std::string::npos) {
    return Status::IoError("malformed HTTP response");
  }
  // "HTTP/1.0 NNN ..." — accept any 2xx.
  size_t space = response.find(' ');
  if (space == std::string::npos || response[space + 1] != '2') {
    return Status::IoError("HTTP error: " +
                            response.substr(0, response.find("\r\n")));
  }
  return response.substr(head_end + 4);
}

}  // namespace maze::obs
