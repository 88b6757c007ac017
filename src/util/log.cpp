#include "util/log.hpp"

#include <cstdio>
#include <mutex>
#include <utility>

#include "util/assert.hpp"

namespace rapids {

namespace {
thread_local int t_worker = -1;
thread_local const char* t_log_tag = nullptr;
}  // namespace

LogLevel parse_log_level(const std::string& name) {
  if (name == "debug") return LogLevel::Debug;
  if (name == "info") return LogLevel::Info;
  if (name == "warn" || name == "warning") return LogLevel::Warning;
  if (name == "error") return LogLevel::Error;
  if (name == "off") return LogLevel::Off;
  throw InputError("unknown log level: " + name +
                   " (expected debug|info|warn|error|off)");
}

const char* to_string(LogLevel level) {
  switch (level) {
    case LogLevel::Debug:
      return "DEBUG";
    case LogLevel::Info:
      return "INFO";
    case LogLevel::Warning:
      return "WARN";
    case LogLevel::Error:
      return "ERROR";
    case LogLevel::Off:
      return "OFF";
  }
  return "?";
}

int current_worker() { return t_worker; }
void set_current_worker(int worker) { t_worker = worker; }
const char* current_log_tag() { return t_log_tag; }
void set_current_log_tag(const char* tag) { t_log_tag = tag; }

Logger::Logger() {
  sink_ = [](LogLevel level, const std::string& message) {
    // Lines carry the emitting session's tag and worker id so interleaved
    // multi-session, parallel-round output stays attributable.
    std::string prefix = std::string("[rapids:") + to_string(level);
    if (const char* tag = current_log_tag()) prefix.append(" ").append(tag);
    if (const int w = current_worker(); w >= 0) {
      prefix.append(" w").append(std::to_string(w));
    }
    std::fprintf(stderr, "%s] %s\n", prefix.c_str(), message.c_str());
  };
}

Logger& Logger::instance() {
  static Logger logger;
  return logger;
}

Logger::Sink Logger::set_sink(Sink sink) {
  std::lock_guard<std::mutex> lock(sink_mutex_);
  std::swap(sink_, sink);
  return sink;
}

void Logger::log(LogLevel level, const std::string& message) {
  if (static_cast<int>(level) < static_cast<int>(this->level())) return;
  std::lock_guard<std::mutex> lock(sink_mutex_);
  if (sink_) sink_(level, message);
}

}  // namespace rapids
