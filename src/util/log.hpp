// Minimal leveled logger.
//
// RAPIDS is a library first: logging defaults to Warning and is routed
// through a single sink so host applications can silence or redirect it.
//
// Thread-safe: the level is atomic (lock-free early-out on the hot path)
// and the sink is invoked under the logger's mutex, so concurrent probe
// workers can log without interleaving or racing set_sink/set_level.
//
// One logger per process: stderr is one stream, so Logger::instance() is
// the only logger and `--log-level` reaches every flow in the process. A
// session contributes only its id as a line tag — a thread-local that
// SessionScope sets, like the worker id — so the default sink prints
// `[rapids:LEVEL <session-tag> wN] message` (tag and worker when set).
#pragma once

#include <atomic>
#include <functional>
#include <mutex>
#include <sstream>
#include <string>

namespace rapids {

enum class LogLevel { Debug = 0, Info = 1, Warning = 2, Error = 3, Off = 4 };

/// Parse a CLI spelling ("debug" | "info" | "warn"/"warning" | "error" |
/// "off"); throws InputError on anything else.
LogLevel parse_log_level(const std::string& name);

/// Canonical upper-case spelling used in log-line prefixes ("DEBUG",
/// "INFO", "WARN", "ERROR", "OFF").
const char* to_string(LogLevel level);

/// Worker identity of the current thread, used to tag log lines and to
/// route trace events to per-worker rings. -1 outside any worker (the
/// single-threaded default); the thread pool scopes ids around each run()
/// job, and the main/arbiter thread is worker 0 for the duration of a
/// parallel round. Thread-local, so concurrent workers never race.
int current_worker();
void set_current_worker(int worker);

/// Session tag of the current thread's log lines (null outside any
/// SessionScope). The pointee must outlive the scope that installed it.
const char* current_log_tag();
void set_current_log_tag(const char* tag);

/// RAII scope for set_current_worker (restores the previous id on exit).
class WorkerIdScope {
 public:
  explicit WorkerIdScope(int worker) : prev_(current_worker()) {
    set_current_worker(worker);
  }
  ~WorkerIdScope() { set_current_worker(prev_); }
  WorkerIdScope(const WorkerIdScope&) = delete;
  WorkerIdScope& operator=(const WorkerIdScope&) = delete;

 private:
  int prev_;
};

class Logger {
 public:
  using Sink = std::function<void(LogLevel, const std::string&)>;

  /// The process logger: default stderr sink, Warning level.
  static Logger& instance();

  void set_level(LogLevel level) { level_.store(level, std::memory_order_relaxed); }
  LogLevel level() const { return level_.load(std::memory_order_relaxed); }

  /// Replace the output sink (default writes to stderr); returns the
  /// previous sink so a caller can restore it.
  Sink set_sink(Sink sink);

  void log(LogLevel level, const std::string& message);

 private:
  Logger();

  std::atomic<LogLevel> level_{LogLevel::Warning};
  Sink sink_;
  mutable std::mutex sink_mutex_;
};

namespace detail {
class LogLine {
 public:
  explicit LogLine(LogLevel level) : level_(level) {}
  ~LogLine() { Logger::instance().log(level_, os_.str()); }
  template <typename T>
  LogLine& operator<<(const T& v) {
    os_ << v;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream os_;
};
}  // namespace detail

inline detail::LogLine log_debug() { return detail::LogLine(LogLevel::Debug); }
inline detail::LogLine log_info() { return detail::LogLine(LogLevel::Info); }
inline detail::LogLine log_warn() { return detail::LogLine(LogLevel::Warning); }
inline detail::LogLine log_error() { return detail::LogLine(LogLevel::Error); }

}  // namespace rapids
