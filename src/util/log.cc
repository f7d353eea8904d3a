#include "util/log.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <mutex>

#include "util/string_util.h"

namespace chronolog {

namespace {

/// Sink state. The mutex serialises both sink swaps and line emission so a
/// custom sink never observes interleaved lines or its own replacement
/// mid-call.
std::mutex g_sink_mu;
LogSink g_sink;  // null = stderr

std::atomic<int> g_level{-1};  // -1 = not yet initialised from the env

LogLevel InitLevelFromEnv() {
  const char* env = std::getenv("CHRONOLOG_LOG_LEVEL");
  if (env != nullptr) {
    if (auto parsed = ParseLogLevel(env); parsed.has_value()) return *parsed;
    std::fprintf(stderr,
                 "chronolog: ignoring invalid CHRONOLOG_LOG_LEVEL=%s "
                 "(want debug|info|warn|error|off)\n",
                 env);
  }
  return LogLevel::kWarn;
}

}  // namespace

std::optional<LogLevel> ParseLogLevel(std::string_view text) {
  if (text == "debug") return LogLevel::kDebug;
  if (text == "info") return LogLevel::kInfo;
  if (text == "warn") return LogLevel::kWarn;
  if (text == "error") return LogLevel::kError;
  if (text == "off") return LogLevel::kOff;
  return std::nullopt;
}

std::string_view LogLevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "debug";
    case LogLevel::kInfo:
      return "info";
    case LogLevel::kWarn:
      return "warn";
    case LogLevel::kError:
      return "error";
    case LogLevel::kOff:
      return "off";
  }
  return "off";
}

LogLevel GlobalLogLevel() {
  int level = g_level.load(std::memory_order_relaxed);
  if (level < 0) {
    level = static_cast<int>(InitLevelFromEnv());
    int expected = -1;
    // First caller wins; a concurrent SetGlobalLogLevel takes precedence.
    g_level.compare_exchange_strong(expected, level,
                                    std::memory_order_relaxed);
    level = g_level.load(std::memory_order_relaxed);
  }
  return static_cast<LogLevel>(level);
}

void SetGlobalLogLevel(LogLevel level) {
  g_level.store(static_cast<int>(level), std::memory_order_relaxed);
}

void SetLogSink(LogSink sink) {
  std::lock_guard<std::mutex> lock(g_sink_mu);
  g_sink = std::move(sink);
}

LogEvent::LogEvent(LogLevel level, std::string_view event)
    : LogEvent(level, event, GlobalLogLevel()) {}

LogEvent::LogEvent(LogLevel level, std::string_view event, LogLevel threshold)
    : enabled_(level >= threshold && level != LogLevel::kOff) {
  if (!enabled_) return;
  const auto now = std::chrono::system_clock::now().time_since_epoch();
  const int64_t ts_us =
      std::chrono::duration_cast<std::chrono::microseconds>(now).count();
  line_ = "{\"ts_us\":" + std::to_string(ts_us) + ",\"level\":\"";
  line_ += LogLevelName(level);
  line_ += "\",\"event\":\"" + JsonEscape(event) + "\"";
}

LogEvent& LogEvent::Str(std::string_view key, std::string_view value) {
  if (enabled_) {
    line_ += ",\"" + JsonEscape(key) + "\":\"" + JsonEscape(value) + "\"";
  }
  return *this;
}

LogEvent& LogEvent::Int(std::string_view key, int64_t value) {
  if (enabled_) {
    line_ += ",\"" + JsonEscape(key) + "\":" + std::to_string(value);
  }
  return *this;
}

LogEvent& LogEvent::Uint(std::string_view key, uint64_t value) {
  if (enabled_) {
    line_ += ",\"" + JsonEscape(key) + "\":" + std::to_string(value);
  }
  return *this;
}

LogEvent& LogEvent::Num(std::string_view key, double value) {
  if (enabled_) {
    line_ += ",\"" + JsonEscape(key) + "\":" + FormatSignificant(value);
  }
  return *this;
}

LogEvent& LogEvent::Bool(std::string_view key, bool value) {
  if (enabled_) {
    line_ += ",\"" + JsonEscape(key) + "\":" + (value ? "true" : "false");
  }
  return *this;
}

LogEvent::~LogEvent() {
  if (!enabled_) return;
  line_ += "}";
  std::lock_guard<std::mutex> lock(g_sink_mu);
  if (g_sink) {
    g_sink(line_);
  } else {
    std::fprintf(stderr, "%s\n", line_.c_str());
  }
}

}  // namespace chronolog
