// Minimal structured trace log.
//
// Components emit (time, component, message) records through a Logger
// owned by the scenario. By default records are dropped; tests and the
// troubleshooting example install sinks. Keeping logging explicit (no
// global singleton) preserves determinism and keeps scenarios independent.
//
// For field diagnostics without code changes, SCIDMZ_LOG=<level> (trace /
// debug / info / warn / error; read by sim/run_config) arms a stderr sink
// on every Logger at construction — any bench or example becomes chatty on
// demand.
#pragma once

#include <cstdint>
#include <cstdio>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "sim/run_config.hpp"
#include "sim/units.hpp"

namespace scidmz::sim {

enum class LogLevel { kTrace, kDebug, kInfo, kWarn, kError };

[[nodiscard]] constexpr std::string_view toString(LogLevel level) {
  switch (level) {
    case LogLevel::kTrace: return "TRACE";
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO";
    case LogLevel::kWarn: return "WARN";
    case LogLevel::kError: return "ERROR";
  }
  return "?";
}

/// Parse "debug", "WARN", ... (case-insensitive); nullopt on anything else.
[[nodiscard]] inline std::optional<LogLevel> parseLogLevel(std::string_view text) {
  std::string lower;
  lower.reserve(text.size());
  for (const char c : text) lower.push_back(c >= 'A' && c <= 'Z' ? static_cast<char>(c + 32) : c);
  if (lower == "trace") return LogLevel::kTrace;
  if (lower == "debug") return LogLevel::kDebug;
  if (lower == "info") return LogLevel::kInfo;
  if (lower == "warn" || lower == "warning") return LogLevel::kWarn;
  if (lower == "error") return LogLevel::kError;
  return std::nullopt;
}

struct LogRecord {
  SimTime at;
  LogLevel level = LogLevel::kInfo;
  std::string component;
  std::string message;
};

class Logger {
 public:
  using Sink = std::function<void(const LogRecord&)>;

  /// Honors the run configuration's log level (SCIDMZ_LOG): when set,
  /// lowers the threshold to it and attaches a stderr sink so existing
  /// binaries gain diagnostics with no code changes.
  Logger() {
    if (const auto level = runConfig().logLevel) {
      level_ = *level;
      addSink([](const LogRecord& r) {
        std::fprintf(stderr, "[%12lld ns] %-5s %s: %s\n", static_cast<long long>(r.at.ns()),
                     std::string(toString(r.level)).c_str(), r.component.c_str(),
                     r.message.c_str());
      });
    }
  }

  /// Records below `level` are dropped before reaching sinks.
  void setLevel(LogLevel level) { level_ = level; }
  [[nodiscard]] LogLevel level() const { return level_; }

  void addSink(Sink sink) { sinks_.push_back(std::move(sink)); }

  void log(SimTime at, LogLevel level, std::string_view component, std::string message) const {
    if (level < level_ || sinks_.empty()) return;
    const LogRecord rec{at, level, std::string{component}, std::move(message)};
    for (const auto& sink : sinks_) sink(rec);
  }

 private:
  LogLevel level_ = LogLevel::kInfo;
  std::vector<Sink> sinks_;
};

/// Convenience sink collecting records into a vector (tests).
class CapturingSink {
 public:
  [[nodiscard]] Logger::Sink sink() {
    return [this](const LogRecord& r) { records_.push_back(r); };
  }
  [[nodiscard]] const std::vector<LogRecord>& records() const { return records_; }

 private:
  std::vector<LogRecord> records_;
};

}  // namespace scidmz::sim
