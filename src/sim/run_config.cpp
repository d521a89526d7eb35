#include "sim/run_config.hpp"

#include <algorithm>
#include <cstdlib>
#include <utility>

#include "sim/log.hpp"

namespace scidmz::sim {

namespace {

/// The switch grammar shared by SCIDMZ_TELEMETRY, SCIDMZ_TRACE and
/// SCIDMZ_PROFILE: unset, empty, 0, off, false or no is off (nullopt); 1,
/// on, true or yes is on without file output (""); anything else is on,
/// with the value as the output base path.
std::optional<std::string> parseSwitch(std::optional<std::string> value) {
  if (!value) return std::nullopt;
  const std::string& s = *value;
  if (s.empty() || s == "0" || s == "off" || s == "false" || s == "no") return std::nullopt;
  if (s == "1" || s == "on" || s == "true" || s == "yes") return std::string();
  return value;
}

RunConfig& processConfig() {
  static RunConfig config = parseRunConfig(processEnv);
  return config;
}

}  // namespace

std::optional<std::string> processEnv(std::string_view name) {
  const char* value = std::getenv(std::string(name).c_str());
  if (value == nullptr) return std::nullopt;
  return std::string(value);
}

RunConfig parseRunConfig(const EnvLookup& lookup) {
  RunConfig config;
  config.telemetry = parseSwitch(lookup("SCIDMZ_TELEMETRY")).has_value();
  config.trace = parseSwitch(lookup("SCIDMZ_TRACE"));
  config.profile = parseSwitch(lookup("SCIDMZ_PROFILE"));
  if (const auto level = lookup("SCIDMZ_LOG")) config.logLevel = parseLogLevel(*level);
  if (const auto threads = lookup("SCIDMZ_SWEEP_THREADS")) {
    // Garbage or non-positive values fall back to hardware concurrency.
    config.sweepThreads = std::max(0, std::atoi(threads->c_str()));
  }
  if (auto path = lookup("SCIDMZ_BENCH_JSON")) config.benchJsonPath = std::move(*path);
  if (auto dir = lookup("SCIDMZ_TABLE_JSON_DIR")) config.artifactDir = std::move(*dir);
  return config;
}

const RunConfig& runConfig() { return processConfig(); }

void setRunConfig(RunConfig config) { processConfig() = std::move(config); }

}  // namespace scidmz::sim
