// Run configuration: every run-time knob of the simulator in one struct.
//
// The SCIDMZ_* environment variables are read here and nowhere else, once
// per process, by parseRunConfig(). scidmz_run folds its --trace,
// --profile and --out flags into the parsed struct and installs it with
// setRunConfig() before any simulation runs; every layer then reads the
// same struct through runConfig(). Grammar, defaults and precedence of
// each knob: DESIGN.md, "Run configuration".
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <string_view>

namespace scidmz::sim {

enum class LogLevel;  // sim/log.hpp

struct RunConfig {
  /// SCIDMZ_TELEMETRY: every telemetry hub starts enabled.
  bool telemetry = false;
  /// SCIDMZ_TRACE / --trace: every Tracer starts enabled. The value is the
  /// output base of the per-cell span files ("" = on without files).
  std::optional<std::string> trace;
  /// SCIDMZ_PROFILE / --profile: every Scenario attaches its self-profiler.
  /// The value is the per-cell profile base ("" = on without files).
  std::optional<std::string> profile;
  /// SCIDMZ_LOG: every Logger gains a stderr sink at this level.
  std::optional<LogLevel> logLevel;
  /// SCIDMZ_SWEEP_THREADS: sweep workers; 0 = hardware concurrency.
  int sweepThreads = 0;
  /// SCIDMZ_BENCH_JSON / --out: the BENCH_sim.json path ("" = no file).
  std::string benchJsonPath = "BENCH_sim.json";
  /// SCIDMZ_TABLE_JSON_DIR / --out: directory for *.table.json and the
  /// other per-scenario artifacts ("" = no files).
  std::string artifactDir = ".";
};

/// Value of an environment variable, nullopt when unset.
using EnvLookup = std::function<std::optional<std::string>(std::string_view name)>;

/// The process environment as an EnvLookup.
[[nodiscard]] std::optional<std::string> processEnv(std::string_view name);

/// Build a RunConfig from `lookup` alone (no globals touched), so tests can
/// pass a map instead of editing the environment.
[[nodiscard]] RunConfig parseRunConfig(const EnvLookup& lookup);

/// The process configuration: parseRunConfig(processEnv) on first use,
/// unless setRunConfig() came first. Safe to call from any thread.
[[nodiscard]] const RunConfig& runConfig();

/// Replace the process configuration. Call before simulations run, never
/// concurrently with them (scidmz_run at startup, tests between runs).
void setRunConfig(RunConfig config);

}  // namespace scidmz::sim
