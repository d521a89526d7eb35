// Tests for the run configuration parser: the shared switch grammar of
// SCIDMZ_TELEMETRY / SCIDMZ_TRACE / SCIDMZ_PROFILE, the log level, the
// sweep thread count and the two artifact paths, each driven through a
// fake environment so no test touches the process environment.
#include "sim/run_config.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

#include "sim/log.hpp"

namespace scidmz::sim {
namespace {

using Env = std::map<std::string, std::string, std::less<>>;

RunConfig parse(const Env& env) {
  return parseRunConfig([&env](std::string_view name) -> std::optional<std::string> {
    const auto it = env.find(name);
    if (it == env.end()) return std::nullopt;
    return it->second;
  });
}

struct SwitchCase {
  std::optional<std::string> value;  ///< nullopt = unset
  bool on;
  std::string base;
};

const SwitchCase kSwitchCases[] = {
    {std::nullopt, false, ""}, {"", false, ""},     {"0", false, ""},
    {"off", false, ""},        {"false", false, ""}, {"no", false, ""},
    {"1", true, ""},           {"on", true, ""},     {"true", true, ""},
    {"yes", true, ""},         {"out/run", true, "out/run"},
    {"2", true, "2"},          {"OFF", true, "OFF"},  // exact, case-sensitive match
};

/// The (on, base) a switch variable produced; telemetry writes no files of
/// its own, so any base value only turns it on.
std::pair<bool, std::string> switchOf(const RunConfig& config, std::string_view var) {
  if (var == "SCIDMZ_TRACE") return {config.trace.has_value(), config.trace.value_or("")};
  if (var == "SCIDMZ_PROFILE") return {config.profile.has_value(), config.profile.value_or("")};
  return {config.telemetry, ""};
}

TEST(RunConfig, SwitchGrammar) {
  for (const char* var : {"SCIDMZ_TELEMETRY", "SCIDMZ_TRACE", "SCIDMZ_PROFILE"}) {
    for (const SwitchCase& c : kSwitchCases) {
      Env env;
      if (c.value) env[var] = *c.value;
      const RunConfig config = parse(env);
      const std::string label =
          std::string(var) + "=" + (c.value ? "\"" + *c.value + "\"" : "<unset>");
      const auto [on, base] = switchOf(config, var);
      EXPECT_EQ(on, c.on) << label;
      EXPECT_EQ(base, var == std::string_view("SCIDMZ_TELEMETRY") ? "" : c.base) << label;
      // The other two switches stay off.
      const int switchesOn = int{config.telemetry} + int{config.trace.has_value()} +
                             int{config.profile.has_value()};
      EXPECT_EQ(switchesOn, c.on ? 1 : 0) << label;
    }
  }
}

TEST(RunConfig, SweepThreads) {
  const struct {
    std::optional<std::string> value;
    int threads;
  } cases[] = {
      {std::nullopt, 0}, {"3", 3}, {"16", 16}, {"not-a-number", 0}, {"", 0}, {"0", 0}, {"-4", 0},
  };
  for (const auto& c : cases) {
    Env env;
    if (c.value) env["SCIDMZ_SWEEP_THREADS"] = *c.value;
    EXPECT_EQ(parse(env).sweepThreads, c.threads) << (c.value ? *c.value : "unset");
  }
}

TEST(RunConfig, LogLevel) {
  EXPECT_FALSE(parse({}).logLevel.has_value());
  EXPECT_EQ(parse({{"SCIDMZ_LOG", "debug"}}).logLevel, LogLevel::kDebug);
  EXPECT_EQ(parse({{"SCIDMZ_LOG", "WARN"}}).logLevel, LogLevel::kWarn);
  EXPECT_FALSE(parse({{"SCIDMZ_LOG", "chatty"}}).logLevel.has_value());
  EXPECT_FALSE(parse({{"SCIDMZ_LOG", ""}}).logLevel.has_value());
}

TEST(RunConfig, ArtifactPaths) {
  const RunConfig defaults = parse({});
  EXPECT_EQ(defaults.benchJsonPath, "BENCH_sim.json");
  EXPECT_EQ(defaults.artifactDir, ".");
  // Set values are taken verbatim; empty disables the file(s).
  const RunConfig set = parse({{"SCIDMZ_BENCH_JSON", "out/b.json"}, {"SCIDMZ_TABLE_JSON_DIR", "out"}});
  EXPECT_EQ(set.benchJsonPath, "out/b.json");
  EXPECT_EQ(set.artifactDir, "out");
  const RunConfig disabled = parse({{"SCIDMZ_BENCH_JSON", ""}, {"SCIDMZ_TABLE_JSON_DIR", ""}});
  EXPECT_EQ(disabled.benchJsonPath, "");
  EXPECT_EQ(disabled.artifactDir, "");
}

TEST(RunConfig, SetRunConfigReplacesTheProcessConfig) {
  const RunConfig saved = runConfig();
  RunConfig config = saved;
  config.trace = "x";
  setRunConfig(config);
  EXPECT_EQ(runConfig().trace, "x");
  setRunConfig(saved);
  EXPECT_EQ(runConfig().trace, saved.trace);
}

}  // namespace
}  // namespace scidmz::sim
