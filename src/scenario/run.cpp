#include "scenario/run.hpp"

#include <cstdio>

#include "scenario/bench_io.hpp"
#include "sim/sweep.hpp"

namespace scidmz::scenario {

SpecRun runSpecs(const std::vector<ScenarioSpec>& specs, const std::string& sweepName,
                 const std::string& benchName) {
  sim::SweepRunner sweep;
  auto results = sweep.run<ScenarioResult>(
      specs.size(),
      [&specs](sim::SweepCell& cell) { return runSpec(specs[cell.index], cell); }, sweepName);
  SpecRun run;
  run.outcomes.reserve(results.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    run.outcomes.push_back(CellOutcome{&specs[i], std::move(results[i])});
  }
  run.artifactsWritten = bench::writeSweepReport(sweep, benchName.c_str());
  return run;
}

int runScenario(const ScenarioEntry& entry) {
  bench::header((entry.name + ": " + entry.title).c_str(), entry.paperRef.c_str());
  if (entry.native) return entry.native() ? 0 : 1;
  const auto specs = entry.specs();
  const SpecRun run = runSpecs(specs, entry.sweepName, entry.name);
  const bool rendered = entry.render(entry, run.outcomes);
  return run.artifactsWritten && rendered ? 0 : 1;
}

int runScenarioMain(const std::string& name) {
  const auto* entry = ScenarioRegistry::builtin().find(name);
  if (entry == nullptr) {
    std::fprintf(stderr, "unknown scenario \"%s\"\n", name.c_str());
    return 1;
  }
  return runScenario(*entry);
}

}  // namespace scidmz::scenario
