// Drive a catalog entry end to end: header, sweep over its specs, render,
// sweep report. Bench binaries are one-line wrappers over
// runScenarioMain(); scidmz_run drives the same path plus ad-hoc specs.
#pragma once

#include <string>
#include <vector>

#include "scenario/registry.hpp"

namespace scidmz::scenario {

struct SpecRun {
  std::vector<CellOutcome> outcomes;
  /// BENCH_sim.json (or disabled) and every cell's --trace / --profile
  /// files were written.
  bool artifactsWritten = false;
};

/// Run every cell of `specs` on the parallel sweep runner (bit-identical
/// at any SCIDMZ_SWEEP_THREADS), pair each spec with its metrics and write
/// the sweep report. `benchName` labels the BENCH_sim.json entry;
/// `sweepName` the stderr progress lines.
SpecRun runSpecs(const std::vector<ScenarioSpec>& specs, const std::string& sweepName,
                 const std::string& benchName);

/// Full legacy-bench behavior for one catalog entry: print the header, run
/// the sweep (or the native body), render the tables, write the sweep
/// report. Returns a process exit code: nonzero when any artifact could not
/// be written.
int runScenario(const ScenarioEntry& entry);

/// Look `name` up in the builtin registry and run it; unknown names print
/// to stderr and return 1. This is the whole main() of every bench wrapper.
int runScenarioMain(const std::string& name);

}  // namespace scidmz::scenario
