// Warm-started sweeps: the snapshot seam's headline number.
//
// A parameter sweep whose cells share a warmup prefix (identical topology
// and flows until the swept parameter kicks in) can run that prefix ONCE,
// snapshot it, and restore per cell instead of re-simulating it. This bench
// pins the claim down on the canonical DemoCell (see
// src/scenario/checkpoint.hpp):
//
//   - cold: N cells each simulate the full [0, 1s] window;
//   - warm: one cell simulates [0, 0.8s], saves a scidmz.snap.v1 blob, and
//     each of the N cells rebuilds, restores, and simulates only [0.8s, 1s].
//
// Both paths must produce byte-identical per-cell tables — a warm start
// that changes results is a correctness bug, not an optimization — and the
// warm path must be >= 2x faster end to end (the acceptance bar; the
// restore itself is microseconds, so the speedup tracks the skipped
// warmup fraction). Per-cell snapshot blob sizes land in the
// snapshot_bytes column of BENCH_micro_snapshot.json and the cold/warm
// events_per_second pair is ratcheted by CI (tools/perf_ratchet.py).
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "net/context.hpp"
#include "net/flow.hpp"
#include "scenario/bench_io.hpp"
#include "scenario/checkpoint.hpp"
#include "scenario/harness.hpp"
#include "sim/sweep.hpp"

using namespace scidmz;
using namespace scidmz::sim::literals;

namespace {

constexpr int kCells = 8;
constexpr auto kWarmupEnd = 800_ms;
constexpr auto kTail = 200_ms;

void finishSnapshotCell(scenario::DemoCell& cell, sim::SweepCell& stats,
                        std::uint64_t snapshotBytes) {
  scenario::Scenario& s = cell.scenario();
  stats.eventsExecuted = s.simulator.eventsExecuted();
  stats.packetsForwarded = s.ctx.packetsForwarded();
  stats.flowsCreated = net::flowFactory(s.ctx).flowsCreated();
  stats.snapshotBytes = snapshotBytes;
}

/// Cold path: the full window from construction.
std::string runColdCell(sim::SweepCell& stats) {
  scenario::DemoCell cell;
  cell.scenario().simulator.runFor(kWarmupEnd);
  cell.scenario().simulator.runFor(kTail);
  finishSnapshotCell(cell, stats, 0);
  return cell.table();
}

/// Warm path: rebuild, overlay the shared warmup snapshot, run the tail.
std::string runWarmCell(sim::SweepCell& stats, const std::vector<std::uint8_t>& blob) {
  scenario::DemoCell cell;
  std::string error;
  if (!scenario::restoreSnapshot(cell.scenario(), blob, &error)) {
    return "restore failed: " + error;
  }
  cell.scenario().simulator.runFor(kTail);
  finishSnapshotCell(cell, stats, blob.size());
  return cell.table();
}

}  // namespace

int main() {
  bench::header("micro_snapshot: warm-started sweep via scidmz.snap.v1",
                "DESIGN.md: state & serialization");

  // The shared warmup prefix, simulated exactly once.
  scenario::DemoCell warmup;
  warmup.scenario().simulator.runFor(kWarmupEnd);
  const scenario::SnapshotBlob blob = scenario::saveSnapshot(warmup.scenario());
  if (!blob.ok()) {
    std::fprintf(stderr, "micro_snapshot: %s\n", blob.error.c_str());
    return 1;
  }

  sim::SweepRunner sweep;
  const auto cold = sweep.run<std::string>(
      kCells, [](sim::SweepCell& cell) { return runColdCell(cell); }, "cold_full_window");
  const auto warm = sweep.run<std::string>(
      kCells, [&blob](sim::SweepCell& cell) { return runWarmCell(cell, blob.bytes); },
      "warm_restored_tail");

  const auto& coldRun = sweep.history()[0];
  const auto& warmRun = sweep.history()[1];

  bool identical = true;
  for (int i = 0; i < kCells; ++i) {
    if (warm[static_cast<std::size_t>(i)] != cold[static_cast<std::size_t>(i)]) {
      identical = false;
      std::fprintf(stderr, "micro_snapshot: cell %d diverged\ncold:\n%swarm:\n%s", i,
                   cold[static_cast<std::size_t>(i)].c_str(),
                   warm[static_cast<std::size_t>(i)].c_str());
    }
  }

  const double coldWall = coldRun.cellSecondsSum();
  const double warmWall = warmRun.cellSecondsSum();
  const double speedup = warmWall > 0 ? coldWall / warmWall : 0.0;
  bench::row("cold:  %d cells x [0, %.1fs], %.3fs cell time, %llu events", kCells,
             (kWarmupEnd + kTail).toSeconds(), coldWall,
             static_cast<unsigned long long>(coldRun.totalEvents()));
  bench::row("warm:  %d cells x restore(%zu bytes) + [%.1fs, %.1fs], %.3fs cell time, %llu events",
             kCells, blob.bytes.size(), kWarmupEnd.toSeconds(),
             (kWarmupEnd + kTail).toSeconds(), warmWall,
             static_cast<unsigned long long>(warmRun.totalEvents()));
  bench::row("tables byte-identical: %s", identical ? "yes" : "NO");
  bench::row("warm-start speedup: %.1fx (acceptance: >= 2x)", speedup);

  const bool reportWritten = bench::writeSweepReport(sweep, "micro_snapshot");
  std::printf("%s", cold[0].c_str());
  return reportWritten && identical && speedup >= 2.0 ? 0 : 1;
}
