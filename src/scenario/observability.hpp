// Scenario-level wiring for the observability layer: where traces and
// profiles come out of a run.
//
// The run configuration (sim/run_config.hpp: `scidmz_run --trace=<base>` /
// `--profile=<base>`, or SCIDMZ_TRACE / SCIDMZ_PROFILE; knob table in
// DESIGN.md, "Run configuration") selects the artifacts; every sweep cell
// then writes its own files from finishCell():
//   <base>.cell<N>.spans.jsonl  — scidmz.spans.v1 (tools/validate_trace.py)
//   <base>.cell<N>.trace.json   — Chrome trace events (open in Perfetto)
//   <base>.cell<N>.profile.json — scidmz.profile.v1 self-profile
// Cells run on sweep worker threads, so per-cell files (never a shared
// stream) keep output deterministic and lock-free; byte-identical at any
// SCIDMZ_SWEEP_THREADS (the profile's host-time section excepted).
//
// printCriticalPathReport() is the `scidmz_run report` backend: it reads
// spans JSONL files back and prints, per flow/transfer root span, where the
// time went (handshake / slow_start / cwnd_limited / rwnd_limited /
// queue_limited / loss_recovery / storage) — the paper's "why is my
// transfer slow" diagnosis as a table.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "scenario/harness.hpp"
#include "sim/sweep.hpp"

namespace scidmz::scenario {

/// End-of-cell hook (called from finishCell): correlate the cell's spans
/// with its flight recorder, stamp allocator high-water marks into the
/// profiler, record cell.spansEmitted, and write the per-cell artifacts if
/// output bases are set. A file that cannot be written is reported on
/// stderr and sets cell.artifactWriteFailed.
void writeCellObservability(Scenario& s, sim::SweepCell& cell);

/// Read spans JSONL files and print per-root critical-path breakdowns plus
/// an aggregate phase table. Returns false if any file fails to parse.
bool printCriticalPathReport(const std::vector<std::string>& files, std::ostream& out);

}  // namespace scidmz::scenario
