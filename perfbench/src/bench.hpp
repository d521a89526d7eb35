// Shared vocabulary of the simulator benchmark driver: spans, per-cell
// outcomes, counters, the output digest, and the Workload interface the
// four workloads implement.
//
// A run is a closed loop with one client: the driver generates a
// workload's cells from the seed, then runs rounds of those same cells back
// to back until the time budget is spent. Every round rebuilds every cell
// from its spec, so each round yields one set-up sample and one run sample,
// and the per-cell output digests must repeat exactly from round to round.
#pragma once

#include <chrono>
#include <cstdint>
#include <exception>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace scidmz::net {
class FlowHandle;
class Topology;
}  // namespace scidmz::net
namespace scidmz::scenario {
struct Scenario;
}
namespace scidmz::sim {
class Profiler;
}

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds elapsed since `t0`.
[[nodiscard]] double secondsSince(Clock::time_point t0);
/// Nanoseconds since the process-wide span epoch (first call).
[[nodiscard]] std::int64_t spanClockNs();

// --- Host speed --------------------------------------------------------------

/// A fixed piece of CPU and memory work that uses none of the simulator's
/// code: a binary heap of pseudo-random keys beside scattered reads and
/// writes over an 8 MiB table, the access mix of a discrete-event
/// simulator. Timing it between rounds tells how fast the host runs right
/// then, so that round times taken minutes apart on a shared host, whose
/// speed drifts, can be compared.
class SpeedProbe {
 public:
  SpeedProbe();
  /// Median of three timings of the fixed work, in host seconds.
  [[nodiscard]] double measure();

 private:
  double measureOnce();
  std::vector<std::uint64_t> table_;
  std::vector<std::uint64_t> heap_;
  std::uint64_t sink_ = 0;
};

// --- Spans -----------------------------------------------------------------

/// One timed call into the simulator. `parent` indexes the same log (-1 for
/// a root); `trace` is the cell id, so all spans of one cell share it.
struct Span {
  std::string name;
  std::string trace;
  std::int64_t startNs = 0;
  std::int64_t endNs = 0;
  int parent = -1;
};

/// Per-cell, single-threaded span recorder. Disabled logs record nothing and
/// cost one branch per scope; spans stay in memory until the run ends.
class SpanLog {
 public:
  SpanLog(bool enabled, std::string trace) : enabled_(enabled), trace_(std::move(trace)) {}

  [[nodiscard]] bool enabled() const { return enabled_; }
  [[nodiscard]] std::vector<Span> take() { return std::move(spans_); }

  int open(const char* name);
  void close(int index);

 private:
  bool enabled_;
  std::string trace_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span around one public call.
class SpanScope {
 public:
  SpanScope(SpanLog& log, const char* name)
      : log_(log), index_(log.enabled() ? log.open(name) : -1) {}
  ~SpanScope() {
    if (index_ >= 0) log_.close(index_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanLog& log_;
  int index_;
};

/// Self time of each span: its duration minus the union of its children's
/// intervals, each child clipped to the parent's interval.
[[nodiscard]] std::vector<double> selfSeconds(const std::vector<Span>& spans);
/// Self time summed per span name.
[[nodiscard]] std::map<std::string, double> selfSecondsByName(const std::vector<Span>& spans);

// --- Digest ----------------------------------------------------------------

/// FNV-1a over a canonical byte stream of a cell's simulated outputs.
class Digest {
 public:
  void add(std::string_view bytes);
  void add(std::uint64_t v);
  void add(double v);
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

[[nodiscard]] std::string hex64(std::uint64_t v);

// --- Cell outcomes ---------------------------------------------------------

/// Deterministic counts read from public counters after a cell ran. A
/// speed-only change must leave all of them identical.
struct Counters {
  std::uint64_t events = 0;
  std::uint64_t packetsForwarded = 0;
  std::uint64_t poolHighWater = 0;  ///< max over cells
  std::uint64_t drops = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t rtos = 0;
  std::uint64_t segmentsSent = 0;
  std::uint64_t flowsCreated = 0;
  std::uint64_t fluidFlowsCreated = 0;
  std::uint64_t fluidFlowsCompleted = 0;
  std::uint64_t backgroundCompleted = 0;
  std::uint64_t perfsonarSeries = 0;
  std::uint64_t perfsonarAlerts = 0;
  std::uint64_t flightEvents = 0;

  void add(const Counters& o);
};

/// What the attached sim::Profiler saw (traced rounds only).
struct ProfileStats {
  std::uint64_t events = 0;
  std::uint64_t daemonEvents = 0;  ///< daemon events, telemetry ticks included
  std::uint64_t maxPending = 0;
  std::uint64_t maxParked = 0;
  double fluidTickS = 0.0;
  double telemetryTickS = 0.0;

  void read(const scidmz::sim::Profiler& p);
  void add(const ProfileStats& o);
};

struct CellOutcome {
  std::string id;
  std::uint64_t digest = 0;
  std::vector<std::string> failures;  ///< empty = correct
  double setupS = 0.0;  ///< host time building the cell before its first run call
  double runS = 0.0;    ///< host time inside run calls
  double simS = 0.0;    ///< simulated horizon
  Counters counters;
  ProfileStats profile;
  std::vector<std::uint64_t> domainEvents;  ///< sharded cells only
  std::vector<Span> spans;
};

/// What a round does with its cells. Traced rounds record spans and attach
/// sim::Profiler (except on wan_sharded, which refuses it). Set-up-only
/// rounds build each cell and tear it down without running it: extra
/// set-up samples at little cost.
enum class RoundMode { kTimed, kTraced, kSetupOnly };

/// Times one cell: set-up is everything from construction to the first
/// run() call, run time is the sum over run() calls. With tracing on, the
/// cell gets a root "bench.cell" span and every run() a "sim.run" span.
class CellClock {
 public:
  CellClock(CellOutcome& out, RoundMode mode)
      : out_(out), mode_(mode), log_(mode == RoundMode::kTraced, out.id), t0_(Clock::now()) {
    if (log_.enabled()) root_ = log_.open("bench.cell");
  }
  CellClock(const CellClock&) = delete;
  CellClock& operator=(const CellClock&) = delete;

  [[nodiscard]] SpanLog& log() { return log_; }
  [[nodiscard]] bool profiled() const { return mode_ == RoundMode::kTraced; }

  /// Call just before the first run(): in a set-up-only round, records the
  /// set-up time, finishes the cell and returns true.
  bool setupOnly() {
    if (mode_ != RoundMode::kSetupOnly) return false;
    out_.setupS = secondsSince(t0_);
    finish();
    return true;
  }

  template <typename F>
  void run(F&& advance) {
    if (!running_) {
      out_.setupS = secondsSince(t0_);
      running_ = true;
    }
    SpanScope span(log_, "sim.run");
    const auto r0 = Clock::now();
    advance();
    out_.runS += secondsSince(r0);
  }

  /// Close the root span and hand the spans to the outcome.
  void finish() {
    if (root_ >= 0) log_.close(root_);
    out_.spans = log_.take();
  }

 private:
  CellOutcome& out_;
  RoundMode mode_;
  SpanLog log_;
  Clock::time_point t0_;
  int root_ = -1;
  bool running_ = false;
};

/// Run one cell body; an exception becomes a failed outcome instead of
/// ending the run.
template <typename F>
CellOutcome guardCell(const std::string& id, F&& body) {
  try {
    return body();
  } catch (const std::exception& e) {
    CellOutcome out;
    out.id = id;
    out.failures.push_back(id + ": threw: " + e.what());
    return out;
  }
}

/// Independent, stable per-cell seed (SplitMix64 of seed and salt).
[[nodiscard]] std::uint64_t mixSeed(std::uint64_t seed, std::uint64_t salt);

/// Sum of drop counters over every queue, device, firewall and link.
[[nodiscard]] std::uint64_t topologyDrops(const scidmz::net::Topology& topo);

/// Fold one flow's TCP outcome into the counters and the digest.
void recordFlow(scidmz::net::FlowHandle& flow, Counters& c, Digest& d);

/// Fold the scenario-wide counters (events, forwarding, pool, drops, flow
/// factory, fluid engine; summed over domains when sharded) into `c` and
/// the digest.
void recordScenario(scidmz::scenario::Scenario& s, Counters& c, Digest& d);

// --- Workloads -------------------------------------------------------------

class Workload {
 public:
  virtual ~Workload() = default;

  /// Canonical text of the generated cells: byte-identical for one seed.
  [[nodiscard]] virtual std::string cellsText() const = 0;

  /// Build and run every cell once in the given mode. Round-level layer
  /// figures (sweep efficiency) go into `extra`.
  virtual std::vector<CellOutcome> runRound(RoundMode mode, SpanLog& roundLog,
                                            std::map<std::string, double>& extra) = 0;

  /// One-off checks outside the timed rounds, given the first round's
  /// outcomes; appends failures per cell and may report layer figures.
  virtual void verify(std::vector<CellOutcome>& /*cells*/,
                      std::map<std::string, double>& /*extra*/) {}
};

[[nodiscard]] std::unique_ptr<Workload> makeBulkPacket(std::uint64_t seed);
[[nodiscard]] std::unique_ptr<Workload> makePerfsonarMesh(std::uint64_t seed);
[[nodiscard]] std::unique_ptr<Workload> makeHybridCrowd(std::uint64_t seed);
[[nodiscard]] std::unique_ptr<Workload> makeWanSharded(std::uint64_t seed);

/// nullptr for an unknown name.
[[nodiscard]] std::unique_ptr<Workload> makeWorkload(const std::string& name, std::uint64_t seed);
[[nodiscard]] const std::vector<std::string>& workloadNames();

}  // namespace perfbench
