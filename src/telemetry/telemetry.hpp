// Per-scenario telemetry hub: one MetricRegistry, one set of sampled
// time-series probes, one packet flight recorder.
//
// Owned by the scenario's net::Context (no globals), so every sweep cell
// instruments itself independently and traces are byte-identical at any
// SCIDMZ_SWEEP_THREADS. Disabled by default: every emit point guards on
// enabled() (a single bool load) and the sampling tick is never scheduled,
// so an uninstrumented run pays one predictable branch per emit site.
//
// Enable programmatically with enable(config), or for any existing binary
// by setting SCIDMZ_TELEMETRY=1 (default cadence and ring size; the knob
// table is in DESIGN.md, "Run configuration").
//
// Sampling rides the simulator's daemon events (sim::Simulator::
// scheduleDaemon): probes fire on the configured cadence for as long as the
// scenario has real work pending — or through the full window of a
// runFor/runUntil — without keeping run() alive forever on their own.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sim/arena.hpp"
#include "sim/simulator.hpp"
#include "sim/units.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/series.hpp"
#include "telemetry/snapshot.hpp"

namespace scidmz::telemetry {

struct TelemetryConfig {
  /// Cadence of the sampled probes (cwnd, queue depth, ...).
  sim::Duration sampleEvery = sim::Duration::milliseconds(10);
  /// Flight recorder ring capacity, in events.
  std::size_t ringCapacity = 1 << 16;
};

/// Handle to a registered sampler, for removal when the instrumented
/// component (e.g. a TcpConnection) dies before the scenario does.
struct SamplerId {
  std::uint32_t value = 0;
  [[nodiscard]] constexpr bool valid() const { return value != 0; }
};

class Telemetry {
 public:
  /// Starts enabled, with the default TelemetryConfig, when the run
  /// configuration says so (SCIDMZ_TELEMETRY), so any bench or example can
  /// be instrumented without code changes. Series nodes
  /// allocate from `arena` (net::Context passes its scenario arena); the
  /// single-argument form owns a private arena for standalone use.
  Telemetry(sim::Simulator& simulator, sim::Arena& arena);
  explicit Telemetry(sim::Simulator& simulator);

  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  void enable(TelemetryConfig config = {});
  [[nodiscard]] bool enabled() const { return enabled_; }
  [[nodiscard]] const TelemetryConfig& config() const { return config_; }

  [[nodiscard]] MetricRegistry& metrics() { return metrics_; }
  [[nodiscard]] const MetricRegistry& metrics() const { return metrics_; }
  [[nodiscard]] FlightRecorder& recorder() { return recorder_; }
  [[nodiscard]] const FlightRecorder& recorder() const { return recorder_; }

  /// Create-or-get a named series. Stable address for the hub's lifetime.
  [[nodiscard]] TimeSeries& series(const std::string& name);
  [[nodiscard]] const TimeSeries* findSeries(const std::string& name) const;
  [[nodiscard]] std::size_t seriesCount() const { return series_.size(); }

  /// Register a probe: `fn` is invoked on every sampling tick and its value
  /// appended to `seriesName`. Samplers run in registration order. The
  /// first registration arms the sampling tick.
  using Sampler = std::function<double()>;
  SamplerId addSampler(const std::string& seriesName, Sampler fn);
  /// Stop sampling `id`. Safe on invalid/stale ids; ordering of the
  /// remaining samplers is preserved.
  void removeSampler(SamplerId id);

  /// Summarize everything recorded so far (counters/gauges sorted by name).
  [[nodiscard]] TelemetrySnapshot snapshot() const;

  /// Enter restore mode: component overlays (e.g. restored TCP connections)
  /// may re-register samplers, and armTick() must not schedule fresh tick
  /// events for them — the snapshot's TEL section re-arms the tick under
  /// its original event key, which ends restore mode.
  void beginRestore() { restoring_ = true; }

  /// Snapshot/restore of the hub: registry, recorder, series (by name),
  /// sampler-id counter, and the pending sampling tick. Sampler callbacks
  /// never cross the wire — restored components re-register them before
  /// this runs, which is why the TEL section is read LAST (the overlay then
  /// squashes any counter/series values those re-registrations bumped).
  /// Returns claimed pending events.
  std::uint64_t serialize(sim::Codec& c);

  /// Write the flight recorder trace as scidmz.frbin.v1 (`scidmz_run
  /// convert` turns it into scidmz.trace.v1 JSONL); returns false if the
  /// file can't be opened or written.
  bool writeTrace(const std::string& path) const;

 private:
  void tick();
  void armTick();

  sim::Simulator& sim_;
  /// Present only for the standalone (arena-less) constructor; declared
  /// before series_ so arena-backed nodes die first.
  std::unique_ptr<sim::Arena> owned_arena_;
  sim::Arena& arena_;
  bool enabled_ = false;
  bool tick_armed_ = false;
  bool restoring_ = false;
  sim::EventId tick_event_{};
  TelemetryConfig config_;

  MetricRegistry metrics_;
  FlightRecorder recorder_;

  // Arena nodes: stable addresses across growth, one pooled block each.
  std::vector<sim::ArenaPtr<TimeSeries>> series_;
  std::map<std::string, std::size_t> series_index_;

  struct SamplerEntry {
    std::uint32_t id = 0;
    TimeSeries* series = nullptr;
    Sampler fn;
  };
  std::vector<SamplerEntry> samplers_;
  std::uint32_t next_sampler_id_ = 0;
};

}  // namespace scidmz::telemetry
