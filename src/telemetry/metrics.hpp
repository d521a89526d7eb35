// Named counters and gauges for one scenario.
//
// The registry is owned by the scenario's Telemetry hub (itself owned by
// net::Context) — never a global — so sweep cells instrument themselves
// independently and stay bit-reproducible at any worker count. Lookup by
// name happens once, at emit-site initialization; the hot path increments
// through a cached reference.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <utility>

#include "sim/codec.hpp"

namespace scidmz::telemetry {

class MetricRegistry {
 public:
  /// Create-or-get a counter. The returned reference is stable for the
  /// registry's lifetime (entries live in a deque), so emit points cache it.
  [[nodiscard]] std::uint64_t& counter(const std::string& name) {
    const auto it = counter_index_.find(name);
    if (it != counter_index_.end()) return counters_[it->second].second;
    counter_index_.emplace(name, counters_.size());
    counters_.emplace_back(name, 0);
    return counters_.back().second;
  }

  /// Create-or-get a gauge (last-value-wins double). Stable address.
  [[nodiscard]] double& gauge(const std::string& name) {
    const auto it = gauge_index_.find(name);
    if (it != gauge_index_.end()) return gauges_[it->second].second;
    gauge_index_.emplace(name, gauges_.size());
    gauges_.emplace_back(name, 0.0);
    return gauges_.back().second;
  }

  /// Counter value by name; 0 when absent (diagnosis convenience).
  [[nodiscard]] std::uint64_t counterValue(const std::string& name) const {
    const auto it = counter_index_.find(name);
    return it == counter_index_.end() ? 0 : counters_[it->second].second;
  }

  [[nodiscard]] std::size_t counterCount() const { return counters_.size(); }

  /// Iterate counters in registration order (deterministic per scenario).
  template <typename F>
  void forEachCounter(F&& fn) const {
    for (const auto& [name, value] : counters_) fn(name, value);
  }

  template <typename F>
  void forEachGauge(F&& fn) const {
    for (const auto& [name, value] : gauges_) fn(name, value);
  }

  /// Snapshot/restore overlay: values are applied create-or-get by NAME,
  /// never by index — the rebuild may have created a subset (or differently
  /// ordered prefix) of the snapshot's entries, and every output path sorts
  /// by name, so registration order is not observable. Cached references
  /// stay valid (deque addresses are stable).
  void serialize(sim::Codec& c) {
    std::uint64_t counterCount = counters_.size();
    c.vu64(counterCount);
    if (c.writing()) {
      for (auto& [name, value] : counters_) {
        std::string n = name;
        c.str(n);
        c.vu64(value);
      }
    } else {
      for (std::uint64_t i = 0; i < counterCount; ++i) {
        std::string n;
        c.str(n);
        std::uint64_t v = 0;
        c.vu64(v);
        counter(n) = v;
      }
    }
    std::uint64_t gaugeCountN = gauges_.size();
    c.vu64(gaugeCountN);
    if (c.writing()) {
      for (auto& [name, value] : gauges_) {
        std::string n = name;
        c.str(n);
        c.f64(value);
      }
    } else {
      for (std::uint64_t i = 0; i < gaugeCountN; ++i) {
        std::string n;
        c.str(n);
        double v = 0.0;
        c.f64(v);
        gauge(n) = v;
      }
    }
  }

 private:
  // deque keeps value addresses stable across growth.
  std::deque<std::pair<std::string, std::uint64_t>> counters_;
  std::deque<std::pair<std::string, double>> gauges_;
  std::map<std::string, std::size_t> counter_index_;
  std::map<std::string, std::size_t> gauge_index_;
};

}  // namespace scidmz::telemetry
