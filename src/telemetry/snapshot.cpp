#include "telemetry/snapshot.hpp"

#include "sim/json_text.hpp"

namespace scidmz::telemetry {

std::uint64_t TelemetrySnapshot::counterValue(const std::string& name) const {
  for (const auto& c : counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

const TelemetrySnapshot::SeriesSummary* TelemetrySnapshot::findSeries(
    const std::string& name) const {
  for (const auto& s : series) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

std::string TelemetrySnapshot::toJson() const {
  using sim::appendJsonFixed6;
  using sim::appendJsonString;
  using sim::appendJsonUint;
  std::string out;
  out.reserve(256 + counters.size() * 48 + series.size() * 160);
  out += "{\"schema\":\"scidmz.telemetry.v1\",\"counters\":{";
  for (std::size_t i = 0; i < counters.size(); ++i) {
    if (i) out += ',';
    appendJsonString(out, counters[i].name);
    out += ':';
    appendJsonUint(out, counters[i].value);
  }
  out += "},\"gauges\":{";
  for (std::size_t i = 0; i < gauges.size(); ++i) {
    if (i) out += ',';
    appendJsonString(out, gauges[i].name);
    out += ':';
    appendJsonFixed6(out, gauges[i].value);
  }
  out += "},\"series\":{";
  for (std::size_t i = 0; i < series.size(); ++i) {
    const SeriesSummary& s = series[i];
    if (i) out += ',';
    appendJsonString(out, s.name);
    out += ":{\"samples\":";
    appendJsonUint(out, s.sampleCount);
    out += ",\"first\":";
    appendJsonFixed6(out, s.first);
    out += ",\"last\":";
    appendJsonFixed6(out, s.last);
    out += ",\"min\":";
    appendJsonFixed6(out, s.min);
    out += ",\"max\":";
    appendJsonFixed6(out, s.max);
    out += ",\"mean\":";
    appendJsonFixed6(out, s.mean);
    out += '}';
  }
  out += "},\"flight_recorder\":{\"recorded\":";
  appendJsonUint(out, flightEventsRecorded);
  out += ",\"retained\":";
  appendJsonUint(out, flightEventsRetained);
  out += ",\"overwritten\":";
  appendJsonUint(out, flightEventsOverwritten);
  out += "}}";
  return out;
}

}  // namespace scidmz::telemetry
