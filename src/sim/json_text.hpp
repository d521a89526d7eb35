// JSON text: the one rule for how a string is escaped and a number is
// written in every artifact the simulator emits (scenario.v1 specs,
// bench.table.v1, BENCH_sim.json, telemetry.v1, spans.v1 and the Chrome
// trace, profile.v1, the flight-recorder JSONL).
//
// Each emitter keeps its own whitespace layout; only the leaf text comes
// from here. Besides the shortest round-trip form, the module carries just
// the fixed formats an existing schema pins:
//
//   appendJsonFixed6   "%.6f"   BENCH_sim.json, telemetry.v1
//   appendJsonFixed3   "%.3f"   Chrome-trace ts/dur (microseconds)
//   appendJsonPrec10   "%.10g"  bench.table.v1 cells
//   appendJsonPrec17   "%.17g"  spans.v1 double args
//   appendJsonUint     "%llu"   counters, ids, nanosecond timestamps
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>

namespace scidmz::sim {

/// Append `s` JSON-escaped, including the surrounding quotes: `"` and `\`
/// get a backslash, \b \f \n \r \t their short forms, every other byte
/// below 0x20 a \u00XX escape. Bytes >= 0x80 (UTF-8) pass through.
void appendJsonString(std::string& out, std::string_view s);

/// Append the canonical text form of `v`: integral values below 2^63 as
/// plain integers, everything else with the shortest %g precision (15..17)
/// that survives a strtod round trip. scenario::Json::dump uses this.
void appendJsonNumber(std::string& out, double v);

void appendJsonFixed6(std::string& out, double v);
void appendJsonFixed3(std::string& out, double v);
void appendJsonPrec10(std::string& out, double v);
void appendJsonPrec17(std::string& out, double v);
void appendJsonUint(std::string& out, std::uint64_t v);

/// What `append` (one of the writers above) adds for `v`, as its own
/// string: for stream emitters and for values stored already rendered.
template <typename T>
[[nodiscard]] std::string jsonText(void (*append)(std::string&, T), std::type_identity_t<T> v) {
  std::string out;
  append(out, v);
  return out;
}

}  // namespace scidmz::sim
