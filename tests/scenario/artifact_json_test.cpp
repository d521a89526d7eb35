// Every JSON artifact writes names through the one sim/json_text.hpp
// escaper: a name holding a quote, a backslash and a newline must come back
// unchanged through scenario::Json::parse of the telemetry snapshot, the
// span JSONL and Chrome trace, the flight-recorder JSONL, a bench table
// and the self-profile.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "scenario/bench_io.hpp"
#include "scenario/json.hpp"
#include "sim/profiler.hpp"
#include "sim/simulator.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/span.hpp"
#include "telemetry/telemetry.hpp"

namespace scidmz::scenario {
namespace {

const std::string kName = "dtn \"a\"\\if0\nline-card";

TEST(ArtifactJson, TelemetryCounterNameRoundTrips) {
  sim::Simulator simulator;
  telemetry::Telemetry tel{simulator};
  tel.enable();
  tel.metrics().counter(kName) = 3;
  const Json doc = Json::parse(tel.snapshot().toJson());
  EXPECT_EQ(doc.get("counters").get(kName).asNumber(), 3.0);
}

TEST(ArtifactJson, SpanNameAndArgsRoundTrip) {
  telemetry::Tracer tracer;
  tracer.enable();
  const auto id = tracer.begin(sim::SimTime::fromNs(1000), kName, "flow");
  tracer.annotate(id, kName, std::string_view(kName));
  tracer.end(id, sim::SimTime::fromNs(5000));

  std::ostringstream jsonl;
  tracer.exportSpansJsonl(jsonl, sim::SimTime::fromNs(5000));
  std::istringstream lines(jsonl.str());
  std::string header;
  std::string spanLine;
  ASSERT_TRUE(std::getline(lines, header));
  ASSERT_TRUE(std::getline(lines, spanLine));
  const Json span = Json::parse(spanLine);
  EXPECT_EQ(span.get("name").asString(), kName);
  EXPECT_EQ(span.get("args").get(kName).asString(), kName);

  std::ostringstream chrome;
  tracer.exportChromeTrace(chrome, sim::SimTime::fromNs(5000));
  const Json trace = Json::parse(chrome.str());
  const Json& events = trace.get("traceEvents");
  ASSERT_EQ(events.size(), 2u);  // thread_name metadata + the span
  EXPECT_EQ(events.at(0).get("args").get("name").asString(), kName);
  EXPECT_EQ(events.at(1).get("name").asString(), kName);
  EXPECT_EQ(events.at(1).get("args").get(kName).asString(), kName);
}

TEST(ArtifactJson, FlightRecorderPointRoundTrips) {
  telemetry::FlightRecorder recorder(4);
  telemetry::FlightEvent event;
  event.point = recorder.internPoint(kName);
  recorder.record(event);
  std::ostringstream out;
  recorder.exportJsonl(out);
  EXPECT_EQ(Json::parse(out.str()).get("point").asString(), kName);
}

TEST(ArtifactJson, TableCellRoundTrips) {
  bench::JsonTable table(kName, kName, kName, {kName});
  table.addRow({kName, 2.5});
  table.addNote(kName);
  const Json doc = Json::parse(table.toJson());
  EXPECT_EQ(doc.get("bench").asString(), kName);
  EXPECT_EQ(doc.get("columns").at(0).asString(), kName);
  EXPECT_EQ(doc.get("rows").at(0).at(0).asString(), kName);
  EXPECT_EQ(doc.get("rows").at(0).at(1).asNumber(), 2.5);
  EXPECT_EQ(doc.get("notes").at(0).asString(), kName);
}

TEST(ArtifactJson, ProfilerHighWaterNameRoundTrips) {
  sim::Profiler profiler;
  profiler.setHighWater(kName, 7);
  std::ostringstream out;
  profiler.exportJson(out);
  const Json doc = Json::parse(out.str());
  EXPECT_EQ(doc.get("high_water").get(kName).asNumber(), 7.0);
}

}  // namespace
}  // namespace scidmz::scenario
