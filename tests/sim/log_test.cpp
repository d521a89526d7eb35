#include "sim/log.hpp"

#include <gtest/gtest.h>

namespace scidmz::sim {
namespace {

using namespace scidmz::sim::literals;

TEST(Logger, SinkReceivesRecords) {
  Logger logger;
  CapturingSink sink;
  logger.addSink(sink.sink());
  logger.log(SimTime::zero() + 5_ms, LogLevel::kInfo, "tcp", "connection established");
  ASSERT_EQ(sink.records().size(), 1u);
  EXPECT_EQ(sink.records()[0].component, "tcp");
  EXPECT_EQ(sink.records()[0].message, "connection established");
  EXPECT_EQ(sink.records()[0].at, SimTime::zero() + 5_ms);
}

TEST(Logger, LevelFiltersBelowThreshold) {
  Logger logger;
  CapturingSink sink;
  logger.addSink(sink.sink());
  logger.setLevel(LogLevel::kWarn);
  logger.log(SimTime::zero(), LogLevel::kDebug, "x", "dropped");
  logger.log(SimTime::zero(), LogLevel::kInfo, "x", "dropped");
  logger.log(SimTime::zero(), LogLevel::kWarn, "x", "kept");
  logger.log(SimTime::zero(), LogLevel::kError, "x", "kept");
  EXPECT_EQ(sink.records().size(), 2u);
}

TEST(Logger, NoSinksMeansNoWork) {
  Logger logger;
  logger.log(SimTime::zero(), LogLevel::kError, "x", "nowhere to go");  // must not crash
}

TEST(Logger, MultipleSinksAllReceive) {
  Logger logger;
  CapturingSink s1;
  CapturingSink s2;
  logger.addSink(s1.sink());
  logger.addSink(s2.sink());
  logger.log(SimTime::zero(), LogLevel::kInfo, "x", "fanout");
  EXPECT_EQ(s1.records().size(), 1u);
  EXPECT_EQ(s2.records().size(), 1u);
}

TEST(LogLevel, Names) {
  EXPECT_EQ(toString(LogLevel::kTrace), "TRACE");
  EXPECT_EQ(toString(LogLevel::kError), "ERROR");
}

TEST(LogLevel, ParseIsCaseInsensitiveAndRejectsGarbage) {
  EXPECT_EQ(parseLogLevel("debug"), LogLevel::kDebug);
  EXPECT_EQ(parseLogLevel("DEBUG"), LogLevel::kDebug);
  EXPECT_EQ(parseLogLevel("Warn"), LogLevel::kWarn);
  EXPECT_EQ(parseLogLevel("warning"), LogLevel::kWarn);
  EXPECT_EQ(parseLogLevel("trace"), LogLevel::kTrace);
  EXPECT_EQ(parseLogLevel("error"), LogLevel::kError);
  EXPECT_EQ(parseLogLevel("1"), std::nullopt);
  EXPECT_EQ(parseLogLevel(""), std::nullopt);
  EXPECT_EQ(parseLogLevel("verbose"), std::nullopt);
}

}  // namespace
}  // namespace scidmz::sim
