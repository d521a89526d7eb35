#include "sim/sweep.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "sim/random.hpp"
#include "sim/run_config.hpp"
#include "sim/simulator.hpp"
#include "sim/units.hpp"

namespace scidmz::sim {
namespace {

// A miniature scenario cell: its own Simulator and forked Rng, a few
// thousand events with random timestamps, and a result that folds every
// fired (time, draw) pair into one hash. Any cross-cell interference or
// ordering change shows up as a different hash.
struct CellResult {
  std::uint64_t hash = 0;
  std::uint64_t events = 0;
};

CellResult runScenarioCell(std::size_t index, SweepCell& cell) {
  Simulator simulator;
  Rng rng = Rng{20130101}.fork(index);
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (int i = 0; i < 2000; ++i) {
    const auto when = Duration::microseconds(static_cast<std::int64_t>(rng.below(50000)));
    simulator.schedule(when, [&hash, &simulator] {
      hash = (hash ^ static_cast<std::uint64_t>(simulator.now().ns())) * 0x100000001b3ull;
    });
  }
  simulator.run();
  cell.eventsExecuted = simulator.eventsExecuted();
  return CellResult{hash, simulator.eventsExecuted()};
}

TEST(Sweep, ResultsLandInSubmissionOrder) {
  SweepRunner sweep{4};
  // Cells deliberately finish out of order (later cells are cheaper).
  const auto results = sweep.run<std::size_t>(16, [](SweepCell& cell) {
    if (cell.index < 4) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return cell.index * 10;
  });
  ASSERT_EQ(results.size(), 16u);
  for (std::size_t i = 0; i < results.size(); ++i) EXPECT_EQ(results[i], i * 10);
}

// The determinism contract: per-cell results are bit-identical no matter
// how many workers execute the sweep.
TEST(Sweep, OneWorkerAndManyWorkersProduceIdenticalResults) {
  const std::size_t cells = 24;
  const auto body = [](SweepCell& cell) { return runScenarioCell(cell.index, cell); };

  SweepRunner serial{1};
  const auto reference = serial.run<CellResult>(cells, body, "serial");

  SweepRunner parallel{8};
  const auto measured = parallel.run<CellResult>(cells, body, "parallel");

  ASSERT_EQ(reference.size(), measured.size());
  for (std::size_t i = 0; i < cells; ++i) {
    EXPECT_EQ(reference[i].hash, measured[i].hash) << "cell " << i;
    EXPECT_EQ(reference[i].events, measured[i].events) << "cell " << i;
  }
}

TEST(Sweep, AllCellsExecuteExactlyOnce) {
  SweepRunner sweep{3};
  std::vector<std::atomic<int>> counts(50);
  sweep.run<int>(counts.size(), [&counts](SweepCell& cell) {
    counts[cell.index].fetch_add(1);
    return 0;
  });
  for (const auto& c : counts) EXPECT_EQ(c.load(), 1);
}

TEST(Sweep, ExceptionInCellPropagatesToCaller) {
  SweepRunner sweep{4};
  EXPECT_THROW(sweep.run<int>(8,
                              [](SweepCell& cell) {
                                if (cell.index == 5) throw std::runtime_error("cell 5 broke");
                                return static_cast<int>(cell.index);
                              }),
               std::runtime_error);
  // The pool survives a throwing batch and accepts new work.
  const auto ok = sweep.run<int>(4, [](SweepCell& cell) { return static_cast<int>(cell.index); });
  EXPECT_EQ(ok, (std::vector<int>{0, 1, 2, 3}));
}

TEST(Sweep, LowestIndexExceptionWins) {
  SweepRunner sweep{4};
  try {
    sweep.run<int>(8, [](SweepCell& cell) -> int {
      if (cell.index == 2 || cell.index == 6) {
        throw std::runtime_error("cell " + std::to_string(cell.index));
      }
      return 0;
    });
    FAIL() << "expected a throw";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "cell 2");
  }
}

TEST(Sweep, StatsTrackCellsAndEvents) {
  SweepRunner sweep{2};
  sweep.run<CellResult>(6, [](SweepCell& cell) { return runScenarioCell(cell.index, cell); },
                        "stats");
  const SweepRunStats& run = sweep.lastRun();
  EXPECT_EQ(run.name, "stats");
  EXPECT_EQ(run.workers, 2);
  ASSERT_EQ(run.cells.size(), 6u);
  EXPECT_EQ(run.totalEvents(), 6u * 2000u);
  for (const auto& c : run.cells) {
    EXPECT_EQ(c.eventsExecuted, 2000u);
    EXPECT_GE(c.wallSeconds, 0.0);
  }
}

TEST(Sweep, EmptySweepIsANoOp) {
  SweepRunner sweep{2};
  const auto results = sweep.run<int>(0, [](SweepCell&) { return 1; });
  EXPECT_TRUE(results.empty());
  EXPECT_EQ(sweep.lastRun().cells.size(), 0u);
}

TEST(Sweep, WriteJsonProducesASummary) {
  SweepRunner sweep{2};
  sweep.run<CellResult>(3, [](SweepCell& cell) { return runScenarioCell(cell.index, cell); },
                        "json");
  const std::string path = testing::TempDir() + "sweep_test_bench.json";
  ASSERT_TRUE(sweep.writeJson("sweep_test", path));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string content((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  EXPECT_NE(content.find("\"benchmark\": \"sweep_test\""), std::string::npos);
  EXPECT_NE(content.find("\"cells\": 3"), std::string::npos);
  EXPECT_NE(content.find("\"events_executed\": 6000"), std::string::npos);
}

TEST(Sweep, DefaultWorkersHonoursEnvOverride) {
  // SCIDMZ_SWEEP_THREADS reaches the runner through the run configuration;
  // its grammar (garbage values parse to 0) is covered by RunConfig.*.
  const RunConfig saved = runConfig();
  RunConfig config = saved;
  config.sweepThreads = 3;
  setRunConfig(config);
  EXPECT_EQ(SweepRunner::defaultWorkers(), 3);
  config.sweepThreads = 0;  // fall back to hardware concurrency
  setRunConfig(config);
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  EXPECT_EQ(SweepRunner::defaultWorkers(), hw > 0 ? hw : 1);
  setRunConfig(saved);
}

}  // namespace
}  // namespace scidmz::sim
