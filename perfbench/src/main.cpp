// scidmz_perfbench: run one benchmark workload at one seed and report its
// end-to-end metrics (or, with --trace 1, its per-layer metrics).
//
//   scidmz_perfbench --workload bulk_packet --seed 1 --seconds 15 --trace 0
//
// The last line of stdout is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// Everything above it is the human-readable report: provenance, per-round
// figures and the metric table. The exit code is nonzero when any cell
// failed a correctness check. See perfbench/README.md.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"

namespace perfbench {
namespace {

constexpr std::uint64_t kDefaultSeed = 1;
constexpr std::uint64_t kHeldOutSeed = 90210;

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 15.0;
  bool trace = false;
  std::string outDir;
  std::string reference;
  bool recordReference = false;
  bool selfCheck = false;
  bool listCells = false;
  std::string commit = "unknown";
  std::string sourceDigest = "unknown";
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\n"
               "usage: scidmz_perfbench --workload NAME --seed N --seconds S --trace 0|1\n"
               "                        [--out DIR] [--reference FILE] [--record-reference]\n"
               "                        [--commit C] [--source-digest D] [--list-cells]\n"
               "       scidmz_perfbench --self-check\n"
               "workloads: bulk_packet perfsonar_mesh hybrid_crowd wan_sharded\n",
               why);
  std::exit(2);
}

std::uint64_t parseU64(const std::string& text, const char* what) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (text.empty() || errno != 0 || end == nullptr || *end != '\0' || text[0] == '-') {
    usage((std::string("bad ") + what + ": " + text).c_str());
  }
  return v;
}

Args parseArgs(int argc, char** argv) {
  Args a;
  bool haveSeconds = false;
  bool haveTrace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
      return argv[++i];
    };
    if (flag == "--workload") {
      a.workload = value();
    } else if (flag == "--seed") {
      a.seed = parseU64(value(), "seed");
    } else if (flag == "--seconds") {
      const std::uint64_t s = parseU64(value(), "seconds");
      if (s < 1 || s > 3600) usage("seconds must be in [1, 3600]");
      a.seconds = static_cast<double>(s);
      haveSeconds = true;
    } else if (flag == "--trace") {
      const std::string t = value();
      if (t != "0" && t != "1") usage("trace must be 0 or 1");
      a.trace = t == "1";
      haveTrace = true;
    } else if (flag == "--out") {
      a.outDir = value();
    } else if (flag == "--reference") {
      a.reference = value();
    } else if (flag == "--record-reference") {
      a.recordReference = true;
    } else if (flag == "--commit") {
      a.commit = value();
    } else if (flag == "--source-digest") {
      a.sourceDigest = value();
    } else if (flag == "--self-check") {
      a.selfCheck = true;
    } else if (flag == "--list-cells") {
      a.listCells = true;
    } else {
      usage(("unknown argument " + flag).c_str());
    }
  }
  if (a.selfCheck) return a;
  if (a.workload.empty()) usage("--workload is required");
  if (!a.listCells && (!haveSeconds || !haveTrace)) usage("--seconds and --trace are required");
  return a;
}

// --- Provenance --------------------------------------------------------------

struct Provenance {
  int nproc = 0;
  unsigned hwThreads = 0;
  std::string cpuModel = "unknown";
  std::string compiler = PERFBENCH_COMPILER;
  std::string flags = PERFBENCH_FLAGS;
  std::string buildType = PERFBENCH_BUILD_TYPE;
  bool optimized = false;
  std::string sanitizer = "none";
};

Provenance provenance() {
  Provenance p;
  cpu_set_t set;
  CPU_ZERO(&set);
  p.nproc = sched_getaffinity(0, sizeof set, &set) == 0 ? CPU_COUNT(&set) : 0;
  p.hwThreads = std::thread::hardware_concurrency();
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) p.cpuModel = line.substr(colon + 2);
      break;
    }
  }
#ifdef __OPTIMIZE__
  p.optimized = true;
#endif
#if defined(__SANITIZE_ADDRESS__)
  p.sanitizer = "address";
#elif defined(__SANITIZE_THREAD__)
  p.sanitizer = "thread";
#endif
  return p;
}

// --- JSON helpers ------------------------------------------------------------

std::string jsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

/// Full-precision number (never rounded to look the same run to run).
std::string jsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// --- Metrics -----------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Round 0 warms caches and the allocator: it is checked like every round
/// but left out of the timings.
constexpr std::size_t kWarmupRounds = 1;

/// Set-up-only rounds after the timed ones give setup_s its samples. Set-up
/// is a small share of a round; measured inside timed rounds it would have
/// few samples, each taken with caches cold from the previous simulation.
constexpr int kSetupSamples = 31;

/// SpeedProbe time that end-to-end times are rescaled to: a round that
/// took `wall` host seconds while the probe took `probe` reports
/// wall * kNominalProbeS / probe, its time on a host where the probe takes
/// kNominalProbeS. That is about the probe's time on an idle 4-vCPU Xeon
/// VM, so rescaled figures read close to host seconds there.
constexpr double kNominalProbeS = 0.006;

struct Round {
  RoundMode mode = RoundMode::kTimed;
  double wallS = 0.0;
  double probeS = 0.0;  ///< SpeedProbe time around the round (mean of before and after)
  std::vector<CellOutcome> cells;
  std::map<std::string, double> extra;
  std::vector<Span> spans;  ///< round span + every cell's, parents re-based

  [[nodiscard]] double setupS() const {
    double t = 0;
    for (const auto& c : cells) t += c.setupS;
    return t;
  }
  [[nodiscard]] double simRate() const {
    double sim = 0;
    double run = 0;
    for (const auto& c : cells) {
      sim += c.simS;
      run += c.runS;
    }
    return run > 0 ? sim / run : 0.0;
  }
  [[nodiscard]] Counters counters() const {
    Counters total;
    for (const auto& c : cells) total.add(c.counters);
    return total;
  }
  [[nodiscard]] ProfileStats profile() const {
    ProfileStats total;
    for (const auto& c : cells) total.add(c.profile);
    return total;
  }
};

void appendSpans(std::vector<Span>& into, std::vector<Span> from) {
  const int base = static_cast<int>(into.size());
  for (Span& s : from) {
    if (s.parent >= 0) s.parent += base;
    into.push_back(std::move(s));
  }
}

double peakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

std::vector<Metric> endToEnd(const std::vector<Round>& rounds) {
  std::vector<double> wall;
  std::vector<double> setup;
  std::vector<double> rate;
  for (std::size_t i = kWarmupRounds; i < rounds.size(); ++i) {
    const Round& r = rounds[i];
    const double speed = kNominalProbeS / r.probeS;
    if (r.mode == RoundMode::kSetupOnly) {
      setup.push_back(r.setupS() * speed);
    } else if (r.mode == RoundMode::kTimed) {
      wall.push_back(r.wallS * speed);
      rate.push_back(r.simRate() / speed);
    }
  }
  return {{"wall_s", median(wall), "s"},
          {"setup_s", median(setup), "s"},
          {"sim_rate", median(rate), "sim_s/s"},
          {"peak_rss_mb", peakRssMb(), "MiB"}};
}

std::vector<Metric> perLayer(const std::vector<Round>& rounds,
                             const std::map<std::string, double>& verifyExtra) {
  std::vector<const Round*> traced;
  std::vector<double> untracedWall;
  std::vector<double> tracedWall;
  for (std::size_t i = kWarmupRounds; i < rounds.size(); ++i) {
    const Round& r = rounds[i];
    if (r.mode == RoundMode::kTraced) {
      traced.push_back(&r);
      tracedWall.push_back(r.wallS);
    } else if (r.mode == RoundMode::kTimed) {
      untracedWall.push_back(r.wallS);
    }
  }
  // Times: median over traced rounds. Counts: from the first traced round;
  // they are folded into the cell digests, which must repeat every round.
  auto medianOf = [&](auto&& f) {
    std::vector<double> v;
    for (const Round* r : traced) v.push_back(f(*r));
    return median(v);
  };
  auto self = [](const Round& r, const char* name) {
    const auto byName = selfSecondsByName(r.spans);
    const auto it = byName.find(name);
    return it == byName.end() ? 0.0 : it->second;
  };
  auto extraOf = [](const Round& r, const char* name) {
    const auto it = r.extra.find(name);
    return it == r.extra.end() ? 0.0 : it->second;
  };
  const Round& first = *traced.front();
  const Counters c = first.counters();
  const ProfileStats p = first.profile();
  const double runS = medianOf([&](const Round& r) { return self(r, "sim.run"); });
  std::uint64_t maxDomain = 0;
  std::uint64_t sumDomain = 0;
  std::size_t domains = 0;
  for (const auto& cell : first.cells) {
    for (const std::uint64_t e : cell.domainEvents) {
      maxDomain = std::max(maxDomain, e);
      sumDomain += e;
      ++domains;
    }
  }
  const double meanDomain = domains > 0 ? static_cast<double>(sumDomain) / domains : 0.0;
  const auto verify = [&](const char* name) {
    const auto it = verifyExtra.find(name);
    return it == verifyExtra.end() ? 0.0 : it->second;
  };
  const auto u = [](std::uint64_t v) { return static_cast<double>(v); };
  std::vector<Metric> m{
      {"sim.events", u(c.events), "count"},
      {"sim.run_s", runS, "s"},
      {"sim.events_per_s", runS > 0 ? u(c.events) / runS : 0.0, "1/s"},
      {"sim.max_pending", u(p.maxPending), "count"},
      {"sim.max_parked", u(p.maxParked), "count"},
      {"sim.daemon_share", p.events > 0 ? u(p.daemonEvents) / u(p.events) : 0.0, "fraction"},
      {"sim.sweep.efficiency",
       medianOf([&](const Round& r) { return extraOf(r, "sim.sweep.efficiency"); }), "fraction"},
      {"sim.domain.imbalance", meanDomain > 0 ? u(maxDomain) / meanDomain : 0.0, "ratio"},
      {"sim.domain.speedup", verify("sim.domain.speedup"), "ratio"},
      {"net.packets_forwarded", u(c.packetsForwarded), "count"},
      {"net.packets_per_s", runS > 0 ? u(c.packetsForwarded) / runS : 0.0, "1/s"},
      {"net.pool.high_water", u(c.poolHighWater), "count"},
      {"net.build_s", medianOf([&](const Round& r) { return self(r, "net.build"); }), "s"},
      {"net.routes_s", medianOf([&](const Round& r) { return self(r, "net.routes"); }), "s"},
      {"net.flow.created", u(c.flowsCreated), "count"},
      {"net.flow.fluid_share", c.flowsCreated > 0 ? u(c.fluidFlowsCreated) / u(c.flowsCreated) : 0.0,
       "fraction"},
      {"net.flow.create_s", medianOf([&](const Round& r) { return self(r, "net.flow.create"); }),
       "s"},
      {"net.drops", u(c.drops), "count"},
      {"tcp.retransmits", u(c.retransmits), "count"},
      {"tcp.rtos", u(c.rtos), "count"},
      {"tcp.useful_frac",
       c.segmentsSent > 0 ? 1.0 - u(c.retransmits) / u(c.segmentsSent) : 0.0, "fraction"},
      {"tcp.fluid.tick_s", medianOf([](const Round& r) { return r.profile().fluidTickS; }), "s"},
      {"tcp.fluid.flows_completed", u(c.fluidFlowsCompleted), "count"},
      {"apps.background.flows_completed", u(c.backgroundCompleted), "count"},
      {"perfsonar.evaluate_s",
       medianOf([&](const Round& r) { return self(r, "perfsonar.evaluate"); }), "s"},
      {"perfsonar.render_s", medianOf([&](const Round& r) { return self(r, "perfsonar.render"); }),
       "s"},
      {"perfsonar.series", u(c.perfsonarSeries), "count"},
      {"perfsonar.alerts", u(c.perfsonarAlerts), "count"},
      {"telemetry.tick_s", medianOf([](const Round& r) { return r.profile().telemetryTickS; }),
       "s"},
      {"telemetry.snapshot_s",
       medianOf([&](const Round& r) { return self(r, "telemetry.snapshot"); }), "s"},
      {"telemetry.flight_events", u(c.flightEvents), "count"},
      {"scenario.partition_s",
       medianOf([&](const Round& r) { return self(r, "scenario.partition"); }), "s"},
      {"scenario.attach_s", medianOf([&](const Round& r) { return self(r, "scenario.attach"); }),
       "s"},
      {"trace.overhead_frac", median(tracedWall) / median(untracedWall) - 1.0, "fraction"},
  };
  return m;
}

// --- Reference digests -------------------------------------------------------

/// "<workload> <seed> <cell id> <digest>" lines.
std::map<std::string, std::string> readReference(const std::string& path,
                                                 const std::string& workload,
                                                 std::uint64_t seed) {
  std::map<std::string, std::string> ref;
  std::ifstream in(path);
  std::string w;
  std::uint64_t s = 0;
  std::string id;
  std::string digest;
  while (in >> w >> s >> id >> digest) {
    if (w == workload && s == seed) ref[id] = digest;
  }
  return ref;
}

void writeReference(const std::string& path, const std::string& workload, std::uint64_t seed,
                    const std::vector<CellOutcome>& cells) {
  std::vector<std::string> keep;
  {
    std::ifstream in(path);
    for (std::string line; std::getline(in, line);) {
      std::istringstream fields(line);
      std::string w;
      std::uint64_t s = 0;
      fields >> w >> s;
      if (!line.empty() && !(w == workload && s == seed)) keep.push_back(line);
    }
  }
  for (const auto& c : cells) {
    keep.push_back(workload + " " + std::to_string(seed) + " " + c.id + " " + hex64(c.digest));
  }
  std::sort(keep.begin(), keep.end());
  std::ofstream out(path, std::ios::trunc);
  for (const auto& line : keep) out << line << "\n";
}

// --- Running -----------------------------------------------------------------

struct RunResult {
  std::vector<Round> rounds;
  std::map<std::string, double> verifyExtra;
  std::vector<std::string> failures;
  std::size_t attempted = 0;
  std::size_t failed = 0;
};

/// Rounds until `seconds` have passed, then kSetupSamples set-up-only
/// rounds. Odd rounds are traced when tracing is on. There are always
/// enough rounds for one timed untraced round (and one traced round) after
/// the warm-up, and for digests to be compared across rounds.
RunResult runWorkload(Workload& w, double seconds, bool trace, const std::string& label) {
  RunResult res;
  SpeedProbe probe;
  double probeBefore = probe.measure();
  const int minRounds = trace ? 3 : 2;
  const auto start = Clock::now();
  int timedRounds = 0;
  for (int r = 0;; ++r) {
    Round round;
    if (r < minRounds || secondsSince(start) < seconds) {
      round.mode = trace && r % 2 == 1 ? RoundMode::kTraced : RoundMode::kTimed;
      ++timedRounds;
    } else if (r < timedRounds + kSetupSamples) {
      round.mode = RoundMode::kSetupOnly;
    } else {
      break;
    }
    const bool traced = round.mode == RoundMode::kTraced;
    SpanLog roundLog(traced, label + "/round" + std::to_string(r));
    const auto t0 = Clock::now();
    round.cells = w.runRound(round.mode, roundLog, round.extra);
    round.wallS = secondsSince(t0);
    if (round.mode != RoundMode::kSetupOnly) {
      // Set-up-only rounds take microseconds to milliseconds: they run back
      // to back, with warm caches, and share one pair of probes (below).
      const double probeAfter = probe.measure();
      round.probeS = 0.5 * (probeBefore + probeAfter);
      probeBefore = probeAfter;
    }
    round.spans = roundLog.take();
    for (auto& c : round.cells) appendSpans(round.spans, std::move(c.spans));
    if (r == 0) w.verify(round.cells, res.verifyExtra);
    if (round.mode == RoundMode::kSetupOnly) {
      std::fprintf(stdout, "round %d (set-up only): setup %.6f s\n", r, round.setupS());
    } else {
      std::fprintf(stdout,
                   "round %d%s: wall %.4f s  setup %.4f s  sim_rate %.4f sim_s/s  probe %.5f s\n",
                   r, traced ? " (traced)" : "", round.wallS, round.setupS(), round.simRate(),
                   round.probeS);
    }
    if (r == 0) {
      for (const auto& c : round.cells) {
        std::fprintf(stdout, "  %-20s setup %.5f s  run %.4f s  sim %.3f s  events %llu\n",
                     c.id.c_str(), c.setupS, c.runS, c.simS,
                     static_cast<unsigned long long>(c.counters.events));
      }
    }
    std::fflush(stdout);
    res.rounds.push_back(std::move(round));
  }
  const double setupProbe = 0.5 * (probeBefore + probe.measure());
  for (Round& round : res.rounds) {
    if (round.mode == RoundMode::kSetupOnly) round.probeS = setupProbe;
  }
  std::fprintf(stdout, "set-up-only rounds: probe %.5f s\n", setupProbe);
  return res;
}

/// Correctness: invariants per cell, and digests equal across rounds.
/// Set-up-only cells have no outputs; only an exception counts against
/// them.
void account(RunResult& res) {
  const Round& first = res.rounds.front();
  for (std::size_t r = 0; r < res.rounds.size(); ++r) {
    const Round& round = res.rounds[r];
    const bool setupOnly = round.mode == RoundMode::kSetupOnly;
    for (std::size_t i = 0; i < round.cells.size(); ++i) {
      const CellOutcome& c = round.cells[i];
      std::vector<std::string> why = c.failures;
      if (setupOnly && why.empty()) continue;
      if (!setupOnly && c.digest != first.cells[i].digest) {
        why.push_back(c.id + ": digest " + hex64(c.digest) + " differs from round 0's " +
                      hex64(first.cells[i].digest));
      }
      ++res.attempted;
      if (!why.empty()) {
        ++res.failed;
        for (auto& f : why) res.failures.push_back("round " + std::to_string(r) + ": " + f);
      }
    }
  }
}

void printTable(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-34s %18.6g  %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

std::string metricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += jsonString(metrics[i].name) + ": {\"value\": " + jsonNumber(metrics[i].value) +
           ", \"unit\": " + jsonString(metrics[i].unit) + "}";
  }
  return out + "}";
}

void writeSpans(const std::string& path, const std::vector<Round>& rounds) {
  std::ofstream out(path, std::ios::trunc);
  for (std::size_t r = 0; r < rounds.size(); ++r) {
    const auto& spans = rounds[r].spans;
    const auto self = selfSeconds(spans);
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      out << "{\"round\": " << r << ", \"id\": " << i << ", \"parent\": " << s.parent
          << ", \"trace\": " << jsonString(s.trace) << ", \"name\": " << jsonString(s.name)
          << ", \"start_ns\": " << s.startNs << ", \"end_ns\": " << s.endNs
          << ", \"self_s\": " << jsonNumber(self[i]) << "}\n";
    }
  }
}

int runMain(const Args& args) {
  auto workload = makeWorkload(args.workload, args.seed);
  if (workload == nullptr) usage(("unknown workload " + args.workload).c_str());
  if (args.listCells) {
    std::fputs(workload->cellsText().c_str(), stdout);
    return 0;
  }

  const Provenance prov = provenance();
  std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds, args.trace ? 1 : 0);
  std::printf("provenance: nproc=%d hw_threads=%u cpu=\"%s\" compiler=\"%s\" flags=\"%s\" "
              "build_type=%s optimized=%s sanitizer=%s commit=%s source_digest=%s\n",
              prov.nproc, prov.hwThreads, prov.cpuModel.c_str(), prov.compiler.c_str(),
              prov.flags.c_str(), prov.buildType.c_str(), prov.optimized ? "yes" : "no",
              prov.sanitizer.c_str(), args.commit.c_str(), args.sourceDigest.c_str());
  const bool comparable = prov.optimized && prov.sanitizer == "none";
  if (!comparable) {
    const char* warn =
        "WARNING: this is a non-optimised or sanitizer build; its timings are not comparable "
        "with optimised builds and must not be reported as performance results";
    std::printf("%s\n", warn);
    std::fprintf(stderr, "%s\n", warn);
  }
  std::fflush(stdout);

  const std::string label = args.workload + "/seed" + std::to_string(args.seed);
  RunResult res = runWorkload(*workload, args.seconds, args.trace, label);

  if (args.seed == kDefaultSeed && !args.reference.empty()) {
    auto& first = res.rounds.front();
    if (args.recordReference) {
      writeReference(args.reference, args.workload, args.seed, first.cells);
      std::printf("recorded %zu reference digests in %s\n", first.cells.size(),
                  args.reference.c_str());
    } else {
      const auto ref = readReference(args.reference, args.workload, args.seed);
      for (auto& c : first.cells) {
        const auto it = ref.find(c.id);
        if (it == ref.end()) {
          c.failures.push_back(c.id + ": no reference digest recorded for the default seed");
        } else if (it->second != hex64(c.digest)) {
          c.failures.push_back(c.id + ": digest " + hex64(c.digest) +
                               " does not match the reference " + it->second);
        }
      }
    }
  }
  account(res);

  std::printf("cells: %zu attempted, %zu failed\n", res.attempted, res.failed);
  for (const auto& f : res.failures) std::printf("FAILED %s\n", f.c_str());
  for (const auto& c : res.rounds.front().cells) {
    std::printf("digest %-20s %s\n", c.id.c_str(), hex64(c.digest).c_str());
  }

  const std::vector<Metric> e2e = endToEnd(res.rounds);
  printTable("end-to-end (untraced rounds after the warm-up, median, at the nominal probe speed):",
             e2e);
  std::printf("  %-34s %18.6g  %s\n", "failed_frac",
              static_cast<double>(res.failed) / static_cast<double>(res.attempted), "fraction");
  std::vector<Metric> reported = e2e;
  if (args.trace) {
    const std::vector<Metric> layers = perLayer(res.rounds, res.verifyExtra);
    printTable("per-layer (traced rounds after the warm-up):", layers);
    std::map<std::string, double> selfByName;
    for (std::size_t i = kWarmupRounds; i < res.rounds.size(); ++i) {
      if (res.rounds[i].mode != RoundMode::kTraced) continue;
      for (const auto& [name, s] : selfSecondsByName(res.rounds[i].spans)) selfByName[name] += s;
    }
    std::printf("span self time, summed over traced rounds:\n");
    for (const auto& [name, s] : selfByName) std::printf("  %-34s %12.6f s\n", name.c_str(), s);
    reported = layers;
  }

  if (!args.outDir.empty()) {
    const std::string base = args.outDir + "/" + args.workload + "-seed" +
                             std::to_string(args.seed) + "-trace" + (args.trace ? "1" : "0");
    std::ofstream out(base + ".json", std::ios::trunc);
    out << "{\"workload\": " << jsonString(args.workload) << ", \"seed\": " << args.seed
        << ", \"seconds\": " << jsonNumber(args.seconds) << ", \"trace\": " << args.trace
        << ", \"rounds\": " << res.rounds.size() << ", \"provenance\": {\"nproc\": " << prov.nproc
        << ", \"hw_threads\": " << prov.hwThreads << ", \"cpu\": " << jsonString(prov.cpuModel)
        << ", \"compiler\": " << jsonString(prov.compiler)
        << ", \"flags\": " << jsonString(prov.flags)
        << ", \"build_type\": " << jsonString(prov.buildType)
        << ", \"optimized\": " << (prov.optimized ? "true" : "false")
        << ", \"sanitizer\": " << jsonString(prov.sanitizer)
        << ", \"commit\": " << jsonString(args.commit)
        << ", \"source_digest\": " << jsonString(args.sourceDigest) << "}"
        << ", \"round_wall_s\": [";
    for (std::size_t r = 0; r < res.rounds.size(); ++r) {
      out << (r ? ", " : "") << jsonNumber(res.rounds[r].wallS);
    }
    out << "], \"round_probe_s\": [";
    for (std::size_t r = 0; r < res.rounds.size(); ++r) {
      out << (r ? ", " : "") << jsonNumber(res.rounds[r].probeS);
    }
    out << "], \"nominal_probe_s\": " << jsonNumber(kNominalProbeS)
        << ", \"attempted\": " << res.attempted << ", \"failed\": " << res.failed
        << ", \"end_to_end\": " << metricsJson(e2e);
    if (args.trace) out << ", \"per_layer\": " << metricsJson(reported);
    out << "}\n";
    if (args.trace) writeSpans(base + ".spans.jsonl", res.rounds);
  }

  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": %s}\n",
              res.failed == 0 ? "true" : "false", res.attempted, res.failed,
              metricsJson(reported).c_str());
  std::fflush(stdout);
  return res.failed == 0 ? 0 : 1;
}

// --- Self-checks -------------------------------------------------------------

bool check(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  return ok;
}

bool spanArithmeticOk() {
  // root [0, 100) with children a [10, 30), b [20, 50) (overlapping a),
  // c [90, 120) (clipped to 100); grandchild under a [12, 18).
  std::vector<Span> spans(5);
  spans[0] = {"root", "t", 0, 100, -1};
  spans[1] = {"a", "t", 10, 30, 0};
  spans[2] = {"b", "t", 20, 50, 0};
  spans[3] = {"c", "t", 90, 120, 0};
  spans[4] = {"a.child", "t", 12, 18, 1};
  const auto self = selfSeconds(spans);
  auto ns = [](double s) { return std::llround(s * 1e9); };
  bool ok = true;
  ok &= ns(self[0]) == 100 - (40 + 10);  // children cover [10,50) and [90,100)
  ok &= ns(self[1]) == 20 - 6;
  ok &= ns(self[2]) == 30;
  ok &= ns(self[3]) == 30;
  ok &= ns(self[4]) == 6;
  const auto byName = selfSecondsByName(spans);
  ok &= byName.size() == 5 && ns(byName.at("root")) == 50;
  return ok;
}

int selfCheck() {
  bool ok = true;
  ok &= check(spanArithmeticOk(), "span self time on a hand-built tree");
  for (const std::string& name : workloadNames()) {
    const std::string a = makeWorkload(name, kDefaultSeed)->cellsText();
    const std::string b = makeWorkload(name, kDefaultSeed)->cellsText();
    ok &= check(!a.empty() && a == b, name + ": same seed gives byte-identical cells");
    auto heldOut = makeWorkload(name, kHeldOutSeed);
    ok &= check(heldOut->cellsText() != a, name + ": held-out seed gives different cells");
    std::map<std::string, double> extra;
    SpanLog roundLog(false, "self-check");
    auto cells = heldOut->runRound(RoundMode::kTimed, roundLog, extra);
    heldOut->verify(cells, extra);
    std::size_t failed = 0;
    for (const auto& c : cells) {
      for (const auto& f : c.failures) std::printf("     %s\n", f.c_str());
      failed += c.failures.empty() ? 0 : 1;
    }
    ok &= check(!cells.empty() && failed == 0,
                name + ": held-out seed passes every invariant (" + std::to_string(cells.size()) +
                    " cells)");
  }
  std::printf("self-check: %s\n", ok ? "passed" : "FAILED");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args args = perfbench::parseArgs(argc, argv);
  try {
    return args.selfCheck ? perfbench::selfCheck() : perfbench::runMain(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "scidmz_perfbench: %s\n", e.what());
    return 1;
  }
}
