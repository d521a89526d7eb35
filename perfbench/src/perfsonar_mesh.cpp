// perfsonar_mesh: the Figure 2 shape. A few sites on a WAN star run OWAMP
// every 10 ms on all ordered pairs plus serialized short BWCTL tests, with
// telemetry on as in soft_failure_linecard. Mid-run one site's uplink
// starts dropping packets at a rate the soft-failure detector is meant to
// catch; the detector evaluates every 5 s simulated and the dashboard is
// rendered at the end.
//
// This is the slowest paper scenario and the only workload where the
// perfsonar and telemetry layers work. Its TCP work is slow-start
// dominated 2 s tests beside periodic probes, daemons and telemetry ticks,
// so it uses sim and tcp differently from bulk_packet.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench.hpp"
#include "net/loss.hpp"
#include "perfsonar/alerts.hpp"
#include "perfsonar/dashboard.hpp"
#include "perfsonar/mesh.hpp"
#include "scenario/harness.hpp"
#include "sim/random.hpp"

namespace perfbench {
namespace {

namespace net = scidmz::net;
namespace sim = scidmz::sim;
namespace perfsonar = scidmz::perfsonar;
using scidmz::scenario::Scenario;

// A short horizon keeps rounds at a couple of seconds, so a run holds
// enough rounds for a steady median on a noisy host. The archive reports
// and the detector run every 5 s so the detector still evaluates once
// before any loss can show and once well after it.
constexpr double kHorizonS = 10.0;
constexpr double kEvaluateEveryS = 5.0;

struct MeshCell {
  std::uint64_t seed = 0;
  std::vector<std::string> sites;
  std::vector<double> spokeDelayMs;  ///< one-way, per site
  int failingSite = 0;
  double failureLoss = 0.0;
  double injectAtS = 0.0;

  [[nodiscard]] std::string text() const {
    std::string out = "perfsonar_mesh#0 seed=" + hex64(seed) + " sites=";
    char buf[64];
    for (std::size_t i = 0; i < sites.size(); ++i) {
      std::snprintf(buf, sizeof buf, "%s%s:%.17g", i ? "," : "", sites[i].c_str(),
                    spokeDelayMs[i]);
      out += buf;
    }
    out += " failing=" + sites[static_cast<std::size_t>(failingSite)];
    char tail[160];
    std::snprintf(tail, sizeof tail, " loss=%.17g inject_s=%.17g horizon_s=%.17g\n", failureLoss,
                  injectAtS, kHorizonS);
    return out + tail;
  }
};

MeshCell generate(std::uint64_t seed) {
  sim::Rng rng(mixSeed(seed, 0x950a));
  std::vector<std::string> pool{"lbl", "anl", "ornl", "slac", "bnl", "fnal", "nersc", "pnnl"};
  MeshCell c;
  c.seed = mixSeed(seed, 0);
  const int n = 3 + static_cast<int>(rng.below(3));  // 3..5 sites
  for (int i = 0; i < n; ++i) {
    const auto pick = rng.below(pool.size());
    c.sites.push_back(pool[pick]);
    pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(pick));
    // Spoke delays in a band: the 2 s BWCTL tests are slow-start bound, so
    // the RTT sets how many packets a test moves.
    c.spokeDelayMs.push_back(rng.uniform(6.0, 12.0));
  }
  // The failing site is listed last. MeshRunner's BWCTL round-robin starts
  // at the first site, so no test the failing site sends falls inside the
  // horizon: a test through the lossy uplink moves a small fraction of a
  // clean test's packets, and which tests it hit would swing a round's cost
  // with the seed. The row is still caught, by OWAMP.
  c.failingSite = n - 1;
  // Well above the detector's 5e-4 loss threshold: the failing site's
  // probes (100/s to each of at least two peers) see 10 or more drops
  // between the injection and the last report.
  c.failureLoss = rng.uniform(1e-2, 2e-2);
  c.injectAtS = rng.uniform(2.0, 3.0);
  return c;
}

CellOutcome runMesh(const MeshCell& c, RoundMode mode) {
  CellOutcome out;
  out.id = "perfsonar_mesh#0";
  CellClock clock(out, mode);
  auto s = std::make_unique<Scenario>(c.seed);
  if (clock.profiled()) s->simulator.setProfiler(&s->profiler);
  s->ctx.telemetry().enable();

  std::vector<perfsonar::MeshSite> sites;
  net::Link* failingUplink = nullptr;
  {
    SpanScope span(clock.log(), "net.build");
    auto& core = s->topo.addRouter("esnet-core");
    for (std::size_t i = 0; i < c.sites.size(); ++i) {
      auto& host = s->topo.addHost("ps-" + c.sites[i],
                                   net::Address(198, 129, 0, static_cast<std::uint8_t>(i + 1)));
      net::LinkParams spoke;
      spoke.rate = sim::DataRate::gigabitsPerSecond(10);
      spoke.delay = sim::Duration::fromSeconds(c.spokeDelayMs[i] * 1e-3);
      spoke.mtu = sim::DataSize::bytes(9000);
      auto& link = s->topo.connect(host, core, spoke);
      if (static_cast<int>(i) == c.failingSite) failingUplink = &link;
      sites.push_back(perfsonar::MeshSite{c.sites[i], &host});
    }
  }
  {
    SpanScope span(clock.log(), "net.routes");
    s->topo.computeRoutes();
  }

  perfsonar::MeasurementArchive archive(s->ctx.telemetry());
  std::unique_ptr<perfsonar::MeshRunner> mesh;
  {
    SpanScope span(clock.log(), "perfsonar.mesh");
    perfsonar::MeshRunner::Options options;
    options.lossReportInterval = sim::Duration::seconds(5);
    options.throughputTestGap = sim::Duration::seconds(3);
    options.throughputTestDuration = sim::Duration::seconds(2);
    options.owamp.interval = sim::Duration::milliseconds(10);
    mesh = std::make_unique<perfsonar::MeshRunner>(s->ctx, sites, archive, options);
    mesh->start();
  }
  perfsonar::SoftFailureOptions detectorOptions;
  detectorOptions.lossThreshold = 5e-4;
  detectorOptions.throughputDropFraction = 0.6;
  perfsonar::SoftFailureDetector detector{archive, detectorOptions};

  const sim::SimTime injectAt = sim::SimTime::fromNs(
      static_cast<std::int64_t>(c.injectAtS * 1e9));
  bool injected = false;
  if (clock.setupOnly()) return out;
  for (double t = kEvaluateEveryS; t <= kHorizonS + 1e-9; t += kEvaluateEveryS) {
    const sim::SimTime next = sim::SimTime::fromNs(static_cast<std::int64_t>(t * 1e9));
    if (!injected && injectAt <= next) {
      clock.run([&] { s->runFor(injectAt - s->simulator.now()); });
      SpanScope span(clock.log(), "net.impair");
      failingUplink->setLossModel(0,
                                  std::make_unique<net::RandomLoss>(c.failureLoss, s->rng.fork(2)));
      injected = true;
    }
    clock.run([&] { s->runFor(next - s->simulator.now()); });
    SpanScope span(clock.log(), "perfsonar.evaluate");
    detector.evaluate(s->simulator.now());
  }
  out.simS = kHorizonS;

  perfsonar::Dashboard dashboard{archive, mesh->siteNames(), 5000.0};
  std::string grid;
  {
    SpanScope span(clock.log(), "perfsonar.render");
    grid = dashboard.render();
  }
  std::string snapshotJson;
  {
    SpanScope span(clock.log(), "telemetry.snapshot");
    const auto snapshot = s->ctx.telemetry().snapshot();
    snapshotJson = snapshot.toJson();
    out.counters.flightEvents = snapshot.flightEventsRecorded;
    // The BWCTL connections live inside MeshRunner; their loss recovery is
    // visible through the per-connection telemetry counters.
    for (const auto& counter : snapshot.counters) {
      if (counter.name.rfind("tcp/", 0) != 0) continue;
      if (counter.name.ends_with("/retransmits")) out.counters.retransmits += counter.value;
      if (counter.name.ends_with("/rtos")) out.counters.rtos += counter.value;
    }
  }

  Digest d;
  d.add(grid);
  d.add(snapshotJson);
  for (const auto& a : detector.alerts()) {
    d.add(static_cast<std::uint64_t>(a.at.ns()));
    d.add(a.src);
    d.add(a.dst);
    d.add(a.metric);
    d.add(a.value);
  }
  for (const auto& key : archive.keys()) {
    d.add(key.src + "->" + key.dst + "/" + key.metric);
    for (const auto& sample : *archive.series(key.src, key.dst, key.metric)) {
      d.add(static_cast<std::uint64_t>(sample.at.ns()));
      d.add(sample.value);
    }
  }
  out.counters.perfsonarSeries = archive.seriesCount();
  out.counters.perfsonarAlerts = detector.alerts().size();
  recordScenario(*s, out.counters, d);
  out.digest = d.value();

  // The detector must name the failing site's row, and stay quiet until
  // the failure exists.
  const std::string& failing = c.sites[static_cast<std::size_t>(c.failingSite)];
  bool named = false;
  for (const auto& a : detector.alerts()) {
    if (a.at < injectAt) {
      out.failures.push_back(out.id + ": alert " + a.src + "->" + a.dst + " (" + a.metric +
                             ") fired at " + sim::toString(a.at) + ", before the injection");
    }
    named = named || a.src == failing;
  }
  if (!named) out.failures.push_back(out.id + ": no alert names the failing site " + failing);

  if (clock.profiled()) out.profile.read(s->profiler);
  {
    SpanScope span(clock.log(), "bench.teardown");
    mesh.reset();
    s.reset();
  }
  clock.finish();
  return out;
}

class PerfsonarMesh final : public Workload {
 public:
  explicit PerfsonarMesh(std::uint64_t seed) : cell_(generate(seed)) {}

  [[nodiscard]] std::string cellsText() const override { return cell_.text(); }

  std::vector<CellOutcome> runRound(RoundMode mode, SpanLog& /*roundLog*/,
                                    std::map<std::string, double>& /*extra*/) override {
    std::vector<CellOutcome> out;
    out.push_back(guardCell("perfsonar_mesh#0", [&] { return runMesh(cell_, mode); }));
    return out;
  }

 private:
  MeshCell cell_;
};

}  // namespace

std::unique_ptr<Workload> makePerfsonarMesh(std::uint64_t seed) {
  return std::make_unique<PerfsonarMesh>(seed);
}

}  // namespace perfbench
