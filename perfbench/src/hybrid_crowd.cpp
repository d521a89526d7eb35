// hybrid_crowd: one packet-fidelity science flow shares a switch/router
// bottleneck with a fluid crowd. There is no firewall on the path, so the
// crowd's `auto` fidelity resolves to fluid. Part of the crowd is created
// at set-up; the rest arrives as a Poisson stream of heavy-tailed
// background flows (apps::BackgroundTraffic).
//
// Flow creation (net::FlowFactory), tcp::FluidEngine ticks and recompute,
// and link fluid coupling dominate; the event queue does little. This is
// the workload with the largest set-up, and it churns many short flows
// where bulk_packet keeps a few long ones.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "apps/background_traffic.hpp"
#include "bench.hpp"
#include "scenario/harness.hpp"
#include "sim/random.hpp"

namespace perfbench {
namespace {

namespace apps = scidmz::apps;
namespace net = scidmz::net;
namespace sim = scidmz::sim;
namespace tcp = scidmz::tcp;
using scidmz::scenario::Scenario;

constexpr double kHorizonS = 6.0;
constexpr int kClients = 16;
constexpr int kServers = 16;

struct CrowdCell {
  std::uint64_t seed = 0;
  double bottleneckDelayMs = 0.0;
  int setupFlows = 0;
  double arrivalsPerS = 0.0;
  /// Set-up crowd: (client, server, bytes) per flow.
  std::vector<int> setupClient;
  std::vector<int> setupServer;
  std::vector<std::uint64_t> setupBytes;

  [[nodiscard]] std::string text() const {
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "hybrid_crowd#0 seed=%s delay_ms=%.17g setup_flows=%d arrivals_per_s=%.17g "
                  "horizon_s=%.17g\n",
                  hex64(seed).c_str(), bottleneckDelayMs, setupFlows, arrivalsPerS, kHorizonS);
    std::string out = buf;
    for (int i = 0; i < setupFlows; ++i) {
      const auto k = static_cast<std::size_t>(i);
      std::snprintf(buf, sizeof buf, "  flow %d c%d->s%d bytes=%llu\n", i, setupClient[k],
                    setupServer[k], static_cast<unsigned long long>(setupBytes[k]));
      out += buf;
    }
    return out;
  }
};

CrowdCell generate(std::uint64_t seed) {
  sim::Rng rng(mixSeed(seed, 0xc40d));
  CrowdCell c;
  c.seed = mixSeed(seed, 0);
  c.bottleneckDelayMs = rng.uniform(4.0, 8.0);
  // Most of the crowd exists from the start and the stream is light: the
  // fluid engine's per-tick passes over its flow arrays then dominate, and
  // a round's time swings less with the host's memory traffic than when a
  // fast stream churns thousands of short flows.
  c.setupFlows = 19000 + static_cast<int>(rng.below(2001));
  c.arrivalsPerS = rng.uniform(950.0, 1050.0);
  for (int i = 0; i < c.setupFlows; ++i) {
    c.setupClient.push_back(static_cast<int>(rng.below(kClients)));
    c.setupServer.push_back(static_cast<int>(rng.below(kServers)));
    // Heavy-tailed (Pareto 1.3 from 200 kB), capped at 5 MB: a higher cap
    // lets a handful of elephants set how many flows stay active, and so
    // the round's cost, from seed to seed.
    const double bytes = std::min(rng.pareto(1.3, 200e3), 5e6);
    c.setupBytes.push_back(static_cast<std::uint64_t>(bytes));
  }
  return c;
}

CellOutcome runCrowd(const CrowdCell& c, RoundMode mode) {
  CellOutcome out;
  out.id = "hybrid_crowd#0";
  CellClock clock(out, mode);
  auto s = std::make_unique<Scenario>(c.seed);
  if (clock.profiled()) s->simulator.setProfiler(&s->profiler);

  net::Host* sciSrc = nullptr;
  net::Host* sciDst = nullptr;
  std::vector<net::Host*> clients;
  std::vector<net::Host*> servers;
  {
    SpanScope span(clock.log(), "net.build");
    auto& campus = s->topo.addSwitch("campus-switch");
    auto& border = s->topo.addRouter("border-router");
    net::LinkParams wan;
    wan.rate = sim::DataRate::gigabitsPerSecond(10);
    wan.delay = sim::Duration::fromSeconds(c.bottleneckDelayMs * 1e-3);
    wan.mtu = sim::DataSize::bytes(9000);
    s->topo.connect(campus, border, wan);
    net::LinkParams lan;
    lan.rate = sim::DataRate::gigabitsPerSecond(10);
    lan.delay = sim::Duration::microseconds(10);
    lan.mtu = sim::DataSize::bytes(9000);
    // The science DTN sits behind a 1G access link so its packets stay a
    // small share of the events.
    net::LinkParams dtnAccess = lan;
    dtnAccess.rate = sim::DataRate::gigabitsPerSecond(1);
    sciSrc = &s->topo.addHost("dtn-src", net::Address(10, 0, 0, 1));
    s->topo.connect(*sciSrc, campus, dtnAccess);
    sciDst = &s->topo.addHost("dtn-dst", net::Address(10, 1, 0, 1));
    s->topo.connect(border, *sciDst, lan);
    for (int i = 0; i < kClients; ++i) {
      auto& h = s->topo.addHost("client" + std::to_string(i),
                                net::Address(10, 0, 1, static_cast<std::uint8_t>(i + 1)));
      s->topo.connect(h, campus, lan);
      clients.push_back(&h);
    }
    for (int i = 0; i < kServers; ++i) {
      auto& h = s->topo.addHost("server" + std::to_string(i),
                                net::Address(10, 1, 1, static_cast<std::uint8_t>(i + 1)));
      s->topo.connect(border, h, lan);
      servers.push_back(&h);
    }
  }
  {
    SpanScope span(clock.log(), "net.routes");
    s->topo.computeRoutes();
  }

  net::FlowPtr science;
  {
    SpanScope span(clock.log(), "net.flow.create");
    net::FlowFactory::Options options;
    options.port = 5001;
    options.fidelity = net::FlowFidelity::kPacket;
    science = net::flowFactory(s->ctx).create(*sciSrc, *sciDst, tcp::TcpConfig::tunedDtn(), options);
    auto* raw = science.get();
    science->onEstablished = [raw] { raw->sendData(sim::DataSize::terabytes(1)); };
    science->start();
  }

  std::uint64_t setupCompleted = 0;  // outlives the flows whose callbacks bump it
  std::vector<net::FlowPtr> crowd;
  crowd.reserve(static_cast<std::size_t>(c.setupFlows));
  for (int i = 0; i < c.setupFlows; ++i) {
    const auto k = static_cast<std::size_t>(i);
    SpanScope span(clock.log(), "net.flow.create");
    net::FlowFactory::Options options;
    options.port = static_cast<std::uint16_t>(10000 + i);
    options.fidelity = net::FlowFidelity::kAuto;
    auto flow = net::flowFactory(s->ctx).create(*clients[static_cast<std::size_t>(c.setupClient[k])],
                                                *servers[static_cast<std::size_t>(c.setupServer[k])],
                                                tcp::TcpConfig::untunedDefault(), options);
    auto* raw = flow.get();
    const auto bytes = sim::DataSize::bytes(c.setupBytes[k]);
    flow->onEstablished = [raw, bytes] { raw->sendData(bytes); };
    flow->onSendComplete = [&setupCompleted] { ++setupCompleted; };
    flow->start();
    crowd.push_back(std::move(flow));
  }

  std::unique_ptr<apps::BackgroundTraffic> stream;
  {
    SpanScope span(clock.log(), "apps.background.start");
    apps::BackgroundProfile profile;
    profile.flowsPerSecond = c.arrivalsPerS;
    profile.fidelity = net::FlowFidelity::kAuto;
    profile.maxFlowSize = sim::DataSize::megabytes(2);
    stream = std::make_unique<apps::BackgroundTraffic>(s->ctx, clients, servers, 40000, profile,
                                                       s->rng.fork(11));
    stream->start();
  }

  if (clock.setupOnly()) return out;
  clock.run([&] { s->runFor(sim::Duration::fromSeconds(kHorizonS)); });
  out.simS = kHorizonS;
  stream->stop();

  Digest d;
  recordFlow(*science, out.counters, d);
  std::uint64_t crowdBytes = 0;
  for (const auto& flow : crowd) crowdBytes += flow->deliveredBytes().byteCount();
  const auto& bg = stream->stats();
  out.counters.backgroundCompleted = bg.flowsCompleted;
  d.add(setupCompleted);
  d.add(crowdBytes);
  d.add(bg.flowsStarted);
  d.add(bg.flowsCompleted);
  d.add(bg.bytesCompleted.byteCount());
  recordScenario(*s, out.counters, d);
  out.digest = d.value();

  if (science->deliveredBytes().byteCount() == 0) {
    out.failures.push_back(out.id + ": the science flow delivered no bytes");
  }
  // The crowd must finish: the set-up flows offer about twice what the
  // bottleneck carries in the horizon, so most (about two thirds) complete;
  // only stream flows that arrive near the end may still be running.
  if (setupCompleted * 2 < static_cast<std::uint64_t>(c.setupFlows)) {
    out.failures.push_back(out.id + ": only " + std::to_string(setupCompleted) + " of " +
                           std::to_string(c.setupFlows) + " set-up crowd flows completed");
  }
  if (bg.flowsStarted == 0 || bg.flowsCompleted * 10 < bg.flowsStarted * 9) {
    out.failures.push_back(out.id + ": only " + std::to_string(bg.flowsCompleted) + " of " +
                           std::to_string(bg.flowsStarted) + " stream flows completed");
  }

  if (clock.profiled()) out.profile.read(s->profiler);
  {
    SpanScope span(clock.log(), "bench.teardown");
    stream.reset();
    crowd.clear();
    science.reset();
    s.reset();
  }
  clock.finish();
  return out;
}

class HybridCrowd final : public Workload {
 public:
  explicit HybridCrowd(std::uint64_t seed) : cell_(generate(seed)) {}

  [[nodiscard]] std::string cellsText() const override { return cell_.text(); }

  std::vector<CellOutcome> runRound(RoundMode mode, SpanLog& /*roundLog*/,
                                    std::map<std::string, double>& /*extra*/) override {
    std::vector<CellOutcome> out;
    out.push_back(guardCell("hybrid_crowd#0", [&] { return runCrowd(cell_, mode); }));
    return out;
  }

 private:
  CrowdCell cell_;
};

}  // namespace

std::unique_ptr<Workload> makeHybridCrowd(std::uint64_t seed) {
  return std::make_unique<HybridCrowd>(seed);
}

}  // namespace perfbench
