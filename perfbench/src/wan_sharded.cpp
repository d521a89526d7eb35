// wan_sharded: an esnet_scale-shaped WAN ring run under attachShards at
// two domains. The seed draws the site count, the ring segment delays
// (all above the 5 ms lookahead floor, so every segment is cut-eligible)
// and how the hosts are spread over the sites; every host streams to a peer
// one site clockwise.
//
// It is the only workload that runs sim::ShardedSimulator epochs and
// channels and scenario::ShardPlanBuilder. It runs at 2 domains, not 4:
// on a 4-core host that leaves cores for neighbours and spreads less.
// A one-off verification pass reruns the cell at 1 domain: per-site
// delivered bytes must match exactly, and the run-time ratio is the
// measured domain speedup.
#include <cstdio>
#include <string>
#include <vector>

#include "bench.hpp"
#include "net/flow.hpp"
#include "scenario/harness.hpp"
#include "scenario/partition.hpp"
#include "scenario/shard.hpp"
#include "sim/random.hpp"
#include "tcp/connection.hpp"

namespace perfbench {
namespace {

namespace net = scidmz::net;
namespace sim = scidmz::sim;
namespace tcp = scidmz::tcp;
using scidmz::scenario::Scenario;

constexpr int kDomains = 2;
constexpr int kTotalHosts = 12;
constexpr double kHorizonS = 0.4;
const sim::Duration kLookahead = sim::Duration::milliseconds(5);
const sim::Duration kLanDelay = sim::Duration::microseconds(10);

struct RingCell {
  std::uint64_t seed = 0;
  std::vector<int> hostsPerSite;
  std::vector<double> segmentDelayMs;  ///< site i -> site i+1

  [[nodiscard]] int sites() const { return static_cast<int>(hostsPerSite.size()); }

  [[nodiscard]] std::string text() const {
    std::string out = "wan_sharded#0 seed=" + hex64(seed) + " domains=" +
                      std::to_string(kDomains) + " sites=";
    char buf[64];
    for (int i = 0; i < sites(); ++i) {
      std::snprintf(buf, sizeof buf, "%s%d@%.17g", i ? "," : "",
                    hostsPerSite[static_cast<std::size_t>(i)],
                    segmentDelayMs[static_cast<std::size_t>(i)]);
      out += buf;
    }
    std::snprintf(buf, sizeof buf, " horizon_s=%.17g\n", kHorizonS);
    return out + buf;
  }
};

RingCell generate(std::uint64_t seed) {
  sim::Rng rng(mixSeed(seed, 0x3a9));
  RingCell c;
  c.seed = mixSeed(seed, 0);
  // A fixed host total, spread evenly, keeps a round's cost steady; the
  // seed picks how many sites carry it. Three sites split unevenly over
  // the two domains.
  constexpr int kSiteCounts[] = {3, 4, 6};
  const int sites = kSiteCounts[rng.below(3)];
  c.hostsPerSite.assign(static_cast<std::size_t>(sites), kTotalHosts / sites);
  // A narrow band: the flows spend much of the horizon in slow start, whose
  // length scales with the RTT.
  for (int i = 0; i < sites; ++i) c.segmentDelayMs.push_back(rng.uniform(8.0, 10.0));
  return c;
}

std::string routerName(int site) { return "r" + std::to_string(site); }
std::string hostName(int site, int host) {
  return "s" + std::to_string(site) + "h" + std::to_string(host);
}

struct RingRun {
  CellOutcome out;
  std::vector<std::uint64_t> deliveredBySite;
};

RingRun runRing(const RingCell& c, int domains, RoundMode mode) {
  // No sim::Profiler here, traced or not: attachShards refuses one.
  RingRun r;
  CellOutcome& out = r.out;
  out.id = "wan_sharded#0";
  CellClock clock(out, mode);
  const int sites = c.sites();
  auto s = std::make_unique<Scenario>(c.seed);

  scidmz::scenario::ShardPlan plan;
  {
    SpanScope span(clock.log(), "scenario.partition");
    scidmz::scenario::ShardPlanBuilder builder;
    for (int i = 0; i < sites; ++i) {
      builder.addNode(routerName(i));
      for (int j = 0; j < c.hostsPerSite[static_cast<std::size_t>(i)]; ++j) {
        builder.addNode(hostName(i, j));
        builder.addEdge(routerName(i), hostName(i, j), kLanDelay);
      }
    }
    for (int i = 0; i < sites; ++i) {
      builder.addEdge(routerName(i), routerName((i + 1) % sites),
                      sim::Duration::fromSeconds(c.segmentDelayMs[static_cast<std::size_t>(i)] *
                                                 1e-3));
    }
    plan = builder.plan(domains, kLookahead);
  }
  {
    SpanScope span(clock.log(), "scenario.attach");
    scidmz::scenario::attachShards(*s, plan, c.seed, kLookahead);
  }

  std::vector<std::vector<net::Host*>> hosts(static_cast<std::size_t>(sites));
  {
    SpanScope span(clock.log(), "net.build");
    std::vector<net::RouterDevice*> routers;
    net::LinkParams lan;
    lan.rate = sim::DataRate::gigabitsPerSecond(10);
    lan.delay = kLanDelay;
    lan.mtu = sim::DataSize::bytes(9000);
    for (int i = 0; i < sites; ++i) {
      routers.push_back(&s->topo.addRouter(routerName(i)));
      for (int j = 0; j < c.hostsPerSite[static_cast<std::size_t>(i)]; ++j) {
        auto& host = s->topo.addHost(hostName(i, j),
                                     net::Address(10, static_cast<std::uint8_t>(i), 0,
                                                  static_cast<std::uint8_t>(j + 1)));
        s->topo.connect(host, *routers.back(), lan);
        hosts[static_cast<std::size_t>(i)].push_back(&host);
      }
    }
    for (int i = 0; i < sites; ++i) {
      net::LinkParams wan;
      wan.rate = sim::DataRate::gigabitsPerSecond(100);
      wan.delay =
          sim::Duration::fromSeconds(c.segmentDelayMs[static_cast<std::size_t>(i)] * 1e-3);
      wan.mtu = sim::DataSize::bytes(9000);
      s->topo.connect(*routers[static_cast<std::size_t>(i)],
                      *routers[static_cast<std::size_t>((i + 1) % sites)], wan);
    }
  }
  {
    SpanScope span(clock.log(), "net.routes");
    s->topo.computeRoutes();
  }

  tcp::TcpConfig cfg;
  cfg.algorithm = tcp::CcAlgorithm::kHtcp;
  cfg.sndBuf = sim::DataSize::mebibytes(32);
  cfg.rcvBuf = sim::DataSize::mebibytes(32);
  std::vector<net::FlowPtr> flows;
  std::vector<int> flowDstSite;
  for (int i = 0; i < sites; ++i) {
    const auto dstSite = static_cast<std::size_t>((i + 1) % sites);
    for (std::size_t j = 0; j < hosts[static_cast<std::size_t>(i)].size(); ++j) {
      SpanScope span(clock.log(), "net.flow.create");
      net::Host& src = *hosts[static_cast<std::size_t>(i)][j];
      net::Host& dst = *hosts[dstSite][j % hosts[dstSite].size()];
      net::FlowFactory::Options options;
      options.port = static_cast<std::uint16_t>(5001 + j);  // unique per (src site, dst host)
      options.fidelity = net::FlowFidelity::kPacket;
      auto flow = net::flowFactory(src.ctx()).create(src, dst, cfg, options);
      auto* raw = flow.get();
      flow->onEstablished = [raw] { raw->sendData(sim::DataSize::terabytes(1)); };
      flow->start();
      flows.push_back(std::move(flow));
      flowDstSite.push_back(static_cast<int>(dstSite));
    }
  }

  if (clock.setupOnly()) return r;
  clock.run([&] { s->runFor(sim::Duration::fromSeconds(kHorizonS)); });
  out.simS = kHorizonS;

  Digest d;
  r.deliveredBySite.assign(static_cast<std::size_t>(sites), 0);
  for (std::size_t f = 0; f < flows.size(); ++f) {
    recordFlow(*flows[f], out.counters, d);
    r.deliveredBySite[static_cast<std::size_t>(flowDstSite[f])] +=
        flows[f]->deliveredBytes().byteCount();
    if (!flows[f]->established()) out.failures.push_back(out.id + ": a ring flow did not establish");
  }
  for (const std::uint64_t bytes : r.deliveredBySite) d.add(bytes);
  recordScenario(*s, out.counters, d);
  out.digest = d.value();
  for (int dom = 0; dom < s->shards->sharded->domainCount(); ++dom) {
    out.domainEvents.push_back(s->shards->sharded->domainEvents(dom));
  }
  {
    SpanScope span(clock.log(), "bench.teardown");
    flows.clear();
    s.reset();
  }
  clock.finish();
  return r;
}

class WanSharded final : public Workload {
 public:
  explicit WanSharded(std::uint64_t seed) : cell_(generate(seed)) {}

  [[nodiscard]] std::string cellsText() const override { return cell_.text(); }

  std::vector<CellOutcome> runRound(RoundMode mode, SpanLog& /*roundLog*/,
                                    std::map<std::string, double>& /*extra*/) override {
    std::vector<CellOutcome> out;
    out.push_back(guardCell("wan_sharded#0", [&] {
      RingRun run = runRing(cell_, kDomains, mode);
      delivered_ = run.deliveredBySite;
      return std::move(run.out);
    }));
    return out;
  }

  /// Per-site delivered bytes must equal a 1-domain run of the same seed.
  void verify(std::vector<CellOutcome>& cells, std::map<std::string, double>& extra) override {
    CellOutcome& cell = cells.front();
    try {
      RingRun single = runRing(cell_, 1, RoundMode::kTimed);
      if (single.deliveredBySite != delivered_) {
        cell.failures.push_back(cell.id + ": per-site delivered bytes at " +
                                std::to_string(kDomains) + " domains differ from 1 domain");
      }
      if (cell.runS > 0) extra["sim.domain.speedup"] = single.out.runS / cell.runS;
    } catch (const std::exception& e) {
      cell.failures.push_back(cell.id + ": 1-domain verification threw: " + e.what());
    }
  }

 private:
  RingCell cell_;
  std::vector<std::uint64_t> delivered_;
};

}  // namespace

std::unique_ptr<Workload> makeWanSharded(std::uint64_t seed) {
  return std::make_unique<WanSharded>(seed);
}

}  // namespace perfbench
