// bulk_packet: long packet-fidelity TCP flows over paper-shaped paths
// (Figure 1's loss x RTT plane, Section 5's middleboxes), plus one
// fan-in into a shallow egress, fanned out on a 2-worker sweep.
//
// The per-packet hot path does almost all the work here: the sim event
// queue, net link/queue/FIB/firewall, the tcp ack clock and loss recovery.
// Fluid, perfSONAR, telemetry and sharding do none of it.
//
// The seed draws each cell's point inside a fixed stratum (RTT band, loss
// band, middlebox, MTU, congestion control), so every seed covers the same
// design space and a round costs about the same at any seed; what varies is
// each path's exact RTT and loss, and the fan-in's width, RTT and
// congestion control.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench.hpp"
#include "net/loss.hpp"
#include "scenario/harness.hpp"
#include "sim/random.hpp"
#include "sim/sweep.hpp"

namespace perfbench {
namespace {

namespace net = scidmz::net;
namespace sim = scidmz::sim;
namespace tcp = scidmz::tcp;
using scidmz::scenario::Scenario;

enum class Middlebox { kNone, kRouter, kDmzSwitch, kFirewall };

const char* toString(Middlebox m) {
  switch (m) {
    case Middlebox::kNone: return "none";
    case Middlebox::kRouter: return "router";
    case Middlebox::kDmzSwitch: return "dmz_switch";
    case Middlebox::kFirewall: return "firewall";
  }
  return "?";
}

const char* ccName(tcp::CcAlgorithm cc) {
  switch (cc) {
    case tcp::CcAlgorithm::kReno: return "reno";
    case tcp::CcAlgorithm::kHtcp: return "htcp";
    case tcp::CcAlgorithm::kCubic: return "cubic";
  }
  return "?";
}

/// One path stratum: middlebox, RTT range, loss range, MTU, congestion
/// control, and the simulated horizon that gives its cell a host cost
/// comparable to the others.
///
/// Lossy strata sit at short RTTs in narrow ranges, where the horizon spans
/// many loss-recovery cycles; at long RTTs and low loss the time of the
/// first random drop decides the whole cell (line rate or not), and a
/// round's cost would swing with the seed. Long RTTs are covered loss-free.
/// Costlier strata come first so the sweep's two workers finish together.
struct Stratum {
  Middlebox box;
  double rttLoMs;
  double rttHiMs;
  double lossLo;  ///< 0 = loss-free
  double lossHi;
  int mtu;
  tcp::CcAlgorithm cc;
  double horizonS;
};

constexpr std::array<Stratum, 8> kStrata{{
    {Middlebox::kRouter, 16, 32, 0, 0, 9000, tcp::CcAlgorithm::kReno, 1.75},
    {Middlebox::kDmzSwitch, 32, 64, 0, 0, 9000, tcp::CcAlgorithm::kHtcp, 1.75},
    {Middlebox::kDmzSwitch, 1, 1.25, 8e-5, 1e-4, 1500, tcp::CcAlgorithm::kCubic, 2.0},
    {Middlebox::kRouter, 2, 2.5, 8e-5, 1e-4, 9000, tcp::CcAlgorithm::kCubic, 3.0},
    {Middlebox::kNone, 1, 2, 0, 0, 1500, tcp::CcAlgorithm::kHtcp, 0.5},
    {Middlebox::kNone, 4, 5, 3.2e-5, 4e-5, 1500, tcp::CcAlgorithm::kReno, 4.0},
    {Middlebox::kFirewall, 5, 6, 0, 0, 1500, tcp::CcAlgorithm::kHtcp, 10.0},
    {Middlebox::kFirewall, 64, 100, 5e-5, 1e-4, 9000, tcp::CcAlgorithm::kCubic, 15.0},
}};
constexpr double kFaninHorizonS = 0.75;

const sim::DataRate kLineRate = sim::DataRate::gigabitsPerSecond(10);

struct BulkCell {
  int index = 0;
  bool fanin = false;
  std::uint64_t seed = 0;
  // path cells
  Middlebox box = Middlebox::kNone;
  double rttMs = 1.0;
  double loss = 0.0;
  int mtu = 1500;
  tcp::CcAlgorithm cc = tcp::CcAlgorithm::kReno;
  double horizonS = 1.0;
  // fan-in cell
  int senders = 0;

  [[nodiscard]] std::string text() const {
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "bulk_packet#%d fanin=%d seed=%016llx box=%s rtt_ms=%.17g loss=%.17g mtu=%d "
                  "cc=%s horizon_s=%.17g senders=%d\n",
                  index, fanin ? 1 : 0, static_cast<unsigned long long>(seed), toString(box),
                  rttMs, loss, mtu, ccName(cc), horizonS, senders);
    return buf;
  }
};

std::vector<BulkCell> generate(std::uint64_t seed) {
  sim::Rng rng(mixSeed(seed, 0xb01c));
  constexpr std::array<tcp::CcAlgorithm, 3> kCcs{tcp::CcAlgorithm::kReno, tcp::CcAlgorithm::kHtcp,
                                                 tcp::CcAlgorithm::kCubic};
  std::vector<BulkCell> cells;
  for (std::size_t k = 0; k < kStrata.size(); ++k) {
    const Stratum& st = kStrata[k];
    BulkCell c;
    c.index = static_cast<int>(k);
    c.seed = mixSeed(seed, k);
    c.box = st.box;
    c.rttMs = std::exp(rng.uniform(std::log(st.rttLoMs), std::log(st.rttHiMs)));
    c.loss = st.lossHi > 0 ? rng.uniform(st.lossLo, st.lossHi) : 0.0;
    c.mtu = st.mtu;
    c.cc = st.cc;
    c.horizonS = st.horizonS;
    cells.push_back(c);
  }
  BulkCell f;
  f.index = static_cast<int>(kStrata.size());
  f.fanin = true;
  f.seed = mixSeed(seed, kStrata.size());
  f.senders = 2 + static_cast<int>(rng.below(7));  // 2..8
  f.rttMs = rng.uniform(1.0, 20.0);
  f.mtu = 9000;
  f.cc = kCcs[rng.below(3)];
  f.horizonS = kFaninHorizonS;
  cells.push_back(f);
  return cells;
}

tcp::TcpConfig tcpFor(const BulkCell& c) {
  tcp::TcpConfig cfg;
  cfg.algorithm = c.cc;
  // Twice the bandwidth-delay product, so loss-free paths reach line rate.
  const double bdp = kLineRate.toMBps() * 1e6 * c.rttMs * 1e-3;
  const auto buf = static_cast<std::uint64_t>(std::max(2.0 * bdp, 16.0 * 1024 * 1024));
  cfg.sndBuf = sim::DataSize::bytes(buf);
  cfg.rcvBuf = sim::DataSize::bytes(buf);
  return cfg;
}

net::LinkParams linkParams(double delayMs, int mtu) {
  net::LinkParams p;
  p.rate = kLineRate;
  p.delay = sim::Duration::fromSeconds(delayMs * 1e-3);
  p.mtu = sim::DataSize::bytes(static_cast<std::uint64_t>(mtu));
  return p;
}

void checkGoodput(CellOutcome& out, const std::string& what, sim::DataSize delivered,
                  sim::DataRate goodput, double horizonS, sim::DataRate bottleneck) {
  const double avgBps = static_cast<double>(delivered.bitCount()) / horizonS;
  if (goodput.bps() > bottleneck.bps() || avgBps > static_cast<double>(bottleneck.bps())) {
    out.failures.push_back(what + ": goodput " + std::to_string(goodput.toMbps()) +
                           " Mbps exceeds the " + std::to_string(bottleneck.toMbps()) +
                           " Mbps bottleneck");
  }
}

CellOutcome runPathCell(const BulkCell& c, RoundMode mode) {
  CellOutcome out;
  out.id = "bulk_packet#" + std::to_string(c.index);
  CellClock clock(out, mode);
  auto s = std::make_unique<Scenario>(c.seed);
  if (clock.profiled()) s->simulator.setProfiler(&s->profiler);

  net::Host* a = nullptr;
  net::Host* b = nullptr;
  {
    SpanScope span(clock.log(), "net.build");
    a = &s->topo.addHost("a", net::Address(10, 0, 0, 1));
    b = &s->topo.addHost("b", net::Address(10, 0, 1, 1));
    // A 10 us LAN hop to the middlebox, then the WAN leg carrying the rest
    // of the one-way delay and the impairment.
    constexpr double kLanMs = 0.01;
    const double wanMs = c.rttMs / 2.0 - (c.box == Middlebox::kNone ? 0.0 : kLanMs);
    net::Device* mid = nullptr;
    switch (c.box) {
      case Middlebox::kNone: break;
      case Middlebox::kRouter: mid = &s->topo.addRouter("router"); break;
      case Middlebox::kDmzSwitch: mid = &s->topo.addSwitch("dmz-switch"); break;
      case Middlebox::kFirewall: mid = &s->topo.addFirewall("firewall"); break;
    }
    net::Link* wan = nullptr;
    if (mid == nullptr) {
      wan = &s->topo.connect(*a, *b, linkParams(wanMs, c.mtu));
    } else {
      s->topo.connect(*a, *mid, linkParams(kLanMs, c.mtu));
      wan = &s->topo.connect(*mid, *b, linkParams(wanMs, c.mtu));
    }
    if (c.loss > 0) {
      // One drop every 1/loss packets, like Section 2's failing line card.
      // Evenly spaced drops make a cell's loss-recovery work a smooth
      // function of its drawn RTT and loss, so a round costs about the same
      // at every seed; where random drops fell decided how far each window
      // grew.
      const auto interval = static_cast<std::uint64_t>(std::llround(1.0 / c.loss));
      wan->setLossModel(0, std::make_unique<net::PeriodicLoss>(interval));
    }
  }
  {
    SpanScope span(clock.log(), "net.routes");
    s->topo.computeRoutes();
  }
  net::FlowPtr flow;
  {
    SpanScope span(clock.log(), "net.flow.create");
    net::FlowFactory::Options options;
    options.port = 5001;
    options.fidelity = net::FlowFidelity::kPacket;
    flow = net::flowFactory(s->ctx).create(*a, *b, tcpFor(c), options);
    auto* raw = flow.get();
    flow->onEstablished = [raw] { raw->sendData(sim::DataSize::terabytes(1)); };
    flow->start();
  }
  if (clock.setupOnly()) return out;
  clock.run([&] { s->runFor(sim::Duration::fromSeconds(c.horizonS)); });
  out.simS = c.horizonS;

  Digest d;
  recordFlow(*flow, out.counters, d);
  recordScenario(*s, out.counters, d);
  if (!flow->established()) out.failures.push_back(out.id + ": flow did not establish");
  checkGoodput(out, out.id, flow->deliveredBytes(), flow->goodput(), c.horizonS, kLineRate);
  out.digest = d.value();
  if (clock.profiled()) out.profile.read(s->profiler);
  {
    SpanScope span(clock.log(), "bench.teardown");
    flow.reset();
    s.reset();
  }
  clock.finish();
  return out;
}

CellOutcome runFaninCell(const BulkCell& c, RoundMode mode) {
  CellOutcome out;
  out.id = "bulk_packet#" + std::to_string(c.index);
  CellClock clock(out, mode);
  auto s = std::make_unique<Scenario>(c.seed);
  if (clock.profiled()) s->simulator.setProfiler(&s->profiler);

  std::vector<net::Host*> senders;
  net::Host* sink = nullptr;
  {
    SpanScope span(clock.log(), "net.build");
    // Shallow-buffered campus switch: every sender bursts into one egress.
    auto& sw = s->topo.addSwitch("fanin-switch", net::SwitchProfile::cheapLan());
    sink = &s->topo.addHost("sink", net::Address(10, 1, 0, 1));
    s->topo.connect(sw, *sink, linkParams(c.rttMs / 2.0, c.mtu));
    for (int i = 0; i < c.senders; ++i) {
      auto& h = s->topo.addHost("snd" + std::to_string(i),
                                net::Address(10, 0, 0, static_cast<std::uint8_t>(i + 1)));
      s->topo.connect(h, sw, linkParams(0.01, c.mtu));
      senders.push_back(&h);
    }
  }
  {
    SpanScope span(clock.log(), "net.routes");
    s->topo.computeRoutes();
  }
  std::vector<net::FlowPtr> flows;
  for (int i = 0; i < c.senders; ++i) {
    SpanScope span(clock.log(), "net.flow.create");
    net::FlowFactory::Options options;
    options.port = static_cast<std::uint16_t>(5001 + i);
    options.fidelity = net::FlowFidelity::kPacket;
    auto flow = net::flowFactory(s->ctx).create(*senders[static_cast<std::size_t>(i)], *sink,
                                                tcpFor(c), options);
    auto* raw = flow.get();
    flow->onEstablished = [raw] { raw->sendData(sim::DataSize::terabytes(1)); };
    flow->start();
    flows.push_back(std::move(flow));
  }
  if (clock.setupOnly()) return out;
  clock.run([&] { s->runFor(sim::Duration::fromSeconds(c.horizonS)); });
  out.simS = c.horizonS;

  Digest d;
  sim::DataSize delivered = sim::DataSize::zero();
  std::uint64_t goodputBps = 0;
  for (auto& flow : flows) {
    recordFlow(*flow, out.counters, d);
    if (!flow->established()) out.failures.push_back(out.id + ": a fan-in flow did not establish");
    delivered += flow->deliveredBytes();
    goodputBps += flow->goodput().bps();
  }
  recordScenario(*s, out.counters, d);
  checkGoodput(out, out.id + " aggregate", delivered, sim::DataRate::bitsPerSecond(goodputBps),
               c.horizonS, kLineRate);
  out.digest = d.value();
  if (clock.profiled()) out.profile.read(s->profiler);
  {
    SpanScope span(clock.log(), "bench.teardown");
    flows.clear();
    s.reset();
  }
  clock.finish();
  return out;
}

class BulkPacket final : public Workload {
 public:
  explicit BulkPacket(std::uint64_t seed) : cells_(generate(seed)) {}

  [[nodiscard]] std::string cellsText() const override {
    std::string text;
    for (const auto& c : cells_) text += c.text();
    return text;
  }

  std::vector<CellOutcome> runRound(RoundMode mode, SpanLog& roundLog,
                                    std::map<std::string, double>& extra) override {
    std::vector<CellOutcome> outcomes;
    {
      SpanScope span(roundLog, "sim.sweep");
      outcomes = runner_.run<CellOutcome>(
          cells_.size(),
          [this, mode](sim::SweepCell& cell) {
            const BulkCell& c = cells_[cell.index];
            return guardCell("bulk_packet#" + std::to_string(c.index), [&] {
              return c.fanin ? runFaninCell(c, mode) : runPathCell(c, mode);
            });
          },
          "bulk_packet");
    }
    const auto& run = runner_.lastRun();
    extra["sim.sweep.efficiency"] = run.cellSecondsSum() / (run.wallSeconds * run.workers);
    return outcomes;
  }

 private:
  std::vector<BulkCell> cells_;
  sim::SweepRunner runner_{2};
};

}  // namespace

std::unique_ptr<Workload> makeBulkPacket(std::uint64_t seed) {
  return std::make_unique<BulkPacket>(seed);
}

}  // namespace perfbench
