// Fluid (analytic) flow engine: the response function, the flow lifecycle
// through the unified FlowHandle, the packet/fluid capacity coupling, and
// the factory's live-handle registry.
#include "tcp/fluid.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "../tcp/tcp_test_util.hpp"
#include "net/flow.hpp"
#include "net/topology.hpp"
#include "scenario/checkpoint.hpp"
#include "scenario/harness.hpp"
#include "sim/codec.hpp"
#include "tcp/mathis.hpp"

namespace scidmz::tcp {
namespace {

using namespace scidmz::sim::literals;
using testutil::PathConfig;
using testutil::TcpPath;

net::FlowPtr makeFluidFlow(TcpPath& path, const TcpConfig& cfg, std::uint16_t port,
                           int streams = 1) {
  net::FlowFactory::Options options;
  options.port = port;
  options.streams = streams;
  options.fidelity = net::FlowFidelity::kFluid;
  return net::flowFactory(path.scenario.ctx).create(*path.a, *path.b, cfg, options);
}

/// Steady-state rate of one handle: warmup, then delivered-delta / window.
sim::DataRate steadyRate(TcpPath& path, net::FlowHandle& flow, sim::Duration warmup,
                         sim::Duration window) {
  path.scenario.simulator.runFor(warmup);
  const auto base = flow.deliveredBytes();
  path.scenario.simulator.runFor(window);
  const auto delta = flow.deliveredBytes() - base;
  return sim::DataRate::bitsPerSecond(
      static_cast<std::uint64_t>(static_cast<double>(delta.bitCount()) / window.toSeconds()));
}

// --- the response function -------------------------------------------------

TEST(CcResponse, RenoIsCalibratedMathisEquation) {
  const double mssBits = 8960.0 * 8.0;
  const double rtt = 0.05;
  const double p = 1e-4;
  const double mathis = static_cast<double>(mathisThroughput(8960_B, 50_ms, p).bps());
  const double got = ccResponseBps(CcAlgorithm::kReno, mssBits, rtt, p);
  EXPECT_NEAR(got / mathis, kRenoCalibration, 0.01);
}

TEST(CcResponse, ZeroLossIsNeverTheBindingConstraint) {
  EXPECT_GT(ccResponseBps(CcAlgorithm::kReno, 8960.0 * 8.0, 0.05, 0.0), 1e29);
  EXPECT_GT(ccResponseBps(CcAlgorithm::kHtcp, 8960.0 * 8.0, 0.05, -1.0), 1e29);
}

TEST(CcResponse, HtcpBeatsRenoUnderLoss) {
  const double mssBits = 8960.0 * 8.0;
  const double reno = ccResponseBps(CcAlgorithm::kReno, mssBits, 0.1, 1e-3);
  const double htcp = ccResponseBps(CcAlgorithm::kHtcp, mssBits, 0.1, 1e-3);
  const double cubic = ccResponseBps(CcAlgorithm::kCubic, mssBits, 0.1, 1e-3);
  EXPECT_GT(htcp, reno);
  EXPECT_GE(cubic, reno);
}

// --- flow lifecycle --------------------------------------------------------

TEST(FluidFlow, DeliversExactByteCountAndCompletes) {
  TcpPath path;
  auto flow = makeFluidFlow(path, TcpConfig::tunedDtn(), 5001);
  bool established = false;
  bool complete = false;
  auto* raw = flow.get();
  flow->onEstablished = [&] { established = true; raw->sendData(8_MB); };
  flow->onSendComplete = [&] { complete = true; };
  flow->start();
  path.scenario.simulator.run();
  EXPECT_TRUE(established);
  EXPECT_TRUE(complete);
  EXPECT_TRUE(flow->established());
  EXPECT_TRUE(flow->sendComplete());
  EXPECT_EQ(flow->deliveredBytes(), 8_MB);
  EXPECT_EQ(flow->fidelity(), net::FlowFidelity::kFluid);
  EXPECT_EQ(flow->clientConnection(0), nullptr);  // no packet state exists
}

TEST(FluidFlow, CleanPathRunsNearBottleneck) {
  PathConfig cfg;
  cfg.rate = 10_Gbps;
  cfg.oneWayDelay = 500_us;
  TcpPath path{cfg};
  auto flow = makeFluidFlow(path, TcpConfig::tunedDtn(), 5001);
  auto* raw = flow.get();
  flow->onEstablished = [raw] { raw->sendData(sim::DataSize::terabytes(100)); };
  flow->start();
  const auto rate = steadyRate(path, *flow, 2_s, 5_s);
  EXPECT_GT(rate.toGbps(), 9.0);
  EXPECT_LE(rate.toGbps(), 10.0);
}

TEST(FluidFlow, LossyPathTracksTheResponseFunction) {
  PathConfig cfg;
  cfg.rate = 10_Gbps;
  cfg.oneWayDelay = 5_ms;  // 10 ms RTT
  cfg.randomLoss = 1e-3;
  TcpPath path{cfg};
  TcpConfig tcp = TcpConfig::tunedDtn();
  tcp.algorithm = CcAlgorithm::kReno;
  auto flow = makeFluidFlow(path, tcp, 5001);
  auto* raw = flow.get();
  flow->onEstablished = [raw] { raw->sendData(sim::DataSize::terabytes(100)); };
  flow->start();
  const auto rate = steadyRate(path, *flow, 2_s, 10_s);
  const double predictedMbps =
      ccResponseBps(CcAlgorithm::kReno, 8960.0 * 8.0, 10e-3, 1e-3) / 1e6;
  EXPECT_NEAR(rate.toMbps() / predictedMbps, 1.0, 0.05);
}

TEST(FluidFlow, ParallelStreamsMultiplyTheLossBound) {
  PathConfig cfg;
  cfg.rate = 10_Gbps;
  cfg.oneWayDelay = 5_ms;
  cfg.randomLoss = 1e-3;
  TcpPath path{cfg};
  TcpConfig tcp = TcpConfig::tunedDtn();
  tcp.algorithm = CcAlgorithm::kReno;
  auto flow = makeFluidFlow(path, tcp, 5001, /*streams=*/4);
  auto* raw = flow.get();
  flow->onEstablished = [raw] { raw->sendData(sim::DataSize::terabytes(100)); };
  flow->start();
  const auto rate = steadyRate(path, *flow, 2_s, 10_s);
  const double oneStreamMbps =
      ccResponseBps(CcAlgorithm::kReno, 8960.0 * 8.0, 10e-3, 1e-3) / 1e6;
  EXPECT_NEAR(rate.toMbps() / (4.0 * oneStreamMbps), 1.0, 0.05);
}

TEST(FluidFlow, AbortWithdrawsDemand) {
  TcpPath path;
  auto& engine = path.scenario.ctx.extension<FluidEngine>();
  auto flow = makeFluidFlow(path, TcpConfig::tunedDtn(), 5001);
  auto* raw = flow.get();
  flow->onEstablished = [raw] { raw->sendData(sim::DataSize::terabytes(100)); };
  flow->start();
  path.scenario.simulator.runFor(1_s);
  EXPECT_EQ(engine.activeFlowCount(), 1u);
  flow->abort();
  path.scenario.simulator.runFor(1_s);
  EXPECT_EQ(engine.activeFlowCount(), 0u);
}

// --- packet/fluid coupling -------------------------------------------------

TEST(HybridFidelity, FluidAndPacketFlowsShareTheBottleneck) {
  PathConfig cfg;
  cfg.rate = 10_Gbps;
  cfg.oneWayDelay = 500_us;
  TcpPath path{cfg};
  const TcpConfig tcp = TcpConfig::tunedDtn();

  net::FlowFactory::Options packetOptions;
  packetOptions.port = 5001;
  auto packetFlow = net::flowFactory(path.scenario.ctx).create(*path.a, *path.b, tcp,
                                                               packetOptions);
  auto* packetRaw = packetFlow.get();
  packetFlow->onEstablished = [packetRaw] {
    packetRaw->sendData(sim::DataSize::terabytes(100));
  };
  packetFlow->start();

  std::vector<net::FlowPtr> fluidFlows;
  for (int i = 0; i < 3; ++i) {
    auto f = makeFluidFlow(path, tcp, static_cast<std::uint16_t>(6000 + i));
    auto* raw = f.get();
    f->onEstablished = [raw] { raw->sendData(sim::DataSize::terabytes(100)); };
    f->start();
    fluidFlows.push_back(std::move(f));
  }

  path.scenario.simulator.runFor(3_s);
  const auto packetBase = packetFlow->deliveredBytes();
  std::vector<sim::DataSize> fluidBase;
  for (const auto& f : fluidFlows) fluidBase.push_back(f->deliveredBytes());
  path.scenario.simulator.runFor(5_s);

  const double packetBits =
      static_cast<double>((packetFlow->deliveredBytes() - packetBase).bitCount());
  double fluidBits = 0.0;
  for (std::size_t i = 0; i < fluidFlows.size(); ++i) {
    fluidBits +=
        static_cast<double>((fluidFlows[i]->deliveredBytes() - fluidBase[i]).bitCount());
  }
  const double packetGbps = packetBits / 5.0 / 1e9;
  const double fluidGbps = fluidBits / 5.0 / 1e9;

  // Both sides carry real traffic, the packet flow is pushed well below
  // line rate, and the total stays at (or under) the 10G bottleneck.
  EXPECT_GT(packetGbps, 0.5);
  EXPECT_GT(fluidGbps, 2.0);
  EXPECT_LT(packetGbps, 8.0);
  EXPECT_LT(packetGbps + fluidGbps, 10.5);
  EXPECT_GT(packetGbps + fluidGbps, 7.0);
}

TEST(HybridFidelity, PacketOnlyContextNeverTicksTheEngine) {
  // A packet-fidelity flow must not arm the fluid ticker: goldens depend on
  // the event stream staying byte-identical when no fluid flow exists.
  TcpPath path;
  net::FlowFactory::Options options;
  options.port = 5001;
  auto flow = net::flowFactory(path.scenario.ctx).create(*path.a, *path.b,
                                                         TcpConfig::tunedDtn(), options);
  auto* raw = flow.get();
  bool complete = false;
  flow->onEstablished = [raw] { raw->sendData(1_MB); };
  flow->onSendComplete = [&complete] { complete = true; };
  flow->start();
  path.scenario.simulator.run();  // terminates only if no ticker re-arms
  EXPECT_TRUE(complete);
  EXPECT_EQ(path.scenario.ctx.extension<FluidEngine>().activeFlowCount(), 0u);
}

TEST(FluidFlow, DeterministicAcrossIdenticalRuns) {
  auto runOnce = [] {
    PathConfig cfg;
    cfg.rate = 10_Gbps;
    cfg.oneWayDelay = 5_ms;
    cfg.randomLoss = 2e-4;
    TcpPath path{cfg};
    std::vector<net::FlowPtr> flows;
    for (int i = 0; i < 16; ++i) {
      auto f = makeFluidFlow(path, TcpConfig::tunedDtn(), static_cast<std::uint16_t>(7000 + i));
      auto* raw = f.get();
      f->onEstablished = [raw] { raw->sendData(sim::DataSize::terabytes(1)); };
      f->start();
      flows.push_back(std::move(f));
    }
    path.scenario.simulator.runFor(10_s);
    std::vector<std::uint64_t> delivered;
    for (const auto& f : flows) delivered.push_back(f->deliveredBytes().byteCount());
    return delivered;
  };
  EXPECT_EQ(runOnce(), runOnce());
}

// --- path classes on a shared bottleneck -----------------------------------

/// c1 and c2 reach server s through their own 10G access links and one
/// shared 1G sw->s bottleneck, so fluid flows fall into two path classes
/// (c1->s, c2->s). A packet flow from p is registered on the bottleneck.
/// Built identically every time, as the snapshot restore protocol needs.
struct SharedBottleneckCell {
  static constexpr std::size_t kSlots = 10;

  SharedBottleneckCell() : s(20261020) {
    s.ctx.armSnapshots();
    auto& sw = s.topo.addSwitch("sw");
    c1 = &s.topo.addHost("c1", net::Address(10, 0, 0, 1));
    c2 = &s.topo.addHost("c2", net::Address(10, 0, 0, 2));
    p = &s.topo.addHost("p", net::Address(10, 0, 0, 3));
    server = &s.topo.addHost("s", net::Address(10, 0, 1, 1));
    net::LinkParams access;
    access.rate = sim::DataRate::gigabitsPerSecond(10);
    access.delay = 1_ms;
    access.mtu = 9000_B;
    net::LinkParams bottleneck = access;
    bottleneck.rate = sim::DataRate::gigabitsPerSecond(1);
    s.topo.connect(*c1, sw, access);
    s.topo.connect(*c2, sw, access);
    s.topo.connect(*p, sw, access);
    s.topo.connect(sw, *server, bottleneck);
    s.topo.computeRoutes();

    net::FlowFactory::Options options;
    options.port = 5001;
    packet = net::flowFactory(s.ctx).create(*p, *server, TcpConfig::tunedDtn(), options);
    auto* raw = packet.get();
    packet->onEstablished = [raw] { raw->sendData(40_MB); };
    packet->start();

    // Class c1->s: mixed sizes and windows; every other flow listens.
    const std::array<std::uint64_t, 6> c1Bytes{2'000'000, 30'000'000, 500'000,
                                               80'000'000, 6'000'000, 120'000'000};
    for (std::size_t i = 0; i < c1Bytes.size(); ++i) {
      addFlow(*c1, c1Bytes[i], i % 2 == 0, i % 3 == 2 ? TcpConfig::untunedDefault()
                                                      : TcpConfig::tunedDtn());
    }
    // Class c2->s.
    addFlow(*c2, 50'000'000, true, TcpConfig::tunedDtn());
    addFlow(*c2, 4'000'000, false, TcpConfig::untunedDefault());
  }

  /// Mid-run churn: tear down two c1->s flows out of creation order, then
  /// create two c2->s flows, which recycle the freed engine ids.
  void churn() {
    flows[3].reset();
    flows[1].reset();
    addFlow(*c2, 25'000'000, true, TcpConfig::tunedDtn());
    addFlow(*c2, 60'000'000, false, TcpConfig::tunedDtn());
  }

  void addFlow(net::Host& src, std::uint64_t bytes, bool listen, const TcpConfig& tcp) {
    const std::size_t slot = flows.size();
    net::FlowFactory::Options options;
    options.port = static_cast<std::uint16_t>(6000 + slot);
    options.fidelity = net::FlowFidelity::kFluid;
    net::FlowPtr flow = net::flowFactory(s.ctx).create(src, *server, tcp, options);
    auto* raw = flow.get();
    flow->onEstablished = [raw, bytes] { raw->sendData(sim::DataSize::bytes(bytes)); };
    if (listen) {
      flow->onDelivered = [this, slot](sim::DataSize d) { heard[slot] += d.byteCount(); };
    }
    flow->start();
    flows.push_back(std::move(flow));
  }

  [[nodiscard]] FluidEngine& engine() { return s.ctx.extension<FluidEngine>(); }

  /// Per-flow engine state, completions and event accounting as one string.
  [[nodiscard]] std::string signature() {
    std::ostringstream out;
    out << "now=" << s.simulator.now().ns() << " executed=" << s.simulator.eventsExecuted()
        << " pending=" << s.simulator.pendingEventCount()
        << " completed=" << engine().flowsCompleted()
        << " active=" << engine().activeFlowCount() << '\n';
    out << "packet delivered=" << packet->deliveredBytes().byteCount() << '\n';
    for (const auto& flow : flows) {
      if (!flow) {
        out << "gone\n";
        continue;
      }
      out << "delivered=" << flow->deliveredBytes().byteCount()
          << " rate=" << flow->currentRate().bps() << " goodput=" << flow->goodput().bps()
          << " complete=" << flow->sendComplete() << '\n';
    }
    return out.str();
  }

  scenario::Scenario s;
  net::Host* c1 = nullptr;
  net::Host* c2 = nullptr;
  net::Host* p = nullptr;
  net::Host* server = nullptr;
  std::array<std::uint64_t, kSlots> heard{};  ///< onDelivered bytes per slot
  net::FlowPtr packet;
  std::vector<net::FlowPtr> flows;
};

TEST(FluidFlow, SharedBottleneckClassesDeliverRecordedBytes) {
  SharedBottleneckCell cell;
  auto delivered = [&cell] {
    std::vector<std::uint64_t> out;
    for (const auto& flow : cell.flows) {
      out.push_back(flow ? flow->deliveredBytes().byteCount() : 0);
      if (flow && flow->onDelivered) {
        EXPECT_EQ(cell.heard[out.size() - 1], out.back()) << "listener of flow " << out.size() - 1;
      }
    }
    return out;
  };
  cell.s.simulator.runFor(500_ms);
  cell.churn();
  cell.s.simulator.runFor(500_ms);
  const auto mid = delivered();
  const auto midCompleted = cell.engine().flowsCompleted();
  cell.s.simulator.runFor(1500_ms);

  // Recorded with the per-flow-path engine that path classes replaced:
  // sharing the bottleneck by class must not move a byte.
  const std::vector<std::uint64_t> wantMid{2000000, 0,        500000,  0,        6000000,
                                           3922323, 29791956, 3922323, 15270019, 15270019};
  const std::vector<std::uint64_t> wantEnd{2000000,  0,        500000,  0,        6000000,
                                           21005328, 50000000, 4000000, 25000000, 60000000};
  EXPECT_EQ(mid, wantMid);
  EXPECT_EQ(midCompleted, 3u);
  EXPECT_EQ(delivered(), wantEnd);
  EXPECT_EQ(cell.engine().flowsCompleted(), 7u);
  EXPECT_EQ(cell.packet->deliveredBytes().byteCount(), 40000000u);
}

TEST(FluidFlow, SharedBottleneckSnapshotContinuesByteIdentical) {
  SharedBottleneckCell original;
  original.s.simulator.runFor(500_ms);
  original.churn();
  original.s.simulator.runFor(500_ms);
  const scenario::SnapshotBlob blob = scenario::saveSnapshot(original.s);
  ASSERT_TRUE(blob.ok()) << blob.error;
  const std::string atSnapshot = original.signature();
  const auto heardAtSnapshot = original.heard;
  original.s.simulator.runFor(1500_ms);
  const std::string uninterrupted = original.signature();

  SharedBottleneckCell rebuilt;
  rebuilt.churn();
  std::string error;
  ASSERT_TRUE(scenario::restoreSnapshot(rebuilt.s, blob.bytes, &error)) << error;
  EXPECT_EQ(rebuilt.signature(), atSnapshot);
  rebuilt.s.simulator.runFor(1500_ms);
  EXPECT_EQ(rebuilt.signature(), uninterrupted);
  // Listeners re-registered on restore hear exactly the post-snapshot bytes.
  for (std::size_t i = 0; i < SharedBottleneckCell::kSlots; ++i) {
    EXPECT_EQ(rebuilt.heard[i], original.heard[i] - heardAtSnapshot[i]) << "slot " << i;
  }
}

// --- the factory's live-handle registry -----------------------------------

/// Twelve handles, packet and fluid interleaved, destroyed out of creation
/// order (enough to compact the registry), then two more created.
/// `victims` picks which die, so a rebuild can diverge on purpose.
struct RegistryCell {
  explicit RegistryCell(const std::vector<std::size_t>& victims) : s(20261021) {
    s.ctx.armSnapshots();
    a = &s.topo.addHost("a", net::Address(10, 0, 0, 1));
    b = &s.topo.addHost("b", net::Address(10, 0, 0, 2));
    net::LinkParams lp;
    lp.rate = sim::DataRate::gigabitsPerSecond(1);
    lp.delay = 2_ms;
    lp.mtu = 9000_B;
    s.topo.connect(*a, *b, lp);
    s.topo.computeRoutes();
    for (std::size_t i = 0; i < 12; ++i) add(i % 4 == 1);
    for (const std::size_t v : victims) handles[v].reset();
    add(false);
    add(true);
  }

  void add(bool packetFidelity) {
    net::FlowFactory::Options options;
    options.port = static_cast<std::uint16_t>(7000 + handles.size());
    options.fidelity = packetFidelity ? net::FlowFidelity::kPacket : net::FlowFidelity::kFluid;
    net::FlowPtr flow = net::flowFactory(s.ctx).create(*a, *b, TcpConfig::tunedDtn(), options);
    auto* raw = flow.get();
    flow->onEstablished = [raw] { raw->sendData(3_MB); };
    flow->start();
    handles.push_back(std::move(flow));
  }

  [[nodiscard]] std::string signature() {
    std::ostringstream out;
    out << "executed=" << s.simulator.eventsExecuted() << '\n';
    for (const auto& h : handles) {
      if (h) out << toString(h->fidelity()) << ' ' << h->deliveredBytes().byteCount() << '\n';
    }
    return out.str();
  }

  scenario::Scenario s;
  net::Host* a = nullptr;
  net::Host* b = nullptr;
  std::vector<net::FlowPtr> handles;
};

/// The factory's snapshot section as written, and as it must read: its
/// counters, the live-handle count, then each surviving handle's state in
/// creation order.
std::vector<std::uint8_t> factorySection(RegistryCell& cell) {
  sim::BitWriter w;
  sim::Codec c(w);
  (void)net::flowFactory(cell.s.ctx).serialize(c);
  return w.take();
}
std::vector<std::uint8_t> survivorsInCreationOrder(RegistryCell& cell) {
  sim::BitWriter w;
  sim::Codec c(w);
  net::FlowFactory& factory = net::flowFactory(cell.s.ctx);
  std::uint64_t created = factory.flowsCreated();
  std::uint64_t fluid = factory.fluidFlowsCreated();
  std::uint64_t live = 0;
  for (const auto& h : cell.handles) live += h ? 1 : 0;
  c.vu64(created);
  c.vu64(fluid);
  c.vu64(live);
  for (const auto& h : cell.handles) {
    if (h) (void)h->serializeState(c);
  }
  return w.take();
}

TEST(FlowRegistry, OutOfOrderDestructionKeepsCreationOrderThroughRestore) {
  const std::vector<std::size_t> victims{5, 0, 11, 2, 7, 9, 1, 10, 4};
  RegistryCell original(victims);
  EXPECT_EQ(factorySection(original), survivorsInCreationOrder(original));
  original.s.simulator.runFor(20_ms);
  EXPECT_EQ(factorySection(original), survivorsInCreationOrder(original));
  const scenario::SnapshotBlob blob = scenario::saveSnapshot(original.s);
  ASSERT_TRUE(blob.ok()) << blob.error;
  original.s.simulator.runFor(200_ms);
  const std::string uninterrupted = original.signature();

  RegistryCell rebuilt(victims);
  std::string error;
  ASSERT_TRUE(scenario::restoreSnapshot(rebuilt.s, blob.bytes, &error)) << error;
  rebuilt.s.simulator.runFor(200_ms);
  EXPECT_EQ(rebuilt.signature(), uninterrupted);

  // Same count, different survivors: the restore must see the order differ.
  RegistryCell diverged({5, 0, 11, 2, 7, 9, 1, 10, 3});
  EXPECT_FALSE(scenario::restoreSnapshot(diverged.s, blob.bytes, &error));
  // One survivor fewer: the handle count differs.
  RegistryCell fewer({5, 0, 11, 2, 7, 9, 1, 10, 4, 3});
  EXPECT_FALSE(scenario::restoreSnapshot(fewer.s, blob.bytes, &error));
}

}  // namespace
}  // namespace scidmz::tcp
