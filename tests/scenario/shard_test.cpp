// Cross-domain determinism suite for sharded execution. The bar: every
// compared artifact — result tables, merged telemetry snapshots, merged
// span exports — is byte-identical at --domains=1, 2 and 8, with and
// without tracing, because all cut-eligible links route through reserved-
// sequence channels at every domain count. Plus the scenario-layer
// boundary edge cases: zero-lookahead rejection, a flow whose path spans
// three domains, and a cross-domain link below the lookahead floor. And
// the one execution path: a fresh Scenario is one channel-less domain that
// runs exactly the events of a plain Simulator until attachShards()
// replaces it, and --domains is refused where no shard plan is built.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "net/flow.hpp"
#include "net/topology.hpp"
#include "scenario/checkpoint.hpp"
#include "scenario/engine.hpp"
#include "scenario/esnet_scale.hpp"
#include "scenario/harness.hpp"
#include "scenario/partition.hpp"
#include "scenario/shard.hpp"
#include "scenario/spec.hpp"
#include "sim/log.hpp"
#include "sim/random.hpp"
#include "sim/run_config.hpp"
#include "sim/simulator.hpp"
#include "sim/sweep.hpp"
#include "sim/units.hpp"
#include "tcp/connection.hpp"

namespace scidmz::scenario {
namespace {

using namespace scidmz::sim::literals;

EsnetScaleConfig smallRing() {
  EsnetScaleConfig cfg;
  cfg.sites = 8;
  cfg.hostsPerSite = 1;
  cfg.flowsPerHost = 1;
  cfg.runDuration = 120_ms;
  return cfg;
}

/// Install a modified run configuration for one scope, then restore it.
class ScopedRunConfig {
 public:
  explicit ScopedRunConfig(sim::RunConfig config) : saved_(sim::runConfig()) {
    sim::setRunConfig(std::move(config));
  }
  ~ScopedRunConfig() { sim::setRunConfig(saved_); }
  ScopedRunConfig(const ScopedRunConfig&) = delete;
  ScopedRunConfig& operator=(const ScopedRunConfig&) = delete;

 private:
  sim::RunConfig saved_;
};

struct CellResult {
  EsnetScaleResult result;
  sim::SweepCellStats stats;
};

CellResult runRingAt(int domains) {
  EsnetScaleConfig cfg = smallRing();
  cfg.domains = domains;
  sim::SweepRunner sweep{1};
  auto results = sweep.run<EsnetScaleResult>(
      1, [&](sim::SweepCell& cell) { return runEsnetScale(cfg, cell); }, "shard_test");
  CellResult out;
  out.result = results.at(0);
  out.stats = sweep.lastRun().cells.at(0);
  return out;
}

TEST(ShardDeterminism, RingByteIdenticalAt1_2_8Domains) {
  const CellResult d1 = runRingAt(1);
  const CellResult d2 = runRingAt(2);
  const CellResult d8 = runRingAt(8);

  EXPECT_EQ(d1.result.deliveredBySite, d2.result.deliveredBySite);
  EXPECT_EQ(d1.result.deliveredBySite, d8.result.deliveredBySite);
  // With no per-domain samplers in play the event interleaving — and hence
  // the executed count — is identical at every partition.
  EXPECT_EQ(d1.stats.eventsExecuted, d2.stats.eventsExecuted);
  EXPECT_EQ(d1.stats.eventsExecuted, d8.stats.eventsExecuted);

  // Sharded cells report their partition: domains and a per-domain event
  // split that sums to the total.
  EXPECT_EQ(d2.stats.domains, 2u);
  EXPECT_EQ(d8.stats.domains, 8u);
  std::uint64_t sum = 0;
  for (const std::uint64_t e : d8.stats.domainEvents) sum += e;
  EXPECT_EQ(sum, d8.stats.eventsExecuted);
  EXPECT_EQ(d8.stats.domainEvents.size(), 8u);
}

TEST(ShardDeterminism, RingTelemetrySnapshotByteIdenticalAt1_2_8Domains) {
  // Telemetry on (run configuration, read at Context construction): the
  // merged snapshot must be byte-identical at every partition.
  sim::RunConfig config = sim::runConfig();
  config.telemetry = true;
  CellResult d1, d2, d8;
  {
    const ScopedRunConfig scoped(std::move(config));
    d1 = runRingAt(1);
    d2 = runRingAt(2);
    d8 = runRingAt(8);
  }

  EXPECT_EQ(d1.result.deliveredBySite, d2.result.deliveredBySite);
  EXPECT_EQ(d1.result.deliveredBySite, d8.result.deliveredBySite);
  EXPECT_FALSE(d1.stats.telemetryJson.empty());
  EXPECT_EQ(d1.stats.telemetryJson, d2.stats.telemetryJson);
  EXPECT_EQ(d1.stats.telemetryJson, d8.stats.telemetryJson);

  // Raw event counts are the one artifact telemetry perturbs: every extra
  // domain's hub runs its own sampler, adding exactly the same tick count
  // per domain. The compared artifacts above absorb this (counters are
  // summed by name); the count itself grows linearly.
  ASSERT_GE(d2.stats.eventsExecuted, d1.stats.eventsExecuted);
  const std::uint64_t perDomain = d2.stats.eventsExecuted - d1.stats.eventsExecuted;
  EXPECT_EQ(d8.stats.eventsExecuted - d1.stats.eventsExecuted, 7 * perDomain);
}

TEST(ShardDeterminism, TracedSpanExportByteIdenticalAt1_2_8Domains) {
  auto runTraced = [](int domains) {
    const std::string base =
        ::testing::TempDir() + "shard_test_trace_d" + std::to_string(domains);
    sim::RunConfig config = sim::runConfig();
    config.trace = base;
    {
      const ScopedRunConfig scoped(std::move(config));
      runRingAt(domains);
    }
    std::ifstream in(base + ".cell0.spans.jsonl", std::ios::binary);
    EXPECT_TRUE(in.good()) << "missing span export for domains=" << domains;
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
  };
  const std::string d1 = runTraced(1);
  const std::string d2 = runTraced(2);
  const std::string d8 = runTraced(8);

  EXPECT_FALSE(d1.empty());
  EXPECT_EQ(d1, d2);
  EXPECT_EQ(d1, d8);
  EXPECT_NE(d1.find("scidmz.spans.v1"), std::string::npos);
}

/// A five-device path a — r0 — r1 — r2 — b with 10 ms WAN hops, the flow
/// traversing every device. Hand-written plans let the test pin exact
/// domain assignments (3 domains vs all-in-one).
unsigned long long runThreeDomainPath(int domains) {
  Scenario s{20130101};
  ShardPlan plan;
  plan.domains = domains;
  plan.nodeDomain = {{"a", 0},
                     {"r0", 0},
                     {"r1", domains >= 2 ? 1 : 0},
                     {"r2", domains >= 3 ? 2 : 0},
                     {"b", domains >= 3 ? 2 : 0}};
  attachShards(s, plan, 20130101, 5_ms);

  auto& a = s.topo.addHost("a", net::Address(10, 0, 0, 1));
  auto& r0 = s.topo.addRouter("r0");
  auto& r1 = s.topo.addRouter("r1");
  auto& r2 = s.topo.addRouter("r2");
  auto& b = s.topo.addHost("b", net::Address(10, 0, 3, 1));
  net::LinkParams lan;
  lan.rate = sim::DataRate::gigabitsPerSecond(10);
  lan.delay = 10_us;
  lan.mtu = 9000_B;
  net::LinkParams wan;
  wan.rate = sim::DataRate::gigabitsPerSecond(100);
  wan.delay = 10_ms;
  wan.mtu = 9000_B;
  s.topo.connect(a, r0, lan);
  s.topo.connect(r0, r1, wan);
  s.topo.connect(r1, r2, wan);
  s.topo.connect(r2, b, wan);  // keep the host edge cut-eligible too
  s.topo.computeRoutes();

  tcp::TcpConfig tcp;
  tcp.algorithm = tcp::CcAlgorithm::kHtcp;
  tcp.sndBuf = sim::DataSize::mebibytes(32);
  tcp.rcvBuf = sim::DataSize::mebibytes(32);
  net::FlowFactory::Options options;
  options.port = 5001;
  options.fidelity = net::FlowFidelity::kPacket;
  auto flow = net::flowFactory(a.ctx()).create(a, b, tcp, options);
  auto* raw = flow.get();
  flow->onEstablished = [raw] { raw->sendData(sim::DataSize::terabytes(1)); };
  flow->start();
  s.runFor(400_ms);
  return static_cast<unsigned long long>(flow->deliveredBytes().byteCount());
}

TEST(ShardDeterminism, FlowSpanningThreeDomainsMatchesSingleDomain) {
  const unsigned long long one = runThreeDomainPath(1);
  const unsigned long long three = runThreeDomainPath(3);
  EXPECT_GT(one, 0u);
  EXPECT_EQ(one, three);
}

TEST(ShardEdgeCases, ZeroLookaheadIsRejected) {
  Scenario s{1};
  ShardPlan plan;
  plan.domains = 2;
  plan.nodeDomain = {{"a", 0}, {"b", 1}};
  EXPECT_THROW(attachShards(s, plan, 1, sim::Duration::zero()), std::invalid_argument);
}

TEST(ShardEdgeCases, CrossDomainLinkBelowFloorIsRejected) {
  Scenario s{1};
  ShardPlan plan;
  plan.domains = 2;
  plan.nodeDomain = {{"a", 0}, {"b", 1}};
  attachShards(s, plan, 1, 5_ms);
  auto& a = s.topo.addHost("a", net::Address(10, 0, 0, 1));
  auto& b = s.topo.addHost("b", net::Address(10, 0, 0, 2));
  net::LinkParams p;
  p.rate = sim::DataRate::gigabitsPerSecond(10);
  p.delay = 1_ms;  // below the 5 ms floor, yet a and b sit in different domains
  p.mtu = 9000_B;
  EXPECT_THROW(s.topo.connect(a, b, p), std::runtime_error);
}

// --- The one execution path -------------------------------------------------

/// a - r - b with a 10 ms WAN hop and one bulk flow, built into `topo`.
net::FlowPtr buildBulkPath(net::Topology& topo) {
  auto& a = topo.addHost("a", net::Address(10, 0, 0, 1));
  auto& r = topo.addRouter("r");
  auto& b = topo.addHost("b", net::Address(10, 0, 1, 1));
  net::LinkParams lan;
  lan.rate = sim::DataRate::gigabitsPerSecond(10);
  lan.delay = 10_us;
  lan.mtu = 9000_B;
  net::LinkParams wan = lan;
  wan.delay = 10_ms;
  topo.connect(a, r, lan);
  topo.connect(r, b, wan);
  topo.computeRoutes();
  tcp::TcpConfig tcp;
  tcp.algorithm = tcp::CcAlgorithm::kHtcp;
  tcp.sndBuf = sim::DataSize::mebibytes(32);
  tcp.rcvBuf = sim::DataSize::mebibytes(32);
  net::FlowFactory::Options options;
  options.port = 5001;
  options.fidelity = net::FlowFidelity::kPacket;
  auto flow = net::flowFactory(a.ctx()).create(a, b, tcp, options);
  auto* raw = flow.get();
  flow->onEstablished = [raw] { raw->sendData(sim::DataSize::terabytes(1)); };
  flow->start();
  return flow;
}

TEST(ShardRuntime, FreshScenarioIsOneDomainWithoutChannels) {
  Scenario s{1};
  ASSERT_NE(s.shards, nullptr);
  ASSERT_EQ(s.shards->contexts.size(), 1u);
  EXPECT_EQ(s.shards->contexts[0], &s.ctx);
  EXPECT_TRUE(s.shards->extras.empty());
  EXPECT_EQ(s.shards->sharded->domainCount(), 1);
  EXPECT_EQ(s.shards->sharded->channelCount(), 0u);
}

TEST(ShardRuntime, ScenarioRunForMatchesPlainSimulator) {
  // The default runtime must execute exactly the events of a plain
  // Simulator: same count, same clock, same delivered bytes.
  sim::Simulator simulator;
  sim::Rng rng{20130101};
  sim::Logger logger;
  net::Context ctx{simulator, rng, logger};
  net::Topology topo{ctx};
  const net::FlowPtr plainFlow = buildBulkPath(topo);
  for (int i = 0; i < 4; ++i) simulator.runFor(150_ms);

  Scenario s{20130101};
  const net::FlowPtr flow = buildBulkPath(s.topo);
  for (int i = 0; i < 4; ++i) s.runFor(150_ms);

  EXPECT_GT(simulator.eventsExecuted(), 0u);
  EXPECT_EQ(s.simulator.eventsExecuted(), simulator.eventsExecuted());
  EXPECT_EQ(s.shards->sharded->eventsExecuted(), simulator.eventsExecuted());
  EXPECT_EQ(s.simulator.now(), simulator.now());
  EXPECT_GT(plainFlow->deliveredBytes().byteCount(), 0u);
  EXPECT_EQ(flow->deliveredBytes().byteCount(), plainFlow->deliveredBytes().byteCount());
}

TEST(ShardRuntime, AttachShardsReplacesTheDefaultRuntime) {
  Scenario s{1};
  ShardPlan plan;
  plan.domains = 2;
  plan.nodeDomain = {{"a", 0}, {"b", 1}};
  attachShards(s, plan, 1, 5_ms);
  ASSERT_EQ(s.shards->contexts.size(), 2u);
  EXPECT_EQ(s.shards->contexts[0], &s.ctx);
  EXPECT_EQ(s.shards->extras.size(), 1u);
  EXPECT_EQ(s.shards->sharded->domainCount(), 2);
  EXPECT_TRUE(s.topo.sharded());
}

TEST(ShardRuntime, AttachShardsThrowsOnceADeviceExists) {
  Scenario s{1};
  s.topo.addHost("a", net::Address(10, 0, 0, 1));
  const ShardRuntime* before = s.shards.get();
  ShardPlan plan;
  plan.nodeDomain = {{"a", 0}};
  EXPECT_THROW(attachShards(s, plan, 1, 5_ms), std::runtime_error);
  EXPECT_EQ(s.shards.get(), before);
  EXPECT_FALSE(s.topo.sharded());
}

TEST(ShardRuntime, AttachShardsRefusesAnArmedProfiler) {
  Scenario s{1};
  s.simulator.setProfiler(&s.profiler);
  ShardPlan plan;
  plan.nodeDomain = {{"a", 0}};
  EXPECT_THROW(attachShards(s, plan, 1, 5_ms), SpecError);
}

TEST(ShardEdgeCases, DomainsOnAPathWithoutAShardPlanIsRefused) {
  sim::RunConfig config = sim::runConfig();
  config.domains = 2;
  const ScopedRunConfig scoped(std::move(config));
  ScenarioSpec usecase;
  usecase.name = "usecase_noaa_transfer#0";
  usecase.topology.kind = TopologyKind::kUsecase;
  usecase.topology.usecase.which = UsecaseKind::kNoaa;
  sim::SweepCell cell;
  EXPECT_THROW(runSpec(usecase, cell), SpecError);
  EXPECT_THROW(DemoCell{}, SpecError);
}

}  // namespace
}  // namespace scidmz::scenario
