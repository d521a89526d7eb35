#include "scenario/engine.hpp"

#include <algorithm>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "apps/background_traffic.hpp"
#include "apps/parallel_transfer.hpp"
#include "core/path_analysis.hpp"
#include "core/site.hpp"
#include "core/site_builder.hpp"
#include "core/validator.hpp"
#include "dtn/dtn_cluster.hpp"
#include "dtn/dtn_node.hpp"
#include "net/acl.hpp"
#include "net/ids.hpp"
#include "net/loss.hpp"
#include "scenario/harness.hpp"
#include "scenario/partition.hpp"
#include "scenario/shard.hpp"
#include "sim/run_config.hpp"
#include "usecase/colorado.hpp"
#include "usecase/nersc_olcf.hpp"
#include "usecase/noaa.hpp"
#include "usecase/pennstate.hpp"
#include "vc/openflow.hpp"
#include "vc/roce.hpp"

namespace scidmz::scenario {
namespace {

tcp::TcpConfig toTcpConfig(const TcpSpec& spec) {
  tcp::TcpConfig cfg;
  switch (spec.cc) {
    case CcAlgo::kReno: cfg.algorithm = tcp::CcAlgorithm::kReno; break;
    case CcAlgo::kHtcp: cfg.algorithm = tcp::CcAlgorithm::kHtcp; break;
    case CcAlgo::kCubic: cfg.algorithm = tcp::CcAlgorithm::kCubic; break;
  }
  cfg.sndBuf = sim::DataSize::bytes(spec.bufBytes);
  cfg.rcvBuf = sim::DataSize::bytes(spec.bufBytes);
  cfg.pacing = spec.pacing;
  return cfg;
}

net::LinkParams toLinkParams(const LinkSpec& spec) {
  net::LinkParams params;
  params.rate = sim::DataRate::megabitsPerSecond(spec.rateMbps);
  params.delay = sim::Duration::microseconds(static_cast<std::int64_t>(spec.delayUs));
  params.mtu = sim::DataSize::bytes(spec.mtuBytes);
  return params;
}

/// Per-workload live state whose addresses must stay stable for the whole
/// cell: simulator callbacks capture pointers into these.
struct FlowSet {
  std::vector<net::FlowPtr> flows;
  bool connected = false;  ///< timed_flow: accepted; probe: established
};

/// Everything the spec materialized into; owns all objects that must
/// outlive the workloads (the topology itself lives in the Scenario).
struct Materialized {
  // Devices of interest (non-owning; the topology owns them).
  net::FirewallDevice* fw = nullptr;
  net::SwitchDevice* sw = nullptr;
  net::Host* src = nullptr;  ///< path
  net::Host* dst = nullptr;  ///< path
  net::Host* sink = nullptr;              ///< fanin
  std::vector<net::Host*> senders;        ///< fanin
  std::vector<net::Host*> edgeClients;    ///< enterprise edge
  std::vector<net::Host*> edgeServers;    ///< enterprise edge
  std::vector<net::Link*> links;          ///< path segments in connect order

  std::unique_ptr<net::IntrusionDetectionSystem> ids;
  std::unique_ptr<vc::BypassController> bypass;
  std::unique_ptr<core::Site> site;

  // Live workload objects.
  std::deque<FlowSet> flowSets;
  std::vector<std::unique_ptr<SteadyFlow>> steadyFlows;
  std::vector<std::unique_ptr<apps::ParallelTransfer>> parallelTransfers;
  std::vector<std::unique_ptr<dtn::DtnTransfer>> dtnTransfers;
  std::vector<std::unique_ptr<dtn::DtnCluster>> clusters;
  std::vector<std::unique_ptr<dtn::TransferCampaign>> campaigns;
  std::vector<std::unique_ptr<apps::BackgroundTraffic>> backgroundTraffic;
  std::vector<std::unique_ptr<vc::RoceTransfer>> roceTransfers;
};

[[noreturn]] void incompatible(const WorkloadSpec& w, const TopologySpec& t) {
  throw SpecError(std::string{"workload \""} + toString(w.kind) +
                  "\" cannot run on a \"" + toString(t.kind) + "\" topology");
}

void buildPath(const PathTopology& t, Scenario& s, Materialized& m) {
  auto& src = s.topo.addHost(t.src.name, net::Address::parse(t.src.ip));
  auto& dst = s.topo.addHost(t.dst.name, net::Address::parse(t.dst.ip));
  m.src = &src;
  m.dst = &dst;
  const auto link = toLinkParams(t.link);
  const auto link2 = t.link2 ? toLinkParams(*t.link2) : link;
  switch (t.middlebox) {
    case Middlebox::kNone:
      m.links.push_back(&s.topo.connect(src, dst, link));
      break;
    case Middlebox::kRouter: {
      auto& mid = s.topo.addRouter(t.midName);
      m.links.push_back(&s.topo.connect(src, mid, link));
      m.links.push_back(&s.topo.connect(mid, dst, link2));
      break;
    }
    case Middlebox::kSwitch: {
      net::SwitchProfile profile = t.switchProfile == SwitchProfileKind::kScienceDmz
                                       ? net::SwitchProfile::scienceDmz()
                                       : net::SwitchProfile{};
      if (t.egressBufferBytes > 0) profile.egressBuffer = sim::DataSize::bytes(t.egressBufferBytes);
      auto& mid = s.topo.addSwitch(t.midName, profile);
      m.sw = &mid;
      if (t.aclPermitAllDefaultDeny) {
        net::AclTable acl{net::AclAction::kDeny};
        net::AclRule permitAll;
        permitAll.action = net::AclAction::kPermit;
        acl.append(permitAll);
        mid.setAcl(acl);
      }
      m.links.push_back(&s.topo.connect(src, mid, link));
      m.links.push_back(&s.topo.connect(mid, dst, link2));
      break;
    }
    case Middlebox::kFirewall: {
      auto profile = net::FirewallProfile::enterprise10G();
      profile.tcpSequenceChecking = t.firewallSeqChecking;
      auto& mid = s.topo.addFirewall(t.midName, profile);
      m.fw = &mid;
      if (t.idsVettingPackets > 0) {
        m.ids = std::make_unique<net::IntrusionDetectionSystem>();
        m.ids->setVettingPacketCount(t.idsVettingPackets);
        m.bypass = std::make_unique<vc::BypassController>(mid, *m.ids);
      }
      m.links.push_back(&s.topo.connect(src, mid, link));
      m.links.push_back(&s.topo.connect(mid, dst, link2));
      break;
    }
  }
  for (const auto& loss : t.losses) {
    if (loss.segment < 0 || static_cast<std::size_t>(loss.segment) >= m.links.size()) {
      throw SpecError("loss segment " + std::to_string(loss.segment) +
                      " out of range for this path");
    }
    auto& wire = *m.links[static_cast<std::size_t>(loss.segment)];
    if (loss.kind == LossKind::kRandom) {
      wire.setLossModel(loss.direction,
                        std::make_unique<net::RandomLoss>(loss.rate, s.rng.fork(loss.rngFork)));
    } else {
      wire.setLossModel(loss.direction, std::make_unique<net::PeriodicLoss>(loss.period));
    }
  }
  s.topo.computeRoutes();
}

void buildFanin(const FaninTopology& t, Scenario& s, Materialized& m) {
  net::SwitchProfile profile = net::SwitchProfile::scienceDmz();
  profile.egressBuffer = sim::DataSize::bytes(t.egressBufferBytes);
  auto& sw = s.topo.addSwitch("agg", profile);
  m.sw = &sw;
  auto& sink = s.topo.addHost("sink", net::Address(10, 0, 0, 99));
  m.sink = &sink;
  s.topo.connect(sw, sink, toLinkParams(t.egressLink));
  const auto in = toLinkParams(t.senderLink);
  for (int i = 0; i < t.senders; ++i) {
    auto& h = s.topo.addHost("h" + std::to_string(i),
                             net::Address(10, 0, 1, static_cast<std::uint8_t>(i + 1)));
    s.topo.connect(h, sw, in);
    m.senders.push_back(&h);
  }
  s.topo.computeRoutes();
}

void buildEnterpriseEdge(const EnterpriseEdgeTopology& t, Scenario& s, Materialized& m) {
  auto& fw = s.topo.addFirewall("fw", net::FirewallProfile::enterprise10G());
  m.fw = &fw;
  auto& outside = s.topo.addSwitch("outside");
  auto& inside = s.topo.addSwitch("inside");
  const auto core = toLinkParams(t.coreLink);
  s.topo.connect(outside, fw, core);
  s.topo.connect(fw, inside, core);
  const auto edge = toLinkParams(t.edgeLink);
  for (int i = 0; i < t.pairs; ++i) {
    auto& c = s.topo.addHost("c" + std::to_string(i),
                             net::Address(198, 0, 1, static_cast<std::uint8_t>(i + 1)));
    s.topo.connect(c, outside, edge);
    m.edgeClients.push_back(&c);
    auto& v = s.topo.addHost("s" + std::to_string(i),
                             net::Address(10, 20, 1, static_cast<std::uint8_t>(i + 1)));
    s.topo.connect(v, inside, edge);
    m.edgeServers.push_back(&v);
  }
  s.topo.computeRoutes();
}

void buildSite(const SiteTopology& t, Scenario& s, Materialized& m) {
  core::SiteConfig config;
  config.wan.rate = sim::DataRate::megabitsPerSecond(t.wan.rateMbps);
  config.wan.delay = sim::Duration::microseconds(static_cast<std::int64_t>(t.wan.delayUs));
  config.wan.mtu = sim::DataSize::bytes(t.wan.mtuBytes);
  config.dtnCount = t.dtnCount;
  config.computeNodeCount = t.computeNodeCount;
  if (t.untunedHosts) {
    config.dtnProfile = dtn::DtnProfile::untunedGeneralPurpose();
    config.remoteProfile = dtn::DtnProfile::untunedGeneralPurpose();
  }
  if (t.remoteStorageReadMbps > 0) {
    config.remoteStorage.readRate = sim::DataRate::megabitsPerSecond(t.remoteStorageReadMbps);
  }
  if (t.remoteStoragePerStreamCapMbps > 0) {
    config.remoteStorage.perStreamCap =
        sim::DataRate::megabitsPerSecond(t.remoteStoragePerStreamCapMbps);
  }
  switch (t.design) {
    case SiteDesign::kGeneralPurpose: m.site = core::buildGeneralPurposeCampus(s.topo, config); break;
    case SiteDesign::kSimpleDmz: m.site = core::buildSimpleScienceDmz(s.topo, config); break;
    case SiteDesign::kSupercomputer: m.site = core::buildSupercomputerCenter(s.topo, config); break;
    case SiteDesign::kBigData: m.site = core::buildBigDataSite(s.topo, config); break;
  }
  m.fw = m.site->enterpriseFirewall;
  m.sw = m.site->dmzSwitch;
}

/// Device counters of interest, written as "<prefix>fw.…" / "<prefix>sw.…".
/// Called with prefix "" at end of cell and with "<label>." right after a
/// labeled workload completes.
void recordDeviceMetrics(const Materialized& m, ScenarioResult& r, const std::string& prefix) {
  if (m.fw != nullptr) {
    const auto& stats = m.fw->firewallStats();
    r.metrics[prefix + "fw.inspected"] = static_cast<double>(stats.inspected);
    r.metrics[prefix + "fw.drops_input_buffer"] = static_cast<double>(stats.dropsInputBuffer);
  }
  if (m.sw != nullptr) {
    r.metrics[prefix + "sw.drops_acl"] = static_cast<double>(m.sw->stats().dropsAcl);
    r.metrics[prefix + "sw.egress_drop_fraction"] =
        m.sw->interface(0).queue().stats().dropFraction();
  }
}

void runAnalysis(const ScenarioSpec& spec, Scenario& s, Materialized& m, ScenarioResult& r) {
  if (!spec.analysis.validate && !spec.analysis.assessPath) return;
  if (!m.site) throw SpecError("analysis passes require a \"site\" topology");
  if (spec.analysis.validate) {
    r.metrics["validate.criticals"] =
        static_cast<double>(core::validate(*m.site).criticalCount());
  }
  if (spec.analysis.assessPath) {
    core::PathAssumptions assumptions;
    assumptions.endpoint = m.site->primaryDtn()->profile().tcp;
    assumptions.windowScalingBroken = spec.analysis.windowScalingBroken;
    const auto assessment =
        core::assessPath(s.topo, m.site->remoteDtn->host().address(),
                         m.site->primaryDtn()->host().address(), assumptions);
    if (assessment) {
      r.metrics["path.crosses_firewall"] = assessment->crossesFirewall ? 1.0 : 0.0;
      r.metrics["path.predicted_bps"] =
          static_cast<double>(assessment->expectedThroughput.bps());
    }
  }
}

void runWorkload(const WorkloadSpec& w, const std::string& p, const ScenarioSpec& spec,
                 Scenario& s, Materialized& m, ScenarioResult& r) {
  const auto port = static_cast<std::uint16_t>(w.port);
  switch (w.kind) {
    case WorkloadKind::kSteadyFlow: {
      if (m.src == nullptr) incompatible(w, spec.topology);
      m.steadyFlows.push_back(
          std::make_unique<SteadyFlow>(s, *m.src, *m.dst, toTcpConfig(w.tcp), port, w.fidelity));
      auto& flow = *m.steadyFlows.back();
      const auto rate = flow.measure(sim::Duration::fromSeconds(w.warmupS),
                                     sim::Duration::fromSeconds(w.windowS));
      r.metrics[p + ".bps"] = static_cast<double>(rate.bps());
      r.metrics[p + ".established"] = flow.established() ? 1.0 : 0.0;
      break;
    }
    case WorkloadKind::kConvergingFlows: {
      if (m.sink == nullptr) incompatible(w, spec.topology);
      const auto cfg = toTcpConfig(w.tcp);
      m.flowSets.emplace_back();
      auto& set = m.flowSets.back();
      // Mixed-fidelity fan-in: the first `fluid_flows` senders run on the
      // analytic engine, the rest at the workload's base fidelity — the
      // bottleneck-sharing experiment in one knob.
      const std::size_t fluidCount =
          w.fluidFlows > 0
              ? std::min<std::size_t>(static_cast<std::size_t>(w.fluidFlows), m.senders.size())
              : 0;
      for (std::size_t i = 0; i < m.senders.size(); ++i) {
        net::FlowFactory::Options options;
        options.port = static_cast<std::uint16_t>(w.port + static_cast<int>(i));
        options.fidelity = i < fluidCount ? net::FlowFidelity::kFluid : w.fidelity;
        auto flow = net::flowFactory(s.ctx).create(*m.senders[i], *m.sink, cfg, options);
        auto* raw = flow.get();
        flow->onEstablished = [raw] { raw->sendData(sim::DataSize::terabytes(1)); };
        flow->start();
        set.flows.push_back(std::move(flow));
      }
      s.runFor(sim::Duration::fromSeconds(w.warmupS));
      std::vector<sim::DataSize> base(set.flows.size(), sim::DataSize::zero());
      for (std::size_t i = 0; i < set.flows.size(); ++i) base[i] = set.flows[i]->deliveredBytes();
      s.runFor(sim::Duration::fromSeconds(w.windowS));
      sim::DataSize packetDelta = sim::DataSize::zero();
      sim::DataSize fluidDelta = sim::DataSize::zero();
      for (std::size_t i = 0; i < set.flows.size(); ++i) {
        const auto delta = set.flows[i]->deliveredBytes() - base[i];
        if (set.flows[i]->fidelity() == net::FlowFidelity::kFluid) {
          fluidDelta += delta;
        } else {
          packetDelta += delta;
        }
      }
      r.metrics[p + ".delta_bits"] = static_cast<double>((packetDelta + fluidDelta).bitCount());
      if (fluidCount > 0) {
        r.metrics[p + ".packet_bits"] = static_cast<double>(packetDelta.bitCount());
        r.metrics[p + ".fluid_bits"] = static_cast<double>(fluidDelta.bitCount());
      }
      break;
    }
    case WorkloadKind::kTimedFlow: {
      if (m.src == nullptr) incompatible(w, spec.topology);
      const auto cfg = toTcpConfig(w.tcp);
      m.flowSets.emplace_back();
      auto& set = m.flowSets.back();
      net::FlowFactory::Options options;
      options.port = port;
      options.fidelity = w.fidelity;
      // Create through the src host's context: under sharding the flow's
      // client side (timers, arena blocks) must live in src's domain.
      auto flow = net::flowFactory(m.src->ctx()).create(*m.src, *m.dst, cfg, options);
      auto* raw = flow.get();
      auto* flags = &set;
      flow->onAccepted = [flags](int) { flags->connected = true; };
      flow->onEstablished = [raw] { raw->sendData(sim::DataSize::terabytes(1)); };
      flow->start();
      s.runFor(sim::Duration::fromSeconds(w.runS));
      r.metrics[p + ".delivered_bits"] = static_cast<double>(flow->deliveredBytes().bitCount());
      r.metrics[p + ".established"] = set.connected ? 1.0 : 0.0;
      r.metrics[p + ".retx"] = static_cast<double>(flow->retransmits());
      set.flows.push_back(std::move(flow));
      break;
    }
    case WorkloadKind::kParallelTransfer: {
      if (m.src == nullptr) incompatible(w, spec.topology);
      m.parallelTransfers.push_back(std::make_unique<apps::ParallelTransfer>(
          *m.src, *m.dst, port, sim::DataSize::bytes(w.bytes), w.streams, toTcpConfig(w.tcp),
          w.fidelity));
      auto& transfer = *m.parallelTransfers.back();
      transfer.start();
      s.runFor(sim::Duration::fromSeconds(w.timeoutS));
      r.metrics[p + ".finished"] = transfer.finished() ? 1.0 : 0.0;
      r.metrics[p + ".elapsed_s"] = transfer.elapsed().toSeconds();
      break;
    }
    case WorkloadKind::kDtnTransfer: {
      if (!m.site || m.site->remoteDtn == nullptr || m.site->primaryDtn() == nullptr) {
        incompatible(w, spec.topology);
      }
      m.dtnTransfers.push_back(std::make_unique<dtn::DtnTransfer>(
          *m.site->remoteDtn, *m.site->primaryDtn(), w.file, sim::DataSize::bytes(w.bytes), port));
      auto& transfer = *m.dtnTransfers.back();
      transfer.start();
      s.runFor(sim::Duration::fromSeconds(w.timeoutS));
      r.metrics[p + ".completed"] = transfer.finished() ? 1.0 : 0.0;
      r.metrics[p + ".bps"] =
          transfer.finished() ? static_cast<double>(transfer.result().averageRate.bps()) : 0.0;
      break;
    }
    case WorkloadKind::kCampaign: {
      if (!m.site || m.site->remoteDtn == nullptr || m.site->dtns.empty()) {
        incompatible(w, spec.topology);
      }
      m.clusters.push_back(std::make_unique<dtn::DtnCluster>(w.srcCluster));
      auto& remote = *m.clusters.back();
      remote.addNode(*m.site->remoteDtn);
      m.clusters.push_back(std::make_unique<dtn::DtnCluster>(w.dstCluster));
      auto& pool = *m.clusters.back();
      for (auto* node : m.site->dtns) pool.addNode(*node);
      m.campaigns.push_back(std::make_unique<dtn::TransferCampaign>(remote, pool, port));
      auto& campaign = *m.campaigns.back();
      for (int i = 0; i < w.files; ++i) {
        campaign.enqueue({w.filePrefix + std::to_string(i) + w.fileSuffix,
                          sim::DataSize::bytes(w.fileSizeBytes)});
      }
      auto* result = &r;
      const auto prefix = p;
      campaign.onComplete = [result, prefix](const dtn::TransferCampaign::Report& report) {
        result->metrics[prefix + ".completed"] = 1.0;
        result->metrics[prefix + ".aggregate_bps"] =
            static_cast<double>(report.aggregateRate().bps());
        result->metrics[prefix + ".elapsed_s"] = report.elapsed.toSeconds();
      };
      campaign.start();
      s.runFor(sim::Duration::fromSeconds(w.timeoutS));
      if (!r.has(p + ".completed")) r.metrics[p + ".completed"] = 0.0;
      r.metrics[p + ".files_done"] = static_cast<double>(campaign.report().filesDone);
      if (m.site->parallelFs != nullptr) {
        std::size_t visible = 0;
        for (int i = 0; i < w.files; ++i) {
          if (m.site->parallelFs->available(w.filePrefix + std::to_string(i) + w.fileSuffix,
                                            s.simulator.now())) {
            ++visible;
          }
        }
        r.metrics[p + ".files_visible"] = static_cast<double>(visible);
      }
      campaign.onComplete = nullptr;
      break;
    }
    case WorkloadKind::kProbe: {
      if (!m.site || m.site->remoteDtn == nullptr || m.site->primaryDtn() == nullptr) {
        incompatible(w, spec.topology);
      }
      const auto cfg = toTcpConfig(w.tcp);
      m.flowSets.emplace_back();
      auto& set = m.flowSets.back();
      net::FlowFactory::Options options;
      options.port = port;
      options.fidelity = w.fidelity;
      auto flow = net::flowFactory(s.ctx).create(m.site->remoteDtn->host(),
                                                 m.site->primaryDtn()->host(), cfg, options);
      auto* flags = &set;
      flow->onEstablished = [flags] { flags->connected = true; };
      flow->start();
      set.flows.push_back(std::move(flow));
      s.runFor(sim::Duration::fromSeconds(w.runS));
      r.metrics[p + ".connected"] = set.connected ? 1.0 : 0.0;
      break;
    }
    case WorkloadKind::kRoce: {
      if (m.src == nullptr) incompatible(w, spec.topology);
      vc::RoceTransfer::Options options;
      options.rate = sim::DataRate::gigabitsPerSecond(w.rateGbps);
      m.roceTransfers.push_back(std::make_unique<vc::RoceTransfer>(
          *m.src, *m.dst, sim::DataSize::bytes(w.bytes), options));
      auto& transfer = *m.roceTransfers.back();
      transfer.start();
      s.runFor(sim::Duration::fromSeconds(w.timeoutS));
      r.metrics[p + ".completed"] = transfer.result().completed ? 1.0 : 0.0;
      r.metrics[p + ".goodput_bps"] = static_cast<double>(transfer.result().goodput.bps());
      r.metrics[p + ".cpu_units"] = transfer.result().cpuUnits;
      r.metrics[p + ".wasted_bytes"] =
          static_cast<double>(transfer.result().bytesWasted.byteCount());
      break;
    }
    case WorkloadKind::kBackground: {
      if (m.edgeClients.empty()) incompatible(w, spec.topology);
      apps::BackgroundProfile profile;
      profile.flowsPerSecond = w.flowsPerSecond;
      profile.fidelity = w.fidelity;
      m.backgroundTraffic.push_back(std::make_unique<apps::BackgroundTraffic>(
          s.ctx, m.edgeClients, m.edgeServers, port, profile, s.rng.fork(w.rngFork)));
      auto& traffic = *m.backgroundTraffic.back();
      traffic.start();
      s.runFor(sim::Duration::fromSeconds(w.runS));
      traffic.stop();
      s.runFor(sim::Duration::fromSeconds(w.drainS));
      r.metrics[p + ".flows_started"] = static_cast<double>(traffic.stats().flowsStarted);
      break;
    }
  }
  if (!w.label.empty()) recordDeviceMetrics(m, r, w.label + ".");
}

/// Section 6 use cases drive their own simulation (src/usecase/*); map the
/// result structs onto metrics. The sweep cell keeps its defaults — the
/// use-case runner owns its simulator, so there is no event count to report.
ScenarioResult runUsecase(const UsecaseTopology& u) {
  ScenarioResult r;
  switch (u.which) {
    case UsecaseKind::kColorado: {
      usecase::ColoradoConfig config;
      config.physicsHosts = u.physicsHosts;
      config.vendorFixApplied = u.vendorFix;
      const auto result = usecase::runColorado(config);
      r.metrics["colorado.worst_mbps"] = result.worstHostMbps();
      r.metrics["colorado.aggregate_mbps"] = result.aggregateMbps;
      r.metrics["colorado.latched"] = result.storeForwardLatched ? 1.0 : 0.0;
      r.metrics["colorado.switch_drops"] = static_cast<double>(result.switchDrops);
      break;
    }
    case UsecaseKind::kPennState: {
      const auto result = usecase::runPennState(usecase::PennStateConfig{});
      r.metrics["pennstate.in_before_mbps"] = result.inboundBefore.mbps;
      r.metrics["pennstate.in_before_peak_window"] =
          static_cast<double>(result.inboundBefore.peakWindowBytes);
      r.metrics["pennstate.out_before_mbps"] = result.outboundBefore.mbps;
      r.metrics["pennstate.out_before_peak_window"] =
          static_cast<double>(result.outboundBefore.peakWindowBytes);
      r.metrics["pennstate.in_after_mbps"] = result.inboundAfter.mbps;
      r.metrics["pennstate.in_after_peak_window"] =
          static_cast<double>(result.inboundAfter.peakWindowBytes);
      r.metrics["pennstate.out_after_mbps"] = result.outboundAfter.mbps;
      r.metrics["pennstate.out_after_peak_window"] =
          static_cast<double>(result.outboundAfter.peakWindowBytes);
      break;
    }
    case UsecaseKind::kNoaa: {
      const auto result = usecase::runNoaa();
      r.metrics["noaa.legacy_MBps"] = result.legacyMBps;
      r.metrics["noaa.dmz_MBps"] = result.dmzMBps;
      r.metrics["noaa.batch_s"] = result.dmzBatchTime.toSeconds();
      r.metrics["noaa.files_moved"] = static_cast<double>(result.filesMoved);
      break;
    }
    case UsecaseKind::kNerscOlcf: {
      const auto result = usecase::runNerscOlcf();
      r.metrics["nersc.before_MBps"] = result.beforeMBps;
      r.metrics["nersc.after_MBps"] = result.afterMBps;
      r.metrics["nersc.file_before_s"] = result.fileTimeBefore.toSeconds();
      r.metrics["nersc.file_after_s"] = result.fileTimeAfter.toSeconds();
      r.metrics["nersc.campaign_after_s"] = result.campaignTimeAfter.toSeconds();
      break;
    }
  }
  return r;
}

/// The sharding gate, checked before anything runs. Sharded execution
/// covers the conservative subset the determinism contract holds for: path
/// topologies with pure packet-TCP flow workloads. Everything else is
/// refused loudly, never degraded.
void requireShardable(const ScenarioSpec& spec, int domains) {
  if (spec.topology.kind != TopologyKind::kPath) {
    throw SpecError("sharded execution (domains=" + std::to_string(domains) +
                    ") supports \"path\" topologies only, not \"" +
                    toString(spec.topology.kind) + "\"");
  }
  for (const auto& w : spec.workloads) {
    if (w.kind != WorkloadKind::kSteadyFlow && w.kind != WorkloadKind::kTimedFlow) {
      throw SpecError(std::string{"workload \""} + toString(w.kind) +
                      "\" cannot run sharded (only steady_flow and timed_flow)");
    }
    if (w.fidelity != net::FlowFidelity::kPacket) {
      throw SpecError("sharded execution requires packet fidelity: the fluid "
                      "engine's rate solve is global");
    }
  }
}

/// Arm the scenario with the path's shard plan before any topology
/// construction.
void attachPathShards(const ScenarioSpec& spec, int domains, Scenario& s) {
  const sim::Duration floor =
      spec.lookaheadUs > 0
          ? sim::Duration::microseconds(static_cast<std::int64_t>(spec.lookaheadUs))
          : sim::Duration::milliseconds(1);
  const PathTopology& t = spec.topology.path;
  ShardPlanBuilder b;
  b.addNode(t.src.name);
  if (t.middlebox != Middlebox::kNone) {
    b.addNode(t.midName);
    b.addNode(t.dst.name);
    b.addEdge(t.src.name, t.midName, toLinkParams(t.link).delay);
    b.addEdge(t.midName, t.dst.name, toLinkParams(t.link2 ? *t.link2 : t.link).delay);
  } else {
    b.addNode(t.dst.name);
    b.addEdge(t.src.name, t.dst.name, toLinkParams(t.link).delay);
  }
  attachShards(s, b.plan(domains, floor), spec.seed, floor);
}

}  // namespace

ScenarioResult runSpec(const ScenarioSpec& spec, sim::SweepCell& cell) {
  const int domains = sim::runConfig().domains.value_or(spec.domains);
  if (domains > 0) requireShardable(spec, domains);
  if (spec.topology.kind == TopologyKind::kUsecase) {
    return runUsecase(spec.topology.usecase);
  }

  Scenario s(spec.seed);
  if (spec.telemetry) s.ctx.telemetry().enable();
  if (domains > 0) attachPathShards(spec, domains, s);

  Materialized m;
  switch (spec.topology.kind) {
    case TopologyKind::kPath: buildPath(spec.topology.path, s, m); break;
    case TopologyKind::kFanin: buildFanin(spec.topology.fanin, s, m); break;
    case TopologyKind::kEnterpriseEdge: buildEnterpriseEdge(spec.topology.edge, s, m); break;
    case TopologyKind::kSite: buildSite(spec.topology.site, s, m); break;
    case TopologyKind::kUsecase: break;  // handled above
  }

  ScenarioResult r;
  runAnalysis(spec, s, m, r);
  for (std::size_t i = 0; i < spec.workloads.size(); ++i) {
    const auto& w = spec.workloads[i];
    const std::string p = w.label.empty() ? "w" + std::to_string(i) : w.label;
    runWorkload(w, p, spec, s, m, r);
  }

  recordDeviceMetrics(m, r, "");
  for (std::size_t k = 0; k < m.links.size(); ++k) {
    const auto stats = m.links[k]->stats(0);
    r.metrics["seg" + std::to_string(k) + ".delivered"] = static_cast<double>(stats.delivered);
    r.metrics["seg" + std::to_string(k) + ".lost"] = static_cast<double>(stats.lost);
  }
  finishCell(s, cell);
  return r;
}

}  // namespace scidmz::scenario
