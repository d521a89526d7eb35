#include "scenario/esnet_scale.hpp"

#include <string>
#include <vector>

#include "net/flow.hpp"
#include "net/topology.hpp"
#include "scenario/harness.hpp"
#include "scenario/partition.hpp"
#include "scenario/shard.hpp"
#include "scenario/spec.hpp"
#include "tcp/connection.hpp"

namespace scidmz::scenario {

using namespace scidmz::sim::literals;

namespace {

std::string routerName(int site) { return "r" + std::to_string(site); }

std::string hostName(int site, int host) {
  return "s" + std::to_string(site) + "h" + std::to_string(host);
}

/// WAN delay for ring segment r<i> -> r<i+1 mod K>: 10/12/14 ms cycling,
/// so the stitch points exercise unequal delay/lookahead ratios while the
/// per-site slow-start ramps stay close enough that transit load balances
/// across domains. Every value stays >= the 5 ms default floor.
sim::Duration wanDelay(int segment) {
  constexpr std::int64_t kPattern[] = {10, 12, 14, 12};
  return sim::Duration::milliseconds(kPattern[segment % 4]);
}

constexpr sim::Duration kLanDelay = sim::Duration::microseconds(10);

}  // namespace

EsnetScaleResult runEsnetScale(const EsnetScaleConfig& cfg, sim::SweepCell& cell) {
  if (cfg.sites < 2 || cfg.sites > 250) {
    throw SpecError("esnet_scale: sites must be in [2, 250]");
  }
  if (cfg.hostsPerSite < 1 || cfg.hostsPerSite > 250 * 250) {
    throw SpecError("esnet_scale: hosts_per_site must be in [1, 62500]");
  }
  if (cfg.flowsPerHost < 1 || cfg.flowsPerHost > 1000) {
    throw SpecError("esnet_scale: flows_per_host must be in [1, 1000]");
  }
  if (cfg.domains < 1) throw SpecError("esnet_scale: domains must be >= 1");

  Scenario s{cfg.seed};

  // Mirror the topology (same names, same delays) into the partitioner:
  // LAN edges contract, WAN ring edges are the only cut points, and the
  // first-mention atom order — site 0, site 1, ... — makes the domain
  // assignment deterministic.
  ShardPlanBuilder builder;
  for (int i = 0; i < cfg.sites; ++i) {
    builder.addNode(routerName(i));
    for (int j = 0; j < cfg.hostsPerSite; ++j) {
      builder.addNode(hostName(i, j));
      builder.addEdge(routerName(i), hostName(i, j), kLanDelay);
    }
  }
  for (int i = 0; i < cfg.sites; ++i) {
    builder.addEdge(routerName(i), routerName((i + 1) % cfg.sites), wanDelay(i));
  }
  attachShards(s, builder.plan(cfg.domains, cfg.lookahead), cfg.seed, cfg.lookahead);

  std::vector<net::RouterDevice*> routers;
  std::vector<std::vector<net::Host*>> hosts(static_cast<std::size_t>(cfg.sites));
  for (int i = 0; i < cfg.sites; ++i) {
    routers.push_back(&s.topo.addRouter(routerName(i)));
    net::LinkParams lan;
    lan.rate = cfg.hostRate;
    lan.delay = kLanDelay;
    lan.mtu = 9000_B;
    for (int j = 0; j < cfg.hostsPerSite; ++j) {
      auto& host = s.topo.addHost(
          hostName(i, j), net::Address(10, static_cast<std::uint8_t>(i),
                                       static_cast<std::uint8_t>(j / 250),
                                       static_cast<std::uint8_t>(j % 250 + 1)));
      s.topo.connect(host, *routers.back(), lan);
      hosts[static_cast<std::size_t>(i)].push_back(&host);
    }
  }
  for (int i = 0; i < cfg.sites; ++i) {
    net::LinkParams wan;
    wan.rate = cfg.wanRate;
    wan.delay = wanDelay(i);
    wan.mtu = 9000_B;
    s.topo.connect(*routers[static_cast<std::size_t>(i)],
                   *routers[static_cast<std::size_t>((i + 1) % cfg.sites)], wan);
  }
  s.topo.computeRoutes();

  // Every host streams to its peer one site clockwise: one WAN hop per
  // flow, transit load identical on every ring segment. The server port is
  // unique per (src, dst, stream) triple, so merged span exports stay
  // unambiguous.
  tcp::TcpConfig tcp;
  tcp.algorithm = tcp::CcAlgorithm::kHtcp;
  tcp.sndBuf = sim::DataSize::mebibytes(32);
  tcp.rcvBuf = sim::DataSize::mebibytes(32);

  std::vector<net::FlowPtr> flows;
  flows.reserve(static_cast<std::size_t>(cfg.sites) *
                static_cast<std::size_t>(cfg.hostsPerSite) *
                static_cast<std::size_t>(cfg.flowsPerHost));
  for (int i = 0; i < cfg.sites; ++i) {
    for (int j = 0; j < cfg.hostsPerSite; ++j) {
      net::Host& src = *hosts[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)];
      net::Host& dst =
          *hosts[static_cast<std::size_t>((i + 1) % cfg.sites)][static_cast<std::size_t>(j)];
      for (int f = 0; f < cfg.flowsPerHost; ++f) {
        net::FlowFactory::Options options;
        options.port = static_cast<std::uint16_t>(5001 + f);
        options.fidelity = net::FlowFidelity::kPacket;
        auto flow = net::flowFactory(src.ctx()).create(src, dst, tcp, options);
        auto* raw = flow.get();
        flow->onEstablished = [raw] { raw->sendData(sim::DataSize::terabytes(1)); };
        flow->start();
        flows.push_back(std::move(flow));
      }
    }
  }

  s.runFor(cfg.runDuration);

  EsnetScaleResult result;
  result.deliveredBySite.assign(static_cast<std::size_t>(cfg.sites), 0);
  result.flows = flows.size();
  std::size_t k = 0;
  for (int i = 0; i < cfg.sites; ++i) {
    const auto dstSite = static_cast<std::size_t>((i + 1) % cfg.sites);
    for (int j = 0; j < cfg.hostsPerSite; ++j) {
      for (int f = 0; f < cfg.flowsPerHost; ++f) {
        result.deliveredBySite[dstSite] +=
            static_cast<unsigned long long>(flows[k++]->deliveredBytes().byteCount());
      }
    }
  }
  finishCell(s, cell);
  return result;
}

}  // namespace scidmz::scenario
