#include <algorithm>
#include <cstdio>
#include <cstring>

#include "bench.hpp"
#include "net/firewall.hpp"
#include "net/flow.hpp"
#include "net/topology.hpp"
#include "scenario/harness.hpp"
#include "scenario/shard.hpp"
#include "sim/profiler.hpp"
#include "tcp/connection.hpp"
#include "tcp/fluid.hpp"

namespace perfbench {

void Digest::add(std::string_view bytes) {
  for (const char c : bytes) {
    h_ ^= static_cast<unsigned char>(c);
    h_ *= 0x100000001b3ull;
  }
  // Length terminator so ("ab","c") and ("a","bc") differ.
  add(static_cast<std::uint64_t>(bytes.size()));
}

void Digest::add(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xffu;
    h_ *= 0x100000001b3ull;
  }
}

void Digest::add(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  add(bits);
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

void Counters::add(const Counters& o) {
  events += o.events;
  packetsForwarded += o.packetsForwarded;
  poolHighWater = std::max(poolHighWater, o.poolHighWater);
  drops += o.drops;
  retransmits += o.retransmits;
  rtos += o.rtos;
  segmentsSent += o.segmentsSent;
  flowsCreated += o.flowsCreated;
  fluidFlowsCreated += o.fluidFlowsCreated;
  fluidFlowsCompleted += o.fluidFlowsCompleted;
  backgroundCompleted += o.backgroundCompleted;
  perfsonarSeries += o.perfsonarSeries;
  perfsonarAlerts += o.perfsonarAlerts;
  flightEvents += o.flightEvents;
}

void ProfileStats::read(const scidmz::sim::Profiler& p) {
  events = p.eventsProfiled();
  daemonEvents = 0;
  for (const auto& [name, stats] : p.sources()) {
    // The telemetry tick is a daemon event that names itself.
    if (name == "daemon" || name == "telemetry.tick") daemonEvents += stats.count;
    if (name == "fluid.tick") fluidTickS = static_cast<double>(stats.totalHostNs) * 1e-9;
    if (name == "telemetry.tick") telemetryTickS = static_cast<double>(stats.totalHostNs) * 1e-9;
  }
  maxPending = p.maxPending();
  maxParked = p.maxParked();
}

void ProfileStats::add(const ProfileStats& o) {
  events += o.events;
  daemonEvents += o.daemonEvents;
  maxPending = std::max(maxPending, o.maxPending);
  maxParked = std::max(maxParked, o.maxParked);
  fluidTickS += o.fluidTickS;
  telemetryTickS += o.telemetryTickS;
}

std::uint64_t mixSeed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (salt + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::uint64_t topologyDrops(const scidmz::net::Topology& topo) {
  std::uint64_t drops = 0;
  for (const auto& device : topo.devices()) {
    const auto& st = device->stats();
    drops += st.dropsNoRoute + st.dropsTtl + st.dropsAcl + st.dropsOther;
    for (std::size_t i = 0; i < device->interfaceCount(); ++i) {
      drops += device->interface(i).queue().stats().dropped;
    }
    if (const auto* fw = dynamic_cast<const scidmz::net::FirewallDevice*>(device.get())) {
      const auto& fs = fw->firewallStats();
      drops += fs.dropsInputBuffer + fs.dropsPolicy + fs.dropsSessionTable;
    }
  }
  for (const auto& link : topo.links()) drops += link->stats(0).lost + link->stats(1).lost;
  return drops;
}

void recordFlow(scidmz::net::FlowHandle& flow, Counters& c, Digest& d) {
  c.retransmits += flow.retransmits();
  d.add(static_cast<std::uint64_t>(flow.established()));
  d.add(flow.deliveredBytes().byteCount());
  d.add(flow.ackedBytes().byteCount());
  d.add(flow.retransmits());
  for (int i = 0; i < flow.streamCount(); ++i) {
    if (const auto* conn = flow.clientConnection(i)) {
      const auto& st = conn->stats();
      c.rtos += st.rtos;
      c.segmentsSent += st.dataSegmentsSent;
      d.add(st.dataSegmentsSent);
      d.add(st.rtos);
      d.add(st.fastRetransmits);
    }
  }
}

void recordScenario(scidmz::scenario::Scenario& s, Counters& c, Digest& d) {
  std::vector<scidmz::net::Context*> contexts{&s.ctx};
  if (s.shards != nullptr) contexts = s.shards->contexts;
  c.events += s.shards != nullptr ? s.shards->sharded->eventsExecuted()
                                  : s.simulator.eventsExecuted();
  for (scidmz::net::Context* ctx : contexts) {
    auto& factory = scidmz::net::flowFactory(*ctx);
    c.packetsForwarded += ctx->packetsForwarded();
    c.poolHighWater = std::max<std::uint64_t>(c.poolHighWater, ctx->pool().highWater());
    c.flowsCreated += factory.flowsCreated();
    c.fluidFlowsCreated += factory.fluidFlowsCreated();
    if (factory.fluidFlowsCreated() > 0) {
      c.fluidFlowsCompleted += ctx->extension<scidmz::tcp::FluidEngine>().flowsCompleted();
    }
  }
  c.drops += topologyDrops(s.topo);
  d.add(c.events);
  d.add(c.packetsForwarded);
  d.add(c.poolHighWater);
  d.add(c.drops);
  d.add(c.flowsCreated);
  d.add(c.fluidFlowsCreated);
  d.add(c.fluidFlowsCompleted);
  d.add(static_cast<std::uint64_t>(s.ctx.now().ns()));
}

const std::vector<std::string>& workloadNames() {
  static const std::vector<std::string> names{"bulk_packet", "perfsonar_mesh", "hybrid_crowd",
                                              "wan_sharded"};
  return names;
}

std::unique_ptr<Workload> makeWorkload(const std::string& name, std::uint64_t seed) {
  if (name == "bulk_packet") return makeBulkPacket(seed);
  if (name == "perfsonar_mesh") return makePerfsonarMesh(seed);
  if (name == "hybrid_crowd") return makeHybridCrowd(seed);
  if (name == "wan_sharded") return makeWanSharded(seed);
  return nullptr;
}

}  // namespace perfbench
