#include "scenario/shard.hpp"

#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "net/flow.hpp"
#include "net/topology.hpp"
#include "scenario/harness.hpp"
#include "scenario/spec.hpp"
#include "sim/run_config.hpp"
#include "telemetry/snapshot.hpp"

namespace scidmz::scenario {

Scenario::Scenario(std::uint64_t seed)
    : rng(seed), shards(std::make_shared<ShardRuntime>(*this, 1, seed, sim::Duration::max())) {
  if (sim::runConfig().profile) simulator.setProfiler(&profiler);
}

ShardRuntime::ShardRuntime(Scenario& s, int domains, std::uint64_t seed, sim::Duration lookahead) {
  contexts.push_back(&s.ctx);
  std::vector<sim::Simulator*> sims{&s.simulator};
  for (int d = 1; d < domains; ++d) {
    extras.push_back(std::make_unique<DomainRuntime>(seed));
    contexts.push_back(&extras.back()->ctx);
    sims.push_back(&extras.back()->simulator);
  }
  sharded = std::make_unique<sim::ShardedSimulator>(std::move(sims), lookahead);
}

void attachShards(Scenario& s, const ShardPlan& plan, std::uint64_t seed,
                  sim::Duration lookaheadFloor) {
  if (s.topo.sharded()) {
    throw std::runtime_error("attachShards: scenario already sharded");
  }
  if (s.simulator.profiler() != nullptr) {
    throw SpecError("--profile does not compose with --domains: the self-profiler "
                    "instruments one event queue; profile the unsharded run");
  }
  if (net::processFidelityOverride() == net::FlowFidelity::kFluid) {
    throw SpecError("--fidelity=fluid does not compose with --domains: the fluid "
                    "engine's rate solve is global");
  }
  if (plan.domains < 1) {
    throw std::runtime_error("attachShards: plan has no domains");
  }
  auto runtime = std::make_shared<ShardRuntime>(s, plan.domains, seed, lookaheadFloor);
  net::ShardConfig config;
  config.domains = runtime->contexts;
  config.deviceDomain = plan.nodeDomain;
  config.lookaheadFloor = lookaheadFloor;
  config.sharded = runtime->sharded.get();
  s.topo.configureShards(std::move(config));  // throws once a device exists
  s.shards = std::move(runtime);

  // Per-domain hubs follow the primary's instrumentation decision (made by
  // the engine / SCIDMZ_TELEMETRY before shards attach) so every domain's
  // emit points are live and the merged snapshot covers the whole topology.
  if (s.ctx.telemetry().enabled()) {
    for (auto& extra : s.shards->extras) {
      extra->ctx.telemetry().enable(s.ctx.telemetry().config());
    }
  }

  // The fluid engine's rate solve reads link state across the whole
  // topology from one thread; pin every domain to per-packet TCP so no
  // cross-domain state is touched off the owning worker.
  for (net::Context* ctx : s.shards->contexts) {
    net::flowFactory(*ctx).setOverride(net::FlowFidelity::kPacket);
  }
}

void refuseDomains(const std::string& what) {
  if (const std::optional<int> domains = sim::runConfig().domains) {
    throw SpecError("--domains=" + std::to_string(*domains) + " does not apply to " + what +
                    ": it builds no shard plan");
  }
}

void Scenario::runFor(sim::Duration d) { shards->sharded->runFor(d); }

namespace {

/// Deterministic union of per-domain telemetry snapshots: counters summed
/// by name (the same emit point may fire in several domains — e.g. pool
/// counters), gauges and series unioned by name (device-scoped names are
/// unique to one domain; first mention wins), flight accounting summed.
/// std::map keying makes the merged vectors name-sorted, matching what a
/// single-domain hub's snapshot() emits.
telemetry::TelemetrySnapshot mergeSnapshots(const std::vector<net::Context*>& contexts) {
  using Snapshot = telemetry::TelemetrySnapshot;
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, Snapshot::SeriesSummary> series;
  Snapshot merged;
  for (net::Context* ctx : contexts) {
    const Snapshot part = ctx->telemetry().snapshot();
    for (const auto& c : part.counters) counters[c.name] += c.value;
    for (const auto& g : part.gauges) gauges.try_emplace(g.name, g.value);
    for (const auto& ss : part.series) series.try_emplace(ss.name, ss);
    merged.flightEventsRecorded += part.flightEventsRecorded;
    merged.flightEventsRetained += part.flightEventsRetained;
    merged.flightEventsOverwritten += part.flightEventsOverwritten;
  }
  merged.counters.reserve(counters.size());
  for (const auto& [name, value] : counters) merged.counters.push_back({name, value});
  merged.gauges.reserve(gauges.size());
  for (const auto& [name, value] : gauges) merged.gauges.push_back({name, value});
  merged.series.reserve(series.size());
  for (const auto& [name, summary] : series) merged.series.push_back(summary);
  return merged;
}

}  // namespace

void finishCell(Scenario& s, sim::SweepCell& cell) {
  const ShardRuntime& shards = *s.shards;
  cell.domains = static_cast<std::uint32_t>(shards.contexts.size());
  cell.eventsExecuted = shards.sharded->eventsExecuted();
  cell.domainEvents.clear();
  cell.packetsForwarded = 0;
  cell.flowsCreated = 0;
  for (std::size_t d = 0; d < shards.contexts.size(); ++d) {
    cell.domainEvents.push_back(shards.sharded->domainEvents(static_cast<int>(d)));
    cell.packetsForwarded += shards.contexts[d]->packetsForwarded();
    cell.flowsCreated += net::flowFactory(*shards.contexts[d]).flowsCreated();
  }
  if (s.ctx.telemetry().enabled()) {
    cell.telemetryJson = mergeSnapshots(shards.contexts).toJson();
  }
  writeCellObservability(s, cell);
}

}  // namespace scidmz::scenario
