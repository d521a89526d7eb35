// The execution runtime of a Scenario: a list of domains, each a
// simulator/rng/logger/context bundle, driven by one ShardedSimulator.
// Every Scenario owns one from construction: a single domain (the
// Scenario's own simulator and ctx) with no channels, which runs exactly
// the events of a plain Simulator. attachShards() replaces it, before
// topology construction, with a shard plan's domains and the channels its
// cut-eligible links route through. The scenario code itself is the same
// either way — it builds devices through the Topology factories and
// advances time through Scenario::runFor().
//
// Why cells without a plan have no cuts: a channel delivery takes a
// reserved sequence key that changes same-time tie-breaks, and the
// committed goldens and benchmark digests pin the unsharded event order.
//
// Determinism contract for planned cells: tables, merged telemetry
// snapshots and merged span exports are byte-identical at any --domains,
// because (a) every cut-eligible link routes deliveries through
// reserved-sequence channels at every domain count, (b) per-domain RNGs
// only ever produce values that never surface in compared artifacts
// (ephemeral ports), and (c) merges are keyed on names/timestamps, never
// on domain index.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/context.hpp"
#include "scenario/partition.hpp"
#include "sim/domain.hpp"
#include "sim/log.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "sim/units.hpp"

namespace scidmz::scenario {

struct Scenario;

/// One extra domain's private runtime (domain 0 reuses the Scenario's own
/// members). Same seed as the scenario: RNG streams are per-context, and
/// nothing a context RNG produces surfaces in compared artifacts.
struct DomainRuntime {
  explicit DomainRuntime(std::uint64_t seed) : rng(seed) {}

  sim::Simulator simulator;
  sim::Rng rng;
  sim::Logger logger;
  net::Context ctx{simulator, rng, logger};
};

struct ShardRuntime {
  /// `domains` domains over `s`'s simulator and ctx plus domains-1 extras.
  /// The lookahead only bounds epochs once channels exist.
  ShardRuntime(Scenario& s, int domains, std::uint64_t seed, sim::Duration lookahead);

  std::vector<std::unique_ptr<DomainRuntime>> extras;  ///< domains 1..N-1
  std::vector<net::Context*> contexts;                 ///< [0] = scenario ctx
  std::unique_ptr<sim::ShardedSimulator> sharded;
};

/// Replace `s`'s default runtime with the domains of `plan` (from
/// ShardPlanBuilder or a hand-written map) and route its cut-eligible
/// links through channels. Must run before any topology construction.
/// Throws SpecError for an armed profiler (its counters are single-queue by
/// construction) or a --fidelity=fluid override (the fluid engine's rate
/// solve is global), std::invalid_argument for a non-positive lookahead
/// (no conservative window), and std::runtime_error once the topology has
/// devices or a plan is already attached. Per-domain telemetry hubs follow
/// the primary hub's enabled state, and every domain's FlowFactory is
/// pinned to packet fidelity.
void attachShards(Scenario& s, const ShardPlan& plan, std::uint64_t seed,
                  sim::Duration lookaheadFloor);

/// Throw SpecError when the run configuration asks for --domains on a
/// path that builds no shard plan (`what` names it), so the request is
/// refused instead of silently running unsharded.
void refuseDomains(const std::string& what);

}  // namespace scidmz::scenario
