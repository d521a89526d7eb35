// esnet_scale: a ring of ESnet-style sites sized to exercise the sharded
// scheduler. K site routers are stitched into a WAN ring whose segment
// delays all sit above the lookahead floor (every ring link is
// cut-eligible); each site hangs `hostsPerSite` DTNs off its router on
// 10 us LAN links (never cut — the partitioner contracts them), and every
// host runs bulk flows to its peer host one site clockwise. Transit load
// is therefore spread evenly around the ring: with domains == sites each
// worker owns exactly one site and only WAN handoffs cross domains.
//
// The per-site delivered-bytes table is the determinism artifact: it must
// be byte-identical at every --domains, while events/s scales with the
// worker count (bench/micro_shard measures that curve).
#pragma once

#include <cstdint>
#include <vector>

#include "sim/sweep.hpp"
#include "sim/units.hpp"

namespace scidmz::scenario {

struct EsnetScaleConfig {
  int sites = 8;
  int hostsPerSite = 4;
  int flowsPerHost = 1;
  /// Simulated time to run after flow start.
  sim::Duration runDuration = sim::Duration::milliseconds(500);
  std::uint64_t seed = 20130101;
  /// Conservative lookahead floor; every WAN ring delay is >= this.
  sim::Duration lookahead = sim::Duration::milliseconds(5);
  /// Requested worker domains (>= 1). 1 still runs the sharded scheduler —
  /// it is the byte-compare baseline for every higher count.
  int domains = 1;
  sim::DataRate wanRate = sim::DataRate::gigabitsPerSecond(100);
  sim::DataRate hostRate = sim::DataRate::gigabitsPerSecond(10);
};

struct EsnetScaleResult {
  /// Bytes landed at each site's hosts (site = flow destination), in site
  /// order. Domain-invariant.
  std::vector<unsigned long long> deliveredBySite;
  std::uint64_t flows = 0;
};

/// Build the ring, attach shards at cfg.domains, run for cfg.runDuration,
/// and finish `cell` with the standard sharded bookkeeping (events,
/// per-domain event split, merged telemetry/spans). attachShards refuses
/// --profile and a process-wide fluid fidelity override.
EsnetScaleResult runEsnetScale(const EsnetScaleConfig& cfg, sim::SweepCell& cell);

}  // namespace scidmz::scenario
