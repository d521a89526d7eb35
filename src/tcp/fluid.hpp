// Fluid (analytic) TCP flow engine.
//
// The paper's Figure 1 argument is that steady-state TCP throughput is a
// *function* — the Mathis / TFRC response function of MSS, RTT and loss —
// not something that has to be rediscovered packet by packet. This engine
// exploits that: a fluid flow carries no packets at all. Its rate is
// computed analytically from its path (traced once at creation through the
// same FIBs packets use) and advanced on a coarse periodic tick, so one
// flow costs O(path length) arithmetic per tick instead of thousands of
// events per second. That is what makes 100k+ concurrent background flows
// affordable (see bench/micro_fluid.cpp).
//
// Coupling to the packet world runs both ways, through the links:
//   - each tick the engine publishes every traversed link direction's
//     aggregate fluid demand (Link::setFluidDemand); packet serialization
//     then runs at Link::effectiveRate — the residual capacity — so packet
//     flows feel fluid load;
//   - the engine measures each link direction's delivered packet bytes per
//     tick, and fluid flows get the larger of the measured leftover and a
//     flow-count-proportional entitlement of the capacity. The entitlement
//     floor (rather than leftover alone) keeps the split from locking in:
//     leftover-only allocation makes *any* division a fixed point.
//
// Rates are recomputed in flow-id order — never by iterating a hash map —
// so floating-point accumulation order, and therefore every table derived
// from fluid flows, is byte-identical run to run and at any
// SCIDMZ_SWEEP_THREADS. Recomputation only happens when something that
// feeds the rates changed (flow set, queued data, establishment,
// completion, packet-flow registration, or the measured per-link packet
// load); between changes a tick is a single pass over the compact hot
// arrays (rate/carry/target/delivered), which is what keeps 100k-flow
// crowds at a few hundred megabytes of memory traffic per simulated
// second instead of tens of gigabytes.
//
// One engine per net::Context, reached via ctx.extension<FluidEngine>()
// (default-constructed; attach() binds it to the Context on first use by
// the FlowFactory).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <unordered_map>
#include <vector>

#include "net/flow.hpp"
#include "sim/codec.hpp"
#include "sim/event_queue.hpp"
#include "sim/units.hpp"
#include "tcp/congestion.hpp"

namespace scidmz::net {
class Host;
}

namespace scidmz::tcp {

struct TcpConfig;

/// The packet engine's measured Reno goodput over the lossy half of the
/// Figure 1 grid runs ~17% above the deterministic-sawtooth Mathis bound:
/// geometric (random) loss spacing beats the worst-case once-per-cycle
/// assumption, and NewReno keeps the pipe partially filled through fast
/// recovery. The fluid model stands in for the packet engine, not for the
/// textbook bound, so the response function carries this factor
/// (tests/scenario/fluid_agreement_test.cpp holds the two engines to a 10%
/// mean relative error).
inline constexpr double kRenoCalibration = 1.17;

/// Steady-state goodput (bits/s) of one congestion-control algorithm at the
/// given loss rate — the per-CC generalization of Equation 1, calibrated to
/// the packet engine (kRenoCalibration). Returns a huge sentinel (never a
/// binding constraint) when p <= 0.
[[nodiscard]] double ccResponseBps(CcAlgorithm algorithm, double mssBits, double rttSeconds,
                                   double lossRate);

class FluidEngine {
 public:
  /// 0 is never a valid id.
  using FlowId = std::uint32_t;

  struct FlowCallbacks {
    std::function<void()> onEstablished;
    std::function<void(sim::DataSize)> onDelivered;
    std::function<void()> onSendComplete;
  };

  FluidEngine() = default;
  FluidEngine(const FluidEngine&) = delete;
  FluidEngine& operator=(const FluidEngine&) = delete;

  /// Bind to the owning Context (idempotent; extension<T> requires default
  /// construction, so the binding happens on first factory use).
  void attach(net::Context& ctx) { if (ctx_ == nullptr) ctx_ = &ctx; }

  /// Create a fluid flow; the path is traced through the FIBs now, so
  /// routes must be installed. `streams` parallel streams aggregate into
  /// one flow with an N-fold response function and window (the paper's
  /// parallel-stream loss resilience).
  FlowId addFlow(net::Host& src, net::Host& dst, const TcpConfig& config, int streams);
  /// Tear a flow down (abort or handle destruction): demand is withdrawn
  /// at the next tick, the slot recycles.
  void removeFlow(FlowId id);

  [[nodiscard]] FlowCallbacks& callbacks(FlowId id);

  /// Begin the "handshake": the flow establishes one path-RTT from now
  /// (never, if the path was unroutable — the analog of a black-holed SYN).
  void startFlow(FlowId id);
  /// Queue bulk bytes (callable repeatedly, like TcpConnection::sendData).
  void queueData(FlowId id, sim::DataSize bytes);

  [[nodiscard]] bool established(FlowId id) const;
  [[nodiscard]] bool sendComplete(FlowId id) const;
  [[nodiscard]] sim::DataSize deliveredBytes(FlowId id) const;
  [[nodiscard]] sim::DataRate goodput(FlowId id) const;
  [[nodiscard]] sim::DataRate currentRate(FlowId id) const;
  /// Model-implied retransmit count: delivered segments x p / (1 - p).
  [[nodiscard]] std::uint64_t retransmitEstimate(FlowId id) const;

  /// Packet flows sharing links register their paths so the entitlement
  /// split (fluid vs packet capacity share) can count them per link
  /// direction. Called by the packet FlowHandle on start / completion.
  void registerPacketPath(const net::FlowPath& path);
  void deregisterPacketPath(const net::FlowPath& path);

  /// Flows currently established and draining queued data.
  [[nodiscard]] std::size_t activeFlowCount() const;
  [[nodiscard]] std::uint64_t flowsCompleted() const { return flows_completed_; }

  /// Snapshot/restore overlay (see DESIGN.md "State & serialization").
  /// The rebuild re-created the same flows in the same order, so paths,
  /// response functions, and slot layout are re-derived; this carries only
  /// the dynamic state (delivery progress, measured link loads, pending
  /// establishment events, the ticker). Link-direction aggregates are
  /// matched by endpoint-name key, not position: the rebuild's first-touch
  /// order may interleave packet-path registrations differently. Returns
  /// the number of pending events claimed.
  std::uint64_t serialize(sim::Codec& c);

 private:
  /// Per (link, direction) aggregate state. Stored in a vector in
  /// first-touch order (deterministic — flows are created in program
  /// order); the hash map is only a lookup index, never iterated for
  /// arithmetic.
  struct LinkDir {
    net::Link* link = nullptr;
    int end = 0;
    int packetFlows = 0;      ///< registered packet flows traversing this dir
    std::uint64_t baselineBytes = 0;  ///< bytesDelivered at last tick
    double measuredWireBps = 0.0;     ///< packet traffic observed last tick
    double fluidWeight = 0.0;         ///< sum of active fluid stream counts
    double availWireBps = 0.0;        ///< capacity available to fluid flows
    double wireDemandBps = 0.0;       ///< unconstrained fluid demand
    double publishBps = 0.0;          ///< post-scaling demand to publish
  };

  /// Cold per-flow state: touched at creation, rate recomputation, and
  /// completion — never in the per-tick integration loop. The hot state
  /// (rate/carry/target/delivered) lives in the parallel hot_* arrays so a
  /// steady-state tick streams ~40 bytes per flow, not this struct.
  struct Flow {
    bool inUse = false;
    /// Bumped on removal so pending establishment events for a recycled
    /// slot can recognize they are stale.
    std::uint32_t epoch = 0;
    net::FlowPath path;
    std::vector<std::uint32_t> hopIdx;  ///< indices into link_dirs_
    int weight = 1;                     ///< parallel streams
    double mssBytes = 1460.0;
    double wireFactor = 1.0;            ///< (mss + headers) / mss
    double responseBps = 0.0;           ///< loss-bound goodput (all streams)
    double windowBps = 0.0;             ///< buffer-limited goodput
    double bottleneckGoodputBps = 0.0;  ///< path capacity as goodput
    bool started = false;
    bool established = false;
    bool completeNotified = false;
    /// Pending establishment event (armed between startFlow and +RTT) and
    /// the epoch its closure captured — snapshots re-arm with the same
    /// staleness check.
    sim::EventId establishEvent{};
    std::uint32_t establishEpoch = 0;
    sim::SimTime establishedAt;
    /// Completion stamp, back-dated to the analytic finish instant within
    /// the tick. Only valid once the flow has drained; goodput() uses the
    /// current sim time for in-flight flows.
    sim::SimTime lastDeliveryAt;
    FlowCallbacks cb;
  };

  /// One entry per flow that had data in flight at the last rate
  /// recomputation, in flow-id order. `notify` caches whether the flow has
  /// an onDelivered callback so the no-listener hot path never touches the
  /// cold struct.
  struct ActiveEntry {
    std::uint32_t idx;  ///< flows_ / hot_* index (id - 1)
    bool notify;
  };

  [[nodiscard]] const Flow* flowFor(FlowId id) const;
  [[nodiscard]] Flow* flowFor(FlowId id);
  [[nodiscard]] std::uint32_t linkDirIndex(net::Link* link, int end);
  [[nodiscard]] bool activeSendingAt(std::size_t idx) const {
    return flows_[idx].established && hot_target_[idx] > hot_delivered_[idx];
  }

  void ensureTicker();
  void onTick();
  /// Body of the deferred-establishment event (shared by startFlow and the
  /// snapshot re-arm path so both fire identically).
  void establishmentFire(FlowId id, std::uint32_t epoch);
  /// Advance delivered bytes by the previous tick's rates over `dtSeconds`.
  void integrate(double dtSeconds);
  /// Measure per-link packet traffic over the elapsed interval; returns
  /// whether any direction's load changed (rates must be recomputed).
  bool measureLinks(double dtSeconds);
  /// Recompute every active flow's rate, rebuild the active list, and
  /// publish per-link demand.
  void recomputeRates();
  void withdrawDemand();
  void initTelemetry();

  net::Context* ctx_ = nullptr;
  /// Rate-integration cadence.
  static constexpr sim::Duration kTick = sim::Duration::milliseconds(10);
  std::deque<Flow> flows_;
  // Hot per-flow state, parallel to flows_ (index = id - 1).
  std::vector<double> hot_rate_;       ///< current goodput rate (bits/s)
  std::vector<double> hot_carry_;      ///< sub-byte accumulation between ticks
  std::vector<std::uint64_t> hot_target_;
  std::vector<std::uint64_t> hot_delivered_;
  std::vector<ActiveEntry> active_;
  std::size_t active_left_ = 0;  ///< active_.size() at the last recompute
  bool rates_dirty_ = false;     ///< a rate input changed since last recompute
  std::vector<FlowId> free_ids_;
  std::vector<LinkDir> link_dirs_;
  std::unordered_map<std::uint64_t, std::uint32_t> link_dir_index_;
  bool ticker_armed_ = false;
  sim::EventId ticker_event_{};
  sim::SimTime last_tick_;
  std::uint64_t flows_completed_ = 0;

  // Telemetry (armed lazily, only when the hub is enabled).
  bool tel_init_ = false;
  double total_rate_bps_ = 0.0;
  std::uint64_t* tel_bytes_ = nullptr;
  std::uint64_t* tel_completed_ = nullptr;
};

}  // namespace scidmz::tcp
