// The unified flow-creation seam.
//
// Every bulk flow a scenario runs — catalog workloads, DTN streams, apps,
// bwctl probes — is created through net::FlowFactory and driven through the
// fidelity-agnostic FlowHandle interface. The factory is the single place
// where three decisions are made per flow: the model fidelity (full
// per-packet TCP, or the analytic fluid model driven by the CC response
// function), the congestion-control algorithm, and the arena placement of
// the underlying objects.
//
// Fidelity:
//   kPacket — classic tcp::TcpConnection/TcpListener pair; every segment is
//             simulated. The default, and bit-identical to the pre-factory
//             construction paths.
//   kFluid  — tcp::FluidEngine advances the flow's rate analytically on
//             coarse ticks (Mathis/TFRC response function), publishing its
//             aggregate demand onto each traversed link so packet flows see
//             the load (Link::effectiveRate) and fluid flows see measured
//             packet traffic. ~100-1000x cheaper per flow.
//   kAuto   — fluid when the path supports the fluid model's assumptions
//             (no firewall middlebox, loss models memoryless), packet
//             otherwise. See DESIGN.md "Hybrid-fidelity flow engine".
//
// Layering: this header lives in net:: so every layer above can name it,
// but FlowFactory::create() is *defined* in the tcp library
// (src/tcp/flow_factory.cpp) — the one place allowed to construct
// tcp::TcpConnection. Every consumer of the seam already links scidmz_tcp.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string_view>
#include <utility>
#include <vector>

#include "net/context.hpp"
#include "sim/codec.hpp"
#include "sim/units.hpp"

namespace scidmz::tcp {
struct TcpConfig;
class TcpConnection;
}  // namespace scidmz::tcp

namespace scidmz::net {

class Host;
class Link;

enum class FlowFidelity { kPacket, kFluid, kAuto };

[[nodiscard]] const char* toString(FlowFidelity fidelity);
[[nodiscard]] std::optional<FlowFidelity> parseFlowFidelity(std::string_view text);

/// The forwarding-plane path a flow's data direction takes, resolved by
/// walking each device's FIB from src to dst (the same tables packets hit).
/// Used by the fluid engine to couple analytic flows to link state, and by
/// the kAuto fidelity rule.
struct FlowPath {
  /// (link, transmitting end) per hop, in src -> dst order.
  std::vector<std::pair<Link*, int>> hops;
  sim::Duration oneWayDelay = sim::Duration::zero();
  sim::DataRate bottleneck = sim::DataRate::zero();
  /// Combined probability a data packet is dropped by the hop loss models.
  double lossRate = 0.0;
  /// All loss along the path is i.i.d. per packet (the Mathis premise).
  bool memorylessLoss = true;
  bool crossesFirewall = false;

  [[nodiscard]] bool complete() const { return !hops.empty(); }
  [[nodiscard]] sim::Duration rtt() const { return oneWayDelay * 2; }
};

/// Walk the routed path between two hosts. Returns an incomplete path
/// (empty hops) when routing dead-ends or loops.
[[nodiscard]] FlowPath traceFlowPath(Host& src, Host& dst);

class FlowHandle;

/// Type-erasing deleter: handles are arena blocks of their concrete type,
/// so destruction dispatches through the handle itself (which knows its own
/// size class) instead of a typed ArenaDeleter.
struct FlowDeleter {
  void operator()(FlowHandle* handle) const noexcept;
};

/// Owning handle to one flow, whatever its fidelity.
using FlowPtr = std::unique_ptr<FlowHandle, FlowDeleter>;

/// One logical flow from src to dst: a listener plus `streams` parallel
/// client connections at packet fidelity, or `streams` aggregated analytic
/// streams at fluid fidelity. Single-stream flows are the common case;
/// multi-stream covers GridFTP-style striping (apps::ParallelTransfer,
/// dtn::DtnTransfer).
class FlowFactory;

class FlowHandle {
 public:
  virtual ~FlowHandle();

  FlowHandle(const FlowHandle&) = delete;
  FlowHandle& operator=(const FlowHandle&) = delete;

  /// Begin the handshake(s). Callbacks must be assigned before this.
  virtual void start() = 0;
  /// Queue bulk data on the next stream, round-robin (callable repeatedly).
  virtual void sendData(sim::DataSize bytes) = 0;
  /// Queue bulk data on one specific stream (explicit striping).
  virtual void sendOnStream(int stream, sim::DataSize bytes) = 0;
  /// Tear both endpoints down mid-flight; in-flight packets drain into
  /// unbound ports, a fluid flow's demand is withdrawn.
  virtual void abort() = 0;

  [[nodiscard]] virtual FlowFidelity fidelity() const = 0;
  [[nodiscard]] virtual int streamCount() const = 0;
  /// All streams established.
  [[nodiscard]] virtual bool established() const = 0;
  /// Every stream has drained its queued data.
  [[nodiscard]] virtual bool sendComplete() const = 0;
  /// Receiver-side in-order bytes handed to the application (all streams).
  [[nodiscard]] virtual sim::DataSize deliveredBytes() const = 0;
  /// Sender-side ACKed bytes (all streams).
  [[nodiscard]] virtual sim::DataSize ackedBytes() const = 0;
  /// Sender-side goodput (acked bytes over active sending time).
  [[nodiscard]] virtual sim::DataRate goodput() const = 0;
  [[nodiscard]] virtual std::uint64_t retransmits() const = 0;
  /// The model's current transmit rate: cwnd/srtt for packet flows, the
  /// integrated analytic rate for fluid flows. Telemetry-oriented.
  [[nodiscard]] virtual sim::DataRate currentRate() const = 0;

  /// Packet-fidelity escape hatches for code that needs (or drives)
  /// per-packet TCP state — window-scaling forensics, server-push
  /// workloads. nullptr at fluid fidelity or before accept; callers own
  /// the fallback behavior.
  [[nodiscard]] virtual tcp::TcpConnection* clientConnection(int stream) = 0;
  [[nodiscard]] virtual tcp::TcpConnection* serverConnection(int stream) = 0;

  /// Snapshot seam (see DESIGN.md "State & serialization"): one dual-mode
  /// pass that saves, or overlays onto an identically rebuilt handle, the
  /// flow's dynamic state — connection/engine state, pending timers, stream
  /// bookkeeping. Returns the number of pending events claimed, for the
  /// snapshot's self-validating event accounting.
  virtual std::uint64_t serializeState(sim::Codec& c) = 0;

  /// Fired as each stream's server side is accepted — the hook for
  /// server-push workloads (the Colorado use case). Packet fidelity fires
  /// it when the listener accepts; fluid fidelity at establishment.
  std::function<void(int)> onAccepted;
  /// Fired as each stream's handshake completes.
  std::function<void(int)> onStreamEstablished;
  /// Fired once, when the last stream's handshake completes.
  std::function<void()> onEstablished;
  /// Receiver side: in-order bytes delivered (any stream). At fluid
  /// fidelity this must be assigned before start() (or inside
  /// onEstablished at the latest): the engine only pays the per-tick
  /// notification cost for flows that registered a listener by then.
  std::function<void(sim::DataSize)> onDelivered;
  /// Fired as each stream drains its queued data (striping progress).
  std::function<void(int)> onStreamSendComplete;
  /// Fired when no stream has queued data left (at least one had some).
  std::function<void()> onSendComplete;

 protected:
  FlowHandle() = default;
  friend struct FlowDeleter;
  friend class FlowFactory;
  /// Destroy this handle and return its arena block (the concrete class
  /// knows its own size).
  virtual void destroySelf() noexcept = 0;

 private:
  /// The factory that created this handle, for live-registry maintenance
  /// (the snapshot orchestrator walks live handles in creation order).
  FlowFactory* registry_ = nullptr;
};

inline void FlowDeleter::operator()(FlowHandle* handle) const noexcept {
  if (handle != nullptr) handle->destroySelf();
}

/// Per-Context flow creation seam, reached via
/// `ctx.extension<net::FlowFactory>()` (or the flowFactory() shorthand).
class FlowFactory {
 public:
  struct Options {
    /// Server (listener) port at packet fidelity; flow identity otherwise.
    std::uint16_t port = 0;
    /// Parallel streams (GridFTP-style striping). At fluid fidelity the
    /// streams aggregate into one analytic flow with an N-fold response
    /// function, matching the parallel-stream loss-resilience argument.
    int streams = 1;
    FlowFidelity fidelity = FlowFidelity::kPacket;
    /// Workloads whose semantics require per-packet TCP (server push,
    /// window-scaling forensics) pin their fidelity: the global override
    /// does not apply.
    bool pinned = false;
    /// Listener-side TCP settings when they differ from the client's (a
    /// tuned DTN sending to an untuned general-purpose server). Null means
    /// both sides use the config passed to create(). Not owned; must
    /// outlive the create() call (the listener copies it).
    const tcp::TcpConfig* serverTcp = nullptr;
  };

  /// A new factory starts from the process-wide override (scidmz_run
  /// --fidelity), so every cell of a sweep sees the same default.
  FlowFactory();
  FlowFactory(const FlowFactory&) = delete;
  FlowFactory& operator=(const FlowFactory&) = delete;

  /// The factory is a Context extension and can be torn down (in ~Context)
  /// before scenario-held FlowPtrs die; detach the survivors so their
  /// destructors do not deregister into a dead registry.
  ~FlowFactory() {
    for (FlowHandle* handle : live_) handle->registry_ = nullptr;
  }

  /// Process-wide overrides (e.g. `scidmz_run --fidelity=fluid`) land here
  /// per cell; kAuto still resolves per path.
  void setOverride(std::optional<FlowFidelity> fidelity) { override_ = fidelity; }

  /// The fidelity a flow between these hosts will actually run at: the
  /// override (if set, and the options not pinned) replaces the requested
  /// fidelity; a resulting kAuto picks fluid iff the routed path has no
  /// firewall and only memoryless loss.
  [[nodiscard]] FlowFidelity resolve(Host& src, Host& dst, const Options& options) const;

  /// Create one flow. Defined in the tcp library (src/tcp/flow_factory.cpp)
  /// — the only production construction site of tcp::TcpConnection.
  [[nodiscard]] FlowPtr create(Host& src, Host& dst, const tcp::TcpConfig& tcp,
                               const Options& options);

  /// Flows created through this factory (the numerator of the
  /// flows_per_second column in BENCH_sim.json).
  [[nodiscard]] std::uint64_t flowsCreated() const { return flows_created_; }
  [[nodiscard]] std::uint64_t fluidFlowsCreated() const { return fluid_flows_created_; }

  /// Snapshot/restore: factory counters plus every live handle's state, in
  /// creation order (the rebuild created the same handles in the same
  /// order). Returns claimed pending events.
  std::uint64_t serialize(sim::Codec& c) {
    c.vu64(flows_created_);
    c.vu64(fluid_flows_created_);
    std::uint64_t handleCount = live_.size();
    c.vu64(handleCount);
    if (!c.writing() && handleCount != live_.size()) {
      c.reader().markFailed();
      return 0;
    }
    std::uint64_t claimed = 0;
    for (FlowHandle* handle : live_) claimed += handle->serializeState(c);
    return claimed;
  }

 private:
  friend class FlowHandle;
  void noteHandleCreated(FlowHandle* handle) {
    handle->registry_ = this;
    live_.push_back(handle);
  }
  void noteHandleDestroyed(FlowHandle* handle) {
    for (auto it = live_.begin(); it != live_.end(); ++it) {
      if (*it == handle) {
        live_.erase(it);
        return;
      }
    }
  }

  std::optional<FlowFidelity> override_;
  std::uint64_t flows_created_ = 0;
  std::uint64_t fluid_flows_created_ = 0;
  std::vector<FlowHandle*> live_;
};

inline FlowHandle::~FlowHandle() {
  if (registry_ != nullptr) registry_->noteHandleDestroyed(this);
}

[[nodiscard]] inline FlowFactory& flowFactory(Context& ctx) {
  return ctx.extension<FlowFactory>();
}

/// Process-wide fidelity override (`scidmz_run --fidelity=...`): installed
/// into every FlowFactory constructed afterwards. Set once at startup,
/// before any simulation runs; sweep workers read it without
/// synchronization, so never flip it mid-run.
void setProcessFidelityOverride(std::optional<FlowFidelity> fidelity);
[[nodiscard]] std::optional<FlowFidelity> processFidelityOverride();

}  // namespace scidmz::net
