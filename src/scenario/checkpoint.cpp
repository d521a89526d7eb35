#include "scenario/checkpoint.hpp"

#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <utility>

#include <memory>

#include "net/context.hpp"
#include "net/device.hpp"
#include "net/flow.hpp"
#include "net/link.hpp"
#include "net/loss.hpp"
#include "net/topology.hpp"
#include "scenario/callback_registry.hpp"
#include "scenario/harness.hpp"
#include "scenario/shard.hpp"
#include "sim/codec.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "telemetry/span.hpp"
#include "tcp/fluid.hpp"

namespace scidmz::scenario {

namespace {

/// The fixed header every snapshot carries after the magic: clock state,
/// sequence numbering, and the pending-event counts the restore validates
/// its accounting against.
struct ClockHeader {
  sim::SimTime now = sim::SimTime::zero();
  std::uint64_t executed = 0;
  std::uint64_t nextSeq = 0;
  std::uint64_t pending = 0;
  std::uint64_t daemons = 0;

  void serialize(sim::Codec& c) {
    sim::codecTime(c, now);
    c.vu64(executed);
    c.vu64(nextSeq);
    c.vu64(pending);
    c.vu64(daemons);
  }
};

/// The component walk shared by save and restore. Section order is load-
/// bearing on the read side: RNG/CTX are plain counters, TOP re-arms
/// in-flight datapath packets, TCP rebuilds server connections (which
/// re-register telemetry samplers), FLU overlays the fluid aggregates, and
/// TEL comes LAST so its overlay squashes every counter/series bump the
/// earlier sections' re-registrations made.
std::uint64_t serializeComponents(sim::Codec& c, sim::Rng& rng, net::Context& ctx,
                                  net::Topology& topo) {
  std::uint64_t claimed = 0;
  rng.serialize(c);
  ctx.serialize(c);
  std::uint64_t deviceCount = topo.devices().size();
  c.vu64(deviceCount);
  if (!c.writing() && deviceCount != topo.devices().size()) {
    c.reader().markFailed();
    return claimed;
  }
  for (const auto& device : topo.devices()) {
    claimed += device->serialize(c);
    if (!c.ok()) return claimed;
  }
  std::uint64_t linkCount = topo.links().size();
  c.vu64(linkCount);
  if (!c.writing() && linkCount != topo.links().size()) {
    c.reader().markFailed();
    return claimed;
  }
  for (const auto& link : topo.links()) {
    claimed += link->serialize(c);
    if (!c.ok()) return claimed;
  }
  claimed += net::flowFactory(ctx).serialize(c);
  if (!c.ok()) return claimed;
  claimed += ctx.extension<tcp::FluidEngine>().serialize(c);
  if (!c.ok()) return claimed;
  // Named scenario closures (samplers, watchdogs, arrival processes): the
  // registry claims their pending timers and re-arms them by name against
  // whatever the rebuild registered.
  claimed += ctx.extension<CallbackRegistry>().serialize(c, ctx.sim());
  if (!c.ok()) return claimed;
  // SPAN overlay: replaces whatever spans the rebuild's flow construction
  // just opened with the snapshotting run's full span table, so a traced
  // run and its restored continuation export one coherent trace. Kept
  // before TEL so the telemetry overlay stays last.
  {
    telemetry::Tracer& tracer = ctx.extension<telemetry::Tracer>();
    bool traced = tracer.enabled();
    c.b(traced);
    if (traced) tracer.serialize(c);
  }
  if (!c.ok()) return claimed;
  claimed += ctx.telemetry().serialize(c);
  return claimed;
}

std::string countMismatch(const char* what, std::uint64_t got, std::uint64_t want) {
  char buf[160];
  std::snprintf(buf, sizeof buf, "snapshot refused: %s (%llu vs %llu)", what,
                static_cast<unsigned long long>(got), static_cast<unsigned long long>(want));
  return buf;
}

}  // namespace

SnapshotBlob saveSnapshot(sim::Simulator& sim, sim::Rng& rng, net::Context& ctx,
                          net::Topology& topo) {
  SnapshotBlob out;
  if (!ctx.snapshotsArmed()) {
    out.error =
        "snapshot refused: Context::armSnapshots() was not called before the run, "
        "so in-flight datapath packets were not recorded";
    return out;
  }
  sim::BitWriter w;
  sim::writeMagic(w, kSnapshotMagic);
  sim::Codec c(w);
  ClockHeader clk;
  clk.now = sim.now();
  clk.executed = sim.eventsExecuted();
  clk.nextSeq = sim.scheduledTotal();
  clk.pending = sim.pendingEventCount();
  clk.daemons = sim.pendingDaemonCount();
  {
    const auto cookie = w.beginSection("CLK ");
    clk.serialize(c);
    w.endSection(cookie);
  }
  const auto cookie = w.beginSection("BODY");
  const std::uint64_t claimed = serializeComponents(c, rng, ctx, topo);
  w.endSection(cookie);
  // The self-validation that makes unsupported scenarios refuse instead of
  // silently corrupting: every pending event must have been claimed by
  // exactly one serializable component. Scenario-level closures, firewall
  // inspection pipelines, DTN pumps etc. land here.
  if (claimed != clk.pending) {
    out.error = countMismatch(
        "pending events not owned by serializable components (claimed vs pending)",
        claimed, clk.pending);
    return out;
  }
  out.bytes = w.take();
  return out;
}

bool restoreSnapshot(sim::Simulator& sim, sim::Rng& rng, net::Context& ctx,
                     net::Topology& topo, const std::uint8_t* data, std::size_t size,
                     std::string* error) {
  const auto fail = [&](std::string msg) {
    if (error != nullptr) *error = std::move(msg);
    return false;
  };
  sim::BitReader r(data, size);
  if (!sim::readMagic(r, kSnapshotMagic)) {
    return fail("restore refused: not a scidmz.snap.v1 snapshot");
  }
  sim::Codec c(r);
  // A section's declared byte length must be exactly what its reader took.
  const auto sectionRead = [&r](std::size_t startBit, std::uint32_t length) {
    r.align();
    return r.bitPos() - startBit == std::size_t{length} * 8;
  };
  const std::uint32_t clkLength = r.enterSection("CLK ");
  if (clkLength == 0 && r.fail()) {
    return fail("restore refused: missing CLK section");
  }
  const std::size_t clkStart = r.bitPos();
  ClockHeader clk;
  clk.serialize(c);
  if (!c.ok()) return fail("restore refused: truncated CLK section");
  if (!sectionRead(clkStart, clkLength)) {
    return fail("restore refused: CLK section length does not match its contents");
  }
  const std::uint32_t bodyLength = r.enterSection("BODY");
  if (bodyLength == 0 && r.fail()) {
    return fail("restore refused: missing BODY section");
  }
  const std::size_t bodyStart = r.bitPos();
  // Point of no return: the target scenario's pending events are dropped
  // and its clock reset. Any failure after this leaves it indeterminate.
  sim.beginRestore(clk.now, clk.executed, clk.nextSeq);
  ctx.telemetry().beginRestore();
  const std::uint64_t claimed = serializeComponents(c, rng, ctx, topo);
  if (!c.ok()) {
    return fail(
        "restore refused: snapshot does not match the rebuilt scenario "
        "(malformed blob, or the rebuild diverged from the snapshotting run)");
  }
  if (!sectionRead(bodyStart, bodyLength)) {
    return fail("restore refused: BODY section length does not match its contents");
  }
  if (!r.atEnd()) {
    return fail("restore refused: bytes follow the BODY section (padded or concatenated blob)");
  }
  if (claimed != clk.pending) {
    return fail(countMismatch("restored event count does not match the snapshot's",
                              claimed, clk.pending));
  }
  if (sim.pendingEventCount() != clk.pending) {
    return fail(countMismatch("event queue size diverged from the snapshot's",
                              sim.pendingEventCount(), clk.pending));
  }
  if (sim.pendingDaemonCount() != clk.daemons) {
    return fail(countMismatch("daemon accounting diverged from the snapshot's",
                              sim.pendingDaemonCount(), clk.daemons));
  }
  return true;
}

SnapshotBlob saveSnapshot(Scenario& s) {
  return saveSnapshot(s.simulator, s.rng, s.ctx, s.topo);
}

bool restoreSnapshot(Scenario& s, const std::vector<std::uint8_t>& blob, std::string* error) {
  return restoreSnapshot(s.simulator, s.rng, s.ctx, s.topo, blob.data(), blob.size(), error);
}

bool saveSnapshotFile(Scenario& s, const std::string& path, std::string* error) {
  SnapshotBlob blob = saveSnapshot(s);
  if (!blob.ok()) {
    if (error != nullptr) *error = blob.error;
    return false;
  }
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    if (error != nullptr) *error = "cannot open snapshot file for writing: " + path;
    return false;
  }
  out.write(reinterpret_cast<const char*>(blob.bytes.data()),
            static_cast<std::streamsize>(blob.bytes.size()));
  if (!out) {
    if (error != nullptr) *error = "short write to snapshot file: " + path;
    return false;
  }
  return true;
}

struct DemoCell::State {
  std::vector<net::FlowPtr> flows;
};

DemoCell::DemoCell() : scenario_(std::make_unique<Scenario>(20260809)), state_(std::make_unique<State>()) {
  refuseDomains("the snapshot/restore demo cell");
  Scenario& s = *scenario_;
  s.ctx.armSnapshots();
  telemetry::TelemetryConfig tel;
  tel.sampleEvery = sim::Duration::milliseconds(10);
  tel.ringCapacity = 4096;
  s.ctx.telemetry().enable(tel);

  auto& a = s.topo.addHost("dtn0", net::Address(10, 0, 0, 1));
  auto& sw = s.topo.addSwitch("border");
  auto& b = s.topo.addHost("dtn1", net::Address(10, 0, 0, 2));
  net::LinkParams p;
  p.rate = sim::DataRate::gigabitsPerSecond(1);
  p.delay = sim::Duration::milliseconds(5);
  p.mtu = sim::DataSize::bytes(9000);
  s.topo.connect(a, sw, p);
  net::Link& egress = s.topo.connect(sw, b, p);
  egress.setLossModel(0, std::make_unique<net::PeriodicLoss>(5000));
  s.topo.computeRoutes();

  tcp::TcpConfig cfg;
  cfg.algorithm = tcp::CcAlgorithm::kHtcp;
  cfg.sndBuf = sim::DataSize::mebibytes(8);
  cfg.rcvBuf = sim::DataSize::mebibytes(8);
  cfg.pacing = true;
  const net::FlowFidelity fidelities[2] = {net::FlowFidelity::kPacket,
                                           net::FlowFidelity::kFluid};
  for (int i = 0; i < 2; ++i) {
    net::FlowFactory::Options options;
    options.port = static_cast<std::uint16_t>(5001 + i);
    options.fidelity = fidelities[i];
    options.pinned = true;
    net::FlowPtr flow = net::flowFactory(s.ctx).create(a, b, cfg, options);
    net::FlowHandle& ref = *flow;
    flow->onEstablished = [&ref] { ref.sendData(sim::DataSize::mebibytes(48)); };
    flow->start();
    state_->flows.push_back(std::move(flow));
  }
}

DemoCell::~DemoCell() = default;

std::string DemoCell::table() const {
  Scenario& s = *scenario_;
  std::string out;
  char buf[192];
  std::snprintf(buf, sizeof buf, "t_ns=%lld events=%llu forwarded=%llu\n",
                static_cast<long long>(s.simulator.now().ns()),
                static_cast<unsigned long long>(s.simulator.eventsExecuted()),
                static_cast<unsigned long long>(s.ctx.packetsForwarded()));
  out += buf;
  for (std::size_t i = 0; i < state_->flows.size(); ++i) {
    const auto& flow = state_->flows[i];
    std::snprintf(buf, sizeof buf,
                  "flow%zu fidelity=%s delivered=%llu acked=%llu retx=%llu complete=%d\n", i,
                  net::toString(flow->fidelity()),
                  static_cast<unsigned long long>(flow->deliveredBytes().byteCount()),
                  static_cast<unsigned long long>(flow->ackedBytes().byteCount()),
                  static_cast<unsigned long long>(flow->retransmits()),
                  flow->sendComplete() ? 1 : 0);
    out += buf;
  }
  return out;
}

bool restoreSnapshotFile(Scenario& s, const std::string& path, std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    if (error != nullptr) *error = "cannot open snapshot file: " + path;
    return false;
  }
  std::vector<std::uint8_t> blob((std::istreambuf_iterator<char>(in)),
                                 std::istreambuf_iterator<char>());
  return restoreSnapshot(s, blob, error);
}

}  // namespace scidmz::scenario
