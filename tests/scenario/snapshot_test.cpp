// Snapshot/restore round-trip properties: a scenario snapshotted mid-run
// and restored onto an identically rebuilt cell must (a) match the
// snapshotting run's state byte-for-byte at the restore point — counters,
// connection state, queue/telemetry contents, flight-recorder ring — and
// (b) continue to results byte-identical to the uninterrupted run, at
// packet, fluid and mixed fidelity, at any SCIDMZ_SWEEP_THREADS.
// Traced runs snapshot too: the blob carries a SPAN overlay that replaces
// the rebuilt cell's construction-time span table. Unsupported scenarios
// (unregistered scenario-level closures, unarmed contexts) must be
// refused loudly, never silently corrupted.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "net/flow.hpp"
#include "net/loss.hpp"
#include "net/topology.hpp"
#include "scenario/callback_registry.hpp"
#include "scenario/checkpoint.hpp"
#include "scenario/harness.hpp"
#include "sim/sweep.hpp"
#include "sim/units.hpp"
#include "tcp/connection.hpp"
#include "telemetry/span.hpp"

namespace scidmz::scenario {
namespace {

using namespace scidmz::sim::literals;

/// One snapshot-compatible cell: a 1 Gbps two-hop path with a periodic-loss
/// "failing line card" on the egress hop, one 48 MB flow (packet or fluid),
/// telemetry on. Construction is fully deterministic, so building two Cells
/// from the same arguments yields the identical rebuild the restore
/// protocol requires.
struct Cell {
  explicit Cell(net::FlowFidelity fidelity, int flows = 1, bool traced = false) : s(20260809) {
    s.ctx.armSnapshots();
    // Tracing must be on before flows are created so the factory arms the
    // construction-time flow spans the restore protocol replays.
    if (traced) s.ctx.extension<telemetry::Tracer>().enable();
    telemetry::TelemetryConfig tel;
    tel.sampleEvery = 10_ms;
    tel.ringCapacity = 4096;
    s.ctx.telemetry().enable(tel);

    auto& a = s.topo.addHost("a", net::Address(10, 0, 0, 1));
    auto& sw = s.topo.addSwitch("sw");
    auto& b = s.topo.addHost("b", net::Address(10, 0, 0, 2));
    net::LinkParams p;
    p.rate = 1_Gbps;
    p.delay = 5_ms;
    p.mtu = 9000_B;
    s.topo.connect(a, sw, p);
    net::Link& egress = s.topo.connect(sw, b, p);
    egress.setLossModel(0, std::make_unique<net::PeriodicLoss>(5000));
    s.topo.computeRoutes();

    tcp::TcpConfig cfg;
    cfg.algorithm = tcp::CcAlgorithm::kHtcp;
    cfg.sndBuf = 8_MB;
    cfg.rcvBuf = 8_MB;
    cfg.pacing = true;
    for (int i = 0; i < flows; ++i) {
      net::FlowFactory::Options options;
      options.port = static_cast<std::uint16_t>(5001 + i);
      // Alternate fidelities when running a mixed cell.
      options.fidelity = (flows > 1 && i % 2 == 1) ? net::FlowFidelity::kFluid : fidelity;
      options.pinned = true;
      net::FlowPtr flow = net::flowFactory(s.ctx).create(a, b, cfg, options);
      net::FlowHandle& ref = *flow;
      flow->onEstablished = [&ref] { ref.sendData(48_MB); };
      flow->start();
      flowsHeld.push_back(std::move(flow));
    }
  }

  Scenario s;
  std::vector<net::FlowPtr> flowsHeld;
};

/// Everything observable about a cell, as one comparable string: clock and
/// event accounting, per-flow transfer state, the sorted telemetry
/// snapshot, and the full flight-recorder JSONL export (packet-level event
/// stream — the strongest pop-order witness available).
std::string signature(Cell& c) {
  std::ostringstream out;
  out << "now=" << c.s.simulator.now().ns()
      << " executed=" << c.s.simulator.eventsExecuted()
      << " scheduled=" << c.s.simulator.scheduledTotal()
      << " pending=" << c.s.simulator.pendingEventCount()
      << " daemons=" << c.s.simulator.pendingDaemonCount()
      << " forwarded=" << c.s.ctx.packetsForwarded() << '\n';
  for (const auto& flow : c.flowsHeld) {
    out << "flow delivered=" << flow->deliveredBytes().byteCount()
        << " acked=" << flow->ackedBytes().byteCount() << " retx=" << flow->retransmits()
        << " rate=" << flow->currentRate().bps()
        << " established=" << flow->established() << " complete=" << flow->sendComplete()
        << '\n';
  }
  out << c.s.ctx.telemetry().snapshot().toJson() << '\n';
  c.s.ctx.telemetry().recorder().exportJsonl(out);
  auto& tracer = c.s.ctx.extension<telemetry::Tracer>();
  if (tracer.enabled()) tracer.exportSpansJsonl(out, c.s.simulator.now());
  return out.str();
}

void expectSameSignature(const std::string& got, const std::string& want, const char* what) {
  EXPECT_TRUE(got == want) << what << ": signatures diverge (" << got.size() << " vs "
                           << want.size() << " bytes)\n--- got (first 400) ---\n"
                           << got.substr(0, 400) << "\n--- want (first 400) ---\n"
                           << want.substr(0, 400);
}

/// The core round trip at one fidelity: run to t1, snapshot; keep running
/// the original to t2. Rebuild, restore, check state byte-match at t1,
/// continue to t2, check byte-match again.
void roundTrip(net::FlowFidelity fidelity, int flows) {
  Cell original(fidelity, flows);
  original.s.simulator.runFor(300_ms);
  const SnapshotBlob blob = saveSnapshot(original.s);
  ASSERT_TRUE(blob.ok()) << blob.error;
  ASSERT_FALSE(blob.bytes.empty());
  const std::string atSnapshot = signature(original);
  original.s.simulator.runFor(700_ms);
  const std::string uninterrupted = signature(original);

  Cell rebuilt(fidelity, flows);
  std::string error;
  ASSERT_TRUE(restoreSnapshot(rebuilt.s, blob.bytes, &error)) << error;
  expectSameSignature(signature(rebuilt), atSnapshot, "state at restore point");
  rebuilt.s.simulator.runFor(700_ms);
  expectSameSignature(signature(rebuilt), uninterrupted, "continuation");
}

TEST(SnapshotRoundTrip, PacketFidelityContinuesByteIdentical) {
  roundTrip(net::FlowFidelity::kPacket, 1);
}

TEST(SnapshotRoundTrip, FluidFidelityContinuesByteIdentical) {
  roundTrip(net::FlowFidelity::kFluid, 1);
}

TEST(SnapshotRoundTrip, MixedFidelityContinuesByteIdentical) {
  roundTrip(net::FlowFidelity::kPacket, 2);
}

TEST(SnapshotRoundTrip, RestoringTwiceIntoSameContextIsDeterministic) {
  // The ~Context/teardown satellite's behavioral half: a second restore of
  // the same blob into the same (already continued) Context must destroy
  // the first restore's server connections/samplers cleanly and land in
  // the same state — byte-identical continuation both times.
  Cell original(net::FlowFidelity::kPacket, 1);
  original.s.simulator.runFor(300_ms);
  const SnapshotBlob blob = saveSnapshot(original.s);
  ASSERT_TRUE(blob.ok()) << blob.error;

  Cell rebuilt(net::FlowFidelity::kPacket, 1);
  std::string error;
  ASSERT_TRUE(restoreSnapshot(rebuilt.s, blob.bytes, &error)) << error;
  rebuilt.s.simulator.runFor(500_ms);
  const std::string firstContinuation = signature(rebuilt);

  ASSERT_TRUE(restoreSnapshot(rebuilt.s, blob.bytes, &error)) << error;
  rebuilt.s.simulator.runFor(500_ms);
  expectSameSignature(signature(rebuilt), firstContinuation, "second restore");
}

TEST(SnapshotRoundTrip, SnapshotBytesAreDeterministic) {
  auto snap = [] {
    Cell cell(net::FlowFidelity::kPacket, 1);
    cell.s.simulator.runFor(200_ms);
    SnapshotBlob blob = saveSnapshot(cell.s);
    EXPECT_TRUE(blob.ok()) << blob.error;
    return blob.bytes;
  };
  EXPECT_EQ(snap(), snap());
}

TEST(SnapshotRoundTrip, ByteIdenticalAtAnyWorkerCount) {
  // Whole save+restore+continue pipelines run as sweep cells: results must
  // not depend on SCIDMZ_SWEEP_THREADS (cells share no state).
  auto runCells = [](int workers) {
    sim::SweepRunner sweep{workers};
    return sweep.run<std::string>(
        4,
        [](sim::SweepCell& cell) {
          const net::FlowFidelity fidelity =
              cell.index % 2 == 0 ? net::FlowFidelity::kPacket : net::FlowFidelity::kFluid;
          Cell original(fidelity, 1);
          original.s.simulator.runFor(250_ms);
          const SnapshotBlob blob = saveSnapshot(original.s);
          if (!blob.ok()) return std::string("refused: ") + blob.error;
          Cell rebuilt(fidelity, 1);
          std::string error;
          if (!restoreSnapshot(rebuilt.s, blob.bytes, &error)) return "failed: " + error;
          rebuilt.s.simulator.runFor(400_ms);
          return signature(rebuilt);
        },
        "snapshot_workers");
  };
  const auto serial = runCells(1);
  const auto parallel = runCells(8);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_TRUE(serial[i] == parallel[i]) << "cell " << i << " diverged across worker counts";
    EXPECT_TRUE(serial[i].rfind("refused:", 0) != 0 && serial[i].rfind("failed:", 0) != 0)
        << serial[i].substr(0, 200);
  }
}

TEST(SnapshotRoundTrip, RegisteredClosureIsClaimedAndReArmed) {
  // A scenario-level closure registered by name is claimed by the snapshot
  // (no "pending events" refusal) and re-armed on restore: the continuation
  // fires it on the same schedule as the uninterrupted run.
  auto arm = [](Cell& cell, int& counter) {
    auto& callbacks = cell.s.ctx.extension<CallbackRegistry>();
    sim::Simulator& simulator = cell.s.simulator;
    callbacks.registerNamed("test/tick", [&counter, &callbacks, &simulator] {
      ++counter;
      callbacks.scheduleNamed(simulator, "test/tick", 100_ms);
    });
    callbacks.scheduleNamed(simulator, "test/tick", 100_ms);
  };

  Cell original(net::FlowFidelity::kPacket, 1);
  int originalTicks = 0;
  arm(original, originalTicks);
  original.s.simulator.runFor(250_ms);
  const SnapshotBlob blob = saveSnapshot(original.s);
  ASSERT_TRUE(blob.ok()) << blob.error;
  const int ticksAtSnapshot = originalTicks;
  original.s.simulator.runFor(700_ms);

  Cell rebuilt(net::FlowFidelity::kPacket, 1);
  int rebuiltTicks = 0;
  arm(rebuilt, rebuiltTicks);
  std::string error;
  ASSERT_TRUE(restoreSnapshot(rebuilt.s, blob.bytes, &error)) << error;
  EXPECT_EQ(rebuiltTicks, 0);  // restore re-arms the timer, it does not fire it
  rebuilt.s.simulator.runFor(700_ms);
  EXPECT_EQ(rebuiltTicks, originalTicks - ticksAtSnapshot);
  expectSameSignature(signature(rebuilt), signature(original), "closure continuation");
}

TEST(SnapshotRefusal, UnregisteredClosureArmedInBlobIsRefusedOnRestore) {
  // If the blob names a registered closure the rebuilt cell never
  // registered, restore must fail loudly instead of silently dropping the
  // timer.
  Cell original(net::FlowFidelity::kPacket, 1);
  auto& callbacks = original.s.ctx.extension<CallbackRegistry>();
  sim::Simulator& simulator = original.s.simulator;
  callbacks.registerNamed("test/orphan", [] {});
  callbacks.scheduleNamed(simulator, "test/orphan", 10_s);
  original.s.simulator.runFor(100_ms);
  const SnapshotBlob blob = saveSnapshot(original.s);
  ASSERT_TRUE(blob.ok()) << blob.error;

  Cell rebuilt(net::FlowFidelity::kPacket, 1);  // never registers test/orphan
  std::string error;
  EXPECT_FALSE(restoreSnapshot(rebuilt.s, blob.bytes, &error));
}

TEST(SnapshotRefusal, UnarmedContextIsRefused) {
  Scenario s(1);
  net::Topology& topo = s.topo;
  (void)topo;
  const SnapshotBlob blob = saveSnapshot(s);
  EXPECT_FALSE(blob.ok());
  EXPECT_NE(blob.error.find("armSnapshots"), std::string::npos) << blob.error;
}

TEST(SnapshotRefusal, ScenarioLevelClosureIsRefusedNotDropped) {
  // An event the snapshot layer cannot re-materialize (a raw scenario
  // closure) must make saveSnapshot() refuse via the claimed-count check.
  Cell cell(net::FlowFidelity::kPacket, 1);
  cell.s.simulator.runFor(100_ms);
  cell.s.simulator.schedule(10_s, [] {});
  const SnapshotBlob blob = saveSnapshot(cell.s);
  EXPECT_FALSE(blob.ok());
  EXPECT_NE(blob.error.find("pending events"), std::string::npos) << blob.error;
}

TEST(SnapshotRoundTrip, TracedRunContinuesWithSpansByteIdentical) {
  // --trace and --restore now compose: the blob's SPAN overlay replaces the
  // rebuilt cell's construction-time span table, and connections re-resolve
  // their tracer on restore, so both the restore-point state and the
  // continuation's span export match the uninterrupted traced run.
  Cell original(net::FlowFidelity::kPacket, 1, /*traced=*/true);
  original.s.simulator.runFor(300_ms);
  const SnapshotBlob blob = saveSnapshot(original.s);
  ASSERT_TRUE(blob.ok()) << blob.error;
  const std::string atSnapshot = signature(original);
  original.s.simulator.runFor(700_ms);
  const std::string uninterrupted = signature(original);

  Cell rebuilt(net::FlowFidelity::kPacket, 1, /*traced=*/true);
  std::string error;
  ASSERT_TRUE(restoreSnapshot(rebuilt.s, blob.bytes, &error)) << error;
  expectSameSignature(signature(rebuilt), atSnapshot, "traced state at restore point");
  rebuilt.s.simulator.runFor(700_ms);
  expectSameSignature(signature(rebuilt), uninterrupted, "traced continuation");
}

TEST(SnapshotRefusal, GarbageBlobIsRefused) {
  Cell cell(net::FlowFidelity::kPacket, 1);
  const std::vector<std::uint8_t> garbage{0xde, 0xad, 0xbe, 0xef};
  std::string error;
  EXPECT_FALSE(restoreSnapshot(cell.s, garbage, &error));
  EXPECT_NE(error.find("snap.v1"), std::string::npos) << error;
}

TEST(SnapshotRefusal, TruncatedBlobIsRefused) {
  // A blob cut short anywhere — header, any component section, the final
  // telemetry overlay — must be refused with an error, never accepted and
  // never crash the reader (or the half-restored cell's teardown).
  Cell original(net::FlowFidelity::kPacket, 1);
  original.s.simulator.runFor(300_ms);
  const SnapshotBlob blob = saveSnapshot(original.s);
  ASSERT_TRUE(blob.ok()) << blob.error;
  const std::size_t size = blob.bytes.size();
  ASSERT_GT(size, 256u);

  // Every length through the magic and CLK header and every length in the
  // last 64 bytes, plus ~512 evenly strided cuts through the body (each cut
  // costs one cell rebuild).
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n < 64; ++n) lengths.push_back(n);
  for (std::size_t n = 64; n < size - 64; n += (size - 128) / 512 + 1) lengths.push_back(n);
  for (std::size_t n = size - 64; n < size; ++n) lengths.push_back(n);

  for (const std::size_t n : lengths) {
    Cell rebuilt(net::FlowFidelity::kPacket, 1);
    const std::vector<std::uint8_t> prefix(blob.bytes.begin(),
                                           blob.bytes.begin() + static_cast<std::ptrdiff_t>(n));
    std::string error;
    EXPECT_FALSE(restoreSnapshot(rebuilt.s, prefix, &error)) << n << " of " << size << " bytes";
    EXPECT_FALSE(error.empty()) << n << " of " << size << " bytes";
  }
}

/// The packet-fidelity cell's blob at t = 300 ms, and whether `bytes`
/// restores into a fresh rebuild (the error must name the refusal).
std::vector<std::uint8_t> demoBlob() {
  Cell original(net::FlowFidelity::kPacket, 1);
  original.s.simulator.runFor(300_ms);
  const SnapshotBlob blob = saveSnapshot(original.s);
  EXPECT_TRUE(blob.ok()) << blob.error;
  return blob.bytes;
}

bool restoresIntoRebuild(const std::vector<std::uint8_t>& bytes, std::string* error) {
  Cell rebuilt(net::FlowFidelity::kPacket, 1);
  return restoreSnapshot(rebuilt.s, bytes, error);
}

TEST(SnapshotRefusal, PaddedBlobIsRefused) {
  const std::vector<std::uint8_t> blob = demoBlob();
  std::string error;
  ASSERT_TRUE(restoresIntoRebuild(blob, &error)) << error;
  for (const std::size_t pad : {1u, 4u}) {
    std::vector<std::uint8_t> padded = blob;
    padded.insert(padded.end(), pad, std::uint8_t{0});
    error.clear();
    EXPECT_FALSE(restoresIntoRebuild(padded, &error)) << pad << " padding bytes";
    EXPECT_NE(error.find("follow the BODY"), std::string::npos) << error;
  }
}

TEST(SnapshotRefusal, ConcatenatedBlobsAreRefused) {
  const std::vector<std::uint8_t> blob = demoBlob();
  std::vector<std::uint8_t> twice = blob;
  twice.insert(twice.end(), blob.begin(), blob.end());
  std::string error;
  EXPECT_FALSE(restoresIntoRebuild(twice, &error));
  EXPECT_NE(error.find("follow the BODY"), std::string::npos) << error;
}

TEST(SnapshotRefusal, SectionLengthMismatchIsRefused) {
  // Shrink the BODY section's declared byte length by one: every byte is
  // still there and parses, but the framing no longer describes it.
  std::vector<std::uint8_t> blob = demoBlob();
  const char tag[] = {'B', 'O', 'D', 'Y'};
  const auto at = std::search(blob.begin(), blob.end(), std::begin(tag), std::end(tag));
  ASSERT_NE(at, blob.end());
  std::uint8_t* length = &*at + 4;
  std::uint32_t value = 0;
  std::memcpy(&value, length, 4);
  --value;
  std::memcpy(length, &value, 4);
  std::string error;
  EXPECT_FALSE(restoresIntoRebuild(blob, &error));
  EXPECT_NE(error.find("BODY section length"), std::string::npos) << error;
}

}  // namespace
}  // namespace scidmz::scenario
