// Fluid flow-engine microbenchmarks: the hybrid-fidelity headline numbers.
//
// The fluid model's pitch (DESIGN.md "Hybrid-fidelity flow engine") is that
// an analytic flow costs O(path length) arithmetic per 10 ms tick instead of
// thousands of packet events per second, so background load that would be
// unaffordable at packet fidelity — the paper's "everything else on the
// network" — becomes a rounding error. This bench pins that claim down:
//
//   - google-benchmark micros for the per-flow costs (creation + path
//     trace, and a 1024-flow simulated second);
//   - two SweepRunner cells under identical topology and per-flow volume —
//     100k fluid flows vs 512 packet flows, 8 MB each — whose
//     flows_created / flows_per_second land in BENCH_micro_fluid.json and
//     are ratcheted by CI. The headline ratio (fluid flows/s over packet
//     flows/s) prints at the end; the acceptance bar is >= 50x.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>
#include <vector>

#include "net/flow.hpp"
#include "net/host.hpp"
#include "net/topology.hpp"
#include "scenario/bench_io.hpp"
#include "scenario/harness.hpp"
#include "sim/sweep.hpp"
#include "tcp/connection.hpp"
#include "tcp/fluid.hpp"

using namespace scidmz;
using namespace scidmz::sim::literals;

namespace {

/// Shared fat path: the DTN pair every flow crosses. 400 Gbps so the link,
/// not the engine, is the contended resource; 2 ms RTT keeps establishment
/// quick; jumbo MTU matches the Science DMZ configuration.
void buildFatPath(scenario::Scenario& s, net::Host** src, net::Host** dst) {
  *src = &s.topo.addHost("src", net::Address(10, 0, 0, 1));
  *dst = &s.topo.addHost("dst", net::Address(10, 0, 0, 2));
  net::LinkParams lp;
  lp.rate = 400_Gbps;
  lp.delay = 1_ms;
  lp.mtu = 9000_B;
  s.topo.connect(**src, **dst, lp);
  s.topo.computeRoutes();
}

net::FlowPtr makeFlow(scenario::Scenario& s, net::Host& src, net::Host& dst,
                      const tcp::TcpConfig& cfg, net::FlowFidelity fidelity, int index) {
  net::FlowFactory::Options options;
  options.port = static_cast<std::uint16_t>(1024 + (index & 0x7fff));
  options.fidelity = fidelity;
  return net::flowFactory(s.ctx).create(src, dst, cfg, options);
}

// ---------------------------------------------------------------------------
// Per-flow creation cost: factory dispatch + path trace + engine slot.

void BM_FluidFlowCreate(benchmark::State& state) {
  scenario::Scenario s;
  net::Host* src = nullptr;
  net::Host* dst = nullptr;
  buildFatPath(s, &src, &dst);
  const tcp::TcpConfig cfg = tcp::TcpConfig::tunedDtn();
  int index = 0;
  for (auto _ : state) {
    auto flow = makeFlow(s, *src, *dst, cfg, net::FlowFidelity::kFluid, index++);
    benchmark::DoNotOptimize(flow.get());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FluidFlowCreate);

// ---------------------------------------------------------------------------
// Engine tick cost at scale: 1024 concurrently active fluid flows advanced
// through one simulated second (100 ticks).

void BM_FluidSimulatedSecond(benchmark::State& state) {
  for (auto _ : state) {
    scenario::Scenario s;
    net::Host* src = nullptr;
    net::Host* dst = nullptr;
    buildFatPath(s, &src, &dst);
    const tcp::TcpConfig cfg = tcp::TcpConfig::tunedDtn();
    std::vector<net::FlowPtr> flows;
    flows.reserve(1024);
    for (int i = 0; i < 1024; ++i) {
      auto flow = makeFlow(s, *src, *dst, cfg, net::FlowFidelity::kFluid, i);
      auto* raw = flow.get();
      flow->onEstablished = [raw] { raw->sendData(10_GB); };
      flow->start();
      flows.push_back(std::move(flow));
    }
    s.simulator.runFor(1_s);
    benchmark::DoNotOptimize(s.simulator.eventsExecuted());
  }
}
BENCHMARK(BM_FluidSimulatedSecond)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// BENCH_micro_fluid.json: same workload shape at both fidelities — N flows
// of 8 MB each across the shared fat path, run to completion — so the two
// runs' flows_per_second are directly comparable model throughputs.

constexpr int kFluidFlows = 100000;
constexpr int kPacketFlows = 512;

double runBulkCell(sim::SweepCell& cell, net::FlowFidelity fidelity, int flowCount) {
  scenario::Scenario s;
  net::Host* src = nullptr;
  net::Host* dst = nullptr;
  buildFatPath(s, &src, &dst);
  const tcp::TcpConfig cfg = tcp::TcpConfig::tunedDtn();
  std::vector<net::FlowPtr> flows;
  flows.reserve(static_cast<std::size_t>(flowCount));
  int completed = 0;
  for (int i = 0; i < flowCount; ++i) {
    auto flow = makeFlow(s, *src, *dst, cfg, fidelity, i);
    auto* raw = flow.get();
    flow->onEstablished = [raw] { raw->sendData(8_MB); };
    flow->onSendComplete = [&completed] { ++completed; };
    flow->start();
    flows.push_back(std::move(flow));
  }
  s.simulator.run();
  scenario::finishCell(s, cell);
  return completed == flowCount ? 1.0 : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  bench::header("micro_fluid: analytic flow engine vs per-packet TCP",
                "DESIGN.md: hybrid-fidelity flow engine");

  sim::SweepRunner sweep;
  const auto fluidOk = sweep.run<double>(
      1,
      [](sim::SweepCell& cell) {
        return runBulkCell(cell, net::FlowFidelity::kFluid, kFluidFlows);
      },
      "fluid_bulk");
  const auto packetOk = sweep.run<double>(
      1,
      [](sim::SweepCell& cell) {
        return runBulkCell(cell, net::FlowFidelity::kPacket, kPacketFlows);
      },
      "packet_bulk");

  const auto& fluidRun = sweep.history()[0];
  const auto& packetRun = sweep.history()[1];
  const double fluidFps =
      fluidRun.wallSeconds > 0
          ? static_cast<double>(fluidRun.totalFlows()) / fluidRun.wallSeconds
          : 0.0;
  const double packetFps =
      packetRun.wallSeconds > 0
          ? static_cast<double>(packetRun.totalFlows()) / packetRun.wallSeconds
          : 0.0;
  bench::row("fluid:  %d flows x 8 MB, %.2fs wall, %.0f flows/s, all complete: %s",
             kFluidFlows, fluidRun.wallSeconds, fluidFps,
             fluidOk[0] == 1.0 ? "yes" : "NO");
  bench::row("packet: %d flows x 8 MB, %.2fs wall, %.0f flows/s, all complete: %s",
             kPacketFlows, packetRun.wallSeconds, packetFps,
             packetOk[0] == 1.0 ? "yes" : "NO");
  const double ratio = packetFps > 0 ? fluidFps / packetFps : 0.0;
  bench::row("fluid/packet model-throughput ratio: %.0fx (acceptance: >= 50x)", ratio);

  const bool reportWritten = bench::writeSweepReport(sweep, "micro_fluid");
  return reportWritten && fluidOk[0] == 1.0 && packetOk[0] == 1.0 && ratio >= 50.0 ? 0 : 1;
}
