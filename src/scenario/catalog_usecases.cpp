// Catalog: the Section 6 use cases. Each cell materializes the
// corresponding src/usecase/ run; the renderers rebuild the legacy tables
// (and pennstate's Figure 8-style utilization series, which needs a live
// mid-run firewall change and so runs natively inside its render).
#include <memory>
#include <string>
#include <vector>

#include "scenario/bench_io.hpp"
#include "sim/units.hpp"
#include "scenario/harness.hpp"
#include "scenario/registry.hpp"
#include "usecase/pennstate.hpp"

namespace scidmz::scenario {
namespace {

using namespace scidmz::sim::literals;

// --- usecase_colorado_fanin ------------------------------------------------

std::vector<ScenarioSpec> coloradoSpecs() {
  std::vector<ScenarioSpec> specs;
  for (const int hosts : {2, 5, 8}) {
    for (const bool fixed : {false, true}) {
      ScenarioSpec s;
      s.name = "usecase_colorado_fanin#" + std::to_string(specs.size());
      s.topology.kind = TopologyKind::kUsecase;
      s.topology.usecase.which = UsecaseKind::kColorado;
      s.topology.usecase.physicsHosts = hosts;
      s.topology.usecase.vendorFix = fixed;
      specs.push_back(std::move(s));
    }
  }
  return specs;
}

bool renderColorado(const ScenarioEntry& entry, const std::vector<CellOutcome>& outcomes) {
  bench::Table table(entry.name, entry.title, entry.paperRef,
                     {{"hosts", "%-8d"},
                      {"fix", "%-10s"},
                      {"latched_sf", "%-12s"},
                      {"switch_drops", "%-16llu"},
                      {"worst_mbps", "%-14.1f"},
                      {"aggregate_mbps", "%-14.1f"}});
  table.printHeader();
  std::size_t next = 0;
  for (const int hosts : {2, 5, 8}) {
    for (const bool fixed : {false, true}) {
      const auto& o = outcomes[next++];
      table.emit({hosts, fixed ? "applied" : "no",
                  o.result.at("colorado.latched") != 0.0 ? "yes" : "no",
                  static_cast<unsigned long long>(o.result.at("colorado.switch_drops")),
                  o.result.at("colorado.worst_mbps"), o.result.at("colorado.aggregate_mbps")});
    }
  }
  table.blankRow();
  bench::row("paper outcome: before the vendor fix, heavy use collapsed throughput");
  bench::row("(store-and-forward fallback lost its buffers); after the fix,");
  bench::row("\"performance returned to near line rate for each member\".");
  table.json().addNote("before the vendor fix, heavy use collapsed throughput; after the fix,"
                       " performance returned to near line rate for each member");
  return table.write();
}

// --- usecase_pennstate_firewall --------------------------------------------

std::vector<ScenarioSpec> pennstateSpecs() {
  ScenarioSpec s;
  s.name = "usecase_pennstate_firewall#0";
  s.topology.kind = TopologyKind::kUsecase;
  s.topology.usecase.which = UsecaseKind::kPennState;
  return {std::move(s)};
}

/// Figure 8 style: sample CoE-edge utilization while flows run, with the
/// firewall feature disabled mid-run. A live mid-run device change cannot
/// be expressed as an independent spec cell, so this stays native.
void utilizationTimeSeries(bench::JsonTable& utilTable) {
  Scenario s;
  auto& vtti = s.topo.addHost("vtti", net::Address(198, 82, 0, 1));
  auto profile = net::FirewallProfile::enterprise10G();
  profile.tcpSequenceChecking = true;
  auto& fw = s.topo.addFirewall("coe-fw", profile);
  auto& server = s.topo.addHost("coe-server", net::Address(10, 30, 1, 1));
  net::LinkParams outside;
  outside.rate = 1_Gbps;
  outside.delay = 5_ms;
  s.topo.connect(vtti, fw, outside);
  net::LinkParams inside;
  inside.rate = 1_Gbps;
  inside.delay = 10_us;
  s.topo.connect(fw, server, inside);
  s.topo.computeRoutes();

  tcp::TcpConfig cfg;
  cfg.algorithm = tcp::CcAlgorithm::kCubic;
  cfg.sndBuf = 64_MB;
  cfg.rcvBuf = 64_MB;

  // Long-lived inbound flow; a fresh connection every 30s (transfers were
  // ongoing; new connections pick up the fixed behaviour after the change).
  std::vector<net::FlowPtr> flows;
  auto launchFlow = [&](std::uint16_t port) {
    // Firewall sequence-checking forensics need real segments: pinned packet.
    net::FlowFactory::Options options;
    options.port = port;
    options.pinned = true;
    auto flow = net::flowFactory(s.ctx).create(vtti, server, cfg, options);
    auto* raw = flow.get();
    flow->onEstablished = [raw] { raw->sendData(sim::DataSize::terabytes(1)); };
    flow->start();
    flows.push_back(std::move(flow));
  };

  launchFlow(5001);
  bench::row("%s", "");
  bench::row("figure-8-style SNMP series (edge utilization, 10s samples):");
  bench::row("%-8s %-12s %-10s", "t_sec", "util_mbps", "note");

  auto sampleDelivered = [&flows]() {
    sim::DataSize total = sim::DataSize::zero();
    for (const auto& f : flows) total += f->ackedBytes();
    return total;
  };

  sim::DataSize last = sim::DataSize::zero();
  for (int t = 10; t <= 120; t += 10) {
    if (t == 60) {
      fw.setTcpSequenceChecking(false);
      // Ongoing connections keep their broken negotiation; users restart
      // their transfers (new connections) as word of the fix spreads.
      launchFlow(5002);
    }
    s.runFor(10_s);
    const auto now = sampleDelivered();
    const double mbps = static_cast<double>((now - last).bitCount()) / 10.0 / 1e6;
    last = now;
    bench::row("%-8d %-12.1f %-10s", t, mbps, t == 60 ? "<- sequence checking disabled" : "");
    utilTable.addRow({t, mbps, t == 60 ? "sequence checking disabled" : ""});
  }
}

bool renderPennstate(const ScenarioEntry& entry, const std::vector<CellOutcome>& outcomes) {
  usecase::PennStateConfig config;
  bench::row("equation 2: required window = %s (paper: 1.25 MB, ~20x the 64KB default)",
             sim::toString(usecase::requiredWindow(config)).c_str());

  bench::Table table(entry.name, entry.title, entry.paperRef,
                     {{"direction", "%-12s"},
                      {"sequence_checking", "%-22s"},
                      {"mbps", "%-14.1f"},
                      {"peak_window_bytes", "%-18llu"}});
  const auto& o = outcomes[0];
  table.blankRow();
  table.printHeader();
  struct RowKeys {
    const char* direction;
    const char* state;
    const char* mbps;
    const char* window;
  };
  const RowKeys rows[] = {
      {"inbound", "on (before)", "pennstate.in_before_mbps", "pennstate.in_before_peak_window"},
      {"outbound", "on (before)", "pennstate.out_before_mbps",
       "pennstate.out_before_peak_window"},
      {"inbound", "off (after)", "pennstate.in_after_mbps", "pennstate.in_after_peak_window"},
      {"outbound", "off (after)", "pennstate.out_after_mbps",
       "pennstate.out_after_peak_window"}};
  for (const auto& r : rows) {
    table.emit({r.direction, r.state, o.result.at(r.mbps),
                static_cast<unsigned long long>(o.result.at(r.window))});
  }
  table.blankRow();
  const double inBefore = o.result.at("pennstate.in_before_mbps");
  const double outBefore = o.result.at("pennstate.out_before_mbps");
  const double inSpeedup =
      inBefore > 0 ? o.result.at("pennstate.in_after_mbps") / inBefore : 0.0;
  const double outSpeedup =
      outBefore > 0 ? o.result.at("pennstate.out_after_mbps") / outBefore : 0.0;
  bench::row("speedup: inbound %.1fx, outbound %.1fx (paper: ~5x inbound, ~12x outbound",
             inSpeedup, outSpeedup);
  bench::row("from a lower outbound baseline; our symmetric model improves both alike)");
  table.json().addNote(bench::formatRow("speedup: inbound %.1fx, outbound %.1fx (paper: ~5x"
                                        " inbound, ~12x outbound from a lower outbound"
                                        " baseline)",
                                        inSpeedup, outSpeedup));
  const bool tableWritten = table.write();

  bench::JsonTable utilTable("usecase_pennstate_firewall_util",
                             "figure-8-style SNMP series (edge utilization, 10s samples)",
                             "Figure 8, Dart et al. SC13", {"t_sec", "util_mbps", "note"});
  utilizationTimeSeries(utilTable);
  return utilTable.write() && tableWritten;
}

// --- usecase_noaa_transfer -------------------------------------------------

std::vector<ScenarioSpec> noaaSpecs() {
  ScenarioSpec s;
  s.name = "usecase_noaa_transfer#0";
  s.topology.kind = TopologyKind::kUsecase;
  s.topology.usecase.which = UsecaseKind::kNoaa;
  return {std::move(s)};
}

bool renderNoaa(const ScenarioEntry& entry, const std::vector<CellOutcome>& outcomes) {
  const auto& o = outcomes[0];
  const double legacyMBps = o.result.at("noaa.legacy_MBps");
  const double dmzMBps = o.result.at("noaa.dmz_MBps");
  const double batchSecs = o.result.at("noaa.batch_s");
  const double speedup = legacyMBps > 0 ? dmzMBps / legacyMBps : 0.0;
  bench::row("%-28s %-14s %-20s", "path", "rate_MBps", "239.5GB batch time");
  bench::row("%-28s %-14.2f %s", "firewalled FTP (legacy)", legacyMBps,
             legacyMBps > 0 ? "weeks (extrapolated)" : "n/a");
  bench::row("%-28s %-14.1f %.1f minutes", "science DMZ DTN + Globus", dmzMBps,
             batchSecs / 60.0);
  bench::row("%s", "");
  bench::row("speedup: %.0fx    (paper: 1-2 MB/s -> ~395 MB/s, \"nearly 200 times\",", speedup);
  bench::row("273 files / 239.5 GB \"in just over 10 minutes\")");

  bench::JsonTable table(entry.name, entry.title, entry.paperRef,
                         {"path", "rate_MBps", "batch_minutes"});
  table.addRow({"firewalled FTP (legacy)", legacyMBps, "weeks (extrapolated)"});
  table.addRow({"science DMZ DTN + Globus", dmzMBps, batchSecs / 60.0});
  table.addNote(bench::formatRow(
      "speedup: %.0fx (paper: 1-2 MB/s -> ~395 MB/s, nearly 200 times)", speedup));
  return table.write();
}

// --- usecase_nersc_olcf ----------------------------------------------------

std::vector<ScenarioSpec> nerscSpecs() {
  ScenarioSpec s;
  s.name = "usecase_nersc_olcf#0";
  s.topology.kind = TopologyKind::kUsecase;
  s.topology.usecase.which = UsecaseKind::kNerscOlcf;
  return {std::move(s)};
}

bool renderNersc(const ScenarioEntry& entry, const std::vector<CellOutcome>& outcomes) {
  const auto& o = outcomes[0];
  const double beforeMBps = o.result.at("nersc.before_MBps");
  const double afterMBps = o.result.at("nersc.after_MBps");
  const double fileBeforeSecs = o.result.at("nersc.file_before_s");
  const double fileAfterSecs = o.result.at("nersc.file_after_s");
  const double campaignAfterSecs = o.result.at("nersc.campaign_after_s");
  const double speedup = beforeMBps > 0 ? afterMBps / beforeMBps : 0.0;
  bench::row("%-26s %-12s %-20s %-18s", "path", "rate_MBps", "33GB file", "40TB campaign");
  bench::row("%-26s %-12.2f %-20s %-18s", "login-node path (before)", beforeMBps,
             (std::to_string(fileBeforeSecs / 3600.0).substr(0, 4) + " hours").c_str(),
             "months");
  bench::row("%-26s %-12.1f %-20s %.2f days", "DTN to DTN (after)", afterMBps,
             (std::to_string(fileAfterSecs / 60.0).substr(0, 4) + " minutes").c_str(),
             campaignAfterSecs / 86400.0);
  bench::row("%s", "");
  bench::row("speedup: %.0fx    (paper: >workday for one 33 GB file -> 200 MB/s;", speedup);
  bench::row("40 TB in under three days; \"at least a factor of 20\" for many groups)");

  bench::JsonTable table(entry.name, entry.title, entry.paperRef,
                         {"path", "rate_MBps", "file_33gb_hours", "campaign_40tb_days"});
  table.addRow({"login-node path (before)", beforeMBps, fileBeforeSecs / 3600.0, "months"});
  table.addRow({"DTN to DTN (after)", afterMBps, fileAfterSecs / 3600.0,
                campaignAfterSecs / 86400.0});
  table.addNote(bench::formatRow(
      "speedup: %.0fx (paper: >workday for one 33 GB file -> 200 MB/s; 40 TB in under"
      " three days)",
      speedup));
  return table.write();
}

}  // namespace

void registerUsecaseScenarios(ScenarioRegistry& registry) {
  registry.add({"usecase_colorado_fanin", "usecase", "RCNet aggregation switch defect",
                "Section 6.1 + Figures 6-7, Dart et al. SC13", "hosts_grid", coloradoSpecs,
                renderColorado, nullptr});
  registry.add({"usecase_pennstate_firewall", "usecase",
                "window scaling stripped by the firewall",
                "Section 6.2 + Figure 8 + Equation 2, Dart et al. SC13", "pennstate",
                pennstateSpecs, renderPennstate, nullptr});
  registry.add({"usecase_noaa_transfer", "usecase", "NERSC -> NOAA reforecast retrieval",
                "Section 6.3, Dart et al. SC13", "noaa", noaaSpecs, renderNoaa, nullptr});
  registry.add({"usecase_nersc_olcf", "usecase", "inter-center mass storage transfers",
                "Section 6.4, Dart et al. SC13", "nersc", nerscSpecs, renderNersc, nullptr});
}

}  // namespace scidmz::scenario
