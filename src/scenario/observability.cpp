#include "scenario/observability.hpp"

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <ostream>
#include <set>
#include <string>
#include <vector>

#include "net/context.hpp"
#include "scenario/json.hpp"
#include "scenario/shard.hpp"
#include "sim/json_text.hpp"
#include "sim/profiler.hpp"
#include "sim/run_config.hpp"
#include "telemetry/span.hpp"

namespace scidmz::scenario {

namespace {

std::string fmtSeconds(std::int64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6f", static_cast<double>(ns) / 1e9);
  return buf;
}

std::string fmtPercent(double fraction) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%5.1f%%", fraction * 100.0);
  return buf;
}

/// The report's phase vocabulary, in display order. queue_limited is
/// reserved (no emitter yet) but kept in the table so its column is stable.
constexpr const char* kPhases[] = {"handshake",    "slow_start",    "cwnd_limited", "rwnd_limited",
                                   "queue_limited", "loss_recovery", "storage"};

struct ReportSpan {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::string name;
  std::string cat;
  std::int64_t t0 = 0;
  std::int64_t t1 = 0;
  std::int64_t stream = -1;  ///< "stream" arg when present.
};

struct RootReport {
  std::string file;
  std::string name;
  std::string cat;
  std::int64_t duration = 0;
  std::size_t streams = 1;
  std::map<std::string, std::int64_t> phaseNs;  ///< per parallel stream, summed.

  [[nodiscard]] std::int64_t denominator() const {
    return duration * static_cast<std::int64_t>(streams);
  }
  [[nodiscard]] std::int64_t attributedNs() const {
    std::int64_t total = 0;
    for (const auto& [name_, ns] : phaseNs) total += ns;
    return total;
  }
};

bool loadSpansFile(const std::string& path, std::vector<RootReport>& roots, std::ostream& err) {
  std::ifstream in(path);
  if (!in) {
    err << "report: cannot open " << path << "\n";
    return false;
  }
  std::vector<ReportSpan> spans;
  std::map<std::uint64_t, std::size_t> byId;
  std::string line;
  bool sawHeader = false;
  std::size_t lineNo = 0;
  while (std::getline(in, line)) {
    ++lineNo;
    if (line.empty()) continue;
    Json j;
    try {
      j = Json::parse(line);
    } catch (const JsonError& e) {
      err << "report: " << path << ":" << lineNo << ": " << e.what() << "\n";
      return false;
    }
    if (!sawHeader) {
      sawHeader = true;
      if (!j.isObject() || !j.contains("schema") ||
          j.get("schema").asString() != "scidmz.spans.v1") {
        err << "report: " << path << ": not a scidmz.spans.v1 file\n";
        return false;
      }
      continue;
    }
    ReportSpan s;
    s.id = static_cast<std::uint64_t>(j.get("id").asNumber());
    s.parent = j.contains("parent") ? static_cast<std::uint64_t>(j.get("parent").asNumber()) : 0;
    s.name = j.get("name").asString();
    s.cat = j.get("cat").asString();
    s.t0 = static_cast<std::int64_t>(j.get("t0_ns").asNumber());
    s.t1 = static_cast<std::int64_t>(j.get("t1_ns").asNumber());
    const Json& args = j.get("args");
    if (args.isObject() && args.contains("stream")) {
      s.stream = static_cast<std::int64_t>(args.get("stream").asNumber());
    }
    byId[s.id] = spans.size();
    spans.push_back(std::move(s));
  }
  if (!sawHeader) {
    err << "report: " << path << ": empty file\n";
    return false;
  }

  // Attribute each phase/storage span to its root's report row. Spans are
  // written id-ascending and parents precede children, so a single pass with
  // a parent→root map suffices.
  std::map<std::uint64_t, std::size_t> rootRowOf;  ///< span id (root) → roots index.
  std::map<std::uint64_t, std::uint64_t> rootIdOf;  ///< span id → its root's span id.
  for (const ReportSpan& s : spans) {
    if (s.parent == 0) {
      rootIdOf[s.id] = s.id;
      RootReport row;
      row.file = path;
      row.name = s.name;
      row.cat = s.cat;
      row.duration = s.t1 - s.t0;
      rootRowOf[s.id] = roots.size();
      roots.push_back(std::move(row));
      continue;
    }
    const auto up = rootIdOf.find(s.parent);
    if (up == rootIdOf.end()) continue;  // orphan: parent missing from file
    rootIdOf[s.id] = up->second;
    RootReport& row = roots[rootRowOf[up->second]];
    if (s.cat == "tcp.phase") {
      row.phaseNs[s.name] += s.t1 - s.t0;
      if (s.stream >= 0 && static_cast<std::size_t>(s.stream) + 1 > row.streams) {
        row.streams = static_cast<std::size_t>(s.stream) + 1;
      }
    } else if (s.cat == "storage") {
      row.phaseNs["storage"] += s.t1 - s.t0;
    }
  }
  return true;
}

/// Write one per-cell artifact; a file that cannot be opened or written is
/// reported and marks the cell failed.
template <typename Export>
void writeCellFile(sim::SweepCell& cell, const std::string& path, Export&& exportTo) {
  std::ofstream out(path);
  if (out) exportTo(out);
  if (!out) {
    std::fprintf(stderr, "[observability] could not write %s\n", path.c_str());
    cell.artifactWriteFailed = true;
  }
}

/// BASE.cellN.spans.jsonl + the Perfetto BASE.cellN.trace.json. Per-cell
/// files keep sweep workers from sharing a stream; cell.index makes the
/// paths deterministic at any SCIDMZ_SWEEP_THREADS.
void writeSpanFiles(const telemetry::Tracer& tracer, sim::SweepCell& cell, sim::SimTime now) {
  const std::string base = sim::runConfig().trace.value_or("");
  if (base.empty()) return;
  const std::string stem = base + ".cell" + std::to_string(cell.index);
  std::string cellExtra = ", \"cell\": ";
  sim::appendJsonUint(cellExtra, cell.index);
  writeCellFile(cell, stem + ".spans.jsonl",
                [&](std::ostream& out) { tracer.exportSpansJsonl(out, now, cellExtra); });
  writeCellFile(cell, stem + ".trace.json",
                [&](std::ostream& out) { tracer.exportChromeTrace(out, now); });
}

}  // namespace

void writeCellObservability(Scenario& s, sim::SweepCell& cell) {
  const sim::SimTime now = s.ctx.now();
  // Each domain traced its own flows into its own Tracer, and a flow's
  // hops recorded into whichever domain ring they live in. Flow handles may
  // still be alive (spans open): correlate every tracer against the union
  // of the rings now and let the exporters close open spans virtually.
  const std::vector<net::Context*>& contexts = s.shards->contexts;
  std::vector<const telemetry::FlightRecorder*> recorders;
  for (net::Context* ctx : contexts) recorders.push_back(&ctx->telemetry().recorder());
  std::vector<const telemetry::Tracer*> tracers;
  bool anyEnabled = false;
  for (net::Context* ctx : contexts) {
    auto& t = ctx->extension<telemetry::Tracer>();
    if (t.enabled()) {
      anyEnabled = true;
      t.correlate(recorders, now);
    }
    tracers.push_back(&t);
  }
  if (anyEnabled) {
    // Channels or several domains make creation order depend on the
    // partition, so those cells merge into the canonical (t0, name, args)
    // root order. A channel-less single domain keeps creation order.
    const telemetry::Tracer* out = tracers[0];
    telemetry::Tracer merged;
    if (tracers.size() > 1 || s.shards->sharded->channelCount() > 0) {
      merged.mergeFrom(tracers);
      out = &merged;
    }
    cell.spansEmitted = out->spansEmitted();
    writeSpanFiles(*out, cell, now);
  }
  // attachShards refuses an armed profiler, so a profiled cell is one
  // domain: the scenario's own simulator and ctx.
  if (sim::Profiler* prof = s.simulator.profiler(); prof != nullptr) {
    prof->setHighWater("arena_blocks_live", s.ctx.arena().liveCount());
    prof->setHighWater("arena_blocks_peak", s.ctx.arena().highWater());
    prof->setHighWater("arena_unpooled_live", s.ctx.arena().unpooledLive());
    prof->setHighWater("arena_slabs", s.ctx.arena().slabCount());
    prof->setHighWater("packet_pool_peak", s.ctx.pool().highWater());
    prof->setHighWater("packet_pool_slots", s.ctx.pool().slotCount());
    const std::string base = sim::runConfig().profile.value_or("");
    if (!base.empty()) {
      writeCellFile(cell, base + ".cell" + std::to_string(cell.index) + ".profile.json",
                    [&](std::ostream& out) { prof->exportJson(out); });
    }
  }
}

bool printCriticalPathReport(const std::vector<std::string>& files, std::ostream& out) {
  std::vector<RootReport> roots;
  for (const std::string& file : files) {
    if (!loadSpansFile(file, roots, out)) return false;
  }

  out << "critical-path report: " << files.size() << " file(s), " << roots.size()
      << " root span(s)\n";
  std::map<std::string, std::int64_t> aggregate;
  std::int64_t aggregateDenominator = 0;
  for (const RootReport& row : roots) {
    out << "\n" << row.name << "  [" << row.cat << "]  file=" << row.file << "\n";
    out << "  duration " << fmtSeconds(row.duration) << " s";
    if (row.streams > 1) out << "  (" << row.streams << " parallel streams)";
    out << "\n";
    if (row.duration <= 0) continue;
    const std::int64_t denom = row.denominator();
    for (const char* phase : kPhases) {
      const auto it = row.phaseNs.find(phase);
      if (it == row.phaseNs.end() || it->second == 0) continue;
      out << "    " << fmtPercent(static_cast<double>(it->second) / static_cast<double>(denom))
          << "  " << phase;
      for (int pad = static_cast<int>(14 - std::string(phase).size()); pad > 0; --pad) out << ' ';
      out << fmtSeconds(it->second) << " s\n";
      aggregate[phase] += it->second;
    }
    out << "    " << fmtPercent(static_cast<double>(row.attributedNs()) / static_cast<double>(denom))
        << "  attributed\n";
    aggregateDenominator += denom;
  }

  out << "\naggregate (all roots)\n";
  std::int64_t attributed = 0;
  for (const char* phase : kPhases) {
    const std::int64_t ns = aggregate.count(phase) != 0 ? aggregate[phase] : 0;
    attributed += ns;
    out << "    "
        << fmtPercent(aggregateDenominator > 0
                          ? static_cast<double>(ns) / static_cast<double>(aggregateDenominator)
                          : 0.0)
        << "  " << phase;
    for (int pad = static_cast<int>(14 - std::string(phase).size()); pad > 0; --pad) out << ' ';
    out << fmtSeconds(ns) << " s\n";
  }
  out << "    "
      << fmtPercent(aggregateDenominator > 0
                        ? static_cast<double>(attributed) / static_cast<double>(aggregateDenominator)
                        : 0.0)
      << "  attributed\n";
  return true;
}

}  // namespace scidmz::scenario
