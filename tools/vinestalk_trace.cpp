// vinestalk_trace — offline reader for VSTRACE1 traces and VSINCID1
// incident bundles.
//
// Commands:
//   summary <file>              aggregate shape of every world
//   spans <file> <find-id>      causal span of one find (all worlds holding it)
//   timeline <file> --level N   records at one hierarchy level
//   check <file>                replay the trace through the spec invariants
//   audit <file> [--side N --base B] [--slack S]
//                               rebuild the per-operation cost ledger from
//                               the trace (attribution + conservation) and,
//                               given the world shape, judge every operation
//                               against the Theorem 4.9 / 5.2 bounds
//   export <file> [--out F]     convert to Chrome trace-event JSON (Perfetto)
//   incident <file> [--replay] [--dump-ring F]
//                               pretty-print an incident bundle; --replay
//                               re-runs its scenario and verifies the
//                               violation reproduces; --dump-ring writes the
//                               flight-recorder ring as a VSTRACE1 file
//   telemetry <file> [--csv]    summarize a VSTELEM1 time-series stream
//                               (cadence, series, rates over the run);
//                               --csv dumps every sample as CSV to stdout
//   slo <file> [--csv]          summarize a VSSLO1 SLO report sidecar
//                               (spec, RED per class, burn windows,
//                               exemplars); --csv dumps the latency
//                               histogram buckets
//
// Exit status: 0 on success; 1 on usage/IO/corrupt-file errors and on a
// failed replay; 2 when `check` finds violations (so scripts can gate on
// it, see tools/check.sh).

#include <algorithm>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/codec.hpp"
#include "common/error.hpp"
#include "hier/grid_hierarchy.hpp"
#include "obs/chrome_export.hpp"
#include "obs/ledger/auditor.hpp"
#include "obs/monitor/incident.hpp"
#include "obs/monitor/replay.hpp"
#include "obs/op.hpp"
#include "obs/profile/profile_io.hpp"
#include "obs/slo/slo.hpp"
#include "obs/slo/slo_io.hpp"
#include "obs/telemetry/telemetry_io.hpp"
#include "obs/trace_io.hpp"
#include "obs/trace_query.hpp"
#include "stats/counters.hpp"
#include "tracking/config.hpp"

namespace {

using vs::obs::TraceEvent;
using vs::obs::TraceKind;
using vs::obs::WorldTrace;

int usage() {
  std::cerr << "usage: vinestalk_trace <command> <file> [args]\n"
               "  summary <file>             per-world aggregate counts\n"
               "  spans <file> <find-id>     causal span of one find\n"
               "  timeline <file> --level N  records at hierarchy level N\n"
               "  check <file>               replay spec invariants "
               "(exit 2 on violation)\n"
               "  audit <file> [--side N --base B] [--slack S]\n"
               "                             per-operation cost ledger + "
               "theorem-bound audit\n"
               "  export <file> [--out F] [--profile P]\n"
               "                             Chrome trace-event JSON "
               "(stdout unless --out);\n"
               "                             --profile merges a VSPROF1 "
               "sidecar as CPU counter tracks\n"
               "  flame <profile> [--out F]  folded flamegraph stacks from "
               "a VSPROF1 sidecar\n"
               "  incident <file> [--replay] [--dump-ring F]\n"
               "                             inspect/replay an incident "
               "bundle\n"
               "  telemetry <file> [--csv]   summarize a VSTELEM1 telemetry "
               "stream (--csv dumps samples)\n"
               "  slo <file> [--csv]         summarize a VSSLO1 report "
               "sidecar (--csv dumps latency buckets)\n";
  return 1;
}

/// Exact find latencies (issued → found, per FindId) with nearest-rank
/// percentiles — unlike the bucketed metrics histogram, a trace holds the
/// raw values, so these are exact.
void print_find_latencies(const WorldTrace& w) {
  std::map<std::int64_t, std::int64_t> issued;
  std::vector<std::int64_t> latencies;
  for (const TraceEvent& e : w.events) {
    if (static_cast<TraceKind>(e.kind) == TraceKind::kFindIssued) {
      issued[e.find] = e.time_us;
    } else if (static_cast<TraceKind>(e.kind) == TraceKind::kFoundOutput) {
      const auto it = issued.find(e.find);
      if (it != issued.end()) latencies.push_back(e.time_us - it->second);
    }
  }
  if (latencies.empty()) return;
  std::sort(latencies.begin(), latencies.end());
  const auto rank = [&](double q) {
    const auto n = static_cast<double>(latencies.size());
    auto i = static_cast<std::size_t>(q * (n - 1) + 0.5);
    if (i >= latencies.size()) i = latencies.size() - 1;
    return latencies[i];
  };
  std::cout << "  find latency us: p50=" << rank(0.5)
            << " p90=" << rank(0.9) << " p99=" << rank(0.99)
            << " max=" << latencies.back() << " (" << latencies.size()
            << " completed)\n";
}

void print_summary(const WorldTrace& w) {
  const vs::obs::TraceSummary s = vs::obs::summarize(w);
  std::cout << "world " << s.world << ": " << s.events << " events";
  if (s.events != 0) {
    std::cout << ", t=[" << s.first_us << "us, " << s.last_us << "us]";
  }
  std::cout << "\n  finds: " << s.finds_issued << " issued, "
            << s.finds_completed << " completed; max level " << s.max_level
            << "\n";
  print_find_latencies(w);
  for (std::size_t k = 0; k < s.by_kind.size(); ++k) {
    if (s.by_kind[k] == 0) continue;
    std::cout << "  " << vs::obs::to_string(static_cast<TraceKind>(k)) << ": "
              << s.by_kind[k] << "\n";
  }
  for (std::size_t m = 0; m < s.sends_by_msg.size(); ++m) {
    if (s.sends_by_msg[m] == 0) continue;
    std::cout << "  send[" << vs::stats::to_string(
                     static_cast<vs::stats::MsgKind>(m))
              << "]: " << s.sends_by_msg[m] << "\n";
  }
  // Per-level message/hop-work breakdown from the C-gcast cost records —
  // the same ledger charging rule (client/broadcast hops land on level 0),
  // so `summary` output alone matches the audit's level columns.
  std::map<int, std::pair<std::int64_t, std::int64_t>> cost;
  for (const TraceEvent& e : w.events) {
    const auto k = static_cast<TraceKind>(e.kind);
    if (k != TraceKind::kSend && k != TraceKind::kClientSend &&
        k != TraceKind::kBroadcast) {
      continue;
    }
    auto& [msgs, work] = cost[e.level < 0 ? 0 : e.level];
    ++msgs;
    work += e.arg;
  }
  for (const auto& [level, mw] : cost) {
    std::cout << "  cost[L" << level << "]: " << mw.first << " messages, "
              << mw.second << " hop-work\n";
  }
}

int cmd_spans(const std::vector<WorldTrace>& worlds, std::int64_t find_id) {
  bool seen = false;
  for (const auto& w : worlds) {
    const vs::obs::FindSpan span = vs::obs::find_span(w, find_id);
    if (span.events.empty()) continue;
    seen = true;
    std::cout << "world " << w.world << ", find " << find_id << ": "
              << span.events.size() << " events, "
              << (span.complete() ? "complete" : "incomplete")
              << " (issued=" << span.issued << " found=" << span.found
              << " causally_connected=" << span.causally_connected << ")\n";
    for (const TraceEvent& e : span.events) {
      std::cout << "  " << vs::obs::format_event(e) << "\n";
    }
  }
  if (!seen) {
    std::cout << "find " << find_id << " not present in any world\n";
  }
  return 0;
}

int cmd_timeline(const std::vector<WorldTrace>& worlds, int level) {
  for (const auto& w : worlds) {
    const std::vector<TraceEvent> events = vs::obs::timeline(w, level);
    std::cout << "world " << w.world << ", level " << level << ": "
              << events.size() << " events\n";
    for (const TraceEvent& e : events) {
      std::cout << "  " << vs::obs::format_event(e) << "\n";
    }
  }
  return 0;
}

int cmd_check(const std::vector<WorldTrace>& worlds) {
  const vs::obs::CheckReport report = vs::obs::check_trace(worlds);
  std::cout << report.to_string();
  return report.ok() ? 0 : 2;
}

int cmd_audit(const std::vector<WorldTrace>& worlds, int side, int base,
              double slack) {
  // The bound audit needs the world shape to evaluate the theorem sums;
  // the cost constants are the defaults every CLI/example run uses.
  std::optional<vs::hier::GridHierarchy> hierarchy;
  std::optional<vs::obs::BoundAuditor> auditor;
  if (side > 0 && base > 0) {
    hierarchy.emplace(side, side, base);
    const vs::vsa::CGcastConfig cg;
    auditor.emplace(
        *hierarchy,
        vs::obs::AuditConfig{
            .slack = slack,
            .delta_plus_e = cg.delta + cg.e,
            .timers =
                vs::tracking::TimerPolicy::paper_default(*hierarchy, cg)});
  }
  int rc = 0;
  for (const auto& w : worlds) {
    std::cout << "world " << w.world << ":\n";
    const vs::obs::TraceAttribution attr = vs::obs::attribute_trace(w);
    if (auditor) {
      const vs::obs::AuditReport report = auditor->audit(attr.ledger);
      vs::obs::print_audit(std::cout, attr, report);
      if (!report.ok()) rc = 2;
    } else {
      std::cout << "attribution: " << attr.cost_events << " cost events ("
                << attr.direct << " direct, " << attr.via_cause
                << " via cause DAG, " << attr.background << " background)\n"
                << "pass --side/--base to judge against the theorem bounds\n"
                << attr.ledger.to_json() << "\n";
    }
  }
  return rc;
}

int cmd_flame(const std::string& path, const std::string& out) {
  const vs::obs::ProfileReport report = vs::obs::read_profile_file(path);
  if (out.empty()) {
    vs::obs::profile_to_folded(std::cout, report);
  } else {
    std::ofstream os(out, std::ios::trunc);
    if (!os.good()) {
      std::cerr << "vinestalk_trace: cannot open " << out << "\n";
      return 1;
    }
    vs::obs::profile_to_folded(os, report);
    std::cerr << "wrote " << out << "\n";
  }
  std::cerr << report.paths.size() << " stack(s), "
            << report.total_ns / 1000 << " us total self time — feed to "
               "flamegraph.pl or speedscope\n";
  return 0;
}

int cmd_export(const std::vector<WorldTrace>& worlds, const std::string& out,
               const std::string& profile_path) {
  vs::obs::ChromeExportStats stats{};
  std::optional<vs::obs::ProfileReport> profile;
  if (!profile_path.empty()) {
    profile = vs::obs::read_profile_file(profile_path);
  }
  const vs::obs::ProfileReport* prof =
      profile.has_value() ? &*profile : nullptr;
  if (out.empty()) {
    stats = vs::obs::write_chrome_trace(std::cout, worlds, prof);
  } else {
    std::ofstream os(out, std::ios::trunc);
    if (!os.good()) {
      std::cerr << "vinestalk_trace: cannot open " << out << "\n";
      return 1;
    }
    stats = vs::obs::write_chrome_trace(os, worlds, prof);
    std::cerr << "wrote " << out << "\n";
  }
  std::cerr << stats.slices << " slice(s), " << stats.flows
            << " flow pair(s), " << stats.counters
            << " cost counter sample(s) — open in ui.perfetto.dev or "
               "chrome://tracing\n";
  return 0;
}

int cmd_telemetry(const std::string& path, bool csv) {
  vs::obs::TelemetryFile file;
  try {
    // Tail mode: a stream from a run that is still going (or died) is
    // still worth summarizing; completeness is reported either way.
    file = vs::obs::read_telemetry_file(path, /*strict=*/false);
  } catch (const vs::Error& e) {
    std::cerr << "vinestalk_trace: " << e.what() << "\n";
    return 1;
  }
  if (csv) {
    vs::obs::telemetry_to_csv(std::cout, file);
    return 0;
  }
  const vs::obs::TelemetryHeader& h = file.header;
  // Per-level series are named level<l>_*, so the hierarchy's depth is
  // the number of level<l>_move_msgs series.
  const auto levels = std::ranges::count_if(h.series, [](const auto& d) {
    return d.name.starts_with("level") && d.name.ends_with("_move_msgs");
  });
  std::cout << "VSTELEM1 stream: " << file.samples.size() << " sample(s), "
            << (file.complete ? "complete" : "unterminated (tail read)")
            << "\n  cadence " << h.cadence_us << "us, " << h.series.size()
            << " series";
  if (levels > 0) std::cout << ", max level " << levels - 1;
  std::cout << "\n";
  if (file.samples.empty()) return 0;
  const vs::obs::TelemetrySample& first = file.samples.front();
  const vs::obs::TelemetrySample& last = file.samples.back();
  std::cout << "  t = [" << first.t_us << "us, " << last.t_us << "us]\n";
  // Decoded values may be anything: differences wrap, never overflow.
  const double span_s =
      static_cast<double>(vs::codec::wrapping_sub(last.t_us, first.t_us)) /
      1e6;
  for (std::size_t i = 0; i < h.series.size(); ++i) {
    const std::int64_t v = last.values[i];
    if (v == 0) continue;  // keep the summary to series that moved
    std::cout << "  " << h.series[i].name << ": " << v;
    const std::int64_t delta = vs::codec::wrapping_sub(v, first.values[i]);
    // Rates only make sense for counters, not for gauges (percentiles,
    // ratios, high-water marks, settings).
    const bool counter = h.series[i].kind == vs::obs::SeriesKind::kCounter;
    if (counter && span_s > 0 && delta > 0) {
      std::cout << " (" << static_cast<std::int64_t>(
                               static_cast<double>(delta) / span_s)
                << "/s over the stream)";
    }
    std::cout << "\n";
  }
  return 0;
}

int cmd_slo(const std::string& path, bool csv) {
  vs::obs::SloReport rep;
  try {
    rep = vs::obs::read_slo_file(path);
  } catch (const vs::Error& e) {
    std::cerr << "vinestalk_trace: " << e.what() << "\n";
    return 1;
  }
  if (csv) {
    vs::obs::slo_to_csv(std::cout, rep);
    return 0;
  }
  std::cout << "VSSLO1 report: " << (rep.wall_clock ? "wall" : "virtual")
            << " windows, t = " << rep.end_t_us << "us\n";
  std::cout << "spec:\n";
  std::istringstream spec(rep.spec_text);
  for (std::string line; std::getline(spec, line);) {
    std::cout << "  " << line << "\n";
  }
  for (std::size_t c = 0; c < vs::obs::kSloClasses; ++c) {
    const auto& cs = rep.classes[c];
    if (cs.requests == 0 && cs.errors == 0) continue;
    std::cout << "  " << vs::obs::to_string(static_cast<vs::obs::SloClass>(c))
              << ": " << cs.requests << " request(s), " << cs.errors
              << " error(s); latency us p50="
              << cs.latency.percentile(0.50) / 1000
              << " p99=" << cs.latency.percentile(0.99) / 1000
              << " max=" << cs.latency.max() / 1000 << "\n";
  }
  if (rep.find_ns_per_d.count() > 0) {
    std::cout << "  find ns/d: p50=" << rep.find_ns_per_d.percentile(0.50)
              << " p99=" << rep.find_ns_per_d.percentile(0.99) << "\n";
  }
  for (const auto& [band, hist] : rep.find_bands) {
    std::cout << "  find " << vs::obs::slo_band_label(band) << ": "
              << hist.count() << " find(s), p99 us "
              << hist.percentile(0.99) / 1000 << "\n";
  }
  for (std::size_t i = 0; i < rep.objectives.size(); ++i) {
    const vs::obs::SloObjectiveState& o = rep.objectives[i];
    const std::int64_t budget = rep.budget_remaining_milli(i);
    std::cout << "  objective " << o.name << ": burn short "
              << o.burn_short_centi << "c long " << o.burn_long_centi
              << "c, budget " << budget << "m left"
              << (o.fired ? " [FIRED]" : "") << "\n";
  }
  if (!rep.exemplars.empty()) {
    std::cout << "  exemplars (slowest first):\n";
    for (const vs::obs::SloExemplar& e : rep.exemplars) {
      std::cout << "    "
                << vs::obs::to_string(static_cast<vs::obs::SloClass>(e.cls))
                << " " << e.latency_ns << "ns at " << e.t_us << "us";
      if (e.op != 0) {
        std::cout << " op " << vs::obs::op_name(e.op) << " d=" << e.distance;
      }
      std::cout << "\n";
    }
  }
  return 0;
}

int cmd_incident(const std::string& path, bool replay,
                 const std::string& dump_ring) {
  vs::obs::IncidentBundle bundle;
  try {
    bundle = vs::obs::read_incident_file(path);
  } catch (const vs::Error& e) {
    std::cerr << "vinestalk_trace: " << e.what() << "\n";
    return 1;
  }
  vs::obs::print_incident(std::cout, bundle);
  if (!dump_ring.empty()) {
    vs::obs::write_trace_file(dump_ring,
                              {WorldTrace{0, bundle.ring}});
    std::cout << "flight recorder written to " << dump_ring << " ("
              << bundle.ring.size() << " events)\n";
  }
  if (!replay) return 0;
  const vs::obs::ReplayResult res = vs::obs::replay_incident(bundle);
  std::cout << "replay: " << res.message << "\n";
  return res.reproduced ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string command = argv[1];
  const std::string path = argv[2];

  try {
    if (command == "incident") {
      bool replay = false;
      std::string dump_ring;
      for (int i = 3; i < argc; ++i) {
        if (std::strcmp(argv[i], "--replay") == 0) {
          replay = true;
        } else if (std::strcmp(argv[i], "--dump-ring") == 0 && i + 1 < argc) {
          dump_ring = argv[++i];
        } else {
          return usage();
        }
      }
      return cmd_incident(path, replay, dump_ring);
    }
    if (command == "telemetry") {
      bool csv = false;
      for (int i = 3; i < argc; ++i) {
        if (std::strcmp(argv[i], "--csv") == 0) {
          csv = true;
        } else {
          return usage();
        }
      }
      return cmd_telemetry(path, csv);
    }
    if (command == "flame") {
      std::string out;
      for (int i = 3; i < argc; ++i) {
        if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
          out = argv[++i];
        } else {
          return usage();
        }
      }
      return cmd_flame(path, out);
    }
    if (command == "slo") {
      bool csv = false;
      for (int i = 3; i < argc; ++i) {
        if (std::strcmp(argv[i], "--csv") == 0) {
          csv = true;
        } else {
          return usage();
        }
      }
      return cmd_slo(path, csv);
    }

    std::vector<WorldTrace> worlds;
    try {
      worlds = vs::obs::read_trace_file(path);
    } catch (const vs::Error& e) {
      std::cerr << "vinestalk_trace: " << e.what() << "\n";
      return 1;
    }

    if (command == "summary") {
      if (argc != 3) return usage();
      std::cout << worlds.size() << " world(s)\n";
      for (const auto& w : worlds) print_summary(w);
      return 0;
    }
    if (command == "spans") {
      if (argc < 4) return usage();
      return cmd_spans(worlds, std::stoll(argv[3]));
    }
    if (command == "timeline") {
      int level = -1;
      for (int i = 3; i < argc; ++i) {
        if (std::strcmp(argv[i], "--level") == 0 && i + 1 < argc) {
          level = std::stoi(argv[++i]);
        }
      }
      if (level < 0) return usage();
      return cmd_timeline(worlds, level);
    }
    if (command == "check") {
      return cmd_check(worlds);
    }
    if (command == "audit") {
      int side = 0;
      int base = 0;
      double slack = 2.0;
      for (int i = 3; i < argc; ++i) {
        if (std::strcmp(argv[i], "--side") == 0 && i + 1 < argc) {
          side = std::stoi(argv[++i]);
        } else if (std::strcmp(argv[i], "--base") == 0 && i + 1 < argc) {
          base = std::stoi(argv[++i]);
        } else if (std::strcmp(argv[i], "--slack") == 0 && i + 1 < argc) {
          slack = std::stod(argv[++i]);
        } else {
          return usage();
        }
      }
      return cmd_audit(worlds, side, base, slack);
    }
    if (command == "export") {
      std::string out;
      std::string profile;
      for (int i = 3; i < argc; ++i) {
        if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
          out = argv[++i];
        } else if (std::strcmp(argv[i], "--profile") == 0 && i + 1 < argc) {
          profile = argv[++i];
        } else {
          return usage();
        }
      }
      return cmd_export(worlds, out, profile);
    }
  } catch (const std::exception& e) {
    std::cerr << "vinestalk_trace: " << e.what() << "\n";
    return 1;
  }
  return usage();
}
