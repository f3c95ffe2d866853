// vinestalk_top — live terminal dashboard over a VSTELEM1 telemetry
// stream.
//
//   vinestalk_top <file> [--once] [--interval-ms N] [--profile P]
//
// Tails the stream a running world writes (obs::TelemetrySampler flushes
// whole records at every boundary crossing, so the file is always a valid
// prefix), re-rendering until the trailer lands: event/message/find rates
// from the last two samples, find-latency percentiles, the serve
// daemon's ingest panel, and sliding-window bound-ratio gauges (Theorem
// 4.9 / 5.2, ×1000 with the 1.0× bound marked). Series are looked up by
// the names in the stream's header; a panel whose series the stream does
// not carry is left out.
//
// --profile <sidecar> adds a CPU panel from a VSPROF1 profile sidecar:
// the CPU-efficiency gauge (ns of real CPU per unit of Theorem-4.9
// hop-work) and one self-time share bar per subsystem. The sidecar is
// written atomically at run end, so in live mode the panel appears once
// the profiled run finishes; until then the frame says so.
//
// --slo <sidecar> adds an SLO panel from a VSSLO1 sidecar: per-class RED
// lines (requests / errors / latency p50+p99), one burn-rate gauge per
// objective with the remaining error budget, and the slowest-request
// exemplar ticker with OpIds (feed a find exemplar's id to
// `vinestalk_trace spans` for the causal chain). Same atomic-sidecar
// semantics as --profile.
//
// --once reads the file a single time and renders one frame with no
// escape codes and no wall-clock dependence: same file in, same bytes
// out — the golden-test and scripting mode. Live mode redraws with a
// home+clear escape at --interval-ms (default 500).
//
// Exit status: 0 (stream summarized; live mode exits when the trailer
// arrives), 1 on usage or a file that is not a telemetry stream.

#include <algorithm>
#include <chrono>
#include <cstring>
#include <iomanip>
#include <initializer_list>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>

#include "common/codec.hpp"
#include "common/error.hpp"
#include "obs/op.hpp"
#include "obs/profile/profile_io.hpp"
#include "obs/profile/profiler.hpp"
#include "obs/slo/slo.hpp"
#include "obs/slo/slo_io.hpp"
#include "obs/telemetry/telemetry_io.hpp"

namespace {

using vs::obs::TelemetryFile;
using vs::obs::TelemetrySample;

int usage() {
  std::cerr << "usage: vinestalk_top <telemetry-file> [--once] "
               "[--interval-ms N] [--profile <vsprof-sidecar>] "
               "[--slo <vsslo-sidecar>]\n";
  return 1;
}

/// `width` cells, `frac` of them filled — clamped, so an over-bound gauge
/// pegs at full rather than overflowing the frame.
std::string bar(double frac, int width) {
  frac = std::clamp(frac, 0.0, 1.0);
  const int fill = static_cast<int>(frac * width + 0.5);
  std::string out = "[";
  for (int i = 0; i < width; ++i) out.push_back(i < fill ? '#' : '.');
  out.push_back(']');
  return out;
}

std::string fmt_rate(double v) {
  std::ostringstream os;
  if (v >= 1e6) {
    os << static_cast<std::int64_t>(v / 1e3) << "k";
  } else {
    os << static_cast<std::int64_t>(v);
  }
  return os.str();
}

void render(std::ostream& os, const std::string& path,
            const TelemetryFile& f) {
  os << "vinestalk_top — " << path << "  (" << f.samples.size()
     << " sample(s), " << (f.complete ? "complete" : "live") << ", cadence "
     << f.header.cadence_us << "us)\n";
  if (f.samples.empty()) {
    os << "  waiting for the first cadence boundary...\n";
    return;
  }
  const TelemetrySample& last = f.samples.back();
  const TelemetrySample& prev =
      f.samples.size() >= 2 ? f.samples[f.samples.size() - 2] : last;
  // Decoded values may be anything: differences wrap, never overflow.
  const double dt_s =
      static_cast<double>(vs::codec::wrapping_sub(last.t_us, prev.t_us)) /
      1e6;
  // Series are looked up by name; a panel renders only when the stream
  // carries every series it shows.
  const auto has = [&](std::initializer_list<std::string_view> names) {
    return std::ranges::all_of(names, [&](std::string_view n) {
      return f.header.index_of(n).has_value();
    });
  };
  const auto v = [&](std::string_view name) {
    return last.values[*f.header.index_of(name)];
  };
  const auto rate = [&](std::string_view name) {
    if (dt_s <= 0) return 0.0;
    const std::size_t i = *f.header.index_of(name);
    return static_cast<double>(
               vs::codec::wrapping_sub(last.values[i], prev.values[i])) /
           dt_s;
  };

  os << "  t = " << last.t_us << "us\n";
  if (has({"events_fired", "msgs_total", "work_total", "finds_completed",
           "heartbeats"})) {
    os << "  rates/s: events " << fmt_rate(rate("events_fired")) << "  msgs "
       << fmt_rate(rate("msgs_total")) << "  work "
       << fmt_rate(rate("work_total")) << "  finds "
       << fmt_rate(rate("finds_completed")) << "  heartbeats "
       << fmt_rate(rate("heartbeats")) << "\n";
  }
  if (has({"finds_issued", "finds_completed", "find_latency_p50_us",
           "find_latency_p90_us", "find_latency_p99_us"})) {
    os << "  finds: " << v("finds_issued") << " issued, "
       << v("finds_completed") << " completed; latency us p50="
       << v("find_latency_p50_us") << " p90=" << v("find_latency_p90_us")
       << " p99=" << v("find_latency_p99_us") << "\n";
  }

  // Ingest panel — the serve daemon's conservation identity and ladder
  // census. Hidden when the stream carries no ingest traffic (sim-only
  // runs have all-zero ingest series) or no ingest series at all.
  if (has({"ingest_ingested", "ingest_applied", "ingest_suppressed",
           "ingest_dropped", "ingest_shed_tier1_entries",
           "ingest_shed_tier2_entries", "ingest_shed_tier3_entries",
           "ingest_queue_depth_peak"}) &&
      v("ingest_ingested") > 0) {
    const std::int64_t ingested = v("ingest_ingested");
    const std::int64_t applied = v("ingest_applied");
    const std::int64_t suppressed = v("ingest_suppressed");
    const std::int64_t dropped = v("ingest_dropped");
    os << "  ingest: " << ingested << " ingested = " << applied
       << " applied + " << suppressed << " suppressed + " << dropped
       << " dropped"
       << (ingested == vs::codec::wrapping_add(
                              vs::codec::wrapping_add(applied, suppressed),
                              dropped)
               ? ""
               : "  CONSERVATION BROKEN")
       << "  (" << fmt_rate(rate("ingest_ingested")) << "/s)\n";
    os << "    shed tiers: t1 " << v("ingest_shed_tier1_entries") << " t2 "
       << v("ingest_shed_tier2_entries") << " t3 "
       << v("ingest_shed_tier3_entries") << "; queue depth peak "
       << v("ingest_queue_depth_peak") << "\n";
    // Reader-side wire errors ride the conservation story — frames that
    // never became updates — and the tier-3 retry-after hint is the
    // backpressure clients are being asked to honor.
    if (has({"ingest_wire_errors", "ingest_retry_after_us"})) {
      os << "    wire errors " << v("ingest_wire_errors")
         << "; tier-3 retry-after " << v("ingest_retry_after_us") << "us\n";
    }
    if (has({"ingest_rpc_finds_issued", "ingest_rpc_finds_done",
             "ingest_rpc_deadline_misses", "ingest_rpc_find_attempts"}) &&
        v("ingest_rpc_finds_issued") > 0) {
      os << "    find rpcs: " << v("ingest_rpc_finds_issued") << " issued, "
         << v("ingest_rpc_finds_done") << " done, "
         << v("ingest_rpc_deadline_misses") << " deadline miss(es), "
         << v("ingest_rpc_find_attempts") << " attempt(s)\n";
    }
  }

  // Bound gauges: milli-ratios, full scale = 2× the bound (so the 1.0×
  // bound sits mid-bar). All four zero means no auditor was attached.
  if (!has({"audit_move_work_ratio_milli", "audit_move_time_ratio_milli",
            "audit_find_work_ratio_milli", "audit_find_time_ratio_milli"})) {
    return;
  }
  const std::int64_t mw = v("audit_move_work_ratio_milli");
  const std::int64_t mt = v("audit_move_time_ratio_milli");
  const std::int64_t fw = v("audit_find_work_ratio_milli");
  const std::int64_t ft = v("audit_find_time_ratio_milli");
  if (mw == 0 && mt == 0 && fw == 0 && ft == 0) {
    os << "  bounds: (no sliding-window auditor attached)\n";
  } else {
    const auto gauge = [&](const char* name, std::int64_t milli) {
      os << "    " << name << " "
         << bar(static_cast<double>(milli) / 2000.0, 20) << " "
         << milli << "m" << (milli > 1000 ? "  OVER" : "") << "\n";
    };
    const std::int64_t worst = std::max({mw, mt, fw, ft});
    os << "  bounds (x1000, window audit): "
       << (worst > 1000 ? "OVER BOUND" : "within bounds") << "\n";
    gauge("move work (Thm 4.9)", mw);
    gauge("move time (Thm 4.9)", mt);
    gauge("find work (Thm 5.2)", fw);
    gauge("find time (Thm 5.2)", ft);
  }
}

/// CPU panel from a VSPROF1 sidecar: efficiency gauge plus one
/// self-time share bar per subsystem with recorded time. Integer math
/// only (milli-percent, whole microseconds), so the frame is a pure
/// function of the sidecar bytes — the golden test pins it.
void render_profile(std::ostream& os, const vs::obs::ProfileReport& rep) {
  os << "  cpu (profile): " << rep.total_ns / 1000 << "us self over "
     << rep.scopes << " scope(s), wall " << rep.wall_ns / 1000 << "us\n";
  if (rep.total_work > 0) {
    // Milli-ns per work, printed as a fixed-point ns/work figure.
    const std::uint64_t mnpw =
        rep.total_ns * 1000 / static_cast<std::uint64_t>(rep.total_work);
    os << "    efficiency " << mnpw / 1000 << "." << std::setw(3)
       << std::setfill('0') << mnpw % 1000 << std::setfill(' ')
       << " ns/work  (" << rep.total_work << " hop-work, " << rep.total_msgs
       << " msg(s))\n";
  } else {
    os << "    efficiency n/a (no paired hop-work)\n";
  }
  if (rep.total_ns == 0) return;
  for (std::size_t d = 0; d < vs::obs::kProfDomains; ++d) {
    const std::uint64_t self = rep.domain_self_ns[d];
    if (self == 0) continue;
    const std::uint64_t milli = self * 1000 / rep.total_ns;
    os << "    " << std::left << std::setw(14)
       << vs::obs::to_string(static_cast<vs::obs::ProfDomain>(d))
       << std::right << " "
       << bar(static_cast<double>(milli) / 1000.0, 20) << " " << std::setw(3)
       << milli / 10 << "." << milli % 10 << "%  " << self / 1000 << "us\n";
  }
}

/// Append the CPU panel for `profile_path` to the frame: the sidecar is
/// written atomically at run end, so "not there yet" is a live-mode state,
/// not an error.
void render_profile_panel(std::ostream& os, const std::string& profile_path) {
  try {
    render_profile(os, vs::obs::read_profile_file(profile_path));
  } catch (const vs::Error&) {
    os << "  cpu (profile): waiting for sidecar " << profile_path << "...\n";
  }
}

/// SLO panel from a VSSLO1 sidecar. Integer math only (whole microseconds,
/// milli budget, centi burn), so the frame is a pure function of the
/// sidecar bytes — the golden test pins it.
void render_slo(std::ostream& os, const vs::obs::SloReport& rep) {
  os << "  slo (" << (rep.wall_clock ? "wall" : "virtual")
     << " windows, t = " << rep.end_t_us << "us):\n";
  for (std::size_t c = 0; c < vs::obs::kSloClasses; ++c) {
    const auto& cs = rep.classes[c];
    if (cs.requests == 0 && cs.errors == 0) continue;
    os << "    " << std::left << std::setw(6)
       << vs::obs::to_string(static_cast<vs::obs::SloClass>(c)) << std::right
       << " " << cs.requests << " req, " << cs.errors << " err; latency us"
       << " p50=" << cs.latency.percentile(0.50) / 1000
       << " p99=" << cs.latency.percentile(0.99) / 1000 << "\n";
  }
  if (rep.find_ns_per_d.count() > 0) {
    os << "    find ns/d p99 = " << rep.find_ns_per_d.percentile(0.99)
       << "\n";
  }
  for (std::size_t i = 0; i < rep.objectives.size(); ++i) {
    const vs::obs::SloObjectiveState& o = rep.objectives[i];
    const std::int64_t budget = rep.budget_remaining_milli(i);
    // Gauge shows the burn in the long window; full scale = the slow
    // threshold x2, so the page-worthy line sits mid-bar.
    os << "    " << o.name << "\n      burn "
       << bar(static_cast<double>(o.burn_long_centi) / 1200.0, 20) << " "
       << "short " << o.burn_short_centi / 100 << "."
       << std::setw(2) << std::setfill('0') << o.burn_short_centi % 100
       << std::setfill(' ') << "x long " << o.burn_long_centi / 100 << "."
       << std::setw(2) << std::setfill('0') << o.burn_long_centi % 100
       << std::setfill(' ') << "x; budget " << budget / 10 << "."
       << budget % 10 << "% left" << (o.fired ? "  FIRED" : "") << "\n";
  }
  if (!rep.exemplars.empty()) {
    os << "    slowest:";
    for (const vs::obs::SloExemplar& e : rep.exemplars) {
      os << " "
         << vs::obs::to_string(static_cast<vs::obs::SloClass>(e.cls)) << "/"
         << e.latency_ns / 1000 << "us";
      if (e.op != 0) os << "(" << vs::obs::op_name(e.op) << ")";
    }
    os << "\n";
  }
}

/// Append the SLO panel for `slo_path` to the frame — same atomic-sidecar
/// "not there yet" semantics as the profile panel.
void render_slo_panel(std::ostream& os, const std::string& slo_path) {
  try {
    render_slo(os, vs::obs::read_slo_file(slo_path));
  } catch (const vs::Error&) {
    os << "  slo: waiting for sidecar " << slo_path << "...\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string path = argv[1];
  bool once = false;
  int interval_ms = 500;
  std::string profile_path;
  std::string slo_path;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--once") == 0) {
      once = true;
    } else if (std::strcmp(argv[i], "--interval-ms") == 0 && i + 1 < argc) {
      interval_ms = std::stoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--profile") == 0 && i + 1 < argc) {
      profile_path = argv[++i];
    } else if (std::strcmp(argv[i], "--slo") == 0 && i + 1 < argc) {
      slo_path = argv[++i];
    } else {
      return usage();
    }
  }
  try {
    for (;;) {
      const TelemetryFile f =
          vs::obs::read_telemetry_file(path, /*strict=*/false);
      if (once) {
        render(std::cout, path, f);
        if (!profile_path.empty()) {
          render_profile_panel(std::cout, profile_path);
        }
        if (!slo_path.empty()) {
          render_slo_panel(std::cout, slo_path);
        }
        return 0;
      }
      // Home + clear-to-end redraw (not full clear: no flicker).
      std::cout << "\x1b[H\x1b[J";
      render(std::cout, path, f);
      if (!profile_path.empty()) {
        render_profile_panel(std::cout, profile_path);
      }
      if (!slo_path.empty()) {
        render_slo_panel(std::cout, slo_path);
      }
      std::cout.flush();
      if (f.complete) return 0;
      std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
    }
  } catch (const vs::Error& e) {
    std::cerr << "vinestalk_top: " << e.what() << "\n";
    return 1;
  }
}
