// Quickstart: build a world, track an evader, run a find.
//
// This is the smallest end-to-end use of the public API:
//   1. construct a base-r grid hierarchy (the paper's §II-B example);
//   2. assemble a TrackingNetwork over it (VSA layer + VINESTALK trackers);
//   3. register a mobile object; every relocation triggers grow/shrink
//      updates to the distributed tracking path;
//   4. inject a find from any region; it completes with a found output at
//      the evader's region.
//
// Set VS_TRACE=<path> to record the whole run as a VSTRACE1 trace file and
// inspect it offline:  vinestalk_trace summary <path>   (or spans/check).
// Set VS_MONITOR=every or VS_MONITOR=<cadence-us> to run the whole thing
// under the live invariant watchdog; any violation makes the exit status
// nonzero.
// Set VS_TELEMETRY=<path> to stream VSTELEM1 time-series samples (one per
// virtual millisecond) while the run executes: tail with vinestalk_top,
// or dump with vinestalk_trace telemetry <path> --csv. VS_PROMETHEUS=<path>
// additionally rewrites a Prometheus text-exposition snapshot at every
// sample (requires VS_TELEMETRY).
// Set VS_PROFILE=<path> to record a wall-clock CPU profile of the run:
// <path> gets the binary VSPROF1 sidecar and <path>.json its JSON twin
// (vinestalk_trace flame <path> renders a flamegraph). Profile values are
// nondeterministic by nature, so this knob prints nothing and changes no
// deterministic artifact: trace, telemetry, incidents, and stdout are
// byte-identical with and without it.

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>

#include "hier/grid_hierarchy.hpp"
#include "obs/monitor/watchdog.hpp"
#include "obs/profile/profile_io.hpp"
#include "obs/profile/profiler.hpp"
#include "obs/telemetry/telemetry.hpp"
#include "obs/trace_io.hpp"
#include "spec/consistency.hpp"
#include "tracking/network.hpp"

int main() {
  using namespace vs;
  const char* trace_path = std::getenv("VS_TRACE");
  const char* monitor_spec = std::getenv("VS_MONITOR");
  const char* telemetry_path = std::getenv("VS_TELEMETRY");
  const char* prometheus_path = std::getenv("VS_PROMETHEUS");
  const char* profile_path = std::getenv("VS_PROFILE");

  // A 27x27 world of unit regions, clustered into a base-3 grid hierarchy
  // (levels 0..3, one top-level cluster).
  hier::GridHierarchy hierarchy(27, 27, 3);
  std::cout << "world: 27x27 regions, diameter " << hierarchy.tiling().diameter()
            << ", MAX level " << hierarchy.max_level() << ", "
            << hierarchy.num_clusters() << " clusters\n";

  // The tracking network wires up one VSA per region, one Tracker per
  // cluster, the C-gcast service, and one client per region.
  tracking::TrackingNetwork net(hierarchy, tracking::NetworkConfig{});
  if (trace_path != nullptr) net.set_tracing(true);
  std::unique_ptr<obs::Profiler> profiler;
  if (profile_path != nullptr) {
    profiler = std::make_unique<obs::Profiler>();
    net.set_profiler(profiler.get());
    profiler->enable();
  }
  std::unique_ptr<obs::TelemetrySampler> telemetry;
  if (telemetry_path != nullptr) {
    obs::TelemetryConfig tcfg;
    tcfg.cadence = sim::Duration::millis(1);
    tcfg.stream_path = telemetry_path;
    if (prometheus_path != nullptr) tcfg.prometheus_path = prometheus_path;
    telemetry = std::make_unique<obs::TelemetrySampler>(net, tcfg);
    telemetry->enable();
  }

  // Drop the evader at (20, 6). Clients there broadcast the detection; the
  // tracking path grows from the region's level-0 cluster to the root.
  const RegionId start = hierarchy.grid().region_at(20, 6);
  const TargetId evader = net.add_evader(start);
  net.run_to_quiescence();

  // Optional: watch the run live. The watchdog re-checks Lemmas 4.1–4.3,
  // the consistent-state predicate and lookAhead agreement as the
  // simulation executes, keeping a ring of recent events for incidents.
  std::unique_ptr<obs::Watchdog> watchdog;
  if (monitor_spec != nullptr) {
    obs::WatchdogConfig wcfg = obs::parse_watch_spec(monitor_spec);
    wcfg.source = "quickstart";
    watchdog = std::make_unique<obs::Watchdog>(net, evader, wcfg);
    std::cout << "watchdog: " << obs::to_string(wcfg.mode) << " mode\n";
  }
  std::cout << "evader placed at " << hierarchy.tiling().describe(start)
            << "; initial path built ("
            << net.counters().move_messages() << " messages)\n";

  // Move it a few steps; each step is a grow at the new region plus a
  // shrink cleaning the deserted branch.
  for (const auto& [x, y] : {std::pair{21, 6}, {22, 7}, {23, 8}, {24, 8}}) {
    net.move_evader(evader, hierarchy.grid().region_at(x, y));
    net.run_to_quiescence();
  }
  std::cout << "after 4 moves: " << net.counters().move_work()
            << " total hop-work spent on structure updates\n";

  // Find the evader from the far corner.
  const FindId find = net.start_find(hierarchy.grid().region_at(0, 26), evader);
  net.run_to_quiescence();
  const auto& result = net.find_result(find);
  std::cout << "find from (0,26): found at "
            << hierarchy.tiling().describe(result.found_region) << " after "
            << result.latency() << " using " << result.work << " hop-work\n";

  // The distributed state really is the paper's consistent state: one
  // tracking path from the root to the evader, nothing else.
  const auto report =
      spec::check_consistent(net.snapshot(evader), result.found_region);
  std::cout << "consistent state: " << (report.ok() ? "yes" : "NO") << "; path ";
  for (const ClusterId c : report.path) {
    std::cout << c << (c == report.path.back() ? "\n" : " → ");
  }

  if (trace_path != nullptr) {
    obs::write_trace_file(trace_path, net.trace());
    std::cout << "trace: " << net.trace().size() << " events → " << trace_path
              << " (find id " << find.value() << ")\n";
  }
  if (telemetry != nullptr) {
    telemetry->finish();
    std::cout << "telemetry: " << telemetry->samples_taken() << " samples → "
              << telemetry_path << "\n";
  }
  if (profiler != nullptr) {
    profiler->disable();
    // Pair the CPU time with the run's virtual cost. No OpLedger is
    // attached here: doing so implicitly would change the telemetry
    // stream's ledger series, breaking VS_PROFILE's no-observable-effect
    // contract.
    const obs::ProfileReport rep = profiler->report(
        net.counters().total_work(), net.counters().total_messages());
    obs::write_profile_file(profile_path, rep);
    std::ofstream js(std::string(profile_path) + ".json");
    obs::profile_to_json(js, rep);
  }
  if (watchdog != nullptr) {
    watchdog->check_now();
    std::cout << "watchdog: " << watchdog->checks_run() << " checks, "
              << watchdog->violations_seen() << " violations\n";
    if (!watchdog->ok()) return 1;
  }
  return report.ok() ? 0 : 1;
}
