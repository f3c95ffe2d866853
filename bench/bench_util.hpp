#pragma once
// Shared scaffolding for the experiment benches.
//
// Each bench binary regenerates one experiment of DESIGN.md §4 (the
// paper's quantitative claims) and prints a self-describing series table;
// EXPERIMENTS.md records the measured shapes against the theory.
//
// Sweeps run through runner::TrialPool: every configuration (seed, grid
// side, evader model, …) is an independent simulation world executed on
// its own thread, and results merge deterministically in trial-index
// order — the printed tables are byte-identical for every --jobs value.

#include <atomic>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "hier/grid_hierarchy.hpp"
#include "obs/monitor/incident.hpp"
#include "obs/monitor/watchdog.hpp"
#include "obs/telemetry/telemetry.hpp"
#include "runner/trial_pool.hpp"
#include "stats/table.hpp"
#include "tracking/network.hpp"
#include "tracking/series.hpp"

namespace vsbench {

using namespace vs;

struct GridNet {
  std::unique_ptr<hier::GridHierarchy> hierarchy;
  std::unique_ptr<tracking::TrackingNetwork> net;
  /// --telemetry sampler, if this world won the first-world race.
  /// Declared after `net` so it is destroyed first (it disarms the
  /// scheduler hook and writes the stream trailer in its destructor).
  std::unique_ptr<obs::TelemetrySampler> telemetry;

  [[nodiscard]] RegionId at(int x, int y) const {
    return hierarchy->grid().region_at(x, y);
  }
};

/// --telemetry wiring: one world per bench run streams VSTELEM1 samples.
/// parse_bench_args forces --jobs 1 when --telemetry is set, so "the first
/// world constructed" is a deterministic choice (trial 0); the atomic flag
/// is belt-and-braces for benches that construct worlds outside the pool.
inline std::string g_bench_telemetry_path;
inline std::int64_t g_bench_telemetry_cadence_us = 10'000;
inline std::atomic<bool> g_bench_telemetry_claimed{false};

/// Attach the --telemetry sampler to `net` if telemetry is requested and
/// no earlier world claimed it. Call immediately after construction
/// (before the world schedules anything). Null in the common case.
inline std::unique_ptr<obs::TelemetrySampler> attach_telemetry(
    tracking::TrackingNetwork& net) {
  if (g_bench_telemetry_path.empty()) return nullptr;
  if (g_bench_telemetry_claimed.exchange(true)) return nullptr;
  obs::TelemetryConfig cfg;
  cfg.cadence = sim::Duration::micros(g_bench_telemetry_cadence_us);
  cfg.stream_path = g_bench_telemetry_path;
  auto sampler = std::make_unique<obs::TelemetrySampler>(net, cfg);
  sampler->enable();
  return sampler;
}

inline GridNet make_grid(int side, int base,
                         tracking::NetworkConfig cfg = {}) {
  GridNet g;
  g.hierarchy = std::make_unique<hier::GridHierarchy>(side, side, base);
  g.net = std::make_unique<tracking::TrackingNetwork>(*g.hierarchy, cfg);
  g.telemetry = attach_telemetry(*g.net);
  return g;
}

inline std::vector<RegionId> random_walk(const geo::Tiling& tiling,
                                         RegionId start, int steps,
                                         std::uint64_t seed) {
  Rng rng{seed};
  std::vector<RegionId> walk{start};
  RegionId cur = start;
  for (int i = 0; i < steps; ++i) {
    const auto nbrs = tiling.neighbors(cur);
    cur = nbrs[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(nbrs.size()) - 1))];
    walk.push_back(cur);
  }
  return walk;
}

/// Command-line options shared by every bench binary.
struct BenchOptions {
  int jobs = 0;  // 0 = runner::default_jobs() (hardware concurrency)
  /// --obs-json=FILE: write the bench's observability artifact (per-trial
  /// WorkCounters and metrics table) as JSON. Empty = off.
  std::string obs_json;
  /// --monitor[=every|<us>]: run every trial under the live invariant
  /// watchdog (obs::Watchdog). kOff = no watchdog constructed at all.
  obs::WatchMode monitor = obs::WatchMode::kOff;
  std::int64_t monitor_cadence_us = 10'000;
  /// --incident-dir=DIR: where captured incident bundles land (requires
  /// --monitor). Empty = report only, don't write bundles.
  std::string incident_dir;
  /// --telemetry=FILE: stream VSTELEM1 samples from the bench's first
  /// world (forces --jobs 1 so that choice is deterministic). Empty = off.
  std::string telemetry;
  std::int64_t telemetry_cadence_us = 10'000;
};

inline BenchOptions parse_bench_args(int argc, char** argv) {
  BenchOptions opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if ((arg == "--jobs" || arg == "-j") && i + 1 < argc) {
      opt.jobs = std::atoi(argv[++i]);
    } else if (arg.rfind("--jobs=", 0) == 0) {
      opt.jobs = std::atoi(arg.c_str() + 7);
    } else if (arg == "--obs-json" && i + 1 < argc) {
      opt.obs_json = argv[++i];
    } else if (arg.rfind("--obs-json=", 0) == 0) {
      opt.obs_json = arg.substr(11);
    } else if (arg == "--monitor" || arg.rfind("--monitor=", 0) == 0) {
      const std::string spec =
          arg == "--monitor" ? std::string{} : arg.substr(10);
      try {
        const obs::WatchdogConfig cfg = obs::parse_watch_spec(spec);
        opt.monitor = cfg.mode;
        opt.monitor_cadence_us = cfg.cadence.count();
      } catch (const Error& e) {
        std::cerr << e.what() << "\n";
        std::exit(2);
      }
    } else if (arg == "--incident-dir" && i + 1 < argc) {
      opt.incident_dir = argv[++i];
    } else if (arg.rfind("--incident-dir=", 0) == 0) {
      opt.incident_dir = arg.substr(15);
    } else if (arg == "--telemetry" && i + 1 < argc) {
      opt.telemetry = argv[++i];
    } else if (arg.rfind("--telemetry=", 0) == 0) {
      opt.telemetry = arg.substr(12);
    } else if (arg == "--telemetry-cadence-us" && i + 1 < argc) {
      opt.telemetry_cadence_us = std::atoll(argv[++i]);
    } else if (arg.rfind("--telemetry-cadence-us=", 0) == 0) {
      opt.telemetry_cadence_us = std::atoll(arg.c_str() + 23);
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: " << argv[0]
                << " [--jobs N] [--obs-json FILE] "
                   "[--monitor[=every|US]] [--incident-dir DIR]\n"
                << "  --jobs N  worker threads for the trial sweep "
                   "(default: hardware concurrency; output is identical "
                   "for every N)\n"
                   "  --obs-json FILE  write per-trial work counters and "
                   "metrics as JSON (deterministic for every --jobs)\n"
                   "  --monitor[=every|US]  run each trial under the live "
                   "invariant watchdog (default: 10000us cadence; 'every' "
                   "checks on each state change); nonzero exit on "
                   "violations\n"
                   "  --incident-dir DIR  write captured incident bundles "
                   "(*.vsi) into DIR for vinestalk_trace incident\n"
                   "  --telemetry FILE  stream VSTELEM1 time-series samples "
                   "from the first world (forces --jobs 1; tail with "
                   "vinestalk_top, inspect with vinestalk_trace telemetry)\n"
                   "  --telemetry-cadence-us N  virtual-time sampling "
                   "cadence (default 10000)\n";
      std::exit(0);
    } else {
      std::cerr << "unknown argument: " << arg << " (try --help)\n";
      std::exit(2);
    }
  }
  if (opt.jobs < 0) {
    std::cerr << "--jobs must be >= 1 (0 means auto), got " << opt.jobs
              << "\n";
    std::exit(2);
  }
  if (!opt.telemetry.empty()) {
    if (opt.telemetry_cadence_us <= 0) {
      std::cerr << "--telemetry-cadence-us must be > 0, got "
                << opt.telemetry_cadence_us << "\n";
      std::exit(2);
    }
    if (opt.jobs != 1) {
      std::cerr << "note: --telemetry forces --jobs 1 (the streamed world "
                   "must be a deterministic choice)\n";
      opt.jobs = 1;
    }
  }
  g_bench_telemetry_path = opt.telemetry;
  g_bench_telemetry_cadence_us = opt.telemetry_cadence_us;
  return opt;
}

/// Run `n` independent trials through a TrialPool and return their results
/// in trial-index order (deterministic for any --jobs).
template <class Fn>
auto sweep(const BenchOptions& opt, std::size_t n, Fn&& fn) {
  runner::TrialPool pool(opt.jobs);
  return pool.run(n, std::forward<Fn>(fn));
}

/// The bench observability artifact: one slot per trial, filled from the
/// pool threads (distinct indices — race-free; TrialPool's join provides
/// the happens-before for write()). write() renders every trial's counters
/// through stats::WorkCounters::to_json — the single counter-JSON emitter,
/// no bench hand-formats counters — and every trial's metrics table as
/// tracking::series_to_json renders it for an incident bundle. Trials stay
/// separate: trials of different depths carry different per-level series.
/// Byte-identical for every --jobs.
class BenchObs {
 public:
  BenchObs(std::string bench, std::size_t trials)
      : bench_(std::move(bench)), counters_(trials), metrics_(trials) {}

  /// Record trial `trial`'s world (call once per trial, from its thread).
  void record(std::size_t trial, tracking::TrackingNetwork& net) {
    counters_[trial].emplace(net.counters());
    std::ostringstream os;
    tracking::series_to_json(os, net, 4);
    metrics_[trial] = os.str();
  }

  void write(std::ostream& os) const {
    os << "{\n  \"bench\": \"" << bench_ << "\",\n";
    os << "  \"trials\": " << counters_.size() << ",\n";
    os << "  \"counters\": [";
    for (std::size_t i = 0; i < counters_.size(); ++i) {
      os << (i == 0 ? "\n    " : ",\n    ");
      if (counters_[i].has_value()) {
        counters_[i]->to_json(os, 4);
      } else {
        os << "null";
      }
    }
    os << "\n  ],\n";
    os << "  \"metrics\": [";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      os << (i == 0 ? "\n    " : ",\n    ")
         << (metrics_[i].empty() ? "null" : metrics_[i]);
    }
    os << "\n  ]\n}\n";
  }

  /// Write to --obs-json if set; silent no-op otherwise.
  void maybe_write(const BenchOptions& opt) const {
    if (opt.obs_json.empty()) return;
    std::ofstream os(opt.obs_json);
    if (!os) {
      std::cerr << "cannot write " << opt.obs_json << "\n";
      std::exit(1);
    }
    write(os);
    std::cout << "wrote " << opt.obs_json << "\n";
  }

 private:
  std::string bench_;
  std::vector<std::optional<stats::WorkCounters>> counters_;
  /// series_to_json per trial; empty until recorded.
  std::vector<std::string> metrics_;
};

/// Canonical ScenarioSpec for the common bench shape (grid world + seeded
/// random walk); embedding it makes every incident a bench trial captures
/// replayable via `vinestalk_trace incident --replay`.
inline obs::ScenarioSpec walk_scenario(int side, int base, RegionId start,
                                       int steps, std::uint64_t seed,
                                       bool lateral_links = true) {
  obs::ScenarioSpec s;
  s.side = side;
  s.base = base;
  s.lateral_links = lateral_links;
  s.start_region = start.value();
  s.steps = steps;
  s.seed = seed;
  return s;
}

/// Per-trial watchdog wiring for the benches, same slot-per-trial shape as
/// BenchObs (pool threads write distinct indices; the join publishes).
/// Usage in a trial lambda:
///   auto wd = mon.attach(*g.net, target, scenario);
///   ... drive the world ...
///   mon.finish(trial, wd.get());
/// and after the sweep: `return mon.report();` (0 when clean/off).
class BenchMonitor {
 public:
  BenchMonitor(std::string bench, const BenchOptions& opt, std::size_t trials)
      : bench_(std::move(bench)),
        opt_(&opt),
        incidents_(trials),
        violations_(trials, 0) {}

  [[nodiscard]] bool enabled() const {
    return opt_->monitor != obs::WatchMode::kOff;
  }

  /// Null when monitoring is off — the trial then runs the unmonitored
  /// hot path (a single untaken branch at each scheduler step).
  [[nodiscard]] std::unique_ptr<obs::Watchdog> attach(
      tracking::TrackingNetwork& net, TargetId target,
      obs::ScenarioSpec scenario = {}) const {
    if (!enabled()) return nullptr;
    obs::WatchdogConfig cfg;
    cfg.mode = opt_->monitor;
    cfg.cadence = sim::Duration::micros(opt_->monitor_cadence_us);
    cfg.source = bench_;
    return std::make_unique<obs::Watchdog>(net, target, cfg,
                                           std::move(scenario));
  }

  /// Final check + harvest (call once per trial, from its thread, before
  /// the watchdog dies).
  void finish(std::size_t trial, obs::Watchdog* wd) {
    if (wd == nullptr) return;
    wd->check_now();
    violations_[trial] = wd->violations_seen();
    incidents_[trial] = wd->incidents();
  }

  /// Prints the monitor verdict, writes bundles to --incident-dir in
  /// trial-index order (deterministic names and bytes for every --jobs),
  /// and returns the process exit contribution (1 on any violation).
  int report() const {
    if (!enabled()) return 0;
    std::int64_t total = 0;
    std::size_t bundles = 0;
    for (std::size_t trial = 0; trial < incidents_.size(); ++trial) {
      total += violations_[trial];
      for (std::size_t k = 0; k < incidents_[trial].size(); ++k) {
        const obs::IncidentBundle& b = incidents_[trial][k];
        std::cout << "monitor: trial " << trial << " VIOLATION "
                  << b.violation.predicate << " at " << b.violation.time_us
                  << "us\n";
        if (!opt_->incident_dir.empty()) {
          const std::string path = opt_->incident_dir + "/incident_" +
                                   bench_ + "_" + std::to_string(trial) +
                                   "_" + std::to_string(k) + ".vsi";
          obs::write_incident_file(path, b);
          std::cout << "monitor: bundle written to " << path << "\n";
          ++bundles;
        }
      }
    }
    if (total == 0) {
      std::cout << "monitor: all " << incidents_.size()
                << " trial(s) clean (" << (opt_->monitor == obs::WatchMode::kEveryChange
                                               ? std::string("every-change")
                                               : "cadence " +
                                                     std::to_string(
                                                         opt_->monitor_cadence_us) +
                                                     "us")
                << ")\n";
      return 0;
    }
    std::cout << "monitor: " << total << " violation(s), " << bundles
              << " bundle(s) written\n";
    return 1;
  }

 private:
  std::string bench_;
  const BenchOptions* opt_;
  std::vector<std::vector<obs::IncidentBundle>> incidents_;
  std::vector<std::int64_t> violations_;
};

inline void banner(const std::string& experiment, const std::string& claim) {
  std::cout << "\n==== " << experiment << " ====\n" << claim << "\n\n";
}

}  // namespace vsbench
