// vinestalk_bench — the perf-trajectory runner and regression gate.
//
//   vinestalk_bench [--history=FILE] [--baseline=FILE] [--check] [--strict]
//                   [--update-baseline] [--tolerance=F] [--quick]
//
// Measures the canonical numbers for the box it runs on:
//  * serial_events_per_sec — the scheduler hot path (64 self-rescheduling
//    event chains, the BENCH_sched.json "serial" shape), best of three;
//  * walk_events_per_sec — the full protocol stack (81×81 base-3 world,
//    random-walk move+quiesce steps), best of three;
//  * profile_ns_per_work — the same walk under the CPU profiler, reported
//    as real nanoseconds per unit of Theorem-4.9 hop-work (0 when
//    profiling is compiled out).
//
// The daemon serving path is measured by perfbench/ (end to end through
// the VSINGEST1 reader, with spread), not here.
//
// Every run appends one machine-stamped JSON line to the history file
// (default BENCH_history.jsonl) — the non-empty perf trajectory the repo
// lacked while BENCH_sched.json silently drifted 16.0M→12.7M events/sec
// across PRs with no machine metadata to tell regression from box change.
//
// --check compares the fresh measurement against the committed baseline
// (default docs/perf/BENCH_baseline.json) with a noise-aware tolerance:
// throughput must stay above baseline×(1−tol) and ns/work below
// baseline×(1+tol), tol defaulting to the baseline's own "tolerance"
// field (or 0.35 — single-core CI boxes are noisy). A baseline recorded
// on a different machine fingerprint (CPU model + cores + compiler +
// flags) is not comparable: the gate prints the mismatch and passes,
// unless --strict forces it to judge anyway. Exit 1 on regression, 2 on
// usage or unreadable files.
//
// --update-baseline rewrites the baseline from this run's measurement
// (commit it to move the reference point).

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/machine_env.hpp"
#include "hier/grid_hierarchy.hpp"
#include "obs/profile/profiler.hpp"
#include "sim/scheduler.hpp"
#include "tracking/network.hpp"
#include "vsa/evader.hpp"

namespace {

using namespace vs;

int usage() {
  std::cerr
      << "usage: vinestalk_bench [--history=FILE] [--baseline=FILE]\n"
         "                       [--check] [--strict] [--update-baseline]\n"
         "                       [--tolerance=F] [--quick]\n";
  return 2;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// The BENCH_sched.json "serial" shape: 64 self-rescheduling chains of
// steady-state push/pop traffic. The capture fits EventAction's inline
// buffer, as all simulator events must.
struct Chain {
  sim::Scheduler& sched;
  std::uint64_t left;
  std::uint64_t jitter;
  void operator()() {
    if (--left > 0) {
      sched.schedule_after(
          sim::Duration::micros(static_cast<std::int64_t>(jitter % 977 + 1)),
          Chain{sched, left, jitter * 6364136223846793005ULL + 1});
    }
  }
};

double serial_events_per_sec(std::uint64_t total_events, int reps) {
  double best = 1e100;
  std::uint64_t fired = 0;
  for (int rep = 0; rep < reps; ++rep) {
    sim::Scheduler sched;
    constexpr std::uint64_t kChains = 64;
    for (std::uint64_t c = 0; c < kChains; ++c) {
      sched.schedule_after(
          sim::Duration::micros(static_cast<std::int64_t>(c)),
          Chain{sched, total_events / kChains, c + 1});
    }
    const auto t0 = std::chrono::steady_clock::now();
    sched.run();
    best = std::min(best, seconds_since(t0));
    fired = sched.events_fired();
  }
  return static_cast<double>(fired) / best;
}

struct WalkResult {
  double events_per_sec = 0;
  double ns_per_work = 0;
  std::uint64_t scopes = 0;
};

// The full-stack walk (the BM_MoveAndQuiesce shape): move an evader
// `steps` times through an 81×81 base-3 world, quiescing after each step.
// With `profiled`, the same walk runs under an enabled Profiler and the
// report's total_ns / total_work becomes the CPU-efficiency number.
WalkResult run_walk(int steps, int reps, bool profiled) {
  WalkResult out;
  double best = 1e100;
  for (int rep = 0; rep < reps; ++rep) {
    hier::GridHierarchy h(81, 81, 3);
    tracking::TrackingNetwork net(h, tracking::NetworkConfig{});
    obs::Profiler prof;
    if (profiled) {
      net.set_profiler(&prof);
      prof.enable();
    }
    const RegionId start = h.grid().region_at(40, 40);
    const TargetId t = net.add_evader(start);
    net.run_to_quiescence();
    vsa::RandomWalkMover mover(h.tiling(), 0xB7);
    RegionId cur = start;
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < steps; ++i) {
      cur = mover.next(cur);
      net.move_evader(t, cur);
      net.run_to_quiescence();
    }
    const double secs = seconds_since(t0);
    if (secs < best) {
      best = secs;
      out.events_per_sec =
          static_cast<double>(net.scheduler().events_fired()) / secs;
      if (profiled) {
        prof.disable();
        const obs::ProfileReport rep_ = prof.report(
            net.counters().total_work(), net.counters().total_messages());
        out.ns_per_work = rep_.ns_per_work();
        out.scopes = rep_.scopes;
      }
    }
    net.set_profiler(nullptr);
  }
  return out;
}

struct Measurement {
  double serial_events_per_sec = 0;
  double walk_events_per_sec = 0;
  double profile_ns_per_work = 0;
  std::uint64_t profile_scopes = 0;
};

// --- minimal JSON field extraction (for the baseline, whose shape this
// tool itself writes) ------------------------------------------------------

double find_number(const std::string& json, const std::string& key,
                   double fallback) {
  const std::string needle = "\"" + key + "\":";
  const auto at = json.find(needle);
  if (at == std::string::npos) return fallback;
  return std::strtod(json.c_str() + at + needle.size(), nullptr);
}

std::string find_string(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\": \"";
  const auto at = json.find(needle);
  if (at == std::string::npos) return {};
  const auto start = at + needle.size();
  std::string out;
  for (auto i = start; i < json.size(); ++i) {
    if (json[i] == '\\' && i + 1 < json.size()) {
      out.push_back(json[++i]);
    } else if (json[i] == '"') {
      return out;
    } else {
      out.push_back(json[i]);
    }
  }
  return out;
}

std::string baseline_fingerprint(const std::string& json) {
  std::ostringstream os;
  os << find_string(json, "cpu_model") << "|"
     << static_cast<unsigned>(find_number(json, "cores", 0)) << "|"
     << find_string(json, "compiler") << "|"
     << find_string(json, "build_type") << "|"
     << find_string(json, "cxx_flags");
  return os.str();
}

// One compact (single-line) machine object for the history line: the
// pretty renderer's output with its layout whitespace folded away.
std::string compact_machine_json(const MachineEnv& env) {
  const std::string pretty = machine_env_json(env, 0);
  std::string out;
  std::istringstream is(pretty);
  std::string line;
  while (std::getline(is, line)) {
    const auto start = line.find_first_not_of(' ');
    if (start == std::string::npos) continue;
    out += line.substr(start);
  }
  return out;
}

void write_metrics_json(std::ostream& os, const Measurement& m,
                        const char* indent) {
  os << indent << "\"serial_events_per_sec\": "
     << static_cast<std::int64_t>(m.serial_events_per_sec) << ",\n"
     << indent << "\"walk_events_per_sec\": "
     << static_cast<std::int64_t>(m.walk_events_per_sec) << ",\n"
     << indent << "\"profile_ns_per_work\": " << m.profile_ns_per_work
     << ",\n"
     << indent << "\"profile_scopes\": " << m.profile_scopes << "\n";
}

bool append_history(const std::string& path, const MachineEnv& env,
                    const Measurement& m) {
  std::ofstream os(path, std::ios::app);
  if (!os.good()) {
    std::cerr << "vinestalk_bench: cannot append to " << path << "\n";
    return false;
  }
  os << "{\"machine\": " << compact_machine_json(env)
     << ", \"metrics\": {\"serial_events_per_sec\": "
     << static_cast<std::int64_t>(m.serial_events_per_sec)
     << ", \"walk_events_per_sec\": "
     << static_cast<std::int64_t>(m.walk_events_per_sec)
     << ", \"profile_ns_per_work\": " << m.profile_ns_per_work
     << ", \"profile_scopes\": " << m.profile_scopes << "}}\n";
  return os.good();
}

bool write_baseline(const std::string& path, const MachineEnv& env,
                    const Measurement& m, double tolerance) {
  std::ofstream os(path, std::ios::trunc);
  if (!os.good()) {
    std::cerr << "vinestalk_bench: cannot write " << path << "\n";
    return false;
  }
  os << "{\n  \"machine\": " << machine_env_json(env, 2) << ",\n"
     << "  \"tolerance\": " << tolerance << ",\n"
     << "  \"metrics\": {\n";
  write_metrics_json(os, m, "    ");
  os << "  }\n}\n";
  return os.good();
}

/// One gate row: true when the metric regressed past the tolerance.
/// `higher_is_better` selects the direction; a zero baseline or zero
/// current value skips the row (metric absent, e.g. profiling compiled
/// out).
bool gate_row(const char* name, double baseline, double current,
              double tolerance, bool higher_is_better) {
  if (baseline <= 0 || current <= 0) {
    std::printf("  %-26s baseline absent — skipped\n", name);
    return false;
  }
  const double ratio = current / baseline;
  const bool regressed = higher_is_better ? ratio < 1.0 - tolerance
                                          : ratio > 1.0 + tolerance;
  std::printf("  %-26s baseline %14.0f  current %14.0f  ratio %.3f%s\n",
              name, baseline, current, ratio,
              regressed ? "  REGRESSED" : "");
  return regressed;
}

}  // namespace

int main(int argc, char** argv) {
  std::string history_path = "BENCH_history.jsonl";
  std::string baseline_path = "docs/perf/BENCH_baseline.json";
  bool check = false;
  bool strict = false;
  bool update_baseline = false;
  bool quick = false;
  double tolerance_override = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--history=", 0) == 0) {
      history_path = arg.substr(10);
    } else if (arg.rfind("--baseline=", 0) == 0) {
      baseline_path = arg.substr(11);
    } else if (arg == "--check") {
      check = true;
    } else if (arg == "--strict") {
      strict = true;
    } else if (arg == "--update-baseline") {
      update_baseline = true;
    } else if (arg.rfind("--tolerance=", 0) == 0) {
      tolerance_override = std::strtod(arg.c_str() + 12, nullptr);
    } else if (arg == "--quick") {
      quick = true;
    } else {
      return usage();
    }
  }

  const MachineEnv env = collect_machine_env();
  std::printf("vinestalk_bench: %s, %u core(s), %s, %s%s\n",
              env.cpu_model.c_str(), env.cores, env.compiler.c_str(),
              env.git_sha.substr(0, 12).c_str(), quick ? " (quick)" : "");

  const int reps = quick ? 1 : 3;
  Measurement m;
  m.serial_events_per_sec =
      serial_events_per_sec(quick ? 200'000 : 1'000'000, reps);
  const WalkResult plain = run_walk(quick ? 30 : 100, reps, false);
  m.walk_events_per_sec = plain.events_per_sec;
  const WalkResult profiled = run_walk(quick ? 30 : 100, reps, true);
  m.profile_ns_per_work = profiled.ns_per_work;
  m.profile_scopes = profiled.scopes;

  std::printf("  serial:   %.0f events/sec\n", m.serial_events_per_sec);
  std::printf("  walk:     %.0f events/sec\n", m.walk_events_per_sec);
  if (obs::kProfileCompiled) {
    std::printf("  profiled: %.1f ns per unit hop-work (%llu scopes)\n",
                m.profile_ns_per_work,
                static_cast<unsigned long long>(m.profile_scopes));
  } else {
    std::printf("  profiled: (profiling compiled out)\n");
  }

  if (!append_history(history_path, env, m)) return 2;
  std::printf("appended history entry to %s\n", history_path.c_str());

  if (update_baseline) {
    const double tol = tolerance_override > 0 ? tolerance_override : 0.35;
    if (!write_baseline(baseline_path, env, m, tol)) return 2;
    std::printf("wrote baseline %s (tolerance %.2f)\n",
                baseline_path.c_str(), tol);
  }

  if (!check) return 0;

  std::ifstream in(baseline_path);
  if (!in.good()) {
    std::cerr << "vinestalk_bench: cannot read baseline " << baseline_path
              << "\n";
    return 2;
  }
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string baseline = ss.str();

  const double tol = tolerance_override > 0
                         ? tolerance_override
                         : find_number(baseline, "tolerance", 0.35);
  const std::string base_fp = baseline_fingerprint(baseline);
  if (base_fp != env.fingerprint()) {
    std::printf("baseline fingerprint differs from this machine:\n"
                "  baseline: %s\n  current:  %s\n",
                base_fp.c_str(), env.fingerprint().c_str());
    if (!strict) {
      std::printf("numbers are not comparable — gate skipped "
                  "(run --update-baseline on this box, or --strict to "
                  "judge anyway)\n");
      return 0;
    }
  }

  std::printf("regression gate (tolerance %.2f):\n", tol);
  bool regressed = false;
  regressed |= gate_row("serial_events_per_sec",
                        find_number(baseline, "serial_events_per_sec", 0),
                        m.serial_events_per_sec, tol, true);
  regressed |= gate_row("walk_events_per_sec",
                        find_number(baseline, "walk_events_per_sec", 0),
                        m.walk_events_per_sec, tol, true);
  regressed |= gate_row("profile_ns_per_work",
                        find_number(baseline, "profile_ns_per_work", 0),
                        m.profile_ns_per_work, tol, false);
  std::printf("%s\n", regressed ? "REGRESSION DETECTED" : "within tolerance");
  return regressed ? 1 : 0;
}
