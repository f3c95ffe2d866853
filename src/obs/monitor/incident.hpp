#pragma once
// Incident bundles — the watchdog's self-contained violation artifact.
//
// When the live watchdog (obs/monitor/watchdog.hpp) detects an invariant
// violation, it packages everything needed to understand and *re-run* the
// failure into one IncidentBundle: the scenario that produced it (world
// shape, RNG seed, move count, injected corruptions), the violated
// predicate with the offending cluster/level, a metrics snapshot, and the
// flight recorder's ring of the last K TraceEvents leading up to the
// detection. `vinestalk_trace incident` pretty-prints bundles and
// `--replay` re-executes the scenario deterministically.
//
// On-disk layout (native byte order, like VSTRACE1 — a run artifact, not
// an interchange format):
//
//   bytes 0..7   magic "VSINCID1"
//   u32          format version (kIncidentFormatVersion)
//   str          source        (u32 length + bytes, no terminator)
//   i32          target id
//   violation:   str predicate, str detail, i64 time_us, i32 cluster,
//                i32 level
//   u8           watch mode, i64 cadence_us, u64 ring capacity
//   scenario:    i32 side, i32 base, u8 lateral_links, u8 vsa_failures,
//                u8 replayable, i32 clients_per_region, i32 start_region,
//                u64 seed, i32 steps, u32 corruption count,
//                per corruption: 5 × i32 (cluster, c, p, nbrptup, nbrptdown)
//   pacing:      str fault_plan, i64 step_every_us, i64 settle_us,
//                i64 heartbeat_period_us, i64 t_restart_us
//   audit:       f64 timer_scale, u8 audit, f64 audit_slack,
//                i64 audit_window_us
//   slo:         str scenario.slo_spec (the `slo v1` objective text the
//                run was armed with), str slo_state_json (per-objective
//                burn-window state at fire time), u32 exemplar count +
//                per exemplar: u8 class, u32 op, i64 t_us, i64 latency_ns,
//                i64 distance (all empty when no SLO monitor was attached)
//   str          config_json
//   str          metrics_json
//   ring:        u64 event count + count × obs::TraceEvent (raw 64 bytes)
//   trailer:     bytes "VSINCEND"
//
// The reader accepts v5 only (common/codec.hpp); re-record older bundles.
//
// Everything in a bundle derives from virtual time and world-local state,
// so two runs of the same scenario — at any --jobs value — serialize to
// byte-identical bundles (pinned by tests/test_monitor.cpp).

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace.hpp"

namespace vs::obs {

inline constexpr std::uint32_t kIncidentFormatVersion = 5;

/// How the watchdog samples the invariants (see watchdog.hpp for the cost
/// model of each mode).
enum class WatchMode : std::uint8_t {
  kOff = 0,          // watchdog never constructed; zero overhead
  kCadence = 1,      // check at a virtual-time cadence
  kEveryChange = 2,  // check on every pointer-state change + quiescence
};

[[nodiscard]] const char* to_string(WatchMode mode);

/// One detected invariant violation. `predicate` is the stable machine
/// name of the failed check (replay matches on it); `detail` the full
/// human diagnostic. cluster/level name the offending process when the
/// check can identify one (-1 otherwise).
struct Violation {
  std::string predicate;
  std::string detail;
  std::int64_t time_us = 0;
  std::int32_t cluster = -1;
  std::int32_t level = -1;
};

/// A canonical replayable workload: grid world + seeded random walk +
/// optional injected corruptions. The watchdog embeds the spec it is given
/// into every incident; replay re-runs it step by step under a fresh
/// watchdog. Interactive drivers (the CLI) capture their session into one
/// of these as commands arrive, marking it non-replayable when the session
/// does something the canonical form cannot express (manual moves, a
/// second walk).
struct ScenarioSpec {
  /// Forced pointer state for one cluster (fed to Tracker::corrupt_state).
  struct Corruption {
    std::int32_t cluster = -1;
    std::int32_t c = -1;
    std::int32_t p = -1;
    std::int32_t nbrptup = -1;
    std::int32_t nbrptdown = -1;
  };

  std::int32_t side = 0;  // side×side grid; 0 = unknown world
  std::int32_t base = 3;
  bool lateral_links = true;
  bool model_vsa_failures = false;
  std::int32_t clients_per_region = 1;
  std::int32_t start_region = -1;
  std::uint64_t seed = 1;  // random_walk seed
  std::int32_t steps = 0;  // moves taken before the corruptions
  std::vector<Corruption> corruptions;
  /// Fault plan text (fault::FaultPlan::to_string; empty = no faults).
  /// Replay re-parses and arms it, so incidents captured under injected
  /// faults reproduce the same fault sequence exactly.
  std::string fault_plan;
  /// Walk pacing: 0 = drain between moves (move_and_quiesce, the v1
  /// behavior); > 0 = advance that much virtual time per step (required
  /// for fault plans — draining would fast-forward through the windows).
  std::int64_t step_every_us = 0;
  /// Virtual time to run after the walk before draining (repair settle).
  std::int64_t settle_us = 0;
  /// ext::Stabilizer period; 0 = no stabilizer attached.
  std::int64_t heartbeat_period_us = 0;
  /// VSA restart time override (model_vsa_failures worlds); 0 = the
  /// NetworkConfig default.
  std::int64_t t_restart_us = 0;
  /// Uniform timer-policy scale κ: the run armed κ × the paper-default
  /// grow/shrink timers (κ ≥ 1 keeps inequality (1) valid, so the
  /// structure stays correct — only slower). The bound auditor judges
  /// against the *canonical* κ = 1 policy, so κ > 1 is the seeded way to
  /// produce a replayable over-bound incident.
  double timer_scale = 1.0;
  /// SLO objective text (`slo v1` format, obs::SloSpec::to_string) the run
  /// was armed with; empty = no SLO monitor. Carried so an incident names
  /// the service-level contract it was judged against.
  std::string slo_spec;
  /// Cleared by capturing drivers when the session leaves the canonical
  /// shape; replay refuses (with a diagnostic) rather than diverging.
  bool replayable_flag = true;

  [[nodiscard]] bool replayable() const {
    return replayable_flag && side > 0 && base > 1 && start_region >= 0;
  }
};

/// A latency exemplar: one concrete slow request behind a burn-rate
/// alert, linking the span to the OpId of the operation that served it —
/// `vinestalk_trace spans <trace> <find-id>` (the find id is the op
/// index) pretty-prints the causal chain behind the p99 outlier.
struct SloExemplar {
  std::uint8_t cls = 0;          // obs::SloClass
  std::uint32_t op = 0;          // OpId (0 for update/round spans)
  std::int64_t t_us = 0;         // virtual time at span close
  std::int64_t latency_ns = 0;   // wall-clock span duration
  std::int64_t distance = 0;     // find distance d (Theorem 5.2); else 0
};

/// The self-contained violation artifact.
struct IncidentBundle {
  std::string source;       // who was watching ("watchdog", a bench name)
  std::int32_t target = -1; // tracked TargetId
  Violation violation;      // first violation of this predicate
  WatchMode mode = WatchMode::kCadence;
  std::int64_t cadence_us = 0;
  std::uint64_t ring_capacity = 0;
  /// Whether the capturing watchdog ran the theorem-bound auditor, and at
  /// what slack factor — replay restores both so audit incidents (e.g.
  /// "theorem-4.9-move-time") reproduce.
  bool audit = false;
  double audit_slack = 2.0;
  /// Trailing-window length the sliding-window audit ran at (0 =
  /// whole-ledger audit at quiescent checks).
  std::int64_t audit_window_us = 0;
  ScenarioSpec scenario;
  std::string config_json;   // world configuration at detection
  std::string metrics_json;  // MetricsRegistry::to_json snapshot
  /// Burn-window state per objective at fire time (obs::SloMonitor JSON;
  /// empty when the incident is not SLO-sourced).
  std::string slo_state_json;
  /// Worst-latency exemplars behind the alert, slowest first.
  std::vector<SloExemplar> slo_exemplars;
  std::vector<TraceEvent> ring;  // flight recorder, oldest first
};

void write_incident(std::ostream& os, const IncidentBundle& b);
void write_incident_file(const std::string& path, const IncidentBundle& b);

/// Decodes a whole VSINCID1 file. Throws vs::Error on bad
/// magic/version/truncation (same hardening contract as trace_io: a short
/// or corrupt file fails loudly).
[[nodiscard]] IncidentBundle read_incident(std::string_view bytes);
[[nodiscard]] IncidentBundle read_incident_file(const std::string& path);

/// Human-readable rendering (the `vinestalk_trace incident` view):
/// violation, scenario, config, metrics, and the tail of the ring.
void print_incident(std::ostream& os, const IncidentBundle& b,
                    std::size_t ring_tail = 16);

}  // namespace vs::obs
