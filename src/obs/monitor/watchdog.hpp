#pragma once
// Live invariant watchdog — the spec checks, attached to a running world.
//
// The spec module (src/spec) can already judge a TrackingNetwork offline;
// the Watchdog turns those judges into an online monitor with a bounded
// flight recorder. It hooks three existing observation points:
//
//  * the scheduler's post-step hook — the virtual-clock source driving
//    cadence checks and quiescence detection (no events are scheduled, so
//    watching never perturbs quiescence, Theorem 4.5);
//  * a spec::InvariantMonitor — Lemma 4.1/4.2/4.3 on sends and (in
//    every-change mode) on each pointer-state change;
//  * the network's trace recorder, switched to ring mode — a fixed-size
//    flight recorder of the last K TraceEvents, allocated once.
//
// Check tiers, by mode:
//  * kCadence: every `cadence` of virtual time, run the lemma scan; when
//    the world is also quiescent, additionally check the consistent-state
//    predicate (§IV-C) and lookAhead agreement with an atomicMoveSeq
//    shadow (Theorem 4.8). Cost is O(#clusters) per boundary — amortised
//    to near-zero against the event work between boundaries.
//  * kEveryChange: the lemma scan on *every* pointer-state change and the
//    full tier at every quiescence edge. O(#clusters) per change —
//    test-sized worlds only.
//  * kOff: don't construct a Watchdog. The residual cost in the hot path
//    is the scheduler's null function-pointer test. bench_micro's
//    BM_MoveAndQuiesceWatched times one 81x81 walk in each tier: /0 with
//    no watchdog, /1 at a 1000us cadence, /2 on every change.
//
// The lookAhead shadow only judges executions inside Theorem 4.8's domain:
// moves issued at quiescence (atomic moves). The move observer watches for
// a move injected while events are still pending and permanently disables
// the shadow comparison for that run — lemma and consistency checks remain
// active. Teleporting the evader (non-neighbour move) likewise disables it.
//
// On violation the watchdog captures an IncidentBundle (one per distinct
// predicate, capped at max_incidents) and hands it to the sink, if any.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/ids.hpp"
#include "obs/ledger/auditor.hpp"
#include "obs/ledger/ledger.hpp"
#include "obs/monitor/incident.hpp"
#include "sim/time.hpp"
#include "spec/atomic_spec.hpp"
#include "spec/invariants.hpp"
#include "tracking/network.hpp"

namespace vs::obs {

struct WatchdogConfig {
  WatchMode mode = WatchMode::kCadence;
  /// Virtual-time interval between checks (kCadence only).
  sim::Duration cadence = sim::Duration::millis(10);
  /// Flight-recorder size (last K events). 0 keeps the recorder's current
  /// storage mode (e.g. a full-trace run that wants monitoring too).
  std::size_t ring_capacity = 1024;
  /// Distinct-predicate incident cap; later violations are counted but
  /// not captured.
  std::size_t max_incidents = 4;
  /// Recorded into bundles as the `source` field.
  std::string source = "watchdog";
  /// Live theorem-bound auditing: attach an OpLedger to the network and,
  /// at every quiescent full check, judge completed operations against
  /// the Theorem 4.9 / 5.2 bounds (BoundAuditor). An over-bound operation
  /// raises a standard incident under its theorem predicate.
  bool audit = false;
  /// Allowed measured/bound factor before an audit violation fires.
  double audit_slack = 2.0;
  /// Sliding-window auditing: when positive, the auditor judges the
  /// trailing `audit_window` of ledger history at *every* cadence check —
  /// an over-bound window raises its incident mid-run, the moment the
  /// window exceeds slack. Zero keeps the whole-ledger audit at quiescent
  /// full checks only (the legacy teardown-style behaviour).
  sim::Duration audit_window = sim::Duration::zero();
};

class Watchdog {
 public:
  using IncidentSink = std::function<void(const IncidentBundle&)>;

  /// Attaches to `net`, watching `target`. `scenario` is embedded into any
  /// captured incident so it can be replayed; pass {} when the workload
  /// has no canonical form (incidents are still captured, marked
  /// non-replayable). The network must be quiescent (fresh or drained).
  Watchdog(tracking::TrackingNetwork& net, TargetId target,
           WatchdogConfig config = {}, ScenarioSpec scenario = {});
  /// Detaches every hook it installed (post-step, move observer,
  /// state-change, the monitor's send observer) and, when the constructor
  /// switched the trace recorder to ring mode, restores the recorder's
  /// prior mode and enabled flag — a watchdog may be destroyed or replaced
  /// while the network lives on. The network must not die first.
  ~Watchdog();

  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  /// Runs the full check tier immediately (lemmas + consistency +
  /// lookAhead agreement if still in the atomic domain). Drivers call this
  /// after injecting corruptions or at end of run.
  void check_now();

  /// Arms the §VII recovery-deadline assertion for fault-plan runs: at the
  /// first *quiescent* full check at or after `deadline` (including an
  /// explicit check_now at end of run), the consistent-state predicate
  /// must hold. A miss raises the "recovery-deadline" violation — with the
  /// usual fault-replayable incident bundle — and either way the deadline
  /// is evaluated exactly once. Inconsistency observed before the deadline
  /// is the fault window doing its job and is judged only by the ordinary
  /// consistent-state predicate.
  void arm_recovery_deadline(sim::TimePoint deadline);
  /// True once the armed deadline was evaluated and the structure had
  /// recovered. False while pending, after a miss, or if never armed.
  [[nodiscard]] bool recovery_deadline_met() const { return recovery_met_; }
  /// True while an armed deadline has not been evaluated yet.
  [[nodiscard]] bool recovery_deadline_pending() const {
    return !recovery_deadline_.is_never();
  }

  /// Installs the incident observer (called once per captured bundle, at
  /// detection time).
  void set_incident_sink(IncidentSink sink) { sink_ = std::move(sink); }

  /// Replaces the scenario embedded into future incidents. Incremental
  /// capturers (the CLI) call this as the session evolves, so a bundle
  /// always carries the scenario as of its detection.
  void set_scenario(ScenarioSpec scenario) { scenario_ = std::move(scenario); }

  /// Hands the trace recorder back to the caller: if the constructor had
  /// switched it to ring mode, returns it to unbounded mode (tracing stays
  /// enabled) and forgoes the destructor's restore. Drivers call this when
  /// an explicit full-trace request outranks the bounded flight recorder —
  /// otherwise the "full" dump silently holds only the last K events.
  /// Incidents captured afterwards embed the unbounded log instead.
  void yield_recorder();

  [[nodiscard]] const std::vector<IncidentBundle>& incidents() const {
    return incidents_;
  }
  [[nodiscard]] bool ok() const { return violations_seen_ == 0; }
  /// Total violations observed, including ones deduplicated or dropped by
  /// the incident cap.
  [[nodiscard]] std::int64_t violations_seen() const {
    return violations_seen_;
  }
  /// Full check passes executed (cost-model accounting for the benches).
  [[nodiscard]] std::int64_t checks_run() const { return checks_run_; }
  /// False once a non-atomic or non-neighbour move put the execution
  /// outside Theorem 4.8's domain (lookAhead comparison disabled).
  [[nodiscard]] bool atomic_so_far() const { return atomic_so_far_; }

  [[nodiscard]] const spec::InvariantMonitor& monitor() const {
    return *monitor_;
  }

  /// The live cost ledger (cfg.audit only; empty otherwise).
  [[nodiscard]] const OpLedger& ledger() const { return ledger_; }
  /// True when cfg.audit was set.
  [[nodiscard]] bool auditing() const { return auditor_ != nullptr; }
  /// Evaluates the live ledger now (requires auditing()).
  [[nodiscard]] AuditReport audit_now() const;

 private:
  static void post_step_thunk(void* ctx) {
    static_cast<Watchdog*>(ctx)->post_step();
  }
  void post_step();
  void full_check();
  void audit_check();
  void on_move(TargetId t, RegionId from, RegionId to,
               bool quiescent_at_issue);
  void on_violation(std::string predicate, std::string detail,
                    std::int32_t cluster, std::int32_t level);

  tracking::TrackingNetwork* net_;
  TargetId target_;
  WatchdogConfig cfg_;
  ScenarioSpec scenario_;
  std::unique_ptr<spec::InvariantMonitor> monitor_;
  spec::AtomicSpec shadow_;
  bool shadow_live_ = false;   // init() applied
  bool atomic_so_far_ = true;  // execution still in Theorem 4.8's domain
  bool in_check_ = false;      // re-entrancy guard (hook → check → hook)
  bool owns_recorder_ = false;  // ctor switched the recorder to ring mode
  std::size_t prev_ring_capacity_ = 0;  // recorder mode to restore
  sim::TimePoint next_due_ = sim::TimePoint::zero();
  sim::TimePoint recovery_deadline_ = sim::TimePoint::never();
  bool recovery_met_ = false;
  std::int64_t violations_seen_ = 0;
  std::int64_t checks_run_ = 0;
  std::vector<IncidentBundle> incidents_;
  IncidentSink sink_;
  OpLedger ledger_;  // attached to the network while auditing
  std::unique_ptr<BoundAuditor> auditor_;
  /// Audit violations already reported ("predicate#index"), so a
  /// persistent over-bound operation raises one violation, not one per
  /// quiescent check.
  std::vector<std::string> audit_reported_;
};

/// Parses a --monitor flag value: "every" → kEveryChange, a positive
/// integer → kCadence with that many microseconds, "" → kCadence with the
/// default cadence. Throws vs::Error otherwise.
[[nodiscard]] WatchdogConfig parse_watch_spec(const std::string& spec);

}  // namespace vs::obs
