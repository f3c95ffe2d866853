#include "obs/monitor/watchdog.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

#include "common/error.hpp"
#include "spec/consistency.hpp"
#include "spec/look_ahead.hpp"
#include "tracking/series.hpp"

namespace vs::obs {

namespace {

/// Stable machine name for an InvariantMonitor diagnostic (replay matches
/// incidents on this, so it must not embed run-specific values).
std::string predicate_of(const std::string& msg) {
  if (msg.rfind("Lemma 4.1", 0) == 0) {
    return msg.find("shrink") != std::string::npos ? "lemma-4.1-shrink"
                                                   : "lemma-4.1-grow";
  }
  if (msg.rfind("Lemma 4.2", 0) == 0) return "lemma-4.2";
  if (msg.rfind("Lemma 4.3", 0) == 0) return "lemma-4.3";
  return "invariant";
}

std::string describe_config(const tracking::TrackingNetwork& net) {
  const auto& h = net.hierarchy();
  const auto& c = net.config();
  std::ostringstream os;
  os << "{\"regions\": " << h.tiling().num_regions()
     << ", \"clusters\": " << h.num_clusters()
     << ", \"max_level\": " << h.max_level()
     << ", \"lateral_links\": " << (c.lateral_links ? "true" : "false")
     << ", \"model_vsa_failures\": "
     << (c.model_vsa_failures ? "true" : "false")
     << ", \"clients_per_region\": " << c.clients_per_region
     << ", \"head_replicas\": " << c.head_replicas << "}";
  return os.str();
}

}  // namespace

Watchdog::Watchdog(tracking::TrackingNetwork& net, TargetId target,
                   WatchdogConfig config, ScenarioSpec scenario)
    : net_(&net),
      target_(target),
      cfg_(std::move(config)),
      scenario_(std::move(scenario)),
      shadow_(net.hierarchy(), net.config().lateral_links) {
  VS_REQUIRE(cfg_.mode != WatchMode::kOff,
             "Watchdog constructed with mode off — don't construct one");
  // The watchdog owns the every-change hook (rather than letting the
  // monitor install its own) so per-change lemma scans can be gated on the
  // atomic-domain flag: once moves overlap, mid-flight multi-front states
  // are legal and only the quiescence-edge checks remain sound.
  monitor_ = std::make_unique<spec::InvariantMonitor>(
      net, target, /*check_every_change=*/false);
  monitor_->set_violation_hook(
      [this](const std::string& msg, ClusterId cluster, Level level) {
        on_violation(predicate_of(msg), msg, cluster.value(), level);
      });
  if (cfg_.mode == WatchMode::kEveryChange) {
    net.set_state_change_hook([this](ClusterId, TargetId t) {
      if (t != target_ || !atomic_so_far_ || in_check_) return;
      in_check_ = true;
      ++checks_run_;
      monitor_->check_now();
      in_check_ = false;
    });
  }
  net.set_move_observer(
      [this](TargetId t, RegionId from, RegionId to, bool quiescent) {
        on_move(t, from, to, quiescent);
      });
  // Flight recorder: take over the recorder only if nobody is already
  // tracing (a full-trace run keeps its unbounded log and still gets its
  // events into incidents — events() works in either mode). The
  // destructor undoes the take-over, so a later full-trace run on the same
  // world is not silently capped at the ring size.
  if (cfg_.ring_capacity > 0 && !net.trace().enabled()) {
    owns_recorder_ = true;
    prev_ring_capacity_ = net.trace().ring_capacity();
    net.trace().set_ring_capacity(cfg_.ring_capacity);
    net.set_tracing(true);
  }
  // If the target already exists (attached after add_evader), arm the
  // shadow from its current region — valid while the world is quiescent.
  if (net.scheduler().pending() == 0) {
    // region_of throws for unknown targets; treat that as "not placed yet"
    // (the move observer will init the shadow on placement).
    try {
      const RegionId where = net.evaders().region_of(target);
      shadow_.init(where);
      shadow_live_ = true;
      // Arm the Theorem 4.8 comparison only if the live structure already
      // matches the canonical state for `where`. Attaching after an
      // unobserved history (repair traffic, residual lateral pointers)
      // would otherwise diff that residue against a from-scratch shadow.
      try {
        const spec::IdealState ideal = spec::look_ahead(
            net.snapshot(target), net.config().lateral_links);
        if (!spec::equal_states(ideal, shadow_.state())) {
          atomic_so_far_ = false;
          monitor_->set_live_checks(false);
        }
      } catch (const vs::Error&) {
        atomic_so_far_ = false;  // outside lookAhead's domain already
        monitor_->set_live_checks(false);
      }
    } catch (const vs::Error&) {
      shadow_live_ = false;
    }
  } else {
    atomic_so_far_ = false;  // attached mid-flight: unknown move history
    monitor_->set_live_checks(false);
  }
  // Live bound auditing: own a ledger, hand it to the network, judge it
  // at quiescent full checks. The auditor always judges against the
  // *canonical* paper-default timer policy — a run driven with scaled
  // timers (ScenarioSpec::timer_scale) still obeys inequality (1), but
  // its cost must answer to what the paper promises.
  if (cfg_.audit) {
    ledger_.set_enabled(true);
    auditor_ = std::make_unique<BoundAuditor>(
        net.hierarchy(),
        AuditConfig{
            .slack = cfg_.audit_slack,
            .delta_plus_e = net.config().cgcast.delta + net.config().cgcast.e,
            .timers = tracking::TimerPolicy::paper_default(net.hierarchy(),
                                                           net.config().cgcast),
        });
    net.set_op_ledger(&ledger_);
  }
  next_due_ = net.now() + cfg_.cadence;
  net.scheduler().set_post_step_hook(&Watchdog::post_step_thunk, this);
}

Watchdog::~Watchdog() {
  if (net_ == nullptr) return;
  if (auditor_ != nullptr) net_->set_op_ledger(nullptr);
  net_->scheduler().set_post_step_hook(nullptr, nullptr);
  net_->set_move_observer({});
  if (cfg_.mode == WatchMode::kEveryChange) net_->set_state_change_hook({});
  if (owns_recorder_) {
    // Tracing was off when the constructor took the recorder over (the
    // take-over condition), so off + the prior capacity is the pre-attach
    // state. set_ring_capacity(0) returns to unbounded mode.
    net_->set_tracing(false);
    net_->trace().set_ring_capacity(prev_ring_capacity_);
  }
  // monitor_ (destroyed after this body) detaches its own send observer.
}

void Watchdog::on_move(TargetId t, RegionId from, RegionId to,
                       bool quiescent_at_issue) {
  if (t != target_) return;
  monitor_->on_move();
  if (!from.valid()) {
    // Initial placement: atomicMoveSeq's init(cluster(start, 0)).
    if (!shadow_live_) {
      shadow_.init(to);
      shadow_live_ = true;
    }
    return;
  }
  if (!atomic_so_far_ || !shadow_live_) return;
  if (!quiescent_at_issue) {
    // A move issued before the previous one's updates drained: outside
    // Theorem 4.8's atomic domain from here on. Mid-flight lemma checks
    // stop (multi-front states are now legal); quiescence-edge checks and
    // the consistency predicate stay armed.
    atomic_so_far_ = false;
    monitor_->set_live_checks(false);
    return;
  }
  try {
    shadow_.apply_move(to);
  } catch (const vs::Error&) {
    atomic_so_far_ = false;  // teleport or other out-of-spec relocation
  }
}

void Watchdog::post_step() {
  if (in_check_) return;
  const bool quiescent = net_->scheduler().pending() == 0;
  if (cfg_.mode == WatchMode::kEveryChange) {
    // Per-change lemma checks already ran via the state-change hook; the
    // expensive tier runs at every quiescence edge.
    if (quiescent) full_check();
    return;
  }
  const sim::TimePoint now = net_->now();
  if (now < next_due_) return;
  if (quiescent) {
    full_check();
  } else if (atomic_so_far_) {
    // Lemma tier only: mid-flight state between atomic moves is exactly
    // what Lemmas 4.1–4.3 constrain. Outside the atomic domain a
    // mid-flight scan would count legal concurrent fronts, so it waits
    // for the next quiescence edge instead.
    in_check_ = true;
    ++checks_run_;
    monitor_->check_now();
    in_check_ = false;
  }
  next_due_ = now + cfg_.cadence;
}

void Watchdog::check_now() { full_check(); }

void Watchdog::arm_recovery_deadline(sim::TimePoint deadline) {
  VS_REQUIRE(!deadline.is_never(), "recovery deadline must be a real instant");
  recovery_deadline_ = deadline;
  recovery_met_ = false;
}

void Watchdog::yield_recorder() {
  if (!owns_recorder_) return;
  owns_recorder_ = false;
  net_->trace().set_ring_capacity(prev_ring_capacity_);
}

void Watchdog::full_check() {
  in_check_ = true;
  ++checks_run_;
  const bool quiescent = net_->scheduler().pending() == 0;
  // The lemma scan is sound mid-flight only inside the atomic domain; at
  // quiescence it is sound for any legal execution (a drained structure
  // has no open fronts).
  if (quiescent || atomic_so_far_) monitor_->check_now();
  const tracking::SystemSnapshot snap = net_->snapshot(target_);
  RegionId where{};
  try {
    where = net_->evaders().region_of(target_);
  } catch (const vs::Error&) {
    in_check_ = false;
    return;  // target not placed yet: nothing to judge
  }
  if (quiescent) {
    // §IV-C consistency is a property of quiescent states (Theorem 4.5);
    // mid-flight structures legally have open fronts.
    const spec::ConsistencyReport rep = spec::check_consistent(snap, where);
    if (!rep.ok()) {
      on_violation("consistent-state", rep.to_string(), -1, -1);
    }
    if (!recovery_deadline_.is_never() && net_->now() >= recovery_deadline_) {
      if (rep.ok()) {
        recovery_met_ = true;
      } else {
        std::ostringstream detail;
        detail << "consistent state not restored by the recovery deadline "
               << recovery_deadline_ << " (now " << net_->now()
               << "); residual damage:\n"
               << rep.to_string();
        on_violation("recovery-deadline", detail.str(), -1, -1);
      }
      recovery_deadline_ = sim::TimePoint::never();  // evaluated once
    }
  }
  // Whole-ledger audits only make sense quiescent (open operations would
  // be judged on partial cost); a sliding window judges only completed
  // history, so it runs at every check — that is what makes an over-bound
  // window fire mid-run instead of at teardown.
  if (auditor_ != nullptr &&
      (quiescent || cfg_.audit_window > sim::Duration::zero())) {
    audit_check();
  }
  if (atomic_so_far_ && shadow_live_ && quiescent) {
    try {
      const spec::IdealState ideal =
          spec::look_ahead(snap, net_->config().lateral_links);
      if (!spec::equal_states(ideal, shadow_.state())) {
        on_violation("lookahead-agreement",
                     "lookAhead(live state) != atomicMoveSeq(move history) "
                     "(Theorem 4.8):\n" +
                         spec::diff_states(ideal, shadow_.state()),
                     -1, -1);
      }
    } catch (const vs::Error&) {
      // Outside lookAhead's domain (>1 front). The lemma check above has
      // already recorded the underlying violation; don't double-report.
    }
  }
  in_check_ = false;
}

AuditReport Watchdog::audit_now() const {
  VS_REQUIRE(auditor_ != nullptr,
             "audit_now requires a watchdog with cfg.audit");
  return auditor_->audit(ledger_);
}

void Watchdog::audit_check() {
  const AuditReport report = auditor_->audit_window(
      ledger_, net_->now().count(), cfg_.audit_window);
  for (const AuditViolation& v : report.violations) {
    const std::string key = v.predicate + "#" + std::to_string(v.index);
    if (std::find(audit_reported_.begin(), audit_reported_.end(), key) !=
        audit_reported_.end()) {
      continue;  // already raised for this operation
    }
    audit_reported_.push_back(key);
    on_violation(v.predicate, v.detail, -1, -1);
  }
}

void Watchdog::on_violation(std::string predicate, std::string detail,
                            std::int32_t cluster, std::int32_t level) {
  ++violations_seen_;
  for (const IncidentBundle& b : incidents_) {
    if (b.violation.predicate == predicate) return;  // dedupe per predicate
  }
  if (incidents_.size() >= cfg_.max_incidents) return;
  IncidentBundle b;
  b.source = cfg_.source;
  b.target = target_.value();
  b.violation.predicate = std::move(predicate);
  b.violation.detail = std::move(detail);
  b.violation.time_us = net_->now().count();
  b.violation.cluster = cluster;
  b.violation.level = level;
  b.mode = cfg_.mode;
  b.cadence_us = cfg_.cadence.count();
  b.ring_capacity = cfg_.ring_capacity;
  b.audit = cfg_.audit;
  b.audit_slack = cfg_.audit_slack;
  b.audit_window_us = cfg_.audit_window.count();
  b.scenario = scenario_;
  b.config_json = describe_config(*net_);
  std::ostringstream metrics;
  tracking::series_to_json(metrics, *net_);
  b.metrics_json = metrics.str();
  b.ring = net_->trace().events();
  incidents_.push_back(std::move(b));
  if (sink_) sink_(incidents_.back());
}

WatchdogConfig parse_watch_spec(const std::string& spec) {
  WatchdogConfig cfg;
  if (spec.empty() || spec == "cadence") return cfg;
  if (spec == "every" || spec == "every-change") {
    cfg.mode = WatchMode::kEveryChange;
    return cfg;
  }
  std::int64_t us = 0;
  std::size_t consumed = 0;
  try {
    us = std::stoll(spec, &consumed);
  } catch (...) {
    consumed = 0;
  }
  // The whole spec must parse: stoll alone would accept "50ms" as 50 — a
  // cadence ~1000x hotter than the user asked for.
  VS_REQUIRE(consumed == spec.size() && us > 0,
             "bad monitor spec '"
                 << spec
                 << "' (want 'every' or a cadence in microseconds)");
  cfg.cadence = sim::Duration::micros(us);
  return cfg;
}

}  // namespace vs::obs
