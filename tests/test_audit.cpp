// The per-operation cost ledger and theorem-bound auditor: every C-gcast
// message of a seeded walk is attributed to exactly one logical operation
// (conservation — nothing dropped, nothing double-counted); the offline
// trace attribution reproduces the live ledger byte for byte; ledgers are
// byte-identical for every --jobs value; healthy runs stay within the
// audit slack; a run driven by a scaled (but still inequality-(1)-valid)
// timer policy blows the Theorem 4.9 time bound and yields an incident
// bundle that replays deterministically; and the disabled ledger holds
// zero entries — the zero-overhead pin.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "obs/ledger/auditor.hpp"
#include "obs/ledger/ledger.hpp"
#include "obs/monitor/replay.hpp"
#include "obs/monitor/watchdog.hpp"
#include "obs/op.hpp"
#include "runner/trial_pool.hpp"
#include "spec/bounds.hpp"
#include "util.hpp"

namespace vstest {
namespace {

/// A traced walk + find with a live ledger attached before placement, so
/// every operation of the run is captured by both the ledger and the
/// trace. Returns the world with the ledger still attached.
struct AuditedRun {
  GridNet g;
  obs::OpLedger ledger;
  TargetId target{};
  FindId find{};
};

AuditedRun run_audited_walk(int steps, std::uint64_t seed) {
  AuditedRun r;
  r.g = make_grid(27, 3);
  r.ledger.set_enabled(true);
  r.g.net->set_op_ledger(&r.ledger);
  r.g.net->set_tracing(true);
  const RegionId start = r.g.at(13, 13);
  r.target = r.g.net->add_evader(start);
  r.g.net->run_to_quiescence();
  const auto walk = random_walk(r.g.hierarchy->tiling(), start, steps, seed);
  for (std::size_t i = 1; i < walk.size(); ++i) {
    r.g.net->move_and_quiesce(r.target, walk[i]);
  }
  r.find = r.g.net->start_find(r.g.at(0, 26), r.target);
  r.g.net->run_to_quiescence();
  return r;
}

/// Each class total the ledger keeps as sends are noted must equal a
/// recount over its ops: summed msgs/work and per-level rows, the earliest
/// first_us and the latest last_us.
void expect_class_totals_match_ops(const obs::OpLedger& ledger) {
  for (const obs::OpClass cls :
       {obs::OpClass::kBackground, obs::OpClass::kMove,
        obs::OpClass::kFindSearch, obs::OpClass::kFindTrace,
        obs::OpClass::kHeartbeat, obs::OpClass::kRepair}) {
    obs::OpCost want;
    for (const auto& [op, c] : ledger.ops()) {
      if (obs::op_class(op) != cls) continue;
      want.msgs += c.msgs;
      want.work += c.work;
      if (want.first_us < 0 || c.first_us < want.first_us) {
        want.first_us = c.first_us;
      }
      want.last_us = std::max(want.last_us, c.last_us);
      if (want.msgs_by_level.size() < c.msgs_by_level.size()) {
        want.msgs_by_level.resize(c.msgs_by_level.size(), 0);
        want.work_by_level.resize(c.work_by_level.size(), 0);
      }
      for (std::size_t l = 0; l < c.msgs_by_level.size(); ++l) {
        want.msgs_by_level[l] += c.msgs_by_level[l];
        want.work_by_level[l] += c.work_by_level[l];
      }
    }
    const obs::OpCost& got = ledger.class_total(cls);
    const char* name = obs::op_class_name(cls);
    EXPECT_EQ(got.msgs, want.msgs) << name;
    EXPECT_EQ(got.work, want.work) << name;
    EXPECT_EQ(got.first_us, want.first_us) << name;
    EXPECT_EQ(got.last_us, want.last_us) << name;
    EXPECT_EQ(got.msgs_by_level, want.msgs_by_level) << name;
    EXPECT_EQ(got.work_by_level, want.work_by_level) << name;
  }
}

TEST(Audit, AttributionConservationOnSeededWalk) {
  AuditedRun r = run_audited_walk(12, 0xAD17);
  const obs::WorldTrace w{0, r.g.net->trace().events()};
  const obs::TraceAttribution attr = obs::attribute_trace(w);

  // Every cost event lands in exactly one bucket, and the ledger's total
  // equals the event count — conservation in both directions.
  EXPECT_EQ(attr.direct + attr.via_cause + attr.background, attr.cost_events);
  EXPECT_EQ(attr.ledger.total_msgs(), attr.cost_events);
  EXPECT_GT(attr.cost_events, 0);

  // The op tag reaches every send in this shape: 100% direct attribution,
  // nothing left for the causal fallback or background.
  EXPECT_EQ(attr.direct, attr.cost_events);
  EXPECT_EQ(attr.background, 0);
  const obs::OpCost bg = attr.ledger.class_total(obs::OpClass::kBackground);
  EXPECT_EQ(bg.msgs, 0);
  EXPECT_EQ(bg.work, 0);
}

TEST(Audit, OfflineAttributionMatchesLiveLedger) {
  AuditedRun r = run_audited_walk(10, 0xBEE5);
  const obs::WorldTrace w{0, r.g.net->trace().events()};
  const obs::TraceAttribution attr = obs::attribute_trace(w);
  EXPECT_EQ(attr.ledger.to_json(), r.ledger.to_json());
  EXPECT_GT(r.ledger.entries(), 0u);

  // The class totals, live and offline, equal a recount over the ops.
  EXPECT_GT(r.ledger.class_total(obs::OpClass::kMove).msgs, 0);
  EXPECT_GT(r.ledger.class_total(obs::OpClass::kFindTrace).msgs, 0);
  expect_class_totals_match_ops(r.ledger);
  expect_class_totals_match_ops(attr.ledger);

  // clear() empties them with the ops, and they count afresh after it.
  r.ledger.clear();
  expect_class_totals_match_ops(r.ledger);
  EXPECT_EQ(r.ledger.total_msgs(), 0);
  r.g.net->start_find(r.g.at(26, 0), r.target);
  r.g.net->run_to_quiescence();
  EXPECT_GT(r.ledger.class_total(obs::OpClass::kFindSearch).msgs, 0);
  expect_class_totals_match_ops(r.ledger);
}

TEST(Audit, FindResultCarriesOpAndDistance) {
  AuditedRun r = run_audited_walk(6, 0xF1D0);
  const auto& res = r.g.net->find_result(r.find);
  ASSERT_TRUE(res.done);
  EXPECT_EQ(obs::op_class(res.op), obs::OpClass::kFindSearch);
  EXPECT_EQ(obs::op_index(res.op), static_cast<std::uint32_t>(r.find.value()));
  EXPECT_GE(res.distance, 0);
  // The recorded distance lets callers recompute the Theorem 5.2 ratio
  // without the ledger; it must be within a bound-respecting range.
  const double bound = spec::find_work_bound(
      *r.g.hierarchy, static_cast<int>(res.distance));
  EXPECT_GT(bound, 0.0);
}

TEST(Audit, LedgerByteIdenticalAcrossJobs) {
  const auto sweep = [](int jobs) {
    runner::TrialPool pool(jobs);
    return pool.run(6u, [](std::size_t trial) {
      GridNet g = make_grid(27, 3);
      obs::OpLedger ledger;
      ledger.set_enabled(true);
      g.net->set_op_ledger(&ledger);
      const RegionId start = g.at(13, 13);
      const TargetId t = g.net->add_evader(start);
      g.net->run_to_quiescence();
      const auto walk = random_walk(g.hierarchy->tiling(), start, 8,
                                    0x1000 + trial);
      for (std::size_t i = 1; i < walk.size(); ++i) {
        g.net->move_and_quiesce(t, walk[i]);
      }
      g.net->start_find(g.at(26, 0), t);
      g.net->run_to_quiescence();
      g.net->set_op_ledger(nullptr);
      return ledger.to_json();
    });
  };
  const std::vector<std::string> serial = sweep(1);
  EXPECT_EQ(sweep(2), serial);
  EXPECT_EQ(sweep(8), serial);
}

TEST(Audit, HealthyRunStaysWithinSlack) {
  GridNet g = make_grid(27, 3);
  const RegionId start = g.at(13, 13);
  const TargetId t = g.net->add_evader(start);
  g.net->run_to_quiescence();
  obs::WatchdogConfig cfg;
  cfg.mode = obs::WatchMode::kCadence;
  cfg.cadence = sim::Duration::micros(2000);
  cfg.source = "test";
  cfg.audit = true;
  obs::Watchdog wd(*g.net, t, cfg);
  ASSERT_TRUE(wd.auditing());
  const auto walk = random_walk(g.hierarchy->tiling(), start, 10, 0x0A11);
  for (std::size_t i = 1; i < walk.size(); ++i) {
    g.net->move_and_quiesce(t, walk[i]);
  }
  g.net->start_find(g.at(0, 0), t);
  g.net->run_to_quiescence();
  wd.check_now();
  EXPECT_TRUE(wd.ok());
  EXPECT_EQ(wd.violations_seen(), 0);
  const obs::AuditReport report = wd.audit_now();
  EXPECT_TRUE(report.ok());
  EXPECT_DOUBLE_EQ(report.attributed_fraction(), 1.0);
  EXPECT_GT(report.move.steps, 0);
  EXPECT_GT(report.move.work_ratio, 0.0);
  EXPECT_LT(report.move.work_ratio, 1.0);
  EXPECT_LT(report.move.time_ratio, 1.0);
}

/// The canonical replayable scenario, as test_monitor uses.
obs::ScenarioSpec walk_scenario(int steps, std::uint64_t seed) {
  const hier::GridHierarchy h(27, 27, 3);
  obs::ScenarioSpec s;
  s.side = 27;
  s.base = 3;
  s.start_region = h.grid().region_at(13, 13).value();
  s.steps = steps;
  s.seed = seed;
  return s;
}

TEST(Audit, ScaledTimersBlowTimeBoundAndReplay) {
  // κ × the paper-default timers still satisfy inequality (1), so the
  // protocol runs correctly — but the timer-bound part of every cascade
  // takes κ times longer, and the auditor judges against the canonical
  // κ = 1 policy. The (δ+e) message latencies don't scale, so the
  // measured/bound ratio grows sublinearly in κ: κ = 32 puts the per-step
  // time at ~3.7 x the Theorem 4.9 bound, comfortably past the 2 x slack.
  obs::ScenarioSpec s = walk_scenario(10, 0x5CA1);
  s.timer_scale = 32.0;
  obs::WatchdogConfig cfg;
  cfg.mode = obs::WatchMode::kCadence;
  cfg.cadence = sim::Duration::micros(2000);
  cfg.source = "test";
  cfg.audit = true;
  cfg.audit_slack = 2.0;
  const obs::ScenarioOutcome out = obs::run_scenario(s, cfg);
  ASSERT_TRUE(out.ran);
  ASSERT_FALSE(out.incidents.empty()) << out.message;
  const obs::IncidentBundle* bundle = nullptr;
  for (const auto& b : out.incidents) {
    if (b.violation.predicate == "theorem-4.9-move-time") bundle = &b;
  }
  ASSERT_NE(bundle, nullptr) << "no theorem-4.9-move-time incident captured";
  EXPECT_TRUE(bundle->audit);
  EXPECT_DOUBLE_EQ(bundle->scenario.timer_scale, 32.0);

  // The bundle is self-contained: replaying it re-runs the scaled-timer
  // scenario under an auditing watchdog and reproduces the violation at
  // the same virtual time.
  const obs::ReplayResult replay = obs::replay_incident(*bundle);
  ASSERT_TRUE(replay.ran) << replay.message;
  EXPECT_TRUE(replay.reproduced) << replay.message;
  EXPECT_TRUE(replay.exact) << replay.message;
}

TEST(Audit, DisabledLedgerHoldsNothing) {
  GridNet g = make_grid(27, 3);
  obs::OpLedger ledger;  // default-constructed: disabled
  EXPECT_FALSE(ledger.enabled());
  g.net->set_op_ledger(&ledger);
  const RegionId start = g.at(13, 13);
  const TargetId t = g.net->add_evader(start);
  g.net->run_to_quiescence();
  const auto walk = random_walk(g.hierarchy->tiling(), start, 6, 0x0FF);
  for (std::size_t i = 1; i < walk.size(); ++i) {
    g.net->move_and_quiesce(t, walk[i]);
  }
  g.net->start_find(g.at(26, 26), t);
  g.net->run_to_quiescence();
  // No rows: the disabled path is one bool test per call, no stores, no
  // allocation (entries() counting every map is the pin for that).
  EXPECT_EQ(ledger.entries(), 0u);
  EXPECT_EQ(ledger.total_msgs(), 0);
  EXPECT_EQ(ledger.total_work(), 0);
}

}  // namespace
}  // namespace vstest
