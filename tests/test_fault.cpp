// The deterministic fault-plan engine: strict text round-trips, loud
// rejection of malformed plans, channel-fault determinism per (world,
// plan) pair, the differential check that the distributed heartbeat
// stabilizer converges to the same pointer state as the global-view
// oracle on identical seeded damage, tick idempotence on a healthy
// structure, and the recovery-deadline + incident-replay pipeline over
// the v2 scenario fields.

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "ext/oracle.hpp"
#include "ext/stabilizer.hpp"
#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"
#include "obs/monitor/incident.hpp"
#include "obs/monitor/replay.hpp"
#include "obs/monitor/watchdog.hpp"
#include "spec/consistency.hpp"
#include "util.hpp"

namespace vstest {
namespace {

tracking::NetworkConfig failure_cfg() {
  tracking::NetworkConfig cfg;
  cfg.model_vsa_failures = true;
  cfg.t_restart = sim::Duration::millis(4);
  return cfg;
}

fault::FaultPlan full_plan() {
  fault::FaultPlan p;
  p.seed = 0xFEED;
  p.crashes.push_back({12, 1'000'000});
  p.crashes.push_back({40, 2'500'000});
  p.outages.push_back({7, 2, 3'000'000});
  p.depopulations.push_back({3, 4'000'000, 6'000'000});
  p.loss_bursts.push_back({0, 5'000'000, 0.25, 0});
  p.duplications.push_back({1'000'000, 2'000'000, 0.5, 0});
  p.jitters.push_back({500'000, 4'500'000, 0.1, 300});
  p.recovery = fault::FaultPlan::Recovery{1'000'000, 50'000};
  return p;
}

// ---------------------------------------------------------------------------
// Plan text format.

TEST(FaultPlan, RoundTripPreservesEveryDirective) {
  const fault::FaultPlan p = full_plan();
  const fault::FaultPlan r = fault::FaultPlan::parse(p.to_string());
  EXPECT_EQ(r, p);
  // And the canonical text itself is a fixed point.
  EXPECT_EQ(r.to_string(), p.to_string());
}

TEST(FaultPlan, LastFaultTimeIsTheLatestScheduledInstant) {
  EXPECT_EQ(full_plan().last_fault_us(), 6'000'000);  // depopulate end
  EXPECT_EQ(fault::FaultPlan{}.last_fault_us(), 0);
  EXPECT_TRUE(fault::FaultPlan{}.empty());
  EXPECT_FALSE(full_plan().empty());
}

TEST(FaultPlan, CommentsAndBlankLinesAreAllowed) {
  const fault::FaultPlan p = fault::FaultPlan::parse(
      "# chaos stage plan\n"
      "faultplan v1\n"
      "\n"
      "seed 7   # channel randomness\n"
      "crash 4 at 100\n"
      "end\n");
  EXPECT_EQ(p.seed, 7u);
  ASSERT_EQ(p.crashes.size(), 1u);
  EXPECT_EQ(p.crashes[0].region, 4);
}

TEST(FaultPlan, MalformedInputIsRejectedWithDiagnostics) {
  const char* bad[] = {
      "",                                              // no header
      "crash 4 at 100\nend\n",                         // directives first
      "faultplan v2\nend\n",                           // unsupported version
      "faultplan v1\n",                                // missing end
      "faultplan v1\nwobble 3\nend\n",                 // unknown directive
      "faultplan v1\ncrash 4\nend\n",                  // truncated directive
      "faultplan v1\ncrash 4 at 100 extra\nend\n",     // trailing garbage
      "faultplan v1\ncrash -2 at 100\nend\n",          // region out of range
      "faultplan v1\nloss from 5 until 2 rate 0.1\nend\n",   // until < from
      "faultplan v1\nloss from 0 until 9 rate 1.5\nend\n",   // rate > 1
      "faultplan v1\nloss from 0 until 9 rate x\nend\n",     // rate not a number
      "faultplan v1\njitter from 0 until 9 rate 0.1\nend\n", // jitter needs advance
      "faultplan v1\nrecovery base 1 per-fault 2\n"
      "recovery base 3 per-fault 4\nend\n",            // duplicate recovery
      "faultplan v1\nend\ncrash 4 at 100\n",           // content after end
  };
  for (const char* text : bad) {
    EXPECT_THROW((void)fault::FaultPlan::parse(text), Error) << text;
  }
}

// ---------------------------------------------------------------------------
// Injector validation.

TEST(FaultInjector, RejectsRegionsOutsideTheWorld) {
  GridNet g = make_grid(9, 3, failure_cfg());
  fault::FaultPlan p;
  p.crashes.push_back({81 * 81, 1000});  // 9x9 world has 81 regions
  EXPECT_THROW((void)fault::FaultInjector(*g.net, p), Error);
}

TEST(FaultInjector, CrashPlansNeedFailureModelling) {
  GridNet g = make_grid(9, 3);  // model_vsa_failures off
  fault::FaultPlan p;
  p.crashes.push_back({4, 1000});
  EXPECT_THROW((void)fault::FaultInjector(*g.net, p), Error);
}

TEST(FaultInjector, RecoveryDeadlineScalesWithPlannedFaults) {
  GridNet g = make_grid(9, 3, failure_cfg());
  fault::FaultPlan p;
  p.crashes.push_back({4, 1'000'000});
  p.crashes.push_back({10, 2'000'000});
  p.recovery = fault::FaultPlan::Recovery{500'000, 100'000};
  fault::FaultInjector inj(*g.net, p);
  inj.arm();
  EXPECT_EQ(inj.planned_faults(), 2);
  const auto deadline = inj.recovery_deadline();
  ASSERT_TRUE(deadline.has_value());
  // last fault (2s) + base (0.5s) + 2 faults x 0.1s.
  EXPECT_EQ(deadline->count(), 2'700'000);
}

// ---------------------------------------------------------------------------
// Channel-fault determinism: the same (world, plan) pair must produce the
// same faults — drop for drop — on every run.

struct ChannelRun {
  std::int64_t lost;
  std::int64_t duplicated;
  std::int64_t jittered;
  std::vector<tracking::TrackerSnapshot> trackers;
};

ChannelRun run_lossy_walk() {
  GridNet g = make_grid(9, 3);
  fault::FaultPlan p;
  p.seed = 0xC0FFEE;
  p.loss_bursts.push_back({0, 100'000'000, 0.1, 0});
  p.duplications.push_back({0, 100'000'000, 0.1, 0});
  p.jitters.push_back({0, 100'000'000, 0.2, 200});
  fault::FaultInjector inj(*g.net, p);
  inj.arm();  // windows-only: arm before placement, like the benches

  const RegionId start = g.at(4, 4);
  const TargetId t = g.net->add_evader(start);
  g.net->run_to_quiescence();
  const auto walk = random_walk(g.hierarchy->tiling(), start, 20, 0xFA);
  for (std::size_t i = 1; i < walk.size(); ++i) {
    g.net->move_evader(t, walk[i]);
    g.net->run_for(sim::Duration::micros(50'000));
  }
  g.net->run_to_quiescence();

  ChannelRun out;
  out.lost = g.net->cgcast().lost();
  out.duplicated = g.net->counters().duplicated();
  out.jittered = g.net->counters().jittered();
  out.trackers = g.net->snapshot(t).trackers;
  return out;
}

TEST(FaultInjector, ChannelFaultsAreDeterministicPerWorldAndPlan) {
  const ChannelRun a = run_lossy_walk();
  const ChannelRun b = run_lossy_walk();
  // The windows actually bit...
  EXPECT_GT(a.lost, 0);
  EXPECT_GT(a.duplicated, 0);
  EXPECT_GT(a.jittered, 0);
  // ...and identically on both runs, down to the final pointer state.
  EXPECT_EQ(a.lost, b.lost);
  EXPECT_EQ(a.duplicated, b.duplicated);
  EXPECT_EQ(a.jittered, b.jittered);
  ASSERT_EQ(a.trackers.size(), b.trackers.size());
  for (std::size_t i = 0; i < a.trackers.size(); ++i) {
    EXPECT_EQ(a.trackers[i].c, b.trackers[i].c) << i;
    EXPECT_EQ(a.trackers[i].p, b.trackers[i].p) << i;
    EXPECT_EQ(a.trackers[i].nbrptup, b.trackers[i].nbrptup) << i;
    EXPECT_EQ(a.trackers[i].nbrptdown, b.trackers[i].nbrptdown) << i;
  }
}

// ---------------------------------------------------------------------------
// Differential: the distributed heartbeat stabilizer and the global-view
// oracle, given identical seeded damage in identical worlds, must
// converge to identical per-cluster pointer state.

/// A world after a seeded walk of `steps` moves with the evader's hosting
/// chain wiped at the given levels (the same damage in every call).
GridNet damaged_world(int steps, const std::vector<Level>& levels,
                      TargetId* t_out, RegionId* where_out) {
  GridNet g = make_grid(27, 3, failure_cfg());
  const RegionId start = g.at(13, 13);
  const TargetId t = g.net->add_evader(start);
  g.net->run_to_quiescence();
  const auto walk = random_walk(g.hierarchy->tiling(), start, steps, 0xD1FF);
  for (std::size_t i = 1; i < walk.size(); ++i) {
    g.net->move_and_quiesce(t, walk[i]);
  }
  for (const Level l : levels) {
    g.net->fail_vsa(g.hierarchy->head(g.hierarchy->cluster_of(walk.back(), l)));
  }
  g.net->run_to_quiescence();  // restarts happen (clients present)
  *t_out = t;
  *where_out = walk.back();
  return g;
}

void expect_identical_pointer_state(const tracking::SystemSnapshot& a,
                                    const tracking::SystemSnapshot& b) {
  ASSERT_EQ(a.trackers.size(), b.trackers.size());
  for (std::size_t i = 0; i < a.trackers.size(); ++i) {
    EXPECT_EQ(a.trackers[i].c, b.trackers[i].c) << "cluster " << i;
    EXPECT_EQ(a.trackers[i].p, b.trackers[i].p) << "cluster " << i;
    EXPECT_EQ(a.trackers[i].nbrptup, b.trackers[i].nbrptup) << "cluster " << i;
    EXPECT_EQ(a.trackers[i].nbrptdown, b.trackers[i].nbrptdown)
        << "cluster " << i;
  }
}

TEST(FaultDifferential, StabilizerMatchesOracleOnChainWipes) {
  for (const auto& levels :
       std::vector<std::vector<Level>>{{1}, {0, 1}, {0, 1, 2}}) {
    TargetId t_d{}, t_o{};
    RegionId where_d{}, where_o{};
    GridNet distributed = damaged_world(0, levels, &t_d, &where_d);
    GridNet oracle_world = damaged_world(0, levels, &t_o, &where_o);
    ASSERT_EQ(where_d, where_o);

    ext::Stabilizer stab(*distributed.net, t_d, sim::Duration::millis(500));
    ext::GlobalViewOracle oracle(*oracle_world.net, t_o);
    for (int i = 0; i < 6; ++i) {
      stab.tick_once();
      distributed.net->run_to_quiescence();
      oracle.tick_once();
      oracle_world.net->run_to_quiescence();
    }

    const auto snap_d = distributed.net->snapshot(t_d);
    const auto snap_o = oracle_world.net->snapshot(t_o);
    const auto report_d = spec::check_consistent(snap_d, where_d);
    const auto report_o = spec::check_consistent(snap_o, where_o);
    EXPECT_TRUE(report_d.ok()) << report_d.to_string();
    EXPECT_TRUE(report_o.ok()) << report_o.to_string();
    expect_identical_pointer_state(snap_d, snap_o);
  }
}

TEST(FaultDifferential, StabilizerMatchesOracleOnAWalkedStructure) {
  // After a real walk the repaired structures are spec-equal rather than
  // bit-equal: a walked path carries lateral detours (nbrpt hops) that the
  // distributed repairer preserves and the omniscient one may rebuild as a
  // direct chain — both satisfy the §IV-C predicate. So this case asserts
  // behavioural equivalence: both worlds converge to consistency and both
  // still service finds to the true position.
  TargetId t_d{}, t_o{};
  RegionId where_d{}, where_o{};
  GridNet distributed = damaged_world(12, {0, 1}, &t_d, &where_d);
  GridNet oracle_world = damaged_world(12, {0, 1}, &t_o, &where_o);
  ASSERT_EQ(where_d, where_o);

  ext::Stabilizer stab(*distributed.net, t_d, sim::Duration::millis(500));
  ext::GlobalViewOracle oracle(*oracle_world.net, t_o);
  for (int i = 0; i < 6; ++i) {
    stab.tick_once();
    distributed.net->run_to_quiescence();
    oracle.tick_once();
    oracle_world.net->run_to_quiescence();
  }

  const auto snap_d = distributed.net->snapshot(t_d);
  const auto snap_o = oracle_world.net->snapshot(t_o);
  const auto report_d = spec::check_consistent(snap_d, where_d);
  const auto report_o = spec::check_consistent(snap_o, where_o);
  EXPECT_TRUE(report_d.ok()) << report_d.to_string();
  EXPECT_TRUE(report_o.ok()) << report_o.to_string();

  for (GridNet* g : {&distributed, &oracle_world}) {
    const TargetId t = g == &distributed ? t_d : t_o;
    const FindId f = g->net->start_find(g->at(0, 0), t);
    g->net->run_to_quiescence();
    EXPECT_TRUE(g->net->find_result(f).done);
    EXPECT_EQ(g->net->find_result(f).found_region, where_d);
  }
}

TEST(FaultDifferential, HealthyStructureTicksAreIdempotent) {
  GridNet g = make_grid(27, 3, failure_cfg());
  const RegionId start = g.at(13, 13);
  const TargetId t = g.net->add_evader(start);
  g.net->run_to_quiescence();
  const auto walk = random_walk(g.hierarchy->tiling(), start, 10, 0x1D);
  for (std::size_t i = 1; i < walk.size(); ++i) {
    g.net->move_and_quiesce(t, walk[i]);
  }

  const auto before = g.net->snapshot(t).trackers;
  ext::Stabilizer stab(*g.net, t, sim::Duration::millis(500));
  ext::GlobalViewOracle oracle(*g.net, t);
  for (int i = 0; i < 3; ++i) {
    stab.tick_once();
    g.net->run_to_quiescence();
    EXPECT_EQ(oracle.tick_once(), 0);
    g.net->run_to_quiescence();
  }
  // No repair actions, and — heartbeat traffic aside — not a single
  // pointer moved anywhere in the structure.
  EXPECT_EQ(stab.repairs(), 0);
  EXPECT_EQ(oracle.repairs(), 0);
  const auto after = g.net->snapshot(t).trackers;
  ASSERT_EQ(before.size(), after.size());
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(before[i].c, after[i].c) << i;
    EXPECT_EQ(before[i].p, after[i].p) << i;
    EXPECT_EQ(before[i].nbrptup, after[i].nbrptup) << i;
    EXPECT_EQ(before[i].nbrptdown, after[i].nbrptdown) << i;
  }
}

// ---------------------------------------------------------------------------
// Scenario pipeline: fault-plan runs recover within the deadline, the v2
// incident format round-trips the fault fields, and a violation captured
// under faults replays exactly — fault sequence included.

obs::WatchdogConfig cadence_config(std::int64_t us = 10'000) {
  obs::WatchdogConfig cfg;
  cfg.mode = obs::WatchMode::kCadence;
  cfg.cadence = sim::Duration::micros(us);
  cfg.source = "test";
  return cfg;
}

/// A 27x27 failure-modelled scenario whose plan crashes the start
/// region's level-1 head mid-walk and asserts a recovery deadline.
obs::ScenarioSpec fault_scenario() {
  const hier::GridHierarchy h(27, 27, 3);
  const RegionId start = h.grid().region_at(13, 13);
  obs::ScenarioSpec s;
  s.side = 27;
  s.base = 3;
  s.model_vsa_failures = true;
  s.t_restart_us = 4'000;
  s.start_region = start.value();
  s.steps = 8;
  s.seed = 0xFA17;
  s.step_every_us = 200'000;
  s.settle_us = 3'000'000;
  s.heartbeat_period_us = 400'000;
  fault::FaultPlan p;
  p.seed = 0xFA17;
  p.crashes.push_back(
      {h.head(h.cluster_of(start, 1)).value(), 1'000'000});
  p.recovery = fault::FaultPlan::Recovery{2'000'000, 100'000};
  s.fault_plan = p.to_string();
  return s;
}

TEST(FaultScenario, RecoversWithinTheDeadline) {
  const obs::ScenarioOutcome out =
      obs::run_scenario(fault_scenario(), cadence_config());
  ASSERT_TRUE(out.ran) << out.message;
  EXPECT_TRUE(out.recovery_armed);
  EXPECT_TRUE(out.recovery_met) << out.message;
  EXPECT_EQ(out.violations_seen, 0) << out.message;
}

TEST(FaultScenario, RejectsAMalformedEmbeddedPlan) {
  obs::ScenarioSpec s = fault_scenario();
  s.fault_plan = "faultplan v1\nwobble\nend\n";
  const obs::ScenarioOutcome out = obs::run_scenario(s, cadence_config());
  EXPECT_FALSE(out.ran);
  EXPECT_NE(out.message.find("fault plan rejected"), std::string::npos)
      << out.message;
}

TEST(IncidentIO, V2RoundTripPreservesFaultAndPacingFields) {
  obs::IncidentBundle b;
  b.source = "unit";
  b.violation = {"consistent-state", "detail", 42, 1, 0};
  b.scenario = fault_scenario();
  std::stringstream ss;
  obs::write_incident(ss, b);
  const obs::IncidentBundle r = obs::read_incident(ss.str());
  EXPECT_EQ(r.scenario.fault_plan, b.scenario.fault_plan);
  EXPECT_EQ(r.scenario.step_every_us, 200'000);
  EXPECT_EQ(r.scenario.settle_us, 3'000'000);
  EXPECT_EQ(r.scenario.heartbeat_period_us, 400'000);
  EXPECT_EQ(r.scenario.t_restart_us, 4'000);
  EXPECT_EQ(r.scenario.model_vsa_failures, true);
  // The embedded plan is still a valid, identical FaultPlan.
  EXPECT_EQ(fault::FaultPlan::parse(r.scenario.fault_plan),
            fault::FaultPlan::parse(b.scenario.fault_plan));
}

TEST(FaultScenario, ViolationUnderFaultsReplaysExactly) {
  obs::ScenarioSpec s = fault_scenario();
  // A seeded grow-front corruption lands after the recovery check, far
  // from any region an 8-step walk from the centre can reach.
  const hier::GridHierarchy h(27, 27, 3);
  const std::int32_t c0 = h.cluster_of(h.grid().region_at(2, 2), 0).value();
  s.corruptions.push_back({c0, c0, -1, -1, -1});

  const obs::ScenarioOutcome out = obs::run_scenario(s, cadence_config());
  ASSERT_TRUE(out.ran) << out.message;
  // Recovery still judged on the healed, pre-corruption structure.
  EXPECT_TRUE(out.recovery_met) << out.message;
  ASSERT_FALSE(out.incidents.empty());

  const obs::ReplayResult res = obs::replay_incident(out.incidents.front());
  EXPECT_TRUE(res.ran) << res.message;
  EXPECT_TRUE(res.reproduced) << res.message;
  EXPECT_TRUE(res.exact) << res.message;
}

}  // namespace
}  // namespace vstest
