// The live invariant watchdog and its incident pipeline: clean monitored
// executions stay clean in both modes; each seeded violation class (grow
// fronts for Lemma 4.1, inconsistent pointers for the §IV-C predicate and
// Theorem 4.8's lookAhead agreement) is detected and produces a
// self-contained incident bundle; bundle IO round-trips and fails loudly
// on corrupt files; scenario replay is deterministic and byte-identical
// across --jobs; the flight-recorder ring keeps exactly the last K
// events; and Chrome export round-trips event counts and timestamps.

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "obs/chrome_export.hpp"
#include "obs/monitor/incident.hpp"
#include "obs/monitor/replay.hpp"
#include "obs/monitor/watchdog.hpp"
#include "runner/trial_pool.hpp"
#include "util.hpp"

namespace vstest {
namespace {

obs::WatchdogConfig cadence_config(std::int64_t us = 2000) {
  obs::WatchdogConfig cfg;
  cfg.mode = obs::WatchMode::kCadence;
  cfg.cadence = sim::Duration::micros(us);
  cfg.source = "test";
  return cfg;
}

obs::WatchdogConfig every_change_config() {
  obs::WatchdogConfig cfg;
  cfg.mode = obs::WatchMode::kEveryChange;
  cfg.source = "test";
  return cfg;
}

/// The canonical test scenario: 27×27 base-3 grid, short seeded walk.
/// Region/cluster ids are computed from a throwaway hierarchy rather than
/// assuming the grid's linearization.
obs::ScenarioSpec walk_scenario(int steps = 6, std::uint64_t seed = 42) {
  const hier::GridHierarchy h(27, 27, 3);
  obs::ScenarioSpec s;
  s.side = 27;
  s.base = 3;
  s.start_region = h.grid().region_at(13, 13).value();
  s.steps = steps;
  s.seed = seed;
  return s;
}

bool has_predicate(const std::vector<obs::IncidentBundle>& incidents,
                   const std::string& predicate) {
  for (const auto& b : incidents) {
    if (b.violation.predicate == predicate) return true;
  }
  return false;
}

TEST(Watchdog, CleanWalkStaysCleanInBothModes) {
  for (const auto& cfg : {cadence_config(), every_change_config()}) {
    GridNet g = make_grid(27, 3);
    const RegionId start = g.at(13, 13);
    const TargetId t = g.net->add_evader(start);
    g.net->run_to_quiescence();
    obs::Watchdog wd(*g.net, t, cfg);
    const auto walk = random_walk(g.hierarchy->tiling(), start, 10, 0xC1EA);
    for (std::size_t i = 1; i < walk.size(); ++i) {
      g.net->move_and_quiesce(t, walk[i]);
    }
    wd.check_now();
    EXPECT_TRUE(wd.ok()) << obs::to_string(cfg.mode);
    EXPECT_TRUE(wd.atomic_so_far());
    EXPECT_GT(wd.checks_run(), 0);
    EXPECT_EQ(wd.violations_seen(), 0);
  }
}

TEST(Watchdog, DestructionDetachesHooksAndRestoresRecorder) {
  GridNet g = make_grid(27, 3);
  const TargetId t = g.net->add_evader(g.at(13, 13));
  g.net->run_to_quiescence();
  const std::size_t base_observers = g.net->cgcast().send_observer_count();
  {
    obs::Watchdog wd(*g.net, t, every_change_config());
    EXPECT_EQ(g.net->cgcast().send_observer_count(), base_observers + 1);
    EXPECT_TRUE(g.net->trace().enabled());
    EXPECT_GT(g.net->trace().ring_capacity(), 0u);
  }
  // Every hook is released (a leftover send observer would call into the
  // freed monitor on the next send) and the recorder is back to its
  // pre-attach state: off, unbounded — so a later full-trace run is not
  // silently capped at the ring size.
  EXPECT_EQ(g.net->cgcast().send_observer_count(), base_observers);
  EXPECT_FALSE(g.net->trace().enabled());
  EXPECT_EQ(g.net->trace().ring_capacity(), 0u);

  // The CLI's `monitor` twice: re-attach to the same world and keep
  // driving it — sends must reach only the live watchdog.
  obs::Watchdog wd2(*g.net, t, cadence_config());
  const auto walk = random_walk(g.hierarchy->tiling(), g.at(13, 13), 8, 0xDE);
  for (std::size_t i = 1; i < walk.size(); ++i) {
    g.net->move_and_quiesce(t, walk[i]);
  }
  wd2.check_now();
  EXPECT_TRUE(wd2.ok());
}

TEST(Watchdog, YieldRecorderUncapsTracingAndSkipsTheRestore) {
  GridNet g = make_grid(27, 3);
  const TargetId t = g.net->add_evader(g.at(13, 13));
  g.net->run_to_quiescence();
  {
    obs::Watchdog wd(*g.net, t, cadence_config());
    ASSERT_GT(g.net->trace().ring_capacity(), 0u);
    wd.yield_recorder();  // a full-trace request outranks the ring
    EXPECT_EQ(g.net->trace().ring_capacity(), 0u);
    EXPECT_TRUE(g.net->trace().enabled());
  }
  // The destructor no longer owns the recorder, so the caller's full
  // tracing survives the watchdog.
  EXPECT_TRUE(g.net->trace().enabled());
  EXPECT_EQ(g.net->trace().ring_capacity(), 0u);
}

TEST(Watchdog, DoesNotTakeOverAForeignTraceNorRestoreIt) {
  GridNet g = make_grid(27, 3);
  const TargetId t = g.net->add_evader(g.at(13, 13));
  g.net->run_to_quiescence();
  g.net->set_tracing(true);  // a full-trace run owns the recorder
  {
    obs::Watchdog wd(*g.net, t, cadence_config());
    EXPECT_EQ(g.net->trace().ring_capacity(), 0u);  // unbounded log kept
  }
  EXPECT_TRUE(g.net->trace().enabled());  // and not switched off either
}

TEST(InvariantMonitor, DetachesOnDestruction) {
  GridNet g = make_grid(9, 3);
  const TargetId t = g.net->add_evader(g.at(4, 4));
  g.net->run_to_quiescence();
  const std::size_t base_observers = g.net->cgcast().send_observer_count();
  {
    spec::InvariantMonitor monitor(*g.net, t);
    EXPECT_EQ(g.net->cgcast().send_observer_count(), base_observers + 1);
  }
  EXPECT_EQ(g.net->cgcast().send_observer_count(), base_observers);
  const auto walk = random_walk(g.hierarchy->tiling(), g.at(4, 4), 4, 3);
  for (std::size_t i = 1; i < walk.size(); ++i) {
    g.net->move_and_quiesce(t, walk[i]);
  }
}

TEST(Watchdog, RejectedMoveLeavesShadowInSync) {
  GridNet g = make_grid(27, 3);
  const TargetId t = g.net->add_evader(g.at(13, 13));
  g.net->run_to_quiescence();
  obs::Watchdog wd(*g.net, t, cadence_config());

  // A teleport is rejected by the evader model; the observer must not see
  // it (the shadow applying a move the live structure never made would
  // later surface as a spurious lookahead-agreement violation).
  EXPECT_THROW(g.net->move_evader(t, g.at(0, 0)), Error);

  const auto walk = random_walk(g.hierarchy->tiling(), g.at(13, 13), 6, 11);
  for (std::size_t i = 1; i < walk.size(); ++i) {
    g.net->move_and_quiesce(t, walk[i]);
  }
  wd.check_now();
  EXPECT_TRUE(wd.ok()) << wd.monitor().to_string();
  EXPECT_TRUE(wd.atomic_so_far());
}

TEST(ParseWatchSpec, AcceptsCanonicalForms) {
  EXPECT_EQ(obs::parse_watch_spec("").mode, obs::WatchMode::kCadence);
  EXPECT_EQ(obs::parse_watch_spec("every").mode, obs::WatchMode::kEveryChange);
  EXPECT_EQ(obs::parse_watch_spec("every-change").mode,
            obs::WatchMode::kEveryChange);
  const obs::WatchdogConfig cfg = obs::parse_watch_spec("250");
  EXPECT_EQ(cfg.mode, obs::WatchMode::kCadence);
  EXPECT_EQ(cfg.cadence.count(), 250);
}

TEST(ParseWatchSpec, RejectsGarbageAndTrailingUnits) {
  // "50ms" must not parse as 50us — a ~1000x hotter watchdog than asked.
  for (const char* bad : {"50ms", "abc", "-5", "0", "10 ", "1e3"}) {
    EXPECT_THROW((void)obs::parse_watch_spec(bad), Error) << bad;
  }
}

TEST(Watchdog, SingleGrowFrontCorruptViolatesConsistencyAndLookAhead) {
  GridNet g = make_grid(27, 3);
  const TargetId t = g.net->add_evader(g.at(13, 13));
  g.net->run_to_quiescence();
  obs::Watchdog wd(*g.net, t, cadence_config());

  // One off-chain level-0 cluster claiming the target (c = self) is a
  // single grow front — legal under Lemma 4.1 — but breaks the §IV-C
  // consistency predicate and diverges from atomicMoveSeq's ideal state.
  const ClusterId c0 = g.hierarchy->cluster_of(g.at(2, 2), 0);
  tracking::TrackerSnapshot forced;
  forced.clust = c0;
  forced.c = c0;
  g.net->tracker(c0).corrupt_state(t, forced);
  wd.check_now();

  EXPECT_FALSE(wd.ok());
  EXPECT_TRUE(has_predicate(wd.incidents(), "consistent-state"));
  EXPECT_TRUE(has_predicate(wd.incidents(), "lookahead-agreement"));
}

TEST(Watchdog, TwoGrowFrontsViolateLemma41) {
  GridNet g = make_grid(27, 3);
  const TargetId t = g.net->add_evader(g.at(13, 13));
  g.net->run_to_quiescence();
  obs::Watchdog wd(*g.net, t, cadence_config());

  for (const auto& [x, y] : {std::pair{2, 2}, std::pair{20, 20}}) {
    const ClusterId c0 = g.hierarchy->cluster_of(g.at(x, y), 0);
    tracking::TrackerSnapshot forced;
    forced.clust = c0;
    forced.c = c0;
    g.net->tracker(c0).corrupt_state(t, forced);
  }
  wd.check_now();

  EXPECT_FALSE(wd.ok());
  EXPECT_TRUE(has_predicate(wd.incidents(), "lemma-4.1-grow"));
}

TEST(Watchdog, TwoShrinkFrontsViolateLemma41) {
  GridNet g = make_grid(27, 3);
  const TargetId t = g.net->add_evader(g.at(13, 13));
  g.net->run_to_quiescence();
  obs::Watchdog wd(*g.net, t, cadence_config());

  // A tracker with p set but c = ⊥ is a shrink front; two of them break
  // Lemma 4.1's one-shrink-front claim.
  for (const auto& [x, y] : {std::pair{2, 2}, std::pair{20, 20}}) {
    const ClusterId c0 = g.hierarchy->cluster_of(g.at(x, y), 0);
    tracking::TrackerSnapshot forced;
    forced.clust = c0;
    forced.p = g.hierarchy->parent(c0);
    g.net->tracker(c0).corrupt_state(t, forced);
  }
  wd.check_now();

  EXPECT_FALSE(wd.ok());
  EXPECT_TRUE(has_predicate(wd.incidents(), "lemma-4.1-shrink"));
}

TEST(Watchdog, IncidentCarriesContextAndRing) {
  GridNet g = make_grid(27, 3);
  g.net->set_tracing(false);
  const TargetId t = g.net->add_evader(g.at(13, 13));
  g.net->run_to_quiescence();
  obs::WatchdogConfig cfg = cadence_config();
  cfg.ring_capacity = 64;
  obs::Watchdog wd(*g.net, t, cfg, walk_scenario());
  const auto walk = random_walk(g.hierarchy->tiling(), g.at(13, 13), 6, 42);
  for (std::size_t i = 1; i < walk.size(); ++i) {
    g.net->move_and_quiesce(t, walk[i]);
  }

  const ClusterId c0 = g.hierarchy->cluster_of(g.at(2, 2), 0);
  tracking::TrackerSnapshot forced;
  forced.clust = c0;
  forced.c = c0;
  g.net->tracker(c0).corrupt_state(t, forced);
  wd.check_now();

  ASSERT_FALSE(wd.incidents().empty());
  const obs::IncidentBundle& b = wd.incidents().front();
  EXPECT_EQ(b.source, "test");
  EXPECT_EQ(b.target, t.value());
  EXPECT_EQ(b.violation.time_us, g.net->now().count());
  EXPECT_EQ(b.scenario.side, 27);
  EXPECT_EQ(b.scenario.seed, 42u);
  EXPECT_FALSE(b.config_json.empty());
  EXPECT_FALSE(b.metrics_json.empty());
  // The flight recorder captured the walk's tail, bounded by the ring.
  EXPECT_FALSE(b.ring.empty());
  EXPECT_LE(b.ring.size(), 64u);
}

// ---------------------------------------------------------------------------
// Incident IO.

obs::IncidentBundle sample_bundle() {
  obs::IncidentBundle b;
  b.source = "unit";
  b.target = 0;
  b.violation = {"lemma-4.1-grow", "two grow fronts (detail)", 123456, 17, 1};
  b.mode = obs::WatchMode::kEveryChange;
  b.cadence_us = 5000;
  b.ring_capacity = 8;
  b.scenario = walk_scenario();
  b.scenario.corruptions.push_back({40, 40, -1, -1, -1});
  b.config_json = "{\"regions\": 729}";
  b.metrics_json = "{}";
  obs::TraceEvent ev{};
  ev.time_us = 99;
  ev.seq = 7;
  ev.kind = static_cast<std::uint8_t>(obs::TraceKind::kTimerFire);
  ev.msg = obs::kNoMsg;
  b.ring.push_back(ev);
  return b;
}

TEST(IncidentIO, RoundTripPreservesEveryField) {
  const obs::IncidentBundle b = sample_bundle();
  std::stringstream ss;
  obs::write_incident(ss, b);
  const obs::IncidentBundle r = obs::read_incident(ss.str());

  EXPECT_EQ(r.source, b.source);
  EXPECT_EQ(r.target, b.target);
  EXPECT_EQ(r.violation.predicate, b.violation.predicate);
  EXPECT_EQ(r.violation.detail, b.violation.detail);
  EXPECT_EQ(r.violation.time_us, b.violation.time_us);
  EXPECT_EQ(r.violation.cluster, b.violation.cluster);
  EXPECT_EQ(r.violation.level, b.violation.level);
  EXPECT_EQ(r.mode, b.mode);
  EXPECT_EQ(r.cadence_us, b.cadence_us);
  EXPECT_EQ(r.ring_capacity, b.ring_capacity);
  EXPECT_EQ(r.scenario.side, b.scenario.side);
  EXPECT_EQ(r.scenario.seed, b.scenario.seed);
  EXPECT_EQ(r.scenario.steps, b.scenario.steps);
  ASSERT_EQ(r.scenario.corruptions.size(), 1u);
  EXPECT_EQ(r.scenario.corruptions[0].cluster, 40);
  EXPECT_EQ(r.scenario.replayable_flag, b.scenario.replayable_flag);
  EXPECT_EQ(r.config_json, b.config_json);
  EXPECT_EQ(r.metrics_json, b.metrics_json);
  ASSERT_EQ(r.ring.size(), 1u);
  EXPECT_EQ(r.ring[0].time_us, 99);
  EXPECT_EQ(r.ring[0].seq, 7u);
}

TEST(IncidentIO, TruncatedAndCorruptFilesFailLoudly) {
  std::stringstream ss;
  obs::write_incident(ss, sample_bundle());
  const std::string bytes = ss.str();

  {
    const std::string bad = bytes.substr(0, bytes.size() / 2);
    EXPECT_THROW((void)obs::read_incident(bad), vs::Error);
  }
  {
    const std::string bad = std::string("XXXXXXXX") + bytes.substr(8);
    EXPECT_THROW((void)obs::read_incident(bad), vs::Error);
  }
  {
    std::string clipped = bytes;
    clipped.resize(clipped.size() - 4);  // damage the end trailer
    EXPECT_THROW((void)obs::read_incident(clipped), vs::Error);
  }
}

// ---------------------------------------------------------------------------
// Scenario replay determinism.

obs::ScenarioSpec violating_scenario() {
  const hier::GridHierarchy h(27, 27, 3);
  obs::ScenarioSpec s = walk_scenario(/*steps=*/5, /*seed=*/7);
  // Two grow-front corruptions (c = self) at fixed level-0 clusters.
  for (const auto& [x, y] : {std::pair{2, 2}, std::pair{20, 20}}) {
    const std::int32_t c0 =
        h.cluster_of(h.grid().region_at(x, y), 0).value();
    s.corruptions.push_back({c0, c0, -1, -1, -1});
  }
  return s;
}

std::string scenario_bundle_bytes() {
  const obs::ScenarioOutcome out =
      obs::run_scenario(violating_scenario(), cadence_config());
  std::ostringstream os;
  for (const auto& b : out.incidents) obs::write_incident(os, b);
  return os.str();
}

TEST(IncidentReplay, ScenarioRunsAreByteIdenticalAcrossJobs) {
  const obs::ScenarioOutcome once =
      obs::run_scenario(violating_scenario(), cadence_config());
  ASSERT_TRUE(once.ran) << once.message;
  ASSERT_FALSE(once.incidents.empty());
  EXPECT_TRUE(has_predicate(once.incidents, "lemma-4.1-grow"));

  const std::string reference = scenario_bundle_bytes();
  for (const int jobs : {1, 2, 8}) {
    runner::TrialPool pool(jobs);
    const auto all = pool.run(
        4, [](std::size_t) { return scenario_bundle_bytes(); });
    for (const auto& bytes : all) EXPECT_EQ(bytes, reference) << jobs;
  }
}

TEST(IncidentReplay, ReplayReproducesTheViolationExactly) {
  const obs::ScenarioOutcome out =
      obs::run_scenario(violating_scenario(), cadence_config());
  ASSERT_FALSE(out.incidents.empty());

  const obs::ReplayResult res = obs::replay_incident(out.incidents.front());
  EXPECT_TRUE(res.ran) << res.message;
  EXPECT_TRUE(res.reproduced) << res.message;
  EXPECT_TRUE(res.exact) << res.message;
}

TEST(IncidentReplay, NonReplayableScenarioIsRefusedWithDiagnostic) {
  obs::ScenarioSpec s = walk_scenario();
  s.replayable_flag = false;
  const obs::ScenarioOutcome out = obs::run_scenario(s, cadence_config());
  EXPECT_FALSE(out.ran);
  EXPECT_FALSE(out.message.empty());
}

// ---------------------------------------------------------------------------
// Flight-recorder ring.

TEST(RingBuffer, KeepsExactlyLastK) {
  obs::TraceRecorder rec;
  rec.set_ring_capacity(16);
  rec.set_enabled(true);
  for (std::int64_t i = 0; i < 100; ++i) {
    obs::TraceEvent ev{};
    ev.time_us = i;
    rec.append(ev);
  }
  const auto events = rec.events();
  ASSERT_EQ(events.size(), 16u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    // Oldest-first: 84..99.
    EXPECT_EQ(events[i].time_us, 84 + static_cast<std::int64_t>(i));
  }
  // Ring mode never grows the segment list: steady-state appends reuse the
  // fixed ring storage allocated by set_ring_capacity.
  EXPECT_EQ(rec.segments_allocated(), 0u);
}

TEST(RingBuffer, BelowCapacityReturnsAllInOrder) {
  obs::TraceRecorder rec;
  rec.set_ring_capacity(16);
  rec.set_enabled(true);
  for (std::int64_t i = 0; i < 5; ++i) {
    obs::TraceEvent ev{};
    ev.time_us = i;
    rec.append(ev);
  }
  const auto events = rec.events();
  ASSERT_EQ(events.size(), 5u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].time_us, static_cast<std::int64_t>(i));
  }
}

// ---------------------------------------------------------------------------
// Chrome export.

TEST(ChromeExport, RoundTripsEventCountsAndTimestamps) {
  GridNet g = make_grid(27, 3);
  g.net->set_tracing(true);
  const RegionId start = g.at(13, 13);
  const TargetId t = g.net->add_evader(start);
  g.net->run_to_quiescence();
  const auto walk = random_walk(g.hierarchy->tiling(), start, 8, 0xCE);
  for (std::size_t i = 1; i < walk.size(); ++i) {
    g.net->move_and_quiesce(t, walk[i]);
  }
  g.net->start_find(g.at(0, 0), t);
  g.net->run_to_quiescence();

  const std::vector<obs::WorldTrace> worlds{{0, g.net->trace().events()}};
  ASSERT_FALSE(worlds[0].events.empty());
  std::ostringstream os;
  const obs::ChromeExportStats stats = obs::write_chrome_trace(os, worlds);
  const std::string json = os.str();

  // One "X" slice per trace event, plus flow arrows for causal links.
  EXPECT_EQ(stats.slices, worlds[0].events.size());
  EXPECT_GT(stats.flows, 0u);
  std::size_t slice_count = 0;
  for (std::size_t pos = json.find("\"ph\":\"X\"");
       pos != std::string::npos; pos = json.find("\"ph\":\"X\"", pos + 1)) {
    ++slice_count;
  }
  EXPECT_EQ(slice_count, stats.slices);

  // First and last virtual timestamps survive verbatim as "ts" fields.
  const auto ts_of = [](std::int64_t us) {
    return "\"ts\":" + std::to_string(us);
  };
  EXPECT_NE(json.find(ts_of(worlds[0].events.front().time_us)),
            std::string::npos);
  EXPECT_NE(json.find(ts_of(worlds[0].events.back().time_us)),
            std::string::npos);

  // Identical input → identical bytes.
  std::ostringstream os2;
  (void)obs::write_chrome_trace(os2, worlds);
  EXPECT_EQ(json, os2.str());
}

TEST(ChromeExport, EmptyTraceIsStillValidJsonShell) {
  std::ostringstream os;
  const obs::ChromeExportStats stats = obs::write_chrome_trace(os, {});
  EXPECT_EQ(stats.slices, 0u);
  EXPECT_EQ(stats.flows, 0u);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
}

}  // namespace
}  // namespace vstest
