// The per-message path's resource contract: the serving path builds no
// scheduler event on the heap (C-gcast's in-flight slab and the trackers'
// inline timer actions keep every closure inside EventAction's buffer),
// schedules none onto the event queue's fallback heap, pushes one queue
// entry per rule-(a) fan-out rather than per member, and tracker state is
// bounded by live objects and in-flight finds, not by history. Fan-out
// entries fire exactly the events per-destination entries fire.

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "hier/torus_hierarchy.hpp"
#include "obs/trace_io.hpp"
#include "serve/server.hpp"
#include "sim/action.hpp"
#include "spec/look_ahead.hpp"
#include "util.hpp"

namespace vstest {
namespace {

TEST(MessagePath, ServingPathBuildsNoEventOnTheHeap) {
  // The daemon's world: VSA failures modelled, objects fed through the
  // ingest server's rounds, and find RPCs between rounds.
  constexpr int kSide = 27;
  tracking::NetworkConfig cfg;
  cfg.model_vsa_failures = true;
  cfg.t_restart = sim::Duration::millis(5);
  GridNet g = make_grid(kSide, 3, cfg);
  serve::IngestServer srv(*g.net, *g.hierarchy, serve::ServeConfig{});
  const std::uint64_t before = sim::EventAction::heap_fallbacks();

  std::vector<std::pair<int, int>> pos = {{4, 4}, {13, 13}, {22, 5}};
  for (const auto& [x, y] : pos) srv.add_object(g.at(x, y));
  Rng rng{17};
  int answered = 0;
  for (int round = 0; round < 400; ++round) {
    for (std::size_t obj = 0; obj < pos.size(); ++obj) {
      auto& [x, y] = pos[obj];
      x = std::clamp(x + static_cast<int>(rng.uniform_int(-1, 1)), 0,
                     kSide - 1);
      y = std::clamp(y + static_cast<int>(rng.uniform_int(-1, 1)), 0,
                     kSide - 1);
      ASSERT_EQ(srv.offer(serve::UpdateFrame{obj, x, y}),
                serve::IngestServer::Admit::kQueued);
    }
    srv.run_round();
    if (round % 10 == 9) {
      const std::uint64_t obj = static_cast<std::uint64_t>(round / 10) %
                                pos.size();
      const serve::FindOutcome out =
          srv.find(g.at(0, kSide - 1), obj, sim::Duration::millis(400));
      if (out.done) ++answered;
    }
  }
  srv.finish();
  // One more find on the quiesced world, run all the way to `found`.
  const FindId last = g.net->start_find(g.at(kSide - 1, 0), TargetId{0});
  g.net->run_to_quiescence();

  EXPECT_GT(answered, 0);
  EXPECT_TRUE(g.net->find_result(last).done);
  EXPECT_GT(g.net->scheduler().events_fired(), 10'000u);
  EXPECT_EQ(sim::EventAction::heap_fallbacks(), before)
      << "a serving-path event closure outgrew EventAction's inline buffer";
}

TEST(MessagePath, ServingPathStaysOnTheDelayClasses) {
  // Every serving-path event is a C-gcast delivery or a tracker timer,
  // scheduled after one of the model's constant delays, so none of them
  // reaches the event queue's fallback heap.
  constexpr int kSide = 81;
  tracking::NetworkConfig cfg;
  cfg.model_vsa_failures = true;
  cfg.t_restart = sim::Duration::millis(5);
  GridNet g = make_grid(kSide, 3, cfg);
  serve::IngestServer srv(*g.net, *g.hierarchy, serve::ServeConfig{});
  std::vector<std::pair<int, int>> pos = {{10, 10}, {40, 40}, {70, 20}};
  for (const auto& [x, y] : pos) srv.add_object(g.at(x, y));
  Rng rng{23};
  for (int round = 0; round < 200; ++round) {
    for (std::size_t obj = 0; obj < pos.size(); ++obj) {
      auto& [x, y] = pos[obj];
      x = std::clamp(x + static_cast<int>(rng.uniform_int(-1, 1)), 0,
                     kSide - 1);
      y = std::clamp(y + static_cast<int>(rng.uniform_int(-1, 1)), 0,
                     kSide - 1);
      ASSERT_EQ(srv.offer(serve::UpdateFrame{obj, x, y}),
                serve::IngestServer::Admit::kQueued);
    }
    srv.run_round();
    if (round % 10 == 9) {
      (void)srv.find(g.at(0, kSide - 1),
                     static_cast<std::uint64_t>(round / 10) % pos.size(),
                     sim::Duration::millis(400));
    }
  }
  srv.finish();
  const sim::Scheduler& sched = g.net->scheduler();
  EXPECT_GT(sched.events_fired(), 5'000u);
  EXPECT_EQ(sched.fallback_pushes(), 0u);
  // About half the events are members of rule-(a) fan-outs, which share
  // one queue entry each, so there are far fewer pushes than events (with
  // an entry per event there would be more: cancelled timers are pushed
  // but never fire). Many of the fan-outs here have three members: every
  // find starts in a corner region, whose clusters have three neighbours
  // on every level.
  EXPECT_LT(static_cast<double>(sched.queue_pushes()),
            0.75 * static_cast<double>(sched.events_fired()));
}

/// Drives seeded walks of three objects, with finds, through two copies of
/// one world in lockstep: `plain` fans out through shared queue entries,
/// `per_event` has a never-faulting channel-fault oracle installed, which
/// keeps one event per fan-out member. After every step both have fired
/// as many events and every object's lookAhead agrees; at the end their
/// VSTRACE1 bytes are identical.
void expect_fan_outs_fire_per_destination_events(
    const hier::ClusterHierarchy& h, std::uint64_t seed) {
  tracking::TrackingNetwork plain(h, {});
  tracking::TrackingNetwork per_event(h, {});
  per_event.cgcast().set_channel_faults(
      [](const vsa::Message&) { return vsa::CGcast::ChannelDecision{}; });
  const std::array<tracking::TrackingNetwork*, 2> nets{&plain, &per_event};
  for (tracking::TrackingNetwork* net : nets) net->set_tracing(true);

  constexpr int kObjects = 3;
  constexpr int kRounds = 20;
  const auto& tiling = h.tiling();
  const auto regions = static_cast<int>(tiling.num_regions());
  std::vector<TargetId> targets;
  std::vector<std::vector<RegionId>> walks;
  for (int i = 0; i < kObjects; ++i) {
    const RegionId start{static_cast<RegionId::rep_type>(
        (2 * i + 1) * regions / (2 * kObjects))};
    walks.push_back(random_walk(tiling, start, kRounds,
                                seed + static_cast<std::uint64_t>(i)));
    targets.push_back(plain.add_evader(start));
    ASSERT_EQ(per_event.add_evader(start), targets.back());
  }
  const auto step_both = [&] {
    for (;;) {
      const bool stepped = plain.scheduler().step();
      ASSERT_EQ(stepped, per_event.scheduler().step());
      if (!stepped) return;
      ASSERT_EQ(plain.scheduler().events_fired(),
                per_event.scheduler().events_fired());
      for (const TargetId t : targets) {
        ASSERT_TRUE(spec::equal_states(spec::look_ahead(plain.snapshot(t)),
                                       spec::look_ahead(per_event.snapshot(t))))
            << "object " << t << " after event "
            << plain.scheduler().events_fired();
      }
    }
  };
  step_both();
  Rng rng{seed};
  for (int r = 1; r <= kRounds; ++r) {
    const RegionId from{static_cast<RegionId::rep_type>(
        rng.uniform_int(0, regions - 1))};
    for (tracking::TrackingNetwork* net : nets) {
      for (std::size_t i = 0; i < targets.size(); ++i) {
        net->move_evader(targets[i], walks[i][static_cast<std::size_t>(r)]);
      }
      if (r % 3 == 0) {
        (void)net->start_find(from, targets[static_cast<std::size_t>(r) %
                                            targets.size()]);
      }
    }
    step_both();
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_GT(plain.scheduler().events_fired(), 500u);
  EXPECT_LT(plain.scheduler().queue_pushes(),
            per_event.scheduler().queue_pushes());
  std::ostringstream a;
  std::ostringstream b;
  obs::write_trace(a, {{0, plain.trace().events()}});
  obs::write_trace(b, {{0, per_event.trace().events()}});
  EXPECT_EQ(a.str(), b.str());
}

TEST(MessagePath, FanOutsFireThePerDestinationEvents) {
  const hier::GridHierarchy grid(9, 9, 3);
  const hier::StripHierarchy strip(27, 3);
  const hier::TorusHierarchy torus(9, 3);
  for (const std::uint64_t seed : {7u, 8u}) {
    SCOPED_TRACE(seed);
    expect_fan_outs_fire_per_destination_events(grid, seed);
    expect_fan_outs_fire_per_destination_events(strip, seed);
    expect_fan_outs_fire_per_destination_events(torus, seed);
  }
}

TEST(MessagePath, TrackerRowsStayBoundedOverALongRun) {
  // Soak under the paper's assumptions: atomic moves (each one quiesces
  // before the next) and finds that all complete. Row counts, not RSS,
  // so the bound is exact and flake-free. The row tables' storage follows
  // their live rows: at most 4 slots a row, plus a 16-slot floor per
  // target.
  constexpr int kSide = 27;
  constexpr int kTargets = 4;
  constexpr int kMoves = 100'000;
  constexpr int kMovesPerFind = 100;
  constexpr int kCheckpoint = 10'000;
  GridNet g = make_grid(kSide, 3);
  const auto& h = *g.hierarchy;
  std::vector<TargetId> targets;
  std::vector<RegionId> at;
  for (int i = 0; i < kTargets; ++i) {
    at.push_back(g.at(6 * i, 6 * i));
    targets.push_back(g.net->add_evader(at.back()));
  }
  g.net->run_to_quiescence();

  // Per target, a quiescent structure holds at most two path clusters per
  // level (one lateral link, Lemma 4.2) and the neighbours holding
  // secondary pointers to them. The bound does not grow with the run.
  std::size_t max_nbrs = 0;
  for (std::size_t c = 0; c < h.num_clusters(); ++c) {
    max_nbrs = std::max(
        max_nbrs,
        h.nbrs(ClusterId{static_cast<ClusterId::rep_type>(c)}).size());
  }
  const std::size_t bound = static_cast<std::size_t>(kTargets) * 2 *
                            (1 + max_nbrs) *
                            static_cast<std::size_t>(h.max_level() + 1);

  Rng rng{2024};
  std::int64_t finds = 0;
  std::vector<std::size_t> totals;
  for (int move = 1; move <= kMoves; ++move) {
    const auto i = static_cast<std::size_t>(move % kTargets);
    const auto nbrs = h.tiling().neighbors(at[i]);
    at[i] = nbrs[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(nbrs.size()) - 1))];
    g.net->move_and_quiesce(targets[i], at[i]);
    if (move % kMovesPerFind == 0) {
      const RegionId from = g.at(static_cast<int>(rng.uniform_int(0, kSide - 1)),
                                 static_cast<int>(rng.uniform_int(0, kSide - 1)));
      const FindId f = g.net->start_find(from, targets[i]);
      g.net->run_to_quiescence();
      ASSERT_TRUE(g.net->find_result(f).done) << "find " << f;
      ASSERT_EQ(g.net->tracker_rows().finds().size(), 0u)
          << "find " << f << " left a row behind";
      ++finds;
    }
    if (move % kCheckpoint != 0) continue;
    std::size_t target_rows = 0;
    for (std::size_t c = 0; c < h.num_clusters(); ++c) {
      const auto& tr =
          g.net->tracker(ClusterId{static_cast<ClusterId::rep_type>(c)});
      ASSERT_EQ(tr.target_rows(), tr.active_targets().size())
          << "cluster " << c << " keeps an idle target row";
      ASSERT_EQ(tr.find_rows(), 0u)
          << "cluster " << c << " keeps a completed find's row";
      target_rows += tr.target_rows();
    }
    EXPECT_LE(target_rows, bound) << "after " << move << " moves";
    std::size_t live = 0;
    std::size_t slots = 0;
    for (const TargetId t : targets) {
      const auto* table = g.net->tracker_rows().targets(t);
      ASSERT_NE(table, nullptr);
      live += table->size();
      slots += table->capacity();
    }
    EXPECT_EQ(live, target_rows);
    EXPECT_LE(slots, 4 * live + 16 * targets.size())
        << "after " << move << " moves";
    totals.push_back(target_rows);
  }
  EXPECT_EQ(finds, kMoves / kMovesPerFind);
  EXPECT_EQ(totals.size(), static_cast<std::size_t>(kMoves / kCheckpoint));
}

}  // namespace
}  // namespace vstest
