// The per-message path's resource contract: the serving path builds no
// scheduler event on the heap (C-gcast's in-flight slab and the trackers'
// inline timer actions keep every closure inside EventAction's buffer),
// schedules none onto the event queue's fallback heap, and tracker state
// is bounded by live objects and in-flight finds, not by history.

#include <gtest/gtest.h>

#include <algorithm>

#include "serve/server.hpp"
#include "sim/action.hpp"
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
  EXPECT_GT(g.net->scheduler().events_fired(), 5'000u);
  EXPECT_EQ(g.net->scheduler().fallback_pushes(), 0u);
}

TEST(MessagePath, TrackerRowsStayBoundedOverALongRun) {
  // Soak under the paper's assumptions: atomic moves (each one quiesces
  // before the next) and finds that all complete. Row counts, not RSS,
  // so the bound is exact and flake-free.
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
    totals.push_back(target_rows);
  }
  EXPECT_EQ(finds, kMoves / kMovesPerFind);
  EXPECT_EQ(totals.size(), static_cast<std::size_t>(kMoves / kCheckpoint));
}

}  // namespace
}  // namespace vstest
