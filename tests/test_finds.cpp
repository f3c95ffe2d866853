// Find operation tests (paper §V).
//
// Finds issued in consistent states must produce a found output at the
// evader's region (the tracking service specification, §III-A), with work
// O(d) on the grid (Theorem 5.2). Theorem 5.1's coverage property —
// within q(l) of the evader, level-l clusters see the path or a secondary
// pointer to it — is checked directly on snapshots. The network's find
// census (issued, completed, latency histogram) matches a recount over
// its find history.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "obs/metrics.hpp"
#include "spec/consistency.hpp"
#include "util.hpp"

namespace vstest {
namespace {

TEST(Finds, FindAtEvaderRegionCompletesLocally) {
  GridNet h = make_grid(9, 3);
  const RegionId where = h.at(4, 4);
  const TargetId t = h.net->add_evader(where);
  h.net->run_to_quiescence();

  const FindId f = h.net->start_find(where, t);
  h.net->run_to_quiescence();
  const auto& r = h.net->find_result(f);
  ASSERT_TRUE(r.done);
  EXPECT_EQ(r.found_region, where);
}

TEST(Finds, FindFromFarCornerSucceeds) {
  GridNet g = make_grid(27, 3);
  const RegionId where = g.at(26, 26);
  const TargetId t = g.net->add_evader(where);
  g.net->run_to_quiescence();

  const FindId f = g.net->start_find(g.at(0, 0), t);
  g.net->run_to_quiescence();
  const auto& r = g.net->find_result(f);
  ASSERT_TRUE(r.done);
  EXPECT_EQ(r.found_region, where);
  EXPECT_GT(r.work, 0);
}

TEST(Finds, EveryOriginFindsTheEvader) {
  GridNet g = make_grid(9, 3);
  const RegionId where = g.at(7, 2);
  const TargetId t = g.net->add_evader(where);
  g.net->run_to_quiescence();

  for (const RegionId origin : g.hierarchy->tiling().all_regions()) {
    const FindId f = g.net->start_find(origin, t);
    g.net->run_to_quiescence();
    const auto& r = g.net->find_result(f);
    ASSERT_TRUE(r.done) << "find from " << origin << " never completed";
    EXPECT_EQ(r.found_region, where) << "find from " << origin;
  }
}

TEST(Finds, FindAfterManyMovesSucceeds) {
  GridNet g = make_grid(27, 3);
  const RegionId start = g.at(3, 3);
  const TargetId t = g.net->add_evader(start);
  g.net->run_to_quiescence();
  const auto walk = random_walk(g.hierarchy->tiling(), start, 100, 77);
  for (std::size_t i = 1; i < walk.size(); ++i) {
    g.net->move_and_quiesce(t, walk[i]);
  }
  const FindId f = g.net->start_find(g.at(13, 13), t);
  g.net->run_to_quiescence();
  const auto& r = g.net->find_result(f);
  ASSERT_TRUE(r.done);
  EXPECT_EQ(r.found_region, walk.back());
}

TEST(Finds, ConcurrentFindsFromManyOriginsAllComplete) {
  GridNet g = make_grid(27, 3);
  const RegionId where = g.at(20, 7);
  const TargetId t = g.net->add_evader(where);
  g.net->run_to_quiescence();

  std::vector<FindId> finds;
  for (int i = 0; i < 26; i += 2) {
    finds.push_back(g.net->start_find(g.at(i, 0), t));
    finds.push_back(g.net->start_find(g.at(0, i + 1), t));
  }
  g.net->run_to_quiescence();
  for (const FindId f : finds) {
    const auto& r = g.net->find_result(f);
    ASSERT_TRUE(r.done);
    EXPECT_EQ(r.found_region, where);
  }
}

TEST(Finds, WorkGrowsRoughlyLinearlyInDistance) {
  // Theorem 5.2 corollary: O(d) work on the grid. Compare work at distance
  // d and 4d: the ratio must stay well under the quadratic regime's 16 and
  // within a generous constant of linear.
  GridNet g = make_grid(81, 3);
  const RegionId where = g.at(40, 40);
  const TargetId t = g.net->add_evader(where);
  g.net->run_to_quiescence();

  const FindId near = g.net->start_find(g.at(45, 40), t);  // d = 5
  g.net->run_to_quiescence();
  const FindId far = g.net->start_find(g.at(60, 40), t);  // d = 20
  g.net->run_to_quiescence();

  const auto wn = g.net->find_result(near).work;
  const auto wf = g.net->find_result(far).work;
  ASSERT_GT(wn, 0);
  ASSERT_GT(wf, 0);
  EXPECT_LT(static_cast<double>(wf) / static_cast<double>(wn), 12.0);
}

TEST(Finds, SecondaryPointerCoverage) {
  // Theorem 5.1: in a consistent state, any region within q(l) of the
  // evader has its level-l cluster (or a neighbour of it) on the path or
  // holding a secondary pointer to the path.
  GridNet g = make_grid(27, 3);
  const RegionId where = g.at(11, 16);
  const TargetId t = g.net->add_evader(where);
  g.net->run_to_quiescence();
  // Add a lateral link by stepping across a boundary.
  g.net->move_and_quiesce(t, g.at(12, 16));

  const auto snap = g.net->snapshot(t);
  const auto report = vs::spec::check_consistent(snap, g.at(12, 16));
  ASSERT_TRUE(report.ok()) << report.to_string();
  std::vector<bool> on_path(g.hierarchy->num_clusters(), false);
  for (const ClusterId c : report.path) {
    on_path[static_cast<std::size_t>(c.value())] = true;
  }
  const auto touches_path = [&](ClusterId c) {
    const auto& s = snap.at(c);
    return on_path[static_cast<std::size_t>(c.value())] || s.nbrptup.valid() ||
           s.nbrptdown.valid();
  };
  const auto& h = *g.hierarchy;
  for (const RegionId u : h.tiling().all_regions()) {
    const int d = h.tiling().distance(u, g.at(12, 16));
    for (Level l = 0; l <= h.max_level(); ++l) {
      if (d > h.q(l)) continue;
      const ClusterId cu = h.cluster_of(u, l);
      bool covered = touches_path(cu);
      for (const ClusterId b : h.nbrs(cu)) covered = covered || touches_path(b);
      EXPECT_TRUE(covered) << "region " << u << " level " << l;
    }
  }
}

TEST(Finds, CensusEqualsARecountOverTheHistory) {
  // Three clients per region: every client that believes the evader is in
  // its region answers the found broadcast, so each find is answered three
  // times and must still be counted once.
  tracking::NetworkConfig cfg;
  cfg.clients_per_region = 3;
  GridNet g = make_grid(27, 3, cfg);
  const TargetId t = g.net->add_evader(g.at(13, 13));
  g.net->run_to_quiescence();
  for (int i = 0; i < 9; ++i) {
    (void)g.net->start_find(g.at(3 * i, 26 - 2 * i), t);
  }
  g.net->run_to_quiescence();
  g.net->move_and_quiesce(t, g.at(14, 13));
  (void)g.net->start_find(g.at(13, 13), t);
  g.net->run_to_quiescence();
  // Issued but not yet run: still pending.
  (void)g.net->start_find(g.at(0, 0), t);
  (void)g.net->start_find(g.at(26, 26), t);

  const tracking::FindCensus& census = g.net->find_census();
  const std::vector<std::int64_t>& bounds = census.latency_us.bounds();
  ASSERT_EQ(bounds.size(), 11u);
  EXPECT_EQ(bounds.front(), 1'000);
  EXPECT_EQ(bounds.back(), 1'024'000);
  std::int64_t issued = 0;
  std::int64_t completed = 0;
  obs::Histogram latency(bounds);
  for (const auto& [id, fr] : g.net->finds()) {
    ++issued;
    if (!fr.done) continue;
    ++completed;
    EXPECT_EQ(g.net->clients().alive_clients_in(fr.found_region), 3u);
    latency.record(fr.latency().count());
  }
  EXPECT_EQ(issued, 12);
  EXPECT_EQ(completed, 10);
  EXPECT_EQ(census.issued, issued);
  EXPECT_EQ(census.completed, completed);
  EXPECT_EQ(census.latency_us.buckets(), latency.buckets());
  EXPECT_EQ(census.latency_us.count(), latency.count());
  EXPECT_EQ(census.latency_us.sum(), latency.sum());
  EXPECT_EQ(census.latency_us.min(), latency.min());
  EXPECT_EQ(census.latency_us.max(), latency.max());

  // export_metrics reports the same census.
  const obs::MetricsRegistry m = g.net->export_metrics();
  EXPECT_EQ(m.counter("find.issued"), issued);
  EXPECT_EQ(m.counter("find.completed"), completed);
  const obs::Histogram* exported = m.find_histogram("find.latency_us");
  ASSERT_NE(exported, nullptr);
  EXPECT_EQ(exported->buckets(), latency.buckets());
  EXPECT_EQ(exported->sum(), latency.sum());
}

// Parameterized: find from every distance ring completes at the evader.
class FindDistance : public ::testing::TestWithParam<int> {};

TEST_P(FindDistance, CompletesAtEvader) {
  const int d = GetParam();
  GridNet g = make_grid(81, 3);
  const RegionId where = g.at(40, 40);
  const TargetId t = g.net->add_evader(where);
  g.net->run_to_quiescence();
  const FindId f = g.net->start_find(g.at(40 + d, 40), t);
  g.net->run_to_quiescence();
  const auto& r = g.net->find_result(f);
  ASSERT_TRUE(r.done);
  EXPECT_EQ(r.found_region, where);
}

INSTANTIATE_TEST_SUITE_P(Distances, FindDistance,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 40));

}  // namespace
}  // namespace vstest
