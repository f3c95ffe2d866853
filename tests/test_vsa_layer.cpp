// Unit tests for VSA liveness (directory), clients, and the evader model
// (paper §II-C.1/2, §III-A).

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "spec/consistency.hpp"
#include "util.hpp"
#include "vsa/directory.hpp"
#include "vsa/evader.hpp"

namespace vstest {
namespace {

using sim::Duration;
using sim::Scheduler;
using vsa::VsaDirectory;

TEST(Directory, StartsAlive) {
  Scheduler s;
  VsaDirectory dir(s, 10, Duration::millis(5));
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(dir.alive(RegionId{i}));
}

TEST(Directory, FailAndRestartAfterTrestart) {
  Scheduler s;
  VsaDirectory dir(s, 4, Duration::millis(5));
  int fails = 0, restarts = 0;
  dir.set_on_fail([&](RegionId) { ++fails; });
  dir.set_on_restart([&](RegionId) { ++restarts; });

  dir.fail(RegionId{2});
  EXPECT_FALSE(dir.alive(RegionId{2}));
  EXPECT_EQ(fails, 1);
  // Clients are present, so the restart clock runs immediately.
  s.run();
  EXPECT_TRUE(dir.alive(RegionId{2}));
  EXPECT_EQ(restarts, 1);
  EXPECT_EQ(s.now().count(), Duration::millis(5).count());
}

TEST(Directory, ClientlessRegionFails) {
  Scheduler s;
  VsaDirectory dir(s, 4, Duration::millis(5));
  dir.set_clients_present(RegionId{1}, false);
  EXPECT_FALSE(dir.alive(RegionId{1}));
  // No clients → no restart.
  s.run();
  EXPECT_FALSE(dir.alive(RegionId{1}));
  // Clients return → restart after t_restart.
  dir.set_clients_present(RegionId{1}, true);
  s.run();
  EXPECT_TRUE(dir.alive(RegionId{1}));
}

TEST(Directory, PresenceLapseAbortsRestart) {
  Scheduler s;
  VsaDirectory dir(s, 4, Duration::millis(10));
  dir.fail(RegionId{0});
  // Clients leave before t_restart elapses.
  s.run_until(sim::TimePoint{2000});
  dir.set_clients_present(RegionId{0}, false);
  s.run();
  EXPECT_FALSE(dir.alive(RegionId{0}));
  EXPECT_EQ(dir.restarts(), 0);
}

TEST(Directory, DoubleFailIsIdempotent) {
  Scheduler s;
  VsaDirectory dir(s, 4, Duration::millis(5));
  dir.fail(RegionId{3});
  dir.fail(RegionId{3});
  EXPECT_EQ(dir.failures(), 1);
}

TEST(EvaderModel, MoveRequiresNeighbor) {
  geo::GridTiling grid(5, 5);
  vsa::EvaderModel model(grid);
  const TargetId t = model.add_evader(grid.region_at(2, 2));
  EXPECT_THROW(model.move(t, grid.region_at(4, 4)), vs::Error);
  model.move(t, grid.region_at(3, 3));
  EXPECT_EQ(model.region_of(t), grid.region_at(3, 3));
}

TEST(EvaderModel, HookSeesMoves) {
  geo::GridTiling grid(5, 5);
  vsa::EvaderModel model(grid);
  std::vector<std::pair<RegionId, RegionId>> seen;
  model.set_move_hook([&](TargetId, RegionId from, RegionId to) {
    seen.emplace_back(from, to);
  });
  const TargetId t = model.add_evader(grid.region_at(0, 0));
  model.move(t, grid.region_at(1, 1));
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_FALSE(seen[0].first.valid());  // initial placement
  EXPECT_EQ(seen[1].first, grid.region_at(0, 0));
  EXPECT_EQ(seen[1].second, grid.region_at(1, 1));
}

TEST(Movers, DitherOscillates) {
  vsa::DitherMover m(RegionId{1}, RegionId{2});
  EXPECT_EQ(m.next(RegionId{1}), RegionId{2});
  EXPECT_EQ(m.next(RegionId{2}), RegionId{1});
}

TEST(Movers, RandomWalkStepsToNeighbors) {
  geo::GridTiling grid(6, 6);
  vsa::RandomWalkMover m(grid, 5);
  RegionId cur = grid.region_at(3, 3);
  for (int i = 0; i < 200; ++i) {
    const RegionId next = m.next(cur);
    EXPECT_TRUE(grid.are_neighbors(cur, next));
    cur = next;
  }
}

TEST(Movers, WaypointReachesItsGoalEventually) {
  geo::GridTiling grid(10, 10);
  vsa::WaypointMover m(grid, 9);
  RegionId cur = grid.region_at(0, 0);
  for (int i = 0; i < 500; ++i) {
    const RegionId next = m.next(cur);
    EXPECT_TRUE(grid.are_neighbors(cur, next));
    cur = next;
  }
}

TEST(Movers, PathMoverFollowsSequence) {
  geo::GridTiling grid(4, 4);
  const std::vector<RegionId> cycle{grid.region_at(0, 0), grid.region_at(1, 0),
                                    grid.region_at(1, 1), grid.region_at(0, 1)};
  vsa::PathMover m(cycle);
  RegionId cur = grid.region_at(0, 0);
  for (int i = 0; i < 8; ++i) {
    const RegionId next = m.next(cur);
    EXPECT_TRUE(grid.are_neighbors(cur, next));
    cur = next;
  }
}

TEST(Clients, EvaderMoveWithoutClientsIsAnError) {
  GridNet g = make_grid(6, 2);
  // Kill the only client at a region the evader tries to leave from.
  const TargetId t = g.net->add_evader(g.at(2, 2));
  g.net->run_to_quiescence();
  // Find the client at (2,2) and kill it — on_evader_move must refuse.
  // Clients are created region-major, one per region.
  const ClientId id{g.at(2, 2).value()};
  g.net->clients().kill_client(id);
  EXPECT_THROW(g.net->move_evader(t, g.at(3, 2)), vs::Error);
}

TEST(Clients, FoundBeliefIsPerRegion) {
  GridNet g = make_grid(6, 2);
  const TargetId t = g.net->add_evader(g.at(1, 1));
  g.net->run_to_quiescence();
  g.net->move_and_quiesce(t, g.at(2, 1));
  // Clients at the old region no longer believe the evader is there, so a
  // found broadcast there must not complete a find; the new region works.
  const FindId f = g.net->start_find(g.at(5, 5), t);
  g.net->run_to_quiescence();
  const auto& r = g.net->find_result(f);
  ASSERT_TRUE(r.done);
  EXPECT_EQ(r.found_region, g.at(2, 1));
}

TEST(Clients, BeliefsAreBoundedByLiveObjects) {
  // A `left` input erases the client's belief, so after any walk the
  // clients hold one entry per (object, alive client in the object's
  // region) pair, not one per region an object ever passed through.
  GridNet g = make_grid(9, 3);
  auto& pop = g.net->clients();
  for (const RegionId r : {g.at(4, 4), g.at(2, 6), g.at(7, 1)}) {
    (void)pop.add_client(r);  // two clients in a few regions
  }
  const geo::Tiling& tiling = g.hierarchy->grid();
  const std::vector<RegionId> starts{g.at(1, 1), g.at(4, 4), g.at(7, 7)};
  constexpr int kSteps = 40;
  std::vector<TargetId> objects;
  std::vector<std::vector<RegionId>> walks;
  for (std::size_t k = 0; k < starts.size(); ++k) {
    objects.push_back(g.net->add_evader(starts[k]));
    walks.push_back(random_walk(tiling, starts[k], kSteps, 17 + k));
  }
  g.net->run_to_quiescence();
  for (std::size_t step = 1; step <= kSteps; ++step) {
    for (std::size_t k = 0; k < objects.size(); ++k) {
      g.net->move_and_quiesce(objects[k], walks[k][step]);
    }
  }
  std::size_t beliefs = 0;
  for (std::size_t r = 0; r < tiling.num_regions(); ++r) {
    const RegionId region{static_cast<RegionId::rep_type>(r)};
    for (const ClientId id : pop.clients_in(region)) {
      beliefs += pop.client(id).believes_here.size();
    }
  }
  std::size_t pairs = 0;
  for (const TargetId t : objects) {
    const RegionId here = g.net->evaders().region_of(t);
    pairs += pop.alive_clients_in(here);
    for (const ClientId id : pop.clients_in(here)) {
      EXPECT_TRUE(pop.client(id).believes_here.contains(t));
    }
  }
  EXPECT_EQ(beliefs, pairs);
}

TEST(Clients, FindFromRegionWithoutClientThrows) {
  GridNet g = make_grid(6, 2);
  const TargetId t = g.net->add_evader(g.at(1, 1));
  g.net->run_to_quiescence();
  const ClientId id{g.at(5, 5).value()};
  g.net->clients().kill_client(id);
  EXPECT_THROW(g.net->start_find(g.at(5, 5), t), vs::Error);
}

TEST(Clients, PopulationBookkeeping) {
  GridNet g = make_grid(4, 2);
  auto& pop = g.net->clients();
  const RegionId a = g.at(0, 0);
  const RegionId b = g.at(3, 3);
  EXPECT_EQ(pop.alive_clients_in(a), 1u);
  const ClientId extra = pop.add_client(a);
  EXPECT_EQ(pop.alive_clients_in(a), 2u);
  pop.move_client(extra, b);
  EXPECT_EQ(pop.alive_clients_in(a), 1u);
  EXPECT_EQ(pop.alive_clients_in(b), 2u);
  pop.kill_client(extra);
  EXPECT_EQ(pop.alive_clients_in(b), 1u);
  pop.restart_client(extra);
  EXPECT_EQ(pop.alive_clients_in(b), 2u);
  EXPECT_EQ(pop.client(extra).region, b);
}

}  // namespace
}  // namespace vstest
