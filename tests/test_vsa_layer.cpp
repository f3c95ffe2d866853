// Unit tests for VSA liveness (directory), clients, and the evader model
// (paper §II-C.1/2, §III-A).

#include <gtest/gtest.h>

#include <vector>

#include "common/error.hpp"
#include "spec/consistency.hpp"
#include "stats/counters.hpp"
#include "util.hpp"
#include "vsa/cgcast.hpp"
#include "vsa/client.hpp"
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
  std::size_t pairs = 0;
  for (const TargetId t : objects) {
    const RegionId here = g.net->evaders().region_of(t);
    pairs += pop.alive_clients_in(here);
    for (const ClientId id : pop.clients_in(here)) {
      EXPECT_TRUE(pop.believes(id, t));
    }
  }
  EXPECT_EQ(pop.num_beliefs(), pairs);
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

/// A region's clients, in iteration order.
std::vector<ClientId> listed(const vsa::ClientPopulation& pop, RegionId r) {
  std::vector<ClientId> out;
  for (const ClientId id : pop.clients_in(r)) out.push_back(id);
  return out;
}

TEST(Clients, RegionListsKeepJoinOrder) {
  // A region's clients iterate in the order they joined it: add_client
  // appends, a moved client leaves its old list and joins the end of its
  // new one, and a kill or a restart leaves the order as it is.
  GridNet g = make_grid(4, 2);
  auto& pop = g.net->clients();
  const RegionId a = g.at(1, 1);
  const RegionId b = g.at(2, 2);
  const ClientId a0 = listed(pop, a).front();
  const ClientId b0 = listed(pop, b).front();
  const ClientId x = pop.add_client(a);
  const ClientId y = pop.add_client(a);
  EXPECT_EQ(listed(pop, a), (std::vector{a0, x, y}));
  pop.move_client(x, b);  // out of the middle
  EXPECT_EQ(listed(pop, a), (std::vector{a0, y}));
  EXPECT_EQ(listed(pop, b), (std::vector{b0, x}));
  pop.move_client(a0, b);  // out of the front
  pop.move_client(x, a);   // out of the back, and home to the end
  EXPECT_EQ(listed(pop, a), (std::vector{y, x}));
  EXPECT_EQ(listed(pop, b), (std::vector{b0, a0}));
  pop.kill_client(y);
  EXPECT_EQ(listed(pop, a), (std::vector{y, x}));
  pop.restart_client(y);
  EXPECT_EQ(listed(pop, a), (std::vector{y, x}));
  EXPECT_EQ(pop.alive_clients_in(a), 2u);
}

/// A client population on its own C-gcast, with three clients in one
/// region.
struct ThreeClients {
  hier::GridHierarchy hier{4, 4, 2};
  Scheduler sched;
  stats::WorkCounters counters{hier.max_level()};
  vsa::CGcast cg{sched, hier,
                 vsa::CGcastConfig{Duration::millis(1), Duration::millis(1)},
                 counters};
  vsa::ClientPopulation pop{cg, hier, nullptr};
  RegionId here = hier.grid().region_at(1, 2);
  std::vector<ClientId> ids;
  TargetId t{0};

  ThreeClients() {
    pop.populate_uniform(1);
    ids = {listed(pop, here).front(), pop.add_client(here),
           pop.add_client(here)};
  }

  /// The clients that perform the found output, in output order.
  std::vector<ClientId> found_by() {
    std::vector<ClientId> out;
    pop.set_found_output(
        [&](FindId, TargetId, RegionId, ClientId by) { out.push_back(by); });
    vsa::Message m;
    m.type = vsa::MsgType::kFound;
    m.target = t;
    m.find_id = FindId{1};
    pop.on_broadcast(here, m);
    return out;
  }

  /// Sends the clients make, by type, in send order.
  std::vector<vsa::MsgType> sends_during(const std::function<void()>& act) {
    std::vector<vsa::MsgType> out;
    const auto obs = cg.add_send_observer(
        [&](const vsa::Message& m, ClusterId, ClusterId, Level,
            std::int64_t) { out.push_back(m.type); });
    act();
    cg.remove_send_observer(obs);
    return out;
  }

  void query_presence() {
    vsa::Message q;
    q.type = vsa::MsgType::kHeartbeat;
    q.hb_claim = vsa::HbClaim::kClientQuery;
    q.target = t;
    pop.on_broadcast(here, q);
  }
};

TEST(Clients, FoundOutputsFollowJoinOrder) {
  ThreeClients c;
  EXPECT_EQ(c.sends_during([&] {
              c.pop.on_evader_move(c.t, RegionId::invalid(), c.here);
            }),
            std::vector<vsa::MsgType>(3, vsa::MsgType::kGrow));
  EXPECT_EQ(c.found_by(), c.ids);
  EXPECT_EQ(c.pop.num_beliefs(), 3u);
  // A killed client neither believes nor answers; a restarted one keeps
  // its place but starts without the belief.
  c.pop.kill_client(c.ids[1]);
  EXPECT_EQ(c.found_by(), (std::vector{c.ids[0], c.ids[2]}));
  EXPECT_EQ(c.pop.num_beliefs(), 2u);
  c.pop.restart_client(c.ids[1]);
  EXPECT_EQ(c.found_by(), (std::vector{c.ids[0], c.ids[2]}));
  // A client that leaves and comes back joins the end, without a belief
  // until the next move input.
  c.pop.move_client(c.ids[0], c.hier.grid().region_at(0, 0));
  c.pop.move_client(c.ids[0], c.here);
  EXPECT_EQ(c.found_by(), (std::vector{c.ids[2]}));
  c.pop.on_evader_move(c.t, RegionId::invalid(), c.here);
  EXPECT_EQ(c.found_by(), (std::vector{c.ids[1], c.ids[2], c.ids[0]}));
  EXPECT_EQ(c.pop.num_beliefs(), 3u);
}

TEST(Clients, PresenceRepliesAndRedetectionComeFromEachAliveClient) {
  ThreeClients c;
  // No client believes the evader is here: every alive client answers the
  // query with the missing shrink (the replies are identical messages, so
  // their number is what shows), and a believer silences them all.
  c.pop.kill_client(c.ids[1]);
  EXPECT_EQ(c.sends_during([&] { c.query_presence(); }),
            std::vector<vsa::MsgType>(2, vsa::MsgType::kShrink));
  c.pop.restart_client(c.ids[1]);
  c.pop.on_evader_move(c.t, RegionId::invalid(), c.here);
  EXPECT_TRUE(c.sends_during([&] { c.query_presence(); }).empty());
  // Re-detection: the region was just queried, so its believers stay
  // silent once; the next scan, unqueried, has each of them re-send.
  EXPECT_EQ(c.pop.refresh_detection(c.t), 0);
  EXPECT_EQ(c.sends_during([&] { (void)c.pop.refresh_detection(c.t); }),
            std::vector<vsa::MsgType>(3, vsa::MsgType::kGrow));
  // Only the believers of that target send.
  EXPECT_EQ(c.pop.refresh_detection(TargetId{1}), 0);
}

}  // namespace
}  // namespace vstest
