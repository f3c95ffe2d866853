// Tests for the §VII "multiple heads per cluster" quorum extension: the
// cluster process state survives while any replica VSA is alive, messages
// pay the quorum-contact overhead, and the base algorithm (1 replica) is
// unchanged.

#include <gtest/gtest.h>

#include "spec/atomic_spec.hpp"
#include "spec/consistency.hpp"
#include "util.hpp"

namespace vstest {
namespace {

tracking::NetworkConfig replicated_cfg(int k, bool failures = true) {
  tracking::NetworkConfig cfg;
  cfg.head_replicas = k;
  cfg.model_vsa_failures = failures;
  cfg.t_restart = sim::Duration::millis(4);
  return cfg;
}

TEST(Replication, ReplicaSetsIncludeHeadAndAreDistinct) {
  for (const int k : {1, 3}) {
    SCOPED_TRACE(k);
    GridNet g = make_grid(27, 3, replicated_cfg(k, false));
    const auto& h = *g.hierarchy;
    // hosted_at(u), rebuilt from replicas_of: the clusters with a replica
    // at u, in cluster-id order.
    std::vector<std::vector<ClusterId>> hosted(h.tiling().num_regions());
    for (std::size_t c = 0; c < h.num_clusters(); ++c) {
      const ClusterId id{static_cast<ClusterId::rep_type>(c)};
      const auto reps = g.net->replicas_of(id);
      ASSERT_GE(reps.size(), 1u);
      EXPECT_EQ(reps.front(), h.head(id));
      // Distinct members of the cluster, capped by its size.
      const auto members = h.members(id);
      EXPECT_LE(reps.size(),
                std::min<std::size_t>(static_cast<std::size_t>(k),
                                      members.size()));
      for (std::size_t i = 0; i < reps.size(); ++i) {
        EXPECT_NE(std::find(members.begin(), members.end(), reps[i]),
                  members.end());
        for (std::size_t j = i + 1; j < reps.size(); ++j) {
          EXPECT_NE(reps[i], reps[j]);
        }
        hosted[static_cast<std::size_t>(reps[i].value())].push_back(id);
      }
    }
    for (std::size_t u = 0; u < hosted.size(); ++u) {
      const auto at =
          g.net->hosted_at(RegionId{static_cast<RegionId::rep_type>(u)});
      EXPECT_EQ(std::vector<ClusterId>(at.begin(), at.end()), hosted[u])
          << "region " << u;
    }
  }
}

TEST(Replication, SingleReplicaMatchesBaseAlgorithm) {
  GridNet base = make_grid(9, 3);
  GridNet repl = make_grid(9, 3, [] {
    tracking::NetworkConfig cfg;
    cfg.head_replicas = 1;
    return cfg;
  }());
  for (GridNet* g : {&base, &repl}) {
    const TargetId t = g->net->add_evader(g->at(4, 4));
    g->net->run_to_quiescence();
    g->net->move_and_quiesce(t, g->at(5, 4));
  }
  EXPECT_TRUE(spec::equal_states(base.net->snapshot(TargetId{0}).trackers,
                                 repl.net->snapshot(TargetId{0}).trackers));
  EXPECT_EQ(base.net->counters().move_work(),
            repl.net->counters().move_work());
}

TEST(Replication, TrackingStillCorrectWithReplicas) {
  GridNet g = make_grid(27, 3, replicated_cfg(3, false));
  const RegionId start = g.at(13, 13);
  const TargetId t = g.net->add_evader(start);
  g.net->run_to_quiescence();
  spec::AtomicSpec spec(*g.hierarchy);
  spec.init(start);
  const auto walk = random_walk(g.hierarchy->tiling(), start, 50, 0x4EB);
  for (std::size_t i = 1; i < walk.size(); ++i) {
    spec.apply_move(walk[i]);
    g.net->move_and_quiesce(t, walk[i]);
  }
  EXPECT_TRUE(spec::equal_states(g.net->snapshot(t).trackers, spec.state()));
  const FindId f = g.net->start_find(g.at(0, 0), t);
  g.net->run_to_quiescence();
  EXPECT_EQ(g.net->find_result(f).found_region, walk.back());
}

TEST(Replication, WorkPaysTheQuorumOverhead) {
  GridNet one = make_grid(27, 3, replicated_cfg(1, false));
  GridNet three = make_grid(27, 3, replicated_cfg(3, false));
  for (GridNet* g : {&one, &three}) {
    const TargetId t = g->net->add_evader(g->at(13, 13));
    g->net->run_to_quiescence();
    for (int i = 1; i <= 10; ++i) g->net->move_and_quiesce(t, g->at(13 + i, 13));
  }
  // Same messages, strictly more hop-work (each message contacts all
  // replica hosts).
  EXPECT_EQ(one.net->counters().move_messages(),
            three.net->counters().move_messages());
  EXPECT_GT(three.net->counters().move_work(),
            one.net->counters().move_work());
}

TEST(Replication, SurvivesPrimaryHeadFailure) {
  GridNet g = make_grid(27, 3, replicated_cfg(3));
  // Evader at (12,12): the heads of its level-1/2 clusters sit at (13,13),
  // a *different* region, so failing that VSA kills only multi-replica
  // processes (plus (13,13)'s own off-path level-0 singleton).
  const RegionId where = g.at(12, 12);
  const TargetId t = g.net->add_evader(where);
  g.net->run_to_quiescence();

  const RegionId primary =
      g.hierarchy->head(g.hierarchy->cluster_of(where, 1));
  ASSERT_NE(primary, where);
  ASSERT_EQ(primary, g.hierarchy->head(g.hierarchy->cluster_of(where, 2)));
  g.net->fail_vsa(primary);
  // With three replicas, the on-path level-1/2 processes survive: the
  // whole path is intact. (Full §IV-C consistency would also demand the
  // *failed* region's own level-0 singleton keep its secondary pointer —
  // that state is legitimately lost with its VSA, so we assert path
  // integrity plus continued service instead.)
  for (Level l = 0; l <= g.hierarchy->max_level(); ++l) {
    const auto s =
        g.net->tracker(g.hierarchy->cluster_of(where, l)).state(t);
    EXPECT_TRUE(s.c.valid()) << "level " << l << " lost its child pointer";
  }

  g.net->move_and_quiesce(t, g.at(12, 11));
  const FindId f = g.net->start_find(g.at(0, 0), t);
  g.net->run_to_quiescence();
  EXPECT_EQ(g.net->find_result(f).found_region, g.at(12, 11));
}

TEST(Replication, StateLostOnlyWhenAllReplicasFail) {
  GridNet g = make_grid(27, 3, replicated_cfg(2));
  const RegionId where = g.at(4, 4);
  const TargetId t = g.net->add_evader(where);
  g.net->run_to_quiescence();

  const ClusterId c1 = g.hierarchy->cluster_of(where, 1);
  const auto reps = g.net->replicas_of(c1);
  ASSERT_EQ(reps.size(), 2u);
  g.net->fail_vsa(reps[0]);
  EXPECT_TRUE(g.net->tracker(c1).state(t).c.valid());  // survived
  g.net->fail_vsa(reps[1]);
  EXPECT_FALSE(g.net->tracker(c1).state(t).c.valid());  // now wiped
}

TEST(Replication, MessagesDroppedOnlyWhenAllReplicasDead) {
  GridNet g = make_grid(27, 3, replicated_cfg(2));
  // Evader at (3,3); its level-1 cluster's primary head is (4,4) — not a
  // region the move's client traffic needs, so failing it must not drop
  // anything (the second replica accepts the grow).
  const RegionId where = g.at(3, 3);
  const TargetId t = g.net->add_evader(where);
  g.net->run_to_quiescence();

  const ClusterId c1 = g.hierarchy->cluster_of(where, 1);
  const auto reps = g.net->replicas_of(c1);
  ASSERT_NE(reps[0], where);
  g.net->fail_vsa(reps[0]);
  const auto dropped_before = g.net->cgcast().dropped();
  // A move whose grow goes through c1 still gets delivered.
  g.net->move_and_quiesce(t, g.at(3, 4));
  EXPECT_EQ(g.net->cgcast().dropped(), dropped_before);
}

TEST(Replication, RejectsZeroReplicas) {
  tracking::NetworkConfig cfg;
  cfg.head_replicas = 0;
  hier::GridHierarchy h(9, 9, 3);
  EXPECT_THROW(tracking::TrackingNetwork(h, cfg), vs::Error);
}

}  // namespace
}  // namespace vstest
