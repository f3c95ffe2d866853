// The row tables behind every tracker: RowTable against std::map under
// seeded insert/find/erase (with keys forced into one probe chain, and
// through growth and shrinking), and the world's tables against every
// tracker's own view after every event of seeded multi-object walks.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "hier/strip_hierarchy.hpp"
#include "hier/torus_hierarchy.hpp"
#include "tracking/row_table.hpp"
#include "util.hpp"

namespace vstest {
namespace {

struct TestRow {
  std::int32_t id = -1;  // key; -1 marks an empty slot
  std::int32_t value = 0;
  [[nodiscard]] std::int32_t key() const { return id; }
};

struct MixHash {
  std::uint64_t operator()(std::int32_t k) const {
    return tracking::fibonacci_hash(static_cast<std::uint32_t>(k));
  }
};
/// Every key's home is slot 0: one probe chain.
struct ZeroHash {
  std::uint64_t operator()(std::int32_t) const { return 0; }
};
/// Every key's home is the last slot: one chain that wraps around.
struct LastHash {
  std::uint64_t operator()(std::int32_t) const { return ~std::uint64_t{0}; }
};
/// Four homes a quarter apart, so chains from different homes overlap.
struct QuarterHash {
  std::uint64_t operator()(std::int32_t k) const {
    return static_cast<std::uint64_t>(k % 4) << 62;
  }
};

template <class Hash>
using Table = tracking::RowTable<TestRow, Hash>;

/// Every key of `want` is found with its value, and capacity follows size.
template <class Hash>
void expect_matches(const Table<Hash>& table,
                    const std::map<std::int32_t, std::int32_t>& want) {
  ASSERT_EQ(table.size(), want.size());
  for (const auto& [k, v] : want) {
    const TestRow* r = table.find(k);
    ASSERT_NE(r, nullptr) << "key " << k << " lost";
    EXPECT_EQ(r->value, v);
  }
  std::size_t visited = 0;
  table.for_each([&](const TestRow& r) {
    ++visited;
    EXPECT_EQ(want.count(r.id), 1u) << "stray key " << r.id;
  });
  EXPECT_EQ(visited, want.size());
  EXPECT_LE(table.capacity(),
            std::max(Table<Hash>::kMinCapacity, 4 * table.size()));
  EXPECT_LE(4 * table.size(), 3 * table.capacity());
}

/// Seeded insert/find/erase against std::map over keys in [0, key_range).
template <class Hash>
void run_against_map(std::uint64_t seed, int ops, std::int32_t key_range) {
  Rng rng{seed};
  Table<Hash> table;
  std::map<std::int32_t, std::int32_t> want;
  for (int i = 0; i < ops; ++i) {
    const auto k = static_cast<std::int32_t>(rng.uniform_int(0, key_range - 1));
    const auto op = rng.uniform_int(0, 2);
    if (op == 0) {
      TestRow& r = table.find_or_insert(TestRow{.id = k, .value = 0});
      r.value = i;
      want[k] = i;
    } else if (op == 1) {
      const TestRow* r = table.find(k);
      ASSERT_EQ(r != nullptr, want.count(k) == 1) << "op " << i;
    } else if (TestRow* r = table.find(k)) {
      table.erase(*r);
      want.erase(k);
      ASSERT_EQ(table.find(k), nullptr);
      expect_matches(table, want);
      if (testing::Test::HasFatalFailure()) return;
    }
  }
  expect_matches(table, want);
}

TEST(RowTable, MatchesMapUnderSeededOps) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    run_against_map<MixHash>(seed, 20'000, 300);
  }
}

TEST(RowTable, OneProbeChainSurvivesEveryErase) {
  run_against_map<ZeroHash>(11, 4'000, 40);
  run_against_map<LastHash>(12, 4'000, 40);
  run_against_map<QuarterHash>(13, 8'000, 80);
}

TEST(RowTable, FindOrInsertKeepsAnExistingRow) {
  Table<ZeroHash> table;
  table.find_or_insert(TestRow{.id = 3, .value = 7});
  EXPECT_EQ(table.find_or_insert(TestRow{.id = 3, .value = 9}).value, 7);
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(table.find(-1), nullptr) << "the empty key is never found";
}

TEST(RowTable, GrowsAndShrinksWithLiveRows) {
  Table<MixHash> table;
  EXPECT_EQ(table.capacity(), 0u);
  std::map<std::int32_t, std::int32_t> want;
  for (std::int32_t k = 0; k < 1'000; ++k) {
    table.find_or_insert(TestRow{.id = k, .value = -k});
    want[k] = -k;
    ASSERT_EQ(std::popcount(table.capacity()), 1);
    ASSERT_LE(4 * table.size(), 3 * table.capacity());
  }
  expect_matches(table, want);
  EXPECT_EQ(table.capacity(), 2048u);
  // Erase all but the last few: capacity falls back with the rows.
  for (std::int32_t k = 0; k < 995; ++k) {
    table.erase(*table.find(k));
    want.erase(k);
    ASSERT_LE(table.capacity(),
              std::max(Table<MixHash>::kMinCapacity, 4 * table.size()));
  }
  expect_matches(table, want);
  EXPECT_EQ(table.capacity(), Table<MixHash>::kMinCapacity);
}

// --- The world's tables against each tracker's view ------------------------

/// After every event: snapshot(t) equals every tracker's state(t), each
/// row of t's table agrees with its tracker's timer_armed and
/// active_targets, and each find row with its tracker's finding().
void check_views(tracking::TrackingNetwork& net,
                 const std::vector<TargetId>& targets) {
  const std::size_t n = net.hierarchy().num_clusters();
  std::size_t active_rows = 0;
  for (const TargetId t : targets) {
    const tracking::SystemSnapshot snap = net.snapshot(t);
    ASSERT_EQ(snap.trackers.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
      const ClusterId c{static_cast<ClusterId::rep_type>(i)};
      const tracking::TrackerSnapshot want = net.tracker(c).state(t);
      const tracking::TrackerSnapshot& got = snap.trackers[i];
      ASSERT_EQ(got.clust, c);
      ASSERT_EQ(got.c, want.c) << "cluster " << i << " target " << t;
      ASSERT_EQ(got.p, want.p) << "cluster " << i << " target " << t;
      ASSERT_EQ(got.nbrptup, want.nbrptup) << "cluster " << i;
      ASSERT_EQ(got.nbrptdown, want.nbrptdown) << "cluster " << i;
    }
    const tracking::TrackerRows::TargetTable* table =
        net.tracker_rows().targets(t);
    if (table == nullptr) continue;
    table->for_each([&](const tracking::TargetRow& row) {
      tracking::Tracker& tr = net.tracker(row.clust);
      EXPECT_EQ(tr.timer_armed(t), row.timer.valid());
      const std::vector<TargetId> active = tr.active_targets();
      EXPECT_EQ(std::count(active.begin(), active.end(), t),
                row.active() ? 1 : 0);
      if (row.active()) ++active_rows;
    });
  }
  std::size_t listed = 0;
  std::size_t find_rows = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const tracking::Tracker& tr =
        net.tracker(ClusterId{static_cast<ClusterId::rep_type>(i)});
    listed += tr.active_targets().size();
    find_rows += tr.find_rows();
  }
  EXPECT_EQ(listed, active_rows);
  const tracking::TrackerRows& rows = net.tracker_rows();
  EXPECT_EQ(find_rows, rows.finds().size());
  rows.finds().for_each([&](const tracking::FindRow& row) {
    EXPECT_TRUE(rows.may_hold_finds(row.clust));
    EXPECT_EQ(net.tracker(row.clust).finding(row.find), row.finding);
  });
}

/// Three objects walk in turn with a find every few moves; one VSA on the
/// first object's path fails halfway. Every event run is checked.
void walk_and_check(const hier::ClusterHierarchy& h, std::uint64_t seed) {
  tracking::NetworkConfig cfg;
  cfg.model_vsa_failures = true;
  cfg.t_restart = sim::Duration::millis(5);
  tracking::TrackingNetwork net(h, cfg);
  const geo::Tiling& tiling = h.tiling();
  const auto regions = static_cast<std::int64_t>(tiling.num_regions());
  constexpr int kTargets = 3;
  constexpr int kMoves = 24;
  std::vector<TargetId> targets;
  std::vector<RegionId> at;
  for (int i = 0; i < kTargets; ++i) {
    at.push_back(RegionId{static_cast<RegionId::rep_type>(
        regions * (i + 1) / (kTargets + 1))});
    targets.push_back(net.add_evader(at.back()));
  }
  // Up to kEventsPerMove events per move: a find issued past the failure
  // may chase pointers the failure left stale and never quiesce.
  constexpr int kEventsPerMove = 400;
  const auto drain = [&] {
    for (int k = 0; k < kEventsPerMove && net.scheduler().step(); ++k) {
      check_views(net, targets);
      if (testing::Test::HasFailure()) return;
    }
  };
  drain();
  Rng rng{seed};
  for (int move = 1; move <= kMoves && !testing::Test::HasFailure(); ++move) {
    const auto i = static_cast<std::size_t>(move % kTargets);
    const auto nbrs = tiling.neighbors(at[i]);
    at[i] = nbrs[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(nbrs.size()) - 1))];
    net.move_evader(targets[i], at[i]);
    if (move % 4 == 0) {
      const RegionId from{
          static_cast<RegionId::rep_type>(rng.uniform_int(0, regions - 1))};
      (void)net.start_find(from, targets[(i + 1) % kTargets]);
    }
    if (move == kMoves / 2) {
      const Level l = std::min<Level>(2, h.max_level());
      net.fail_vsa(h.head(h.cluster_of(at[0], l)));
    }
    drain();
  }
}

TEST(TrackerRowTables, SnapshotMatchesEveryTrackerAfterEveryEvent) {
  {
    const hier::GridHierarchy h(27, 27, 3);
    walk_and_check(h, 0x5A1);
  }
  {
    const hier::StripHierarchy h(81, 3);
    walk_and_check(h, 0x5A2);
  }
  {
    const hier::TorusHierarchy h(27, 3);
    walk_and_check(h, 0x5A3);
  }
}

}  // namespace
}  // namespace vstest
