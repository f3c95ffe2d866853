// The cluster hierarchy's derived tables against the region-pair
// derivation, and build()'s structural checks one requirement at a time.
//
// ClusterHierarchy::build derives each level from the level below: the
// neighbours of a cluster are the parents of its children's neighbours, and
// its connectivity is its children's. The reference here derives every
// table from the region assignment and the tiling's region pairs alone,
// and picks heads by scanning the members; every entry of every level must
// agree, on grids (square, clipped, bases 2-5, each head policy), strips
// and tori.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "geo/strip_tiling.hpp"
#include "hier/grid_hierarchy.hpp"
#include "hier/strip_hierarchy.hpp"
#include "hier/torus_hierarchy.hpp"

namespace vstest {
namespace {

using vs::ClusterId;
using vs::Level;
using vs::RegionId;
using vs::hier::ClusterHierarchy;
using vs::hier::GridHierarchy;
using vs::hier::HeadPolicy;

/// Per level, each region's cluster index within the level.
using Assignment = std::vector<std::vector<std::int32_t>>;
/// Picks a head from a cluster's members; called in cluster-id order.
using HeadRule = std::function<RegionId(const std::vector<RegionId>&, Level)>;

/// Every derived table, as the region-pair derivation gives it.
struct Reference {
  std::vector<std::size_t> level_base;  // first cluster id of each level
  std::vector<std::vector<ClusterId>> cluster_of;  // [level][region]
  std::vector<Level> level;
  std::vector<std::vector<RegionId>> members;
  std::vector<ClusterId> parent;
  std::vector<std::vector<ClusterId>> children;
  std::vector<std::vector<ClusterId>> nbrs;
  std::vector<RegionId> head;
};

Reference derive(const vs::geo::Tiling& t, const Assignment& assign,
                 const HeadRule& head_of) {
  Reference r;
  const std::size_t regions = t.num_regions();
  r.level_base.push_back(0);
  for (const auto& a : assign) {
    r.level_base.push_back(r.level_base.back() +
                           static_cast<std::size_t>(
                               *std::max_element(a.begin(), a.end())) +
                           1);
  }
  const std::size_t total = r.level_base.back();
  r.level.resize(total);
  r.members.resize(total);
  r.parent.assign(total, ClusterId::invalid());
  r.children.resize(total);
  r.nbrs.resize(total);
  for (std::size_t l = 0; l < assign.size(); ++l) {
    auto& row = r.cluster_of.emplace_back(regions);
    for (std::size_t u = 0; u < regions; ++u) {
      const std::size_t c =
          r.level_base[l] + static_cast<std::size_t>(assign[l][u]);
      row[u] = ClusterId{static_cast<ClusterId::rep_type>(c)};
      r.level[c] = static_cast<Level>(l);
      r.members[c].emplace_back(static_cast<RegionId::rep_type>(u));
    }
  }
  for (std::size_t l = 0; l + 1 < assign.size(); ++l) {
    for (std::size_t u = 0; u < regions; ++u) {
      r.parent[static_cast<std::size_t>(r.cluster_of[l][u].value())] =
          r.cluster_of[l + 1][u];
    }
  }
  for (std::size_t c = 0; c < total; ++c) {
    if (r.parent[c].valid()) {
      r.children[static_cast<std::size_t>(r.parent[c].value())].emplace_back(
          static_cast<ClusterId::rep_type>(c));
    }
  }
  // Neighbours from every region pair at every level.
  for (std::size_t u = 0; u < regions; ++u) {
    const RegionId ru{static_cast<RegionId::rep_type>(u)};
    for (const RegionId v : t.neighbors(ru)) {
      for (std::size_t l = 0; l < assign.size(); ++l) {
        const ClusterId cu = r.cluster_of[l][u];
        const ClusterId cv =
            r.cluster_of[l][static_cast<std::size_t>(v.value())];
        if (cu != cv) {
          r.nbrs[static_cast<std::size_t>(cu.value())].push_back(cv);
        }
      }
    }
  }
  for (auto& list : r.nbrs) {
    std::sort(list.begin(), list.end());
    list.erase(std::unique(list.begin(), list.end()), list.end());
  }
  for (std::size_t c = 0; c < total; ++c) {
    r.head.push_back(head_of(r.members[c], r.level[c]));
  }
  return r;
}

Level levels_for(int side, int base) {
  Level l = 1;
  std::int64_t span = base;
  while (span < side) {
    span *= base;
    ++l;
  }
  return l;
}

/// Level-l blocks of base^l × base^l regions, row-major, clipped.
Assignment block_assignment(int width, int height, int base, Level max) {
  Assignment a;
  std::int64_t block = 1;
  for (Level l = 0; l <= max; ++l, block *= base) {
    const auto blocks_x = static_cast<std::int32_t>((width + block - 1) / block);
    auto& row = a.emplace_back();
    for (int y = 0; y < height; ++y) {
      for (int x = 0; x < width; ++x) {
        row.push_back(static_cast<std::int32_t>(y / block) * blocks_x +
                      static_cast<std::int32_t>(x / block));
      }
    }
  }
  return a;
}

/// The grid head rules as member scans.
HeadRule grid_heads(int width, HeadPolicy policy, std::uint64_t seed) {
  auto rng = std::make_shared<vs::Rng>(seed);
  return [=](const std::vector<RegionId>& mem, Level l) -> RegionId {
    if (l == 0 || mem.size() == 1) return mem.front();
    if (policy == HeadPolicy::kMinRegion) return mem.front();
    if (policy == HeadPolicy::kRandom) {
      return mem[static_cast<std::size_t>(rng->uniform_int(
          0, static_cast<std::int64_t>(mem.size()) - 1))];
    }
    // The member nearest the centre of the bounding box, first on ties.
    int min_x = width, max_x = -1, min_y = 1 << 30, max_y = -1;
    for (const RegionId u : mem) {
      min_x = std::min(min_x, u.value() % width);
      max_x = std::max(max_x, u.value() % width);
      min_y = std::min(min_y, u.value() / width);
      max_y = std::max(max_y, u.value() / width);
    }
    const double cx = (min_x + max_x) / 2.0;
    const double cy = (min_y + max_y) / 2.0;
    RegionId best = mem.front();
    double best_d = 1e30;
    for (const RegionId u : mem) {
      const double d = std::max(std::abs(u.value() % width - cx),
                                std::abs(u.value() / width - cy));
      if (d < best_d) {
        best_d = d;
        best = u;
      }
    }
    return best;
  };
}

HeadRule middle_member() {
  return [](const std::vector<RegionId>& mem, Level) {
    return mem[mem.size() / 2];
  };
}

/// Every table entry of `h` equals the reference's, and every neighbour
/// list is sorted, without repeats or self, same-level and symmetric.
void expect_tables_match(const ClusterHierarchy& h, const Reference& r) {
  const std::size_t levels = r.level_base.size() - 1;
  ASSERT_EQ(static_cast<std::size_t>(h.max_level()) + 1, levels);
  ASSERT_EQ(h.num_clusters(), r.level_base.back());
  for (std::size_t l = 0; l < levels; ++l) {
    const auto at = h.clusters_at(static_cast<Level>(l));
    ASSERT_EQ(at.size(), r.level_base[l + 1] - r.level_base[l]) << "level " << l;
    for (std::size_t i = 0; i < at.size(); ++i) {
      ASSERT_EQ(static_cast<std::size_t>(at[i].value()), r.level_base[l] + i);
    }
    for (std::size_t u = 0; u < r.cluster_of[l].size(); ++u) {
      ASSERT_EQ(h.cluster_of(RegionId{static_cast<RegionId::rep_type>(u)},
                             static_cast<Level>(l)),
                r.cluster_of[l][u])
          << "region " << u << " level " << l;
    }
  }
  ASSERT_EQ(h.root(), ClusterId{static_cast<ClusterId::rep_type>(
                          r.level_base[levels - 1])});
  for (std::size_t i = 0; i < r.level_base.back(); ++i) {
    const ClusterId c{static_cast<ClusterId::rep_type>(i)};
    ASSERT_EQ(h.level(c), r.level[i]) << "cluster " << i;
    const auto mem = h.members(c);
    ASSERT_TRUE(std::equal(mem.begin(), mem.end(), r.members[i].begin(),
                           r.members[i].end()))
        << "members of cluster " << i;
    ASSERT_EQ(h.parent(c), r.parent[i]) << "cluster " << i;
    const auto kids = h.children(c);
    ASSERT_TRUE(std::equal(kids.begin(), kids.end(), r.children[i].begin(),
                           r.children[i].end()))
        << "children of cluster " << i;
    const auto nb = h.nbrs(c);
    ASSERT_TRUE(std::equal(nb.begin(), nb.end(), r.nbrs[i].begin(),
                           r.nbrs[i].end()))
        << "nbrs of cluster " << i;
    ASSERT_TRUE(std::adjacent_find(nb.begin(), nb.end(),
                                   std::greater_equal<>()) == nb.end())
        << "nbrs of cluster " << i << " unsorted or repeated";
    for (const ClusterId d : nb) {
      ASSERT_NE(d, c) << "cluster " << i << " is its own neighbour";
      ASSERT_EQ(h.level(d), h.level(c));
      ASSERT_TRUE(h.are_cluster_neighbors(d, c))
          << "nbrs not symmetric: " << i << " and " << d;
    }
    ASSERT_EQ(h.head(c), r.head[i]) << "head of cluster " << i;
  }
}

struct GridCase {
  int width;
  int height;
  int base;
  HeadPolicy policy;
};

std::string policy_name(HeadPolicy p) {
  switch (p) {
    case HeadPolicy::kCenter: return "center";
    case HeadPolicy::kMinRegion: return "min";
    case HeadPolicy::kRandom: return "random";
  }
  return "?";
}

class GridDerivation : public testing::TestWithParam<GridCase> {};

TEST_P(GridDerivation, TablesMatchRegionPairDerivation) {
  const GridCase& g = GetParam();
  constexpr std::uint64_t kSeed = 7;
  const GridHierarchy h(g.width, g.height, g.base, g.policy, kSeed);
  const Level max = levels_for(std::max(g.width, g.height), g.base);
  const Reference r =
      derive(h.tiling(), block_assignment(g.width, g.height, g.base, max),
             grid_heads(g.width, g.policy, kSeed));
  expect_tables_match(h, r);
}

std::vector<GridCase> grid_cases() {
  const std::vector<GridCase> shapes{
      {243, 243, 3, {}}, {81, 81, 3, {}},  {27, 27, 3, {}},
      {100, 37, 3, {}},  {37, 100, 3, {}}, {50, 50, 2, {}},
      {64, 64, 4, {}},   {9, 9, 3, {}},    {2, 2, 2, {}},
      {5, 1, 3, {}},     {1, 7, 3, {}},    {13, 11, 5, {}},
      {200, 3, 3, {}}};
  std::vector<GridCase> out;
  for (const HeadPolicy p :
       {HeadPolicy::kCenter, HeadPolicy::kMinRegion, HeadPolicy::kRandom}) {
    for (GridCase g : shapes) {
      g.policy = p;
      out.push_back(g);
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(
    Worlds, GridDerivation, testing::ValuesIn(grid_cases()),
    [](const testing::TestParamInfo<GridCase>& tp) {
      const GridCase& g = tp.param;
      return std::to_string(g.width) + "x" + std::to_string(g.height) +
             "_base" + std::to_string(g.base) + "_" + policy_name(g.policy);
    });

TEST(StripDerivation, TablesMatchRegionPairDerivation) {
  for (const auto& [length, base] :
       {std::pair{8, 2}, std::pair{27, 3}, std::pair{20, 3}}) {
    SCOPED_TRACE("strip " + std::to_string(length) + " base " +
                 std::to_string(base));
    const vs::hier::StripHierarchy h(length, base);
    Assignment a;
    std::int64_t block = 1;
    for (Level l = 0; l <= levels_for(length, base); ++l, block *= base) {
      auto& row = a.emplace_back();
      for (int u = 0; u < length; ++u) {
        row.push_back(static_cast<std::int32_t>(u / block));
      }
    }
    expect_tables_match(h, derive(h.tiling(), a, middle_member()));
  }
}

TEST(TorusDerivation, TablesMatchRegionPairDerivation) {
  for (const auto& [side, base] : {std::pair{9, 3}, std::pair{27, 3},
                                   std::pair{8, 2}, std::pair{16, 4}}) {
    SCOPED_TRACE("torus " + std::to_string(side) + " base " +
                 std::to_string(base));
    const vs::hier::TorusHierarchy h(side, base);
    expect_tables_match(
        h, derive(h.tiling(),
                  block_assignment(side, side, base, levels_for(side, base)),
                  middle_member()));
  }
}

using Pick = std::function<RegionId(std::span<const RegionId>, Level)>;

RegionId first_member(std::span<const RegionId> mem, Level) {
  return mem.front();
}

/// A hierarchy over a 1×4 strip from hand-written assignments, to feed
/// build() one broken requirement at a time.
class HandBuilt final : public ClusterHierarchy {
 public:
  explicit HandBuilt(const Assignment& levels, const Pick& pick = first_member)
      : strip_(4) {
    std::vector<LevelAssignment> assign;
    for (const auto& row : levels) assign.push_back(LevelAssignment{row});
    build(strip_, std::move(assign), pick);
  }

 private:
  vs::geo::StripTiling strip_;
};

void expect_rejected(const Assignment& levels, const std::string& message,
                     const Pick& pick = first_member) {
  try {
    (void)HandBuilt(levels, pick);
    ADD_FAILURE() << "accepted; expected: " << message;
  } catch (const vs::Error& e) {
    EXPECT_NE(std::string(e.what()).find(message), std::string::npos)
        << e.what();
  }
}

// Cluster ids on the 1×4 strip: level 0 is 0-3, level 1 starts at 4.

TEST(HierarchyRejects, WellFormedStripIsAccepted) {
  const HandBuilt h({{0, 1, 2, 3}, {0, 0, 1, 1}, {0, 0, 0, 0}});
  EXPECT_EQ(h.num_clusters(), 7u);
  EXPECT_EQ(h.nbrs(ClusterId{4}).size(), 1u);
}

TEST(HierarchyRejects, LevelZeroNotSingletons) {
  expect_rejected({{0, 0, 1, 2}, {0, 0, 1, 1}, {0, 0, 0, 0}},
                  "level 0 must have one cluster per region");
}

TEST(HierarchyRejects, TwoTopClusters) {
  expect_rejected({{0, 1, 2, 3}, {0, 0, 1, 1}},
                  "level MAX must have exactly one cluster, got 2");
}

TEST(HierarchyRejects, UnusedClusterIndex) {
  expect_rejected({{0, 1, 2, 3}, {0, 0, 2, 2}, {0, 0, 0, 0}},
                  "empty cluster 5 — `cluster` must be onto");
}

TEST(HierarchyRejects, ClusterStraddlingTwoParents) {
  expect_rejected({{0, 1, 2, 3}, {0, 0, 1, 1}, {0, 1, 1, 1}, {0, 0, 0, 0}},
                  "cluster 4 straddles two level-2 clusters (requirement 5)");
}

TEST(HierarchyRejects, HeadOutsideItsMembers) {
  expect_rejected({{0, 1, 2, 3}, {0, 0, 1, 1}, {0, 0, 0, 0}},
                  "head selector returned a non-member for cluster 4",
                  [](std::span<const RegionId> mem, Level l) {
                    return l == 1 ? RegionId{3} : mem.front();
                  });
}

TEST(HierarchyRejects, ChildrenEachConnectedButNotAdjacent) {
  // Level-1 cluster 4 holds regions 0 and 3: each child is a connected
  // singleton, but no level-0 neighbour links them.
  expect_rejected({{0, 1, 2, 3}, {0, 1, 1, 0}, {0, 0, 0, 0}},
                  "cluster 4 is not a connected set of regions");
}

}  // namespace
}  // namespace vstest
