#include "hier/hierarchy.hpp"

#include <algorithm>
#include <numeric>
#include <set>

#include "common/error.hpp"

namespace vs::hier {

void ClusterHierarchy::build(const geo::Tiling& t,
                             const std::vector<LevelAssignment>& levels,
                             const HeadSelector& pick_head) {
  tiling_ = &t;
  num_regions_ = t.num_regions();
  VS_REQUIRE(levels.size() >= 2, "need MAX > 0, got " << levels.size() << " level(s)");
  max_level_ = static_cast<Level>(levels.size()) - 1;
  const std::size_t num_regions = t.num_regions();

  // Count clusters per level and assign dense global ids, level-major.
  std::vector<std::size_t> clusters_at_level(levels.size(), 0);
  for (std::size_t l = 0; l < levels.size(); ++l) {
    const auto& assign = levels[l].cluster_index_of_region;
    VS_REQUIRE(assign.size() == num_regions,
               "level " << l << " assignment covers " << assign.size()
                        << " of " << num_regions << " regions");
    std::int32_t max_index = -1;
    for (const std::int32_t ci : assign) {
      VS_REQUIRE(ci >= 0, "negative cluster index at level " << l);
      max_index = std::max(max_index, ci);
    }
    clusters_at_level[l] = static_cast<std::size_t>(max_index) + 1;
  }

  // Requirement 3: level-0 clusters are singleton regions.
  VS_REQUIRE(clusters_at_level[0] == num_regions,
             "level 0 must have one cluster per region");
  // Requirement 2: exactly one level-MAX cluster.
  VS_REQUIRE(clusters_at_level.back() == 1,
             "level MAX must have exactly one cluster, got "
                 << clusters_at_level.back());

  std::vector<std::size_t> level_base(levels.size() + 1, 0);
  for (std::size_t l = 0; l < levels.size(); ++l) {
    level_base[l + 1] = level_base[l] + clusters_at_level[l];
  }
  const std::size_t total = level_base.back();

  // cluster_of_ table and level_of_ per cluster. Requirements 1 and 4 hold
  // by construction (each cluster id belongs to one level; assignment is a
  // function, so same-level clusters partition the regions).
  cluster_of_.assign(levels.size() * num_regions, ClusterId::invalid());
  level_of_.assign(total, 0);
  for (std::size_t l = 0; l < levels.size(); ++l) {
    const auto& assign = levels[l].cluster_index_of_region;
    for (std::size_t u = 0; u < num_regions; ++u) {
      const auto global = static_cast<ClusterId::rep_type>(
          level_base[l] + static_cast<std::size_t>(assign[u]));
      cluster_of_[l * num_regions + u] = ClusterId{global};
    }
    for (std::size_t c = 0; c < clusters_at_level[l]; ++c) {
      level_of_[level_base[l] + c] = static_cast<Level>(l);
    }
  }

  // Members (CSR), ascending region order per cluster.
  {
    std::vector<std::size_t> counts(total, 0);
    for (std::size_t l = 0; l < levels.size(); ++l) {
      for (std::size_t u = 0; u < num_regions; ++u) {
        ++counts[idx(cluster_of_[l * num_regions + u])];
      }
    }
    member_offset_.assign(total + 1, 0);
    std::partial_sum(counts.begin(), counts.end(), member_offset_.begin() + 1);
    member_flat_.resize(member_offset_.back());
    std::vector<std::size_t> cursor(member_offset_.begin(),
                                    member_offset_.end() - 1);
    for (std::size_t l = 0; l < levels.size(); ++l) {
      for (std::size_t u = 0; u < num_regions; ++u) {
        const ClusterId c = cluster_of_[l * num_regions + u];
        member_flat_[cursor[idx(c)]++] =
            RegionId{static_cast<RegionId::rep_type>(u)};
      }
    }
    for (std::size_t c = 0; c < total; ++c) {
      VS_REQUIRE(member_offset_[c + 1] > member_offset_[c],
                 "empty cluster " << c << " — `cluster` must be onto");
    }
  }

  // Requirement: every cluster's member set is connected in the region
  // graph (a cluster is "a connected set of regions"). Flat scratch keyed
  // by region id keeps this linear per level.
  {
    std::vector<std::uint8_t> mark(num_regions, 0);  // 1 = member, 2 = seen
    std::vector<RegionId> stack;
    for (std::size_t c = 0; c < total; ++c) {
      const std::span<const RegionId> mem{
          member_flat_.data() + member_offset_[c],
          member_offset_[c + 1] - member_offset_[c]};
      for (const RegionId u : mem) mark[idx(u)] = 1;
      std::size_t seen = 1;
      mark[idx(mem.front())] = 2;
      stack.assign(1, mem.front());
      while (!stack.empty()) {
        const RegionId u = stack.back();
        stack.pop_back();
        for (const RegionId v : t.neighbors(u)) {
          if (mark[idx(v)] == 1) {
            mark[idx(v)] = 2;
            ++seen;
            stack.push_back(v);
          }
        }
      }
      VS_REQUIRE(seen == mem.size(),
                 "cluster " << c << " is not a connected set of regions");
      for (const RegionId u : mem) mark[idx(u)] = 0;
    }
  }

  // Parent / children. Requirement 5: all members of a level-l cluster lie
  // in the same level-(l+1) cluster.
  parent_.assign(total, ClusterId::invalid());
  for (std::size_t l = 0; l + 1 < levels.size(); ++l) {
    for (std::size_t u = 0; u < num_regions; ++u) {
      const ClusterId c = cluster_of_[l * num_regions + u];
      const ClusterId up = cluster_of_[(l + 1) * num_regions + u];
      if (!parent_[idx(c)].valid()) {
        parent_[idx(c)] = up;
      } else {
        VS_REQUIRE(parent_[idx(c)] == up,
                   "cluster " << c << " straddles two level-" << (l + 1)
                              << " clusters (requirement 5)");
      }
    }
  }
  {
    std::vector<std::size_t> counts(total, 0);
    for (std::size_t c = 0; c < total; ++c) {
      if (parent_[c].valid()) ++counts[idx(parent_[c])];
    }
    child_offset_.assign(total + 1, 0);
    std::partial_sum(counts.begin(), counts.end(), child_offset_.begin() + 1);
    child_flat_.resize(child_offset_.back());
    std::vector<std::size_t> cursor(child_offset_.begin(),
                                    child_offset_.end() - 1);
    for (std::size_t c = 0; c < total; ++c) {
      if (parent_[c].valid()) {
        child_flat_[cursor[idx(parent_[c])]++] =
            ClusterId{static_cast<ClusterId::rep_type>(c)};
      }
    }
  }

  // Neighbour clusters: derived from the region neighbour relation.
  // Gather-then-dedupe keeps this linear-ish for large worlds.
  {
    std::vector<std::vector<ClusterId>> nbr_lists(total);
    for (std::size_t u = 0; u < num_regions; ++u) {
      const RegionId ru{static_cast<RegionId::rep_type>(u)};
      for (const RegionId rv : t.neighbors(ru)) {
        for (std::size_t l = 0; l < levels.size(); ++l) {
          const ClusterId cu = cluster_of_[l * num_regions + u];
          const ClusterId cv = cluster_of_[l * num_regions + idx(rv)];
          if (cu != cv) nbr_lists[idx(cu)].push_back(cv);
        }
      }
    }
    nbr_offset_.assign(total + 1, 0);
    for (std::size_t c = 0; c < total; ++c) {
      auto& list = nbr_lists[c];
      std::sort(list.begin(), list.end());
      list.erase(std::unique(list.begin(), list.end()), list.end());
      nbr_offset_[c + 1] = nbr_offset_[c] + list.size();
    }
    nbr_flat_.resize(nbr_offset_.back());
    for (std::size_t c = 0; c < total; ++c) {
      std::copy(nbr_lists[c].begin(), nbr_lists[c].end(),
                nbr_flat_.begin() + static_cast<std::ptrdiff_t>(nbr_offset_[c]));
    }
  }

  // Heads. Requirement 6: h(c) ∈ members(c).
  head_.assign(total, RegionId::invalid());
  for (std::size_t c = 0; c < total; ++c) {
    const std::span<const RegionId> mem{
        member_flat_.data() + member_offset_[c],
        member_offset_[c + 1] - member_offset_[c]};
    const RegionId h = pick_head(mem, level_of_[c]);
    VS_REQUIRE(std::find(mem.begin(), mem.end(), h) != mem.end(),
               "head selector returned a non-member for cluster " << c);
    head_[c] = h;
  }

  // Level index.
  level_offset_ = level_base;
  level_flat_.resize(total);
  for (std::size_t c = 0; c < total; ++c) {
    level_flat_[c] = ClusterId{static_cast<ClusterId::rep_type>(c)};
  }

  root_ = ClusterId{static_cast<ClusterId::rep_type>(level_base[levels.size() - 1])};
}

void ClusterHierarchy::set_geometry(std::vector<std::int64_t> n,
                                    std::vector<std::int64_t> p,
                                    std::vector<std::int64_t> q,
                                    std::vector<std::int64_t> omega) {
  const auto want = static_cast<std::size_t>(max_level_) + 1;
  VS_REQUIRE(n.size() == want && p.size() == want && q.size() == want &&
                 omega.size() == want,
             "geometry vectors must have MAX+1 entries");
  n_ = std::move(n);
  p_ = std::move(p);
  q_ = std::move(q);
  omega_ = std::move(omega);
}

std::span<const RegionId> ClusterHierarchy::members(ClusterId c) const {
  check_cluster(c);
  return {member_flat_.data() + member_offset_[idx(c)],
          member_offset_[idx(c) + 1] - member_offset_[idx(c)]};
}

std::span<const ClusterId> ClusterHierarchy::children(ClusterId c) const {
  check_cluster(c);
  return {child_flat_.data() + child_offset_[idx(c)],
          child_offset_[idx(c) + 1] - child_offset_[idx(c)]};
}

std::int64_t ClusterHierarchy::q(Level l) const {
  check_level(l);
  return q_[static_cast<std::size_t>(l)];
}
std::int64_t ClusterHierarchy::omega(Level l) const {
  check_level(l);
  return omega_[static_cast<std::size_t>(l)];
}

bool ClusterHierarchy::are_cluster_neighbors(ClusterId a, ClusterId b) const {
  const auto ns = nbrs(a);
  return std::binary_search(ns.begin(), ns.end(), b);
}

int ClusterHierarchy::head_distance(ClusterId a, ClusterId b) const {
  return tiling_->distance(head(a), head(b));
}

std::span<const ClusterId> ClusterHierarchy::clusters_at(Level l) const {
  check_level(l);
  const auto lo = level_offset_[static_cast<std::size_t>(l)];
  const auto hi = level_offset_[static_cast<std::size_t>(l) + 1];
  return {level_flat_.data() + lo, hi - lo};
}

}  // namespace vs::hier
