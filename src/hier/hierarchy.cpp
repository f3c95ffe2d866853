#include "hier/hierarchy.hpp"

#include <algorithm>
#include <functional>
#include <limits>
#include <numeric>

#include "common/error.hpp"

namespace vs::hier {

void ClusterHierarchy::build(const geo::Tiling& t,
                             std::vector<LevelAssignment> levels,
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
  constexpr std::size_t kMaxOffset = std::numeric_limits<std::uint32_t>::max();
  VS_REQUIRE(levels.size() * num_regions <= kMaxOffset,
             "" << levels.size() << " levels of " << num_regions
                << " regions overflow the 32-bit member table");

  // cluster_of_ table and level_of_ per cluster. Requirements 1 and 4 hold
  // by construction (each cluster id belongs to one level; assignment is a
  // function, so same-level clusters partition the regions). Each level's
  // assignment is released once copied, so the tables built next can reuse
  // its memory.
  cluster_of_.assign(levels.size() * num_regions, ClusterId::invalid());
  level_of_.assign(total, 0);
  for (std::size_t l = 0; l < levels.size(); ++l) {
    auto& assign = levels[l].cluster_index_of_region;
    for (std::size_t u = 0; u < num_regions; ++u) {
      const auto global = static_cast<ClusterId::rep_type>(
          level_base[l] + static_cast<std::size_t>(assign[u]));
      cluster_of_[l * num_regions + u] = ClusterId{global};
    }
    std::vector<std::int32_t>().swap(assign);
    for (std::size_t c = 0; c < clusters_at_level[l]; ++c) {
      level_of_[level_base[l] + c] = static_cast<Level>(l);
    }
  }

  // Members (CSR), ascending region order per cluster.
  {
    std::vector<std::uint32_t> counts(total, 0);
    for (const ClusterId c : cluster_of_) ++counts[idx(c)];
    member_offset_.assign(total + 1, 0);
    std::partial_sum(counts.begin(), counts.end(), member_offset_.begin() + 1);
    member_flat_.resize(member_offset_.back());
    std::vector<std::uint32_t> cursor(member_offset_.begin(),
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
    std::vector<std::uint32_t> counts(total, 0);
    for (std::size_t c = 0; c < total; ++c) {
      if (parent_[c].valid()) ++counts[idx(parent_[c])];
    }
    child_offset_.assign(total + 1, 0);
    std::partial_sum(counts.begin(), counts.end(), child_offset_.begin() + 1);
    child_flat_.resize(child_offset_.back());
    std::vector<std::uint32_t> cursor(child_offset_.begin(),
                                      child_offset_.end() - 1);
    for (std::size_t c = 0; c < total; ++c) {
      if (parent_[c].valid()) {
        child_flat_[cursor[idx(parent_[c])]++] =
            ClusterId{static_cast<ClusterId::rep_type>(c)};
      }
    }
  }

  // Neighbours and connectivity, level by level. Level 0 is the region
  // relation itself. Above it, two clusters share a region boundary exactly
  // when a child of one shares one with a child of the other, so a
  // cluster's neighbours are the parents of its children's neighbours,
  // other than itself. And a cluster's regions are connected (it is "a
  // connected set of regions") exactly when its children, each connected,
  // are connected through their neighbours: by induction from the
  // singleton level 0, no level walks the regions again. One walk over the
  // children's neighbour lists does both. The levels above 0 go first, into
  // a scratch table, reading level 0 from the tiling; then the table is
  // allocated once at its size and filled, level 0 first.
  {
    nbr_offset_.assign(total + 1, 0);
    // Until the table is filled, offsets above level 0 index `upper`.
    std::vector<ClusterId> upper;
    const auto for_each_nbr = [&](ClusterId a, const auto& visit) {
      if (idx(a) < level_base[1]) {
        const RegionId u = member_flat_[member_offset_[idx(a)]];
        for (const RegionId v : t.neighbors(u)) visit(cluster_of_[idx(v)]);
      } else {
        for (std::uint32_t i = nbr_offset_[idx(a)];
             i < nbr_offset_[idx(a) + 1]; ++i) {
          visit(upper[i]);
        }
      }
    };
    // listed_by[d] == c: d is already among c's neighbours.
    std::vector<ClusterId> listed_by(total, ClusterId::invalid());
    std::vector<std::uint8_t> reached(total, 0);
    std::vector<ClusterId> stack;
    for (std::size_t c = level_base[1]; c < total; ++c) {
      const ClusterId self{static_cast<ClusterId::rep_type>(c)};
      const std::size_t first = upper.size();
      const ClusterId first_child = child_flat_[child_offset_[c]];
      std::size_t seen = 1;
      reached[idx(first_child)] = 1;
      stack.assign(1, first_child);
      while (!stack.empty()) {
        const ClusterId a = stack.back();
        stack.pop_back();
        for_each_nbr(a, [&](ClusterId b) {
          const ClusterId up = parent_[idx(b)];
          if (up != self) {
            if (listed_by[idx(up)] != self) {
              listed_by[idx(up)] = self;
              upper.push_back(up);
            }
          } else if (reached[idx(b)] == 0) {
            reached[idx(b)] = 1;
            ++seen;
            stack.push_back(b);
          }
        });
      }
      VS_REQUIRE(seen == child_offset_[c + 1] - child_offset_[c],
                 "cluster " << c << " is not a connected set of regions");
      std::sort(upper.begin() + static_cast<std::ptrdiff_t>(first),
                upper.end());
      // Checked below, before any offset is read.
      nbr_offset_[c + 1] = static_cast<std::uint32_t>(upper.size());
    }

    std::size_t region_pairs = 0;
    for (std::size_t u = 0; u < num_regions; ++u) {
      region_pairs +=
          t.neighbors(RegionId{static_cast<RegionId::rep_type>(u)}).size();
    }
    VS_REQUIRE(region_pairs + upper.size() <= kMaxOffset,
               "neighbour lists overflow the 32-bit neighbour table");
    nbr_flat_.reserve(region_pairs + upper.size());
    for (std::size_t c = 0; c < level_base[1]; ++c) {
      const auto first = static_cast<std::ptrdiff_t>(nbr_flat_.size());
      for_each_nbr(ClusterId{static_cast<ClusterId::rep_type>(c)},
                   [&](ClusterId b) { nbr_flat_.push_back(b); });
      // Each list ends sorted and without repeats; a grid's region lists
      // arrive that way, so for them this is only a check.
      if (std::adjacent_find(nbr_flat_.begin() + first, nbr_flat_.end(),
                             std::greater_equal<>()) != nbr_flat_.end()) {
        std::sort(nbr_flat_.begin() + first, nbr_flat_.end());
        nbr_flat_.erase(std::unique(nbr_flat_.begin() + first, nbr_flat_.end()),
                        nbr_flat_.end());
      }
      nbr_offset_[c + 1] = static_cast<std::uint32_t>(nbr_flat_.size());
    }
    const auto level0_pairs = static_cast<std::uint32_t>(nbr_flat_.size());
    for (std::size_t c = level_base[1]; c < total; ++c) {
      nbr_offset_[c + 1] += level0_pairs;
    }
    nbr_flat_.insert(nbr_flat_.end(), upper.begin(), upper.end());
  }

  // Heads. Requirement 6: h(c) ∈ members(c).
  head_.assign(total, RegionId::invalid());
  for (std::size_t c = 0; c < total; ++c) {
    const std::span<const RegionId> mem{
        member_flat_.data() + member_offset_[c],
        member_offset_[c + 1] - member_offset_[c]};
    const Level l = level_of_[c];
    const RegionId h = pick_head(mem, l);
    VS_REQUIRE(h.valid() && idx(h) < num_regions &&
                   idx(cluster_of_[static_cast<std::size_t>(l) * num_regions +
                                   idx(h)]) == c,
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
