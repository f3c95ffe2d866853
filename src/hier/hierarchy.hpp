#pragma once
// Cluster hierarchy (paper §II-B).
//
// Regions are organised into the four-tuple (C, L, cluster: U×L → C,
// h: C → U): a set of cluster ids, levels {0..MAX}, a total onto map from
// (region, level) to the containing cluster, and a clusterhead map. Derived
// notions (members, nbrs, children, parent) and the geometry functions
// n, p, q, ω parameterise the tracking algorithm's timers, message delays,
// and its work/time analysis.
//
// This class is a concrete dense store; specific hierarchies (grid, strip,
// torus) construct it by supplying per-level region→cluster assignments, a
// head selection rule, and analytic geometry functions. All structural
// requirements that are cheap to check are enforced at build time; the
// expensive geometric axioms are checked by hier::Validator in tests.
//
// build() derives each level from the level below. Level 0 is the region
// relation itself. Above it, a cluster's neighbours are the parents of its
// children's neighbours, other than itself, and its regions are connected
// exactly when its children are connected to each other through those
// neighbours, so one walk over the children's lists gives both, without
// visiting the regions again. Members, neighbours and children are
// offset-plus-flat (CSR) tables with 32-bit offsets, allocated once at
// their size: no heap block per cluster.

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "common/ids.hpp"
#include "geo/tiling.hpp"

namespace vs::hier {

class ClusterHierarchy {
 public:
  virtual ~ClusterHierarchy() = default;

  ClusterHierarchy(const ClusterHierarchy&) = delete;
  ClusterHierarchy& operator=(const ClusterHierarchy&) = delete;

  /// The tiling this hierarchy is imposed on.
  [[nodiscard]] const geo::Tiling& tiling() const { return *tiling_; }

  /// MAX — the level of the unique top cluster (MAX > 0).
  [[nodiscard]] Level max_level() const { return max_level_; }

  /// Total number of clusters across all levels (dense id space).
  [[nodiscard]] std::size_t num_clusters() const { return level_of_.size(); }

  /// cluster(u, l): the level-l cluster containing region u.
  [[nodiscard]] ClusterId cluster_of(RegionId u, Level l) const {
    check_level(l);
    VS_REQUIRE(u.valid() && idx(u) < num_regions_,
               "region " << u << " out of range");
    return cluster_of_[static_cast<std::size_t>(l) * num_regions_ + idx(u)];
  }

  /// level(c).
  [[nodiscard]] Level level(ClusterId c) const {
    check_cluster(c);
    return level_of_[idx(c)];
  }

  /// h(c): the clusterhead region (a member of c).
  [[nodiscard]] RegionId head(ClusterId c) const {
    check_cluster(c);
    return head_[idx(c)];
  }

  /// members(c): regions of c, ascending id order.
  [[nodiscard]] std::span<const RegionId> members(ClusterId c) const;

  /// nbrs(c): same-level clusters sharing a region boundary with c.
  [[nodiscard]] std::span<const ClusterId> nbrs(ClusterId c) const {
    check_cluster(c);
    return {nbr_flat_.data() + nbr_offset_[idx(c)],
            nbr_offset_[idx(c) + 1] - nbr_offset_[idx(c)]};
  }

  /// parent(c); invalid id at level MAX.
  [[nodiscard]] ClusterId parent(ClusterId c) const {
    check_cluster(c);
    return parent_[idx(c)];
  }

  /// children(c); empty at level 0.
  [[nodiscard]] std::span<const ClusterId> children(ClusterId c) const;

  /// The unique level-MAX cluster.
  [[nodiscard]] ClusterId root() const { return root_; }

  /// Geometry bounds (§II-B assumptions 2-5). Valid for every level in
  /// {0..MAX}; n/p are only *used* below MAX but defined everywhere.
  [[nodiscard]] std::int64_t n(Level l) const {
    check_level(l);
    return n_[static_cast<std::size_t>(l)];
  }
  [[nodiscard]] std::int64_t p(Level l) const {
    check_level(l);
    return p_[static_cast<std::size_t>(l)];
  }
  [[nodiscard]] std::int64_t q(Level l) const;
  [[nodiscard]] std::int64_t omega(Level l) const;

  /// Convenience: true iff b ∈ nbrs(a).
  [[nodiscard]] bool are_cluster_neighbors(ClusterId a, ClusterId b) const;

  /// Hop distance between the heads of two clusters (the work metric for a
  /// message between the hosting VSAs).
  [[nodiscard]] int head_distance(ClusterId a, ClusterId b) const;

  /// Clusters of a given level, ascending id order.
  [[nodiscard]] std::span<const ClusterId> clusters_at(Level l) const;

 protected:
  ClusterHierarchy() = default;

  /// Chooses a head among `members` of a cluster at `level`; build() calls
  /// it once per cluster, in cluster-id order.
  using HeadSelector =
      std::function<RegionId(std::span<const RegionId>, Level)>;

  /// Region→local-cluster-index assignment for one level. Index values must
  /// be dense in [0, #clusters at that level).
  struct LevelAssignment {
    std::vector<std::int32_t> cluster_index_of_region;
  };

  /// Builds all derived structure. `levels[l]` describes level l; level 0
  /// must assign each region its own singleton cluster; the last level must
  /// assign every region to one cluster. Checks requirements 1-6 of §II-B
  /// that are structural; throws vs::Error on violation.
  void build(const geo::Tiling& t, std::vector<LevelAssignment> levels,
             const HeadSelector& pick_head);

  /// Declares the geometry functions (one value per level 0..MAX).
  void set_geometry(std::vector<std::int64_t> n, std::vector<std::int64_t> p,
                    std::vector<std::int64_t> q,
                    std::vector<std::int64_t> omega);

 private:
  static std::size_t idx(ClusterId c) {
    return static_cast<std::size_t>(c.value());
  }
  static std::size_t idx(RegionId u) {
    return static_cast<std::size_t>(u.value());
  }
  void check_cluster(ClusterId c) const {
    VS_REQUIRE(c.valid() && idx(c) < num_clusters(),
               "cluster id " << c << " out of range");
  }
  void check_level(Level l) const {
    VS_REQUIRE(l >= 0 && l <= max_level_, "level " << l << " out of range");
  }

  const geo::Tiling* tiling_ = nullptr;
  /// tiling_->num_regions(), cached: cluster_of indexes by it.
  std::size_t num_regions_ = 0;
  Level max_level_ = 0;
  ClusterId root_{};

  // Per-cluster dense tables.
  std::vector<Level> level_of_;
  std::vector<RegionId> head_;
  std::vector<ClusterId> parent_;
  // CSR tables; 32-bit offsets (build() checks that they fit).
  std::vector<std::uint32_t> member_offset_;
  std::vector<RegionId> member_flat_;
  std::vector<std::uint32_t> nbr_offset_;
  std::vector<ClusterId> nbr_flat_;
  std::vector<std::uint32_t> child_offset_;
  std::vector<ClusterId> child_flat_;

  // cluster_of_[l * num_regions + u].
  std::vector<ClusterId> cluster_of_;

  // Clusters grouped by level.
  std::vector<std::size_t> level_offset_;
  std::vector<ClusterId> level_flat_;

  // Geometry, one entry per level.
  std::vector<std::int64_t> n_, p_, q_, omega_;
};

}  // namespace vs::hier
