#include "hier/torus_hierarchy.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"

namespace vs::hier {

namespace {
std::int64_t ipow(std::int64_t b, Level e) {
  std::int64_t r = 1;
  for (Level i = 0; i < e; ++i) r *= b;
  return r;
}
}  // namespace

TorusHierarchy::TorusHierarchy(int side, int base)
    : torus_(side), base_(base) {
  VS_REQUIRE(base >= 2, "torus hierarchy base must be >= 2");
  Level max_level = 0;
  std::int64_t span = 1;
  while (span < side) {
    span *= base;
    ++max_level;
  }
  VS_REQUIRE(span == side && max_level >= 1,
             "torus side " << side << " must be an exact power of base "
                           << base);

  std::vector<LevelAssignment> levels(static_cast<std::size_t>(max_level) + 1);
  for (Level l = 0; l <= max_level; ++l) {
    const std::int64_t block = ipow(base, l);
    const int blocks_per_side = static_cast<int>(side / block);
    auto& assign = levels[static_cast<std::size_t>(l)].cluster_index_of_region;
    assign.resize(torus_.num_regions());
    for (std::size_t u = 0; u < torus_.num_regions(); ++u) {
      const geo::Coord c =
          torus_.coord(RegionId{static_cast<RegionId::rep_type>(u)});
      assign[u] = static_cast<std::int32_t>((c.y / block) * blocks_per_side +
                                            (c.x / block));
    }
  }

  const auto pick_head = [this](std::span<const RegionId> mem,
                                Level l) -> RegionId {
    if (l == 0 || mem.size() == 1) return mem.front();
    // Block centre (blocks are axis-aligned, so the member at the middle
    // offset of the sorted member list is the centre row's centre cell).
    return mem[mem.size() / 2];
  };
  build(torus_, std::move(levels), pick_head);

  // The grid's analytic bounds remain valid upper bounds on the torus
  // (wrap only *shortens* distances), and keeping them unclipped preserves
  // the derived inequality chain (q ≤ n, 2q(l−1) ≤ q(l), monotonicity).
  std::vector<std::int64_t> n, p, q, omega;
  for (Level l = 0; l <= max_level; ++l) {
    const std::int64_t rl = ipow(base, l);
    n.push_back(2 * rl - 1);
    p.push_back(rl * base - 1);
    q.push_back(rl);
    omega.push_back(8);
  }
  set_geometry(std::move(n), std::move(p), std::move(q), std::move(omega));
}

}  // namespace vs::hier
