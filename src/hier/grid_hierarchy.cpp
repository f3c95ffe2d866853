#include "hier/grid_hierarchy.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace vs::hier {

namespace {

/// Smallest MAX >= 1 with base^MAX >= side (= ⌈log_base(D+1)⌉ for D = side-1).
Level levels_needed(int side, int base) {
  Level l = 1;
  std::int64_t span = base;
  while (span < side) {
    span *= base;
    ++l;
  }
  return l;
}

std::int64_t ipow(std::int64_t b, Level e) {
  std::int64_t r = 1;
  for (Level i = 0; i < e; ++i) r *= b;
  return r;
}

}  // namespace

GridHierarchy::GridHierarchy(int width, int height, int base, HeadPolicy policy,
                             std::uint64_t head_seed)
    : grid_(width, height), base_(base) {
  VS_REQUIRE(base >= 2, "grid hierarchy base must be >= 2, got " << base);
  const int side = std::max(width, height);
  VS_REQUIRE(side >= 2, "world must span at least 2 regions");
  const Level max_level = levels_needed(side, base);

  // Per-level block assignment: region (x, y) belongs to block
  // (x / base^l, y / base^l), filled row by row with one division per
  // column and per row.
  std::vector<LevelAssignment> levels(static_cast<std::size_t>(max_level) + 1);
  std::vector<std::int32_t> block_x(static_cast<std::size_t>(width));
  for (Level l = 0; l <= max_level; ++l) {
    const std::int64_t block = ipow(base, l);
    const auto blocks_x =
        static_cast<std::int32_t>((width + block - 1) / block);  // ceil
    for (int x = 0; x < width; ++x) {
      block_x[static_cast<std::size_t>(x)] =
          static_cast<std::int32_t>(x / block);
    }
    auto& assign = levels[static_cast<std::size_t>(l)].cluster_index_of_region;
    assign.resize(grid_.num_regions());
    auto out = assign.begin();
    for (int y = 0; y < height; ++y) {
      const auto row = static_cast<std::int32_t>(y / block) * blocks_x;
      for (const std::int32_t bx : block_x) *out++ = row + bx;
    }
  }

  Rng rng{head_seed};
  const auto pick_head = [&](std::span<const RegionId> mem,
                             Level l) -> RegionId {
    if (l == 0 || mem.size() == 1) return mem.front();
    switch (policy) {
      case HeadPolicy::kMinRegion:
        return mem.front();
      case HeadPolicy::kRandom:
        return mem[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(mem.size()) - 1))];
      case HeadPolicy::kCenter:
        break;
    }
    // The first member, in ascending region id, at the least Chebyshev
    // distance from the centre of the block's bounding box. The block is
    // a rectangle from its first member to its last; per axis the nearest
    // coordinates are the middle one, or the two middle ones of an even
    // side, so the first nearest member is the lower middle of each side.
    const int x0 = mem.front().value() % width;
    const int y0 = mem.front().value() / width;
    const int x1 = mem.back().value() % width;
    const int y1 = mem.back().value() / width;
    return grid_.region_at((x0 + x1) / 2, (y0 + y1) / 2);
  };

  build(grid_, std::move(levels), pick_head);

  // Paper's analytic geometry functions for the base-r grid.
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
