#include "geo/grid_tiling.hpp"

#include <algorithm>
#include <cstdlib>
#include <limits>

#include "common/error.hpp"

namespace vs::geo {

GridTiling::GridTiling(int width, int height) : width_(width), height_(height) {
  VS_REQUIRE(width >= 1 && height >= 1, "grid dimensions must be positive");
  VS_REQUIRE(num_regions() >= 2, "tiling needs at least two regions");
  VS_REQUIRE(num_regions() <= std::numeric_limits<std::uint32_t>::max() / 8,
             "grid of " << num_regions() << " regions is too large");
  nbr_offset_.resize(num_regions() + 1, 0);
  nbr_flat_.reserve(num_regions() * 8);
  // Row-major ids: the neighbour (x + dx, y + dy) of u is u + dy·W + dx.
  for (int y = 0; y < height_; ++y) {
    for (int x = 0; x < width_; ++x) {
      const int u = y * width_ + x;
      nbr_offset_[static_cast<std::size_t>(u)] =
          static_cast<std::uint32_t>(nbr_flat_.size());
      for (int dy = -1; dy <= 1; ++dy) {
        if (y + dy < 0 || y + dy >= height_) continue;
        for (int dx = -1; dx <= 1; ++dx) {
          if ((dx == 0 && dy == 0) || x + dx < 0 || x + dx >= width_) continue;
          nbr_flat_.emplace_back(u + dy * width_ + dx);
        }
      }
    }
  }
  nbr_offset_[num_regions()] = static_cast<std::uint32_t>(nbr_flat_.size());
}

std::span<const RegionId> GridTiling::neighbors(RegionId u) const {
  check_region(u);
  const auto i = static_cast<std::size_t>(u.value());
  return {nbr_flat_.data() + nbr_offset_[i], nbr_offset_[i + 1] - nbr_offset_[i]};
}

int GridTiling::distance(RegionId u, RegionId v) const {
  const Coord a = coord(u);
  const Coord b = coord(v);
  return std::max(std::abs(a.x - b.x), std::abs(a.y - b.y));
}

int GridTiling::diameter() const { return std::max(width_, height_) - 1; }

std::string GridTiling::describe(RegionId u) const {
  const Coord c = coord(u);
  return "(" + std::to_string(c.x) + "," + std::to_string(c.y) + ")";
}

Coord GridTiling::coord(RegionId u) const {
  check_region(u);
  return Coord{u.value() % width_, u.value() / width_};
}

RegionId GridTiling::region_at(Coord c) const {
  VS_REQUIRE(in_bounds(c),
             "coordinate (" << c.x << "," << c.y << ") outside " << width_
                            << "x" << height_ << " grid");
  return RegionId{c.y * width_ + c.x};
}

}  // namespace vs::geo
