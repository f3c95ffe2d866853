#pragma once
// Square-grid tiling — the paper's running example (§II-B).
//
// Unit-square regions on a W×H lattice. Squares sharing an edge *or a
// single corner point* are neighbours (the paper: "Squares that share edges
// or are diagonal from one another, sharing a single border point, are
// neighbors"), so the neighbour graph is the 8-adjacency king graph and hop
// distance is the Chebyshev distance max(|Δx|, |Δy|).

#include <cstdint>
#include <vector>

#include "geo/tiling.hpp"

namespace vs::geo {

/// Integer lattice coordinate of a grid region.
struct Coord {
  int x{0};
  int y{0};
  friend constexpr bool operator==(Coord, Coord) = default;
};

class GridTiling final : public Tiling {
 public:
  /// Requires width >= 1, height >= 1 and at least 2 regions total.
  GridTiling(int width, int height);

  [[nodiscard]] int width() const { return width_; }
  [[nodiscard]] int height() const { return height_; }

  [[nodiscard]] std::size_t num_regions() const override {
    return static_cast<std::size_t>(width_) * static_cast<std::size_t>(height_);
  }
  [[nodiscard]] std::span<const RegionId> neighbors(RegionId u) const override;
  [[nodiscard]] int distance(RegionId u, RegionId v) const override;
  [[nodiscard]] int diameter() const override;
  [[nodiscard]] std::string describe(RegionId u) const override;

  /// Coordinate <-> id conversions.
  [[nodiscard]] Coord coord(RegionId u) const;
  [[nodiscard]] RegionId region_at(Coord c) const;
  [[nodiscard]] RegionId region_at(int x, int y) const {
    return region_at(Coord{x, y});
  }
  [[nodiscard]] bool in_bounds(Coord c) const {
    return c.x >= 0 && c.x < width_ && c.y >= 0 && c.y < height_;
  }

 private:
  int width_;
  int height_;
  // CSR neighbour lists, precomputed once (≤ 8 per region).
  std::vector<std::uint32_t> nbr_offset_;
  std::vector<RegionId> nbr_flat_;
};

}  // namespace vs::geo
