#include "vsa/evader.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace vs::vsa {

EvaderModel::EvaderModel(const geo::Tiling& tiling) : tiling_(&tiling) {}

TargetId EvaderModel::add_evader(RegionId start) {
  VS_REQUIRE(start.valid() &&
                 static_cast<std::size_t>(start.value()) < tiling_->num_regions(),
             "bad start region");
  const TargetId id{static_cast<TargetId::rep_type>(where_.size())};
  where_.push_back(start);
  if (hook_) hook_(id, RegionId::invalid(), start);
  return id;
}

void EvaderModel::move(TargetId target, RegionId to) {
  RegionId& at = where_[index(target)];
  const RegionId from = at;
  VS_REQUIRE(tiling_->are_neighbors(from, to),
             "evader may only move to a neighbouring region (" << from << " → "
                                                               << to << ")");
  at = to;
  if (hook_) hook_(target, from, to);
}

RandomWalkMover::RandomWalkMover(const geo::Tiling& tiling, std::uint64_t seed)
    : tiling_(&tiling), rng_(seed) {}

RegionId RandomWalkMover::next(RegionId current) {
  const auto nbrs = tiling_->neighbors(current);
  return nbrs[static_cast<std::size_t>(
      rng_.uniform_int(0, static_cast<std::int64_t>(nbrs.size()) - 1))];
}

PathMover::PathMover(std::vector<RegionId> path) : path_(std::move(path)) {
  VS_REQUIRE(!path_.empty(), "empty path");
}

RegionId PathMover::next(RegionId current) {
  // Advance past the current position if the cursor sits on it.
  if (path_[index_] == current) index_ = (index_ + 1) % path_.size();
  const RegionId to = path_[index_];
  index_ = (index_ + 1) % path_.size();
  return to;
}

DitherMover::DitherMover(RegionId a, RegionId b) : a_(a), b_(b) {
  VS_REQUIRE(a != b, "dither endpoints must differ");
}

RegionId DitherMover::next(RegionId current) { return current == a_ ? b_ : a_; }

WaypointMover::WaypointMover(const geo::GridTiling& grid, std::uint64_t seed)
    : grid_(&grid), rng_(seed) {
  waypoint_ = RegionId{static_cast<RegionId::rep_type>(
      rng_.uniform_int(0, static_cast<std::int64_t>(grid.num_regions()) - 1))};
}

RegionId WaypointMover::next(RegionId current) {
  while (waypoint_ == current) {
    waypoint_ = RegionId{static_cast<RegionId::rep_type>(rng_.uniform_int(
        0, static_cast<std::int64_t>(grid_->num_regions()) - 1))};
  }
  const geo::Coord at = grid_->coord(current);
  const geo::Coord goal = grid_->coord(waypoint_);
  const int dx = goal.x == at.x ? 0 : (goal.x > at.x ? 1 : -1);
  const int dy = goal.y == at.y ? 0 : (goal.y > at.y ? 1 : -1);
  return grid_->region_at(at.x + dx, at.y + dy);
}

}  // namespace vs::vsa
