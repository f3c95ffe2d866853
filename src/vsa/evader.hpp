#pragma once
// Mobile-object (evader) model (paper §III-A).
//
// The evader resides at exactly one region and nondeterministically moves
// to a neighbouring region. It is modelled by the GPS service, augmented to
// deliver `move`/`left` inputs to the clients of the regions it enters and
// leaves. Several movement strategies ("movers") generate the
// nondeterminism reproducibly for tests and benches.

#include <functional>
#include <vector>

#include "common/error.hpp"
#include "common/ids.hpp"
#include "common/rng.hpp"
#include "geo/grid_tiling.hpp"
#include "geo/tiling.hpp"

namespace vs::vsa {

class EvaderModel {
 public:
  explicit EvaderModel(const geo::Tiling& tiling);

  /// Places a new evader; issues a `move` input at `start`.
  TargetId add_evader(RegionId start);

  /// Relocates `target` to a neighbouring region; issues `left` at the old
  /// region and `move` at the new one.
  void move(TargetId target, RegionId to);

  [[nodiscard]] RegionId region_of(TargetId target) const {
    return where_[index(target)];
  }
  [[nodiscard]] std::size_t num_evaders() const { return where_.size(); }

  /// Subscribed by the client population: (target, from, to); `from` is
  /// invalid on initial placement.
  using MoveHook = std::function<void(TargetId, RegionId, RegionId)>;
  void set_move_hook(MoveHook hook) { hook_ = std::move(hook); }

 private:
  [[nodiscard]] std::size_t index(TargetId target) const {
    VS_REQUIRE(target.valid() &&
                   static_cast<std::size_t>(target.value()) < where_.size(),
               "unknown evader " << target);
    return static_cast<std::size_t>(target.value());
  }

  const geo::Tiling* tiling_;
  /// Positions by TargetId: ids are issued densely from 0.
  std::vector<RegionId> where_;
  MoveHook hook_;
};

/// Movement strategy: yields the next region given the current one.
class Mover {
 public:
  virtual ~Mover() = default;
  virtual RegionId next(RegionId current) = 0;
};

/// Uniform random walk over the neighbour graph.
class RandomWalkMover final : public Mover {
 public:
  RandomWalkMover(const geo::Tiling& tiling, std::uint64_t seed);
  RegionId next(RegionId current) override;

 private:
  const geo::Tiling* tiling_;
  Rng rng_;
};

/// Follows a fixed cyclic sequence of regions (each consecutive pair must
/// be neighbours); used for hand-built adversarial scenarios.
class PathMover final : public Mover {
 public:
  explicit PathMover(std::vector<RegionId> path);
  RegionId next(RegionId current) override;

 private:
  std::vector<RegionId> path_;
  std::size_t index_{0};
};

/// Oscillates between two neighbouring regions — the paper's "dithering"
/// adversary: when a and b lie on opposite sides of a multi-level cluster
/// boundary, naive schemes pay work proportional to that level per step.
class DitherMover final : public Mover {
 public:
  DitherMover(RegionId a, RegionId b);
  RegionId next(RegionId current) override;

 private:
  RegionId a_;
  RegionId b_;
};

/// Greedy walk toward a waypoint (Chebyshev-decreasing steps on a grid);
/// reaching it, picks a fresh random waypoint.
class WaypointMover final : public Mover {
 public:
  WaypointMover(const geo::GridTiling& grid, std::uint64_t seed);
  RegionId next(RegionId current) override;

 private:
  const geo::GridTiling* grid_;
  Rng rng_;
  RegionId waypoint_{};
};

}  // namespace vs::vsa
