#pragma once
// VSA liveness directory (paper §II-C.2 failure semantics).
//
// A VSA is emulated by the clients in its region: a clientless region's
// VSA is failed; a failed VSA restarts (from its initial state) once some
// clients stay in the region for t_restart. The directory tracks per-region
// liveness, drives the restart rule from client-presence notifications, and
// invokes callbacks so the tracking layer can wipe / reinitialise the
// Tracker subautomata hosted at that region.
//
// Layout: liveness and client presence are one byte per region, so the
// per-delivery alive() check reads one flat array. Pending restarts are
// kept sparse, by region in a map: most worlds never restart a VSA.

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "common/error.hpp"
#include "common/ids.hpp"
#include "sim/scheduler.hpp"

namespace vs::vsa {

class VsaDirectory {
 public:
  using Callback = std::function<void(RegionId)>;

  VsaDirectory(sim::Scheduler& sched, std::size_t num_regions,
               sim::Duration t_restart);
  /// Cancels pending restarts. The scheduler must outlive this.
  ~VsaDirectory();

  VsaDirectory(const VsaDirectory&) = delete;
  VsaDirectory& operator=(const VsaDirectory&) = delete;

  [[nodiscard]] bool alive(RegionId u) const { return alive_[index(u)] != 0; }
  [[nodiscard]] std::size_t num_regions() const { return alive_.size(); }

  /// Fault injection: fail the VSA at `u` now (as if its emulators all
  /// crashed). If clients are present, the restart clock starts
  /// immediately.
  void fail(RegionId u);

  /// Client-presence notification. Transitions:
  ///  - present → absent: the VSA fails (no emulators);
  ///  - absent → present on a failed VSA: restart clock starts; the VSA
  ///    restarts after t_restart of uninterrupted presence.
  void set_clients_present(RegionId u, bool present);

  /// Invoked when a VSA fails (tracking layer drops its state).
  void set_on_fail(Callback cb) { on_fail_ = std::move(cb); }
  /// Invoked when a VSA restarts from its initial state.
  void set_on_restart(Callback cb) { on_restart_ = std::move(cb); }

  [[nodiscard]] std::int64_t failures() const { return failures_; }
  [[nodiscard]] std::int64_t restarts() const { return restarts_; }

 private:
  [[nodiscard]] std::size_t index(RegionId u) const {
    VS_REQUIRE(u.valid() && static_cast<std::size_t>(u.value()) < alive_.size(),
               "region " << u << " out of range");
    return static_cast<std::size_t>(u.value());
  }
  void maybe_schedule_restart(RegionId u);
  void cancel_restart(RegionId u);

  sim::Scheduler* sched_;
  sim::Duration t_restart_;
  // By region id; std::uint8_t, not bool: vector<bool> proxies.
  std::vector<std::uint8_t> alive_;
  std::vector<std::uint8_t> clients_present_;
  /// Pending restart event by region; a region leaves the map when its
  /// restart fires or is cancelled.
  std::map<RegionId, sim::EventId> restarts_pending_;
  Callback on_fail_;
  Callback on_restart_;
  std::int64_t failures_{0};
  std::int64_t restarts_{0};
};

}  // namespace vs::vsa
