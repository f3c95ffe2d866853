#include "vsa/directory.hpp"

#include "common/error.hpp"
#include "common/log.hpp"

namespace vs::vsa {

VsaDirectory::VsaDirectory(sim::Scheduler& sched, std::size_t num_regions,
                           sim::Duration t_restart)
    : sched_(&sched),
      t_restart_(t_restart),
      alive_(num_regions, 1),
      clients_present_(num_regions, 1) {
  VS_REQUIRE(t_restart >= sim::Duration::zero(), "negative t_restart");
}

void VsaDirectory::fail(RegionId u) {
  const std::size_t i = index(u);
  if (alive_[i] == 0) return;
  alive_[i] = 0;
  ++failures_;
  VS_DEBUG("VSA at region " << u << " failed at " << sched_->now());
  if (on_fail_) on_fail_(u);
  maybe_schedule_restart(u);
}

void VsaDirectory::set_clients_present(RegionId u, bool present) {
  const std::size_t i = index(u);
  if ((clients_present_[i] != 0) == present) return;
  clients_present_[i] = present ? 1 : 0;
  if (!present) {
    // Presence lapse aborts any pending restart and fails a live VSA.
    const auto timer = restart_timers_.find(u);
    if (timer != restart_timers_.end()) timer->second->disarm();
    fail(u);
  } else {
    maybe_schedule_restart(u);
  }
}

void VsaDirectory::maybe_schedule_restart(RegionId u) {
  const std::size_t i = index(u);
  if (alive_[i] != 0 || clients_present_[i] == 0) return;
  std::unique_ptr<sim::Timer>& timer = restart_timers_[u];
  if (!timer) {
    timer = std::make_unique<sim::Timer>(*sched_, [this, i, u] {
      if (alive_[i] != 0 || clients_present_[i] == 0) return;
      alive_[i] = 1;
      ++restarts_;
      VS_DEBUG("VSA at region " << u << " restarted at " << sched_->now());
      if (on_restart_) on_restart_(u);
    });
  }
  timer->arm_after(t_restart_);
}

}  // namespace vs::vsa
