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

VsaDirectory::~VsaDirectory() {
  for (const auto& [u, event] : restarts_pending_) sched_->cancel(event);
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
    cancel_restart(u);
    fail(u);
  } else {
    maybe_schedule_restart(u);
  }
}

void VsaDirectory::maybe_schedule_restart(RegionId u) {
  const std::size_t i = index(u);
  if (alive_[i] != 0 || clients_present_[i] == 0) return;
  cancel_restart(u);
  restarts_pending_[u] = sched_->schedule_after(t_restart_, [this, i, u] {
    restarts_pending_.erase(u);
    if (alive_[i] != 0 || clients_present_[i] == 0) return;
    alive_[i] = 1;
    ++restarts_;
    VS_DEBUG("VSA at region " << u << " restarted at " << sched_->now());
    if (on_restart_) on_restart_(u);
  });
}

void VsaDirectory::cancel_restart(RegionId u) {
  const auto it = restarts_pending_.find(u);
  if (it == restarts_pending_.end()) return;
  sched_->cancel(it->second);
  restarts_pending_.erase(it);
}

}  // namespace vs::vsa
