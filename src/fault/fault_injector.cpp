#include "fault/fault_injector.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"
#include "common/log.hpp"

namespace vs::fault {

FaultInjector::FaultInjector(tracking::TrackingNetwork& net, FaultPlan plan)
    : net_(&net), plan_(std::move(plan)), rng_(plan_.seed) {
  const auto num_regions =
      static_cast<std::int64_t>(net_->hierarchy().tiling().num_regions());
  const auto check_region = [&](std::int32_t r, const char* what) {
    VS_REQUIRE(r >= 0 && r < num_regions,
               "fault plan " << what << " region " << r
                             << " out of range (world has " << num_regions
                             << " regions)");
  };
  for (const FaultPlan::Crash& c : plan_.crashes) {
    check_region(c.region, "crash");
  }
  for (const FaultPlan::Outage& o : plan_.outages) {
    check_region(o.center, "outage");
  }
  for (const FaultPlan::Depopulate& d : plan_.depopulations) {
    check_region(d.region, "depopulate");
  }
  const bool needs_failures = !plan_.crashes.empty() ||
                              !plan_.outages.empty() ||
                              !plan_.depopulations.empty();
  VS_REQUIRE(!needs_failures || net_->directory() != nullptr,
             "fault plan schedules VSA faults but the network was built "
             "without model_vsa_failures");
}

FaultInjector::~FaultInjector() {
  for (const sim::EventId e : events_) net_->scheduler().cancel(e);
  if (armed_) net_->cgcast().set_channel_faults({});
}

void FaultInjector::arm() {
  VS_REQUIRE(!armed_, "fault plan armed twice");
  armed_ = true;

  planned_faults_ = 0;
  for (const FaultPlan::Crash& c : plan_.crashes) {
    planned_faults_ += 1;
    const RegionId r{c.region};
    schedule(c.at_us, [this, r] { crash_region(r); });
  }
  for (const FaultPlan::Outage& o : plan_.outages) {
    // The blast zone is static (the tiling never changes), so resolve it
    // now and count each member as one planned fault.
    const std::vector<RegionId> zone = blast_zone(RegionId{o.center}, o.radius);
    planned_faults_ += static_cast<int>(zone.size());
    schedule(o.at_us, [this, zone] {
      for (const RegionId r : zone) crash_region(r);
    });
  }
  killed_.assign(plan_.depopulations.size(), {});
  for (std::size_t di = 0; di < plan_.depopulations.size(); ++di) {
    const FaultPlan::Depopulate& d = plan_.depopulations[di];
    planned_faults_ += 1;
    schedule(d.from_us, [this, di] { depopulate(di); });
    schedule(d.until_us, [this, di] { repopulate(di); });
  }
  if (!plan_.loss_bursts.empty() || !plan_.duplications.empty() ||
      !plan_.jitters.empty()) {
    net_->cgcast().set_channel_faults(
        [this](const vsa::Message& m) { return decide(m); });
  }
}

std::optional<sim::TimePoint> FaultInjector::recovery_deadline() const {
  if (!plan_.recovery.has_value() || plan_.empty()) return std::nullopt;
  // planned_faults_ is resolved by arm() (outage radii need the tiling);
  // before arm() fall back to the per-directive count.
  const int faults =
      armed_ ? planned_faults_
             : static_cast<int>(plan_.crashes.size() + plan_.outages.size() +
                                plan_.depopulations.size());
  return sim::TimePoint{plan_.last_fault_us() + plan_.recovery->base_us +
                        plan_.recovery->per_fault_us * faults};
}

void FaultInjector::crash_region(RegionId r) {
  ++faults_injected_;
  net_->fail_vsa(r);
}

void FaultInjector::depopulate(std::size_t di) {
  ++faults_injected_;
  const RegionId r{plan_.depopulations[di].region};
  // kill_client leaves the region's client list as it is.
  for (const ClientId id : net_->clients().clients_in(r)) {
    if (!net_->clients().client(id).alive) continue;
    killed_[di].push_back(id);
    net_->clients().kill_client(id);
  }
  VS_DEBUG("fault plan depopulated region " << r << " (" << killed_[di].size()
                                            << " clients) at " << net_->now());
}

void FaultInjector::repopulate(std::size_t di) {
  for (const ClientId id : killed_[di]) net_->clients().restart_client(id);
  killed_[di].clear();
}

std::vector<RegionId> FaultInjector::blast_zone(RegionId center,
                                                std::int32_t radius) const {
  const geo::Tiling& tiling = net_->hierarchy().tiling();
  std::vector<RegionId> zone{center};
  std::vector<std::uint8_t> seen(tiling.num_regions(), 0);
  seen[static_cast<std::size_t>(center.value())] = 1;
  std::size_t frontier_begin = 0;
  for (std::int32_t hop = 0; hop < radius; ++hop) {
    const std::size_t frontier_end = zone.size();
    for (std::size_t i = frontier_begin; i < frontier_end; ++i) {
      for (const RegionId nb : tiling.neighbors(zone[i])) {
        auto& mark = seen[static_cast<std::size_t>(nb.value())];
        if (mark != 0) continue;
        mark = 1;
        zone.push_back(nb);
      }
    }
    frontier_begin = frontier_end;
  }
  return zone;
}

vsa::CGcast::ChannelDecision FaultInjector::decide(const vsa::Message&) {
  vsa::CGcast::ChannelDecision d;
  const std::int64_t now = net_->now().count();
  const auto active = [now](const FaultPlan::Window& w) {
    return now >= w.from_us && now < w.until_us;
  };
  // Fixed evaluation order (loss, duplication, jitter) so the Rng stream
  // is a pure function of the deterministic send sequence.
  for (const FaultPlan::Window& w : plan_.loss_bursts) {
    if (active(w) && rng_.chance(w.rate)) {
      d.drop = true;
      return d;
    }
  }
  for (const FaultPlan::Window& w : plan_.duplications) {
    if (active(w) && rng_.chance(w.rate)) d.duplicate = true;
  }
  for (const FaultPlan::Window& w : plan_.jitters) {
    if (active(w) && rng_.chance(w.rate)) {
      d.advance =
          d.advance + sim::Duration::micros(rng_.uniform_int(1, w.advance_us));
    }
  }
  return d;
}

void FaultInjector::schedule(std::int64_t at_us, std::function<void()> action) {
  // Directive execution runs under a kFault scope so chaos-run profiles
  // separate injected-fault handling from the protocol's own cost.
  events_.push_back(net_->scheduler().schedule_at(
      std::max(net_->now(), sim::TimePoint{at_us}),
      [this, action = std::move(action)] {
        const obs::ProfScope prof(net_->profiler(), obs::ProfDomain::kFault);
        action();
      }));
}

}  // namespace vs::fault
