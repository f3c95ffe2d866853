#pragma once
// FaultInjector — executes a FaultPlan against a live TrackingNetwork.
//
// arm() schedules every discrete fault (crashes, outages, depopulation
// kill/restore pairs) as virtual-time events and installs the C-gcast
// channel-fault oracle for the plan's loss/duplication/jitter windows.
// Windows are pure now()-predicates: no event marks a window's end, so a
// plan with only channel windows adds zero events to the queue and
// run_to_quiescence still means "the protocol is done" (it would otherwise
// fast-forward through the window). Drivers that want faults to bite must
// step in timed slices (run_for) across the plan's span.
//
// Determinism: the injector owns a private Rng seeded from the plan, and
// consumes it only for sends that occur inside an active window. Message
// send order is deterministic per world, so a given (world, plan) pair
// yields the same faults at any --jobs value.

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "fault/fault_plan.hpp"
#include "sim/event_queue.hpp"
#include "tracking/network.hpp"

namespace vs::fault {

class FaultInjector {
 public:
  /// Binds the plan to `net` (validating every region reference against
  /// the world — a plan written for a different grid fails loudly here).
  /// Crashes/outages/depopulations require net.config().model_vsa_failures.
  FaultInjector(tracking::TrackingNetwork& net, FaultPlan plan);
  /// Cancels pending fault events and uninstalls the channel oracle.
  ~FaultInjector();

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Schedules the plan. Fault times are absolute virtual microseconds; an
  /// instant already in the past fires at the current time instead.
  void arm();

  /// Discrete fault events fired so far (regions crashed + depopulations).
  [[nodiscard]] int faults_injected() const { return faults_injected_; }
  /// Discrete fault events the plan will fire in total (outages count one
  /// per region inside the radius).
  [[nodiscard]] int planned_faults() const { return planned_faults_; }

  /// The recovery deadline implied by the plan's `recovery` directive:
  /// last_fault_us + base_us + per_fault_us × planned_faults(). Unset when
  /// the plan has no recovery directive or no faults at all.
  [[nodiscard]] std::optional<sim::TimePoint> recovery_deadline() const;

  [[nodiscard]] const FaultPlan& plan() const { return plan_; }

 private:
  void crash_region(RegionId r);
  void depopulate(std::size_t di);
  void repopulate(std::size_t di);
  /// All regions within `radius` neighbour hops of `center` (inclusive).
  [[nodiscard]] std::vector<RegionId> blast_zone(RegionId center,
                                                std::int32_t radius) const;
  [[nodiscard]] vsa::CGcast::ChannelDecision decide(const vsa::Message& m);
  void schedule(std::int64_t at_us, std::function<void()> action);

  tracking::TrackingNetwork* net_;
  FaultPlan plan_;
  Rng rng_;
  bool armed_ = false;
  int faults_injected_ = 0;
  int planned_faults_ = 0;
  /// Every scheduled directive, cancelled on destruction (an action
  /// captures `this`). Fired ones cancel as no-ops.
  std::vector<sim::EventId> events_;
  /// Clients killed per depopulated region, for the matching restore.
  std::vector<std::vector<ClientId>> killed_;
};

}  // namespace vs::fault
