#pragma once
// Discrete-event scheduler with a virtual clock.
//
// This is the execution substrate standing in for the Timed I/O Automata framework
// the paper builds on: automata register actions at future virtual times
// (message deliveries, timer expiries); the scheduler fires them in
// deterministic (time, scheduling-order) order and advances `now`.

#include <cstdint>
#include <functional>

#include "sim/event_queue.hpp"
#include "sim/profile_probe.hpp"
#include "sim/time.hpp"

namespace vs::sim {

class Scheduler {
 public:
  using Action = EventQueue::Action;

  /// Current virtual time.
  [[nodiscard]] TimePoint now() const { return now_; }

  /// Schedule `action` to run `delay` from now. Requires delay >= 0.
  EventId schedule_after(Duration delay, Action action);

  /// Schedule `action` at absolute time `when`. Requires when >= now().
  EventId schedule_at(TimePoint when, Action action);

  /// Cancel a pending event; no-op if already fired/cancelled.
  bool cancel(EventId id);

  /// Fire the single earliest event. Returns false if none pending.
  bool step();

  /// Run until no events remain ("quiescence" — the paper's update
  /// termination, Theorem 4.5, manifests as this returning).
  /// Returns the number of events fired. Throws if `max_events` exceeded
  /// (guards against non-terminating models in tests).
  std::uint64_t run(std::uint64_t max_events = kDefaultEventBudget);

  /// Run events with time <= deadline; afterwards now() == deadline unless
  /// already past it. Returns number of events fired.
  std::uint64_t run_until(TimePoint deadline,
                          std::uint64_t max_events = kDefaultEventBudget);

  /// Number of pending events.
  [[nodiscard]] std::size_t pending() const { return queue_.size(); }

  /// Total events fired over the scheduler's lifetime.
  [[nodiscard]] std::uint64_t events_fired() const { return events_fired_; }

  /// Identity (queue sequence number) of the event currently firing, or 0
  /// when called from outside any event. Anything scheduled while an event
  /// fires records this as its causal parent, so a find's whole message
  /// cascade chains back to the action that issued it.
  [[nodiscard]] std::uint64_t current_seq() const { return current_seq_; }

  /// Causal parent of the event currently firing (0 at a chain root).
  [[nodiscard]] std::uint64_t current_cause() const { return current_cause_; }

  static constexpr std::uint64_t kDefaultEventBudget = 200'000'000;

  /// Observer called after every fired event (the live watchdog's clock
  /// source: virtual time only advances through here, so a post-step hook
  /// sees every cadence boundary and every quiescence edge). A raw
  /// function pointer plus context keeps the unhooked hot path at a single
  /// predictable null test — the monitor-off overhead budget. The hook
  /// must not call run()/step() re-entrantly; scheduling new events from
  /// it is allowed but breaks quiescence, so observers should only read.
  using PostStepHook = void (*)(void* ctx);
  void set_post_step_hook(PostStepHook hook, void* ctx) {
    post_step_hook_ = hook;
    post_step_ctx_ = ctx;
  }
  [[nodiscard]] bool has_post_step_hook() const {
    return post_step_hook_ != nullptr;
  }

  /// Telemetry boundary hook (obs::TelemetrySampler). Unlike the post-step
  /// hook, which observes every event, the boundary hook only fires when
  /// virtual time is about to cross a pre-announced boundary. The hook is
  /// called with the time being crossed (`upto`) and must return the next
  /// due boundary (never() to stop). Contract: when the hook runs, every
  /// event with when < B has fired and no event with when >= B has, for
  /// every boundary B <= upto it emits. The unhooked hot-path cost is one
  /// integer compare (boundary_due_ stays never()).
  using BoundaryHook = TimePoint (*)(void* ctx, TimePoint upto);
  void set_boundary_hook(BoundaryHook hook, void* ctx, TimePoint first_due) {
    boundary_hook_ = hook;
    boundary_ctx_ = ctx;
    boundary_due_ = hook != nullptr ? first_due : TimePoint::never();
  }
  [[nodiscard]] bool has_boundary_hook() const {
    return boundary_hook_ != nullptr;
  }

  /// Wall-clock profiler probe (obs::Profiler::probe_thunk wired by
  /// TrackingNetwork::set_profiler). Phases pair around the event-queue
  /// pop and the fired action. `enabled` is the profiler's runtime gate —
  /// read here so enable()/disable() never re-arm the scheduler. Unset:
  /// one null test per phase site; compiled out (-DVINESTALK_PROFILE=OFF):
  /// the sites are `if constexpr` dead code.
  void set_profile_probe([[maybe_unused]] ProfileProbe fn,
                         [[maybe_unused]] void* ctx,
                         [[maybe_unused]] const bool* enabled) {
    if constexpr (kProfileProbeCompiled) {
      probe_ = fn;
      probe_ctx_ = ctx;
      probe_enabled_ = enabled;
    }
  }


 private:
  /// Emit one profile-probe phase; dead code when profiling is compiled
  /// out, a null test when no probe is set, plus one bool load when the
  /// attached profiler is disabled.
  void probe([[maybe_unused]] int phase,
             [[maybe_unused]] std::int64_t t_us) const {
    if constexpr (kProfileProbeCompiled) {
      if (probe_ != nullptr && *probe_enabled_) probe_(probe_ctx_, phase, t_us);
    }
  }

  /// Emit every due boundary <= `upto` through the hook and advance
  /// boundary_due_ to the hook's returned next-due. Out of line: the
  /// inlined call sites only pay the compare.
  void flush_boundaries(TimePoint upto);

  EventQueue queue_;
  TimePoint now_ = TimePoint::zero();
  std::uint64_t events_fired_{0};
  std::uint64_t current_seq_{0};
  std::uint64_t current_cause_{0};
  PostStepHook post_step_hook_ = nullptr;
  void* post_step_ctx_ = nullptr;
  BoundaryHook boundary_hook_ = nullptr;
  void* boundary_ctx_ = nullptr;
  /// Next telemetry boundary; never() when no hook is armed, so the
  /// per-event test `when >= boundary_due_` is false on the unhooked path.
  TimePoint boundary_due_ = TimePoint::never();
  ProfileProbe probe_ = nullptr;
  void* probe_ctx_ = nullptr;
  const bool* probe_enabled_ = nullptr;
};

}  // namespace vs::sim
