#include "sim/scheduler.hpp"

#include "common/error.hpp"

namespace vs::sim {

EventId Scheduler::schedule_after(Duration delay, Action&& action) {
  VS_REQUIRE(delay >= Duration::zero(),
             "negative delay " << delay << " at " << now());
  return queue_.push_after(now_, delay, std::move(action), current_seq_);
}

EventId Scheduler::schedule_at(TimePoint when, Action&& action) {
  VS_REQUIRE(when >= now_,
             "scheduling into the past: " << when << " < " << now_);
  return queue_.push(when, std::move(action), current_seq_);
}

void Scheduler::schedule_fan_out(Duration delay, std::uint32_t members,
                                 Action&& action) {
  VS_REQUIRE(delay >= Duration::zero(),
             "negative delay " << delay << " at " << now());
  queue_.push_fan_out(now_, delay, members, std::move(action), current_seq_);
}

bool Scheduler::cancel(EventId id) { return queue_.cancel(id); }

void Scheduler::flush_boundaries(TimePoint upto) {
  // The hook emits every due boundary <= upto in one call and returns the
  // next due strictly past it (or never() to disarm) — one call per
  // crossing, however many boundaries the gap spans.
  const TimePoint next = boundary_hook_(boundary_ctx_, upto);
  VS_DCHECK(next > upto, "boundary hook did not advance past upto");
  boundary_due_ = next;
}

bool Scheduler::step() {
  VS_DCHECK(current_seq_ == 0, "step() called from inside an event action");
  if (cur_.members == 0) {
    if (queue_.empty()) return false;
    probe(kProbeQueuePopBegin, 0);
    queue_.pop(cur_);
    probe(kProbeQueuePopEnd, 0);
    VS_DCHECK(cur_.when >= now_, "event queue time went backwards");
  }
  // Pre-fire boundary check: the event about to fire is the earliest
  // pending one (a fan-out's next member is: nothing sorts between its
  // members), so state right now is "everything with when < cur_.when has
  // fired" — the exact sample prefix for any boundary <= cur_.when.
  if (cur_.when >= boundary_due_) flush_boundaries(cur_.when);
  now_ = cur_.when;
  ++events_fired_;
  current_seq_ = cur_.seq++;
  current_cause_ = cur_.cause;
  --cur_.members;
  probe(kProbeFireBegin, now_.count());
  cur_.action();
  probe(kProbeFireEnd, now_.count());
  current_seq_ = 0;
  current_cause_ = 0;
  if (post_step_hook_ != nullptr) post_step_hook_(post_step_ctx_);
  if (cur_.members == 0) cur_.action.reset();
  return true;
}

std::uint64_t Scheduler::run(std::uint64_t max_events) {
  std::uint64_t fired = 0;
  while (step()) {
    ++fired;
    VS_REQUIRE(fired <= max_events,
               "event budget exhausted (" << max_events
                                          << " events) — model not quiescing?");
  }
  return fired;
}

std::uint64_t Scheduler::run_until(TimePoint deadline,
                                   std::uint64_t max_events) {
  std::uint64_t fired = 0;
  while (due_by(deadline)) {
    step();
    ++fired;
    VS_REQUIRE(fired <= max_events,
               "event budget exhausted before deadline " << deadline);
  }
  if (now_ < deadline) now_ = deadline;
  // Exit flush: boundaries between the last fired event and the deadline
  // are due now — no event will ever fire below them.
  if (now_ >= boundary_due_) flush_boundaries(now_);
  return fired;
}

}  // namespace vs::sim
