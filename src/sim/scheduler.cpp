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
  if (queue_.empty()) return false;
  probe(kProbeQueuePopBegin, 0);
  EventQueue::Popped p = queue_.pop();
  probe(kProbeQueuePopEnd, 0);
  VS_DCHECK(p.when >= now_, "event queue time went backwards");
  // Pre-fire boundary check: the event about to fire is the earliest
  // pending one, so state right now is "everything with when < p.when has
  // fired" — the exact sample prefix for any boundary <= p.when.
  if (p.when >= boundary_due_) flush_boundaries(p.when);
  now_ = p.when;
  ++events_fired_;
  // Save/restore so a nested run() inside an action (rare, but legal in
  // tests) doesn't clobber the outer firing context.
  const std::uint64_t saved_seq = current_seq_;
  const std::uint64_t saved_cause = current_cause_;
  current_seq_ = p.seq;
  current_cause_ = p.cause;
  probe(kProbeFireBegin, p.when.count());
  p.action();
  probe(kProbeFireEnd, p.when.count());
  current_seq_ = saved_seq;
  current_cause_ = saved_cause;
  if (post_step_hook_ != nullptr) post_step_hook_(post_step_ctx_);
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
  while (!queue_.empty() && queue_.next_time() <= deadline) {
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
