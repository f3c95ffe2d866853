#include "sim/event_queue.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace vs::sim {

EventId EventQueue::push(TimePoint when, Action action, std::uint64_t cause) {
  VS_REQUIRE(!when.is_never(), "cannot schedule an event at ∞");
  VS_REQUIRE(static_cast<bool>(action), "empty event action");
  const std::uint64_t seq = next_seq_++;
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& s = slots_[slot];
  s.action = std::move(action);
  s.seq = seq;
  s.cause = cause;
  heap_.push_back(Entry{when, seq, slot});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  ++live_count_;
  return EventId{seq, slot};
}

bool EventQueue::cancel(EventId id) {
  if (!id.valid() || id.slot_ >= slots_.size()) return false;
  Slot& s = slots_[id.slot_];
  if (s.seq != id.seq_) return false;  // already fired or cancelled
  s.action.reset();
  s.seq = 0;
  free_slots_.push_back(id.slot_);
  --live_count_;
  return true;
}

void EventQueue::skim() const {
  // A heap entry whose slot generation moved on is a tombstone: the event
  // was cancelled (and its slot possibly reused by a later event).
  while (!heap_.empty() &&
         slots_[heap_.front().slot].seq != heap_.front().seq) {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
  }
}

bool EventQueue::empty() const {
  skim();
  return heap_.empty();
}

TimePoint EventQueue::next_time() const {
  skim();
  VS_REQUIRE(!heap_.empty(), "next_time on empty queue");
  return heap_.front().when;
}

EventQueue::Action EventQueue::pop(TimePoint& when) {
  Popped p = pop();
  when = p.when;
  return std::move(p.action);
}

EventQueue::Popped EventQueue::pop() {
  skim();
  VS_REQUIRE(!heap_.empty(), "pop on empty queue");
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const Entry top = heap_.back();
  heap_.pop_back();
  Slot& s = slots_[top.slot];
  Popped p{std::move(s.action), top.when, top.seq, s.cause};
  s.seq = 0;
  free_slots_.push_back(top.slot);
  --live_count_;
  return p;
}

}  // namespace vs::sim
