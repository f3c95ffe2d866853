#include "sim/event_queue.hpp"

#include <algorithm>
#include <bit>

#include "common/error.hpp"

namespace vs::sim {

std::uint32_t EventQueue::class_of(Duration delay) {
  const std::uint64_t key = static_cast<std::uint64_t>(delay.count()) + 1;
  // Fibonacci hashing; at most half the cells are used, so the probe
  // always ends at the key or at an empty cell.
  std::size_t i = static_cast<std::size_t>(
      (key * 0x9E3779B97F4A7C15ULL) >> (64 - kTableBits));
  for (; table_key_[i] != 0; i = (i + 1) % kTableSize) {
    if (table_key_[i] == key) return table_class_[i];
  }
  if (classes_ == kMaxClasses) return kNoClass;
  table_key_[i] = key;
  table_class_[i] = classes_;
  return classes_++;
}

std::uint32_t EventQueue::store(Action&& action, std::uint64_t seq,
                                std::uint64_t cause, std::uint32_t members) {
  VS_REQUIRE(static_cast<bool>(action), "empty event action");
  std::uint32_t slot = 0;
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
  ++live_entries_;
  live_events_ += members;
  ++pushes_;
  min_src_ = kNoClass;
  return slot;
}

void EventQueue::push_heap(const Entry& e) {
  heap_.push_back(e);
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  ++fallback_pushes_;
  ++queued_;
}

void EventQueue::push_fifo(std::uint32_t c, const Entry& e) {
  Fifo& f = fifos_[c];
  const std::size_t cap = f.ring.size();
  if (f.count == 0) {
    f.head = 0;
    heads_[c] = e;
    nonempty_ |= 1U << c;
  } else {
    VS_DCHECK(f.ring[(f.head + f.count - 1) & (cap - 1)].when <= e.when,
              "delay class FIFO pushed out of time order");
  }
  if (f.count == cap) {
    std::vector<Entry> ring(std::max<std::size_t>(16, 2 * cap));
    for (std::uint32_t i = 0; i < f.count; ++i) {
      ring[i] = f.ring[(f.head + i) & (cap - 1)];
    }
    f.ring = std::move(ring);
    f.head = 0;
  }
  f.ring[(f.head + f.count) & (f.ring.size() - 1)] = e;
  ++f.count;
  ++queued_;
}

void EventQueue::pop_front(std::uint32_t c) const {
  --queued_;
  Fifo& f = fifos_[c];
  f.head = static_cast<std::uint32_t>((f.head + 1) & (f.ring.size() - 1));
  if (--f.count == 0) {
    nonempty_ &= ~(1U << c);
  } else {
    heads_[c] = f.ring[f.head];
  }
}

EventId EventQueue::push(TimePoint when, Action&& action,
                         std::uint64_t cause) {
  VS_REQUIRE(!when.is_never(), "cannot schedule an event at ∞");
  const std::uint64_t seq = next_seq_;
  const std::uint32_t slot = store(std::move(action), seq, cause, 1);
  ++next_seq_;
  push_heap(Entry{when, seq, slot, 1});
  return EventId{seq, slot};
}

EventQueue::Entry EventQueue::enqueue_after(TimePoint now, Duration delay,
                                            std::uint32_t members,
                                            Action&& action,
                                            std::uint64_t cause) {
  VS_DCHECK(delay >= Duration::zero(), "negative delay " << delay);
  const TimePoint when = now + delay;
  VS_REQUIRE(!when.is_never(), "cannot schedule an event at ∞");
  const std::uint64_t seq = next_seq_;
  const std::uint32_t slot = store(std::move(action), seq, cause, members);
  next_seq_ += members;
  const Entry e{when, seq, slot, members};
  const std::uint32_t c = class_of(delay);
  if (c == kNoClass) {
    push_heap(e);
  } else {
    push_fifo(c, e);
  }
  return e;
}

EventId EventQueue::push_after(TimePoint now, Duration delay,
                               Action&& action, std::uint64_t cause) {
  const Entry e = enqueue_after(now, delay, 1, std::move(action), cause);
  return EventId{e.seq, e.slot};
}

void EventQueue::push_fan_out(TimePoint now, Duration delay,
                              std::uint32_t members, Action&& action,
                              std::uint64_t cause) {
  VS_REQUIRE(members >= 1, "a fan-out needs at least one member");
  (void)enqueue_after(now, delay, members, std::move(action), cause);
}

bool EventQueue::cancel(EventId id) {
  if (!id.valid() || id.slot_ >= slots_.size()) return false;
  Slot& s = slots_[id.slot_];
  if (s.seq != id.seq_) return false;  // already fired or cancelled
  s.action.reset();
  s.seq = 0;
  free_slots_.push_back(id.slot_);
  min_src_ = kNoClass;
  --live_events_;  // an EventId names a single event, never a fan-out
  if (--live_entries_ == 0) {
    clear_tombstones();
  } else if (queued_ - live_entries_ >
             std::max(live_entries_, kCompactFloor)) {
    drop_tombstones();
  }
  return true;
}

void EventQueue::clear_tombstones() {
  for (std::uint32_t m = nonempty_; m != 0; m &= m - 1) {
    fifos_[static_cast<std::size_t>(std::countr_zero(m))].count = 0;
  }
  nonempty_ = 0;
  heap_.clear();
  queued_ = 0;
}

void EventQueue::drop_tombstones() {
  for (std::uint32_t m = nonempty_; m != 0; m &= m - 1) {
    const auto c = static_cast<std::uint32_t>(std::countr_zero(m));
    Fifo& f = fifos_[c];
    const std::size_t mask = f.ring.size() - 1;
    std::uint32_t kept = 0;
    for (std::uint32_t i = 0; i < f.count; ++i) {
      const Entry& e = f.ring[(f.head + i) & mask];
      if (!stale(e)) f.ring[(f.head + kept++) & mask] = e;
    }
    f.count = kept;
    if (kept == 0) {
      nonempty_ &= ~(1U << c);
    } else {
      heads_[c] = f.ring[f.head];
    }
  }
  std::erase_if(heap_, [this](const Entry& e) { return stale(e); });
  std::make_heap(heap_.begin(), heap_.end(), Later{});
  queued_ = heap_.size();
  for (std::uint32_t m = nonempty_; m != 0; m &= m - 1) {
    queued_ += fifos_[static_cast<std::size_t>(std::countr_zero(m))].count;
  }
  VS_DCHECK(queued_ == live_entries_, "a live entry lost its queue entry");
}

void EventQueue::find_min() const {
  // Least (time, seq) over the heap top and the non-empty classes' heads.
  // A stale winner — a cancelled event, its slot's generation moved on —
  // is dropped and the search repeats; live_entries_ > 0 guarantees a live
  // entry in some queue.
  for (;;) {
    const Entry* best = heap_.empty() ? nullptr : &heap_.front();
    std::uint32_t src = kHeapSrc;
    for (std::uint32_t m = nonempty_; m != 0; m &= m - 1) {
      const auto c = static_cast<std::uint32_t>(std::countr_zero(m));
      const Entry& h = heads_[c];
      if (best == nullptr || h.when < best->when ||
          (h.when == best->when && h.seq < best->seq)) {
        best = &h;
        src = c;
      }
    }
    VS_DCHECK(best != nullptr, "live events but every queue is empty");
    if (!stale(*best)) {
      min_src_ = src;
      return;
    }
    if (src == kHeapSrc) {
      std::pop_heap(heap_.begin(), heap_.end(), Later{});
      heap_.pop_back();
      --queued_;
    } else {
      pop_front(src);
    }
  }
}

TimePoint EventQueue::next_time() const {
  VS_REQUIRE(!empty(), "next_time on empty queue");
  if (min_src_ == kNoClass) find_min();
  return min_src_ == kHeapSrc ? heap_.front().when : heads_[min_src_].when;
}

EventQueue::Action EventQueue::pop(TimePoint& when) {
  Popped p = pop();
  when = p.when;
  return std::move(p.action);
}

EventQueue::Popped EventQueue::pop() {
  Popped p;
  pop(p);
  return p;
}

void EventQueue::pop(Popped& out) {
  VS_REQUIRE(!empty(), "pop on empty queue");
  if (min_src_ == kNoClass) find_min();
  Entry top{};
  if (min_src_ == kHeapSrc) {
    top = heap_.front();
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
    --queued_;
  } else {
    top = heads_[min_src_];
    pop_front(min_src_);
  }
  min_src_ = kNoClass;
  Slot& s = slots_[top.slot];
  out.action = std::move(s.action);
  out.when = top.when;
  out.seq = top.seq;
  out.cause = s.cause;
  out.members = top.members;
  s.seq = 0;
  free_slots_.push_back(top.slot);
  live_events_ -= top.members;
  if (--live_entries_ == 0) clear_tombstones();
}

}  // namespace vs::sim
