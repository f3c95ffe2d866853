#pragma once
// Pending-event set for the discrete-event scheduler.
//
// Ordering is (time, sequence-number): two events at the same instant fire
// in the order they were scheduled, which makes every run reproducible.
// Cancellation is O(1) by tombstoning; tombstones are skimmed off at pop.
//
// Hot-path layout: the heap holds small (time, seq, slot) entries; the
// callables live in a slot vector indexed by those entries, with freed
// slots recycled through a free list. A heap entry is stale exactly when
// its slot's generation (`seq`) no longer matches, so cancel is one array
// write and pop is one array read — no per-event hash lookups, and no
// per-event allocations thanks to EventAction's inline buffer.

#include <cstdint>
#include <vector>

#include "sim/action.hpp"
#include "sim/time.hpp"

namespace vs::sim {

/// Handle to a scheduled event, usable for cancellation.
class EventId {
 public:
  constexpr EventId() = default;
  [[nodiscard]] constexpr std::uint64_t value() const { return seq_; }
  [[nodiscard]] constexpr bool valid() const { return seq_ != 0; }
  friend constexpr bool operator==(EventId, EventId) = default;

 private:
  friend class EventQueue;
  constexpr EventId(std::uint64_t seq, std::uint32_t slot)
      : seq_(seq), slot_(slot) {}

  std::uint64_t seq_{0};  // 0 = "no event"
  std::uint32_t slot_{0};
};

class EventQueue {
 public:
  using Action = EventAction;

  /// Schedule `action` at absolute time `when`. Requires !when.is_never().
  /// `cause` is the sequence number of the event being fired when this one
  /// was scheduled (0 = scheduled from outside any event) — the causal
  /// edge the observability layer reconstructs spans from.
  EventId push(TimePoint when, Action action, std::uint64_t cause = 0);

  /// Cancel a previously scheduled event. Cancelling an already-fired or
  /// already-cancelled event is a harmless no-op (returns false).
  bool cancel(EventId id);

  /// True if no live (non-cancelled) events remain.
  [[nodiscard]] bool empty() const;

  /// Time of the earliest live event. Requires !empty().
  [[nodiscard]] TimePoint next_time() const;

  /// Remove and return the earliest live event's action.
  /// Requires !empty(). Also reports the event's time via `when`.
  Action pop(TimePoint& when);

  /// Earliest live event with its identity and causal parent (the
  /// scheduler's step path). Requires !empty().
  struct Popped {
    Action action;
    TimePoint when;
    std::uint64_t seq;
    std::uint64_t cause;
  };
  Popped pop();

  /// Number of live events (O(1); maintained incrementally).
  [[nodiscard]] std::size_t size() const { return live_count_; }

  /// High-water mark of action slots ever allocated — stays at the peak
  /// number of simultaneously pending events because freed slots are
  /// recycled (observable in tests and the slot-reuse microbenchmark).
  [[nodiscard]] std::size_t slot_capacity() const { return slots_.size(); }

 private:
  struct Entry {
    TimePoint when;
    std::uint64_t seq;
    std::uint32_t slot;  // index into slots_; stale iff generation mismatch
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };
  struct Slot {
    Action action;
    std::uint64_t seq{0};    // generation of the occupying event; 0 = free
    std::uint64_t cause{0};  // seq of the event that scheduled this one
  };

  void skim() const;  // drop cancelled entries off the top

  mutable std::vector<Entry> heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::uint64_t next_seq_{1};
  std::size_t live_count_{0};
};

}  // namespace vs::sim
