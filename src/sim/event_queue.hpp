#pragma once
// Pending-event set for the discrete-event scheduler.
//
// Ordering is (time, sequence-number): two events at the same instant fire
// in the order they were scheduled, which makes every run reproducible.
// Cancellation is O(1) by tombstoning; tombstones are skimmed off when
// they reach the front, and once they outnumber the live events (past
// kCompactFloor) a sweep drops them all, so queued entries stay within
// 2·size() + kCompactFloor however long a far-future event pins a queue.
//
// Delay classes. The model's latencies are a handful of constants —
// C-gcast's rules (a)–(e) deliver after δ, δ+e or (δ+e)·{n(l), p(l),
// 2n(l)}, and Figure 2's timers g(l), s(l) and nbrtimeout are fixed per
// level — so nearly every event arrives through push_after() with one of a
// few distinct delays. Each distinct delay gets its own FIFO, assigned
// first come, first served up to kMaxClasses. The clock a caller passes
// never goes back, so a class's entries (now + delay, seq) arrive already
// sorted by (time, seq): a push is an append, and the earliest event is
// the least of the non-empty FIFOs' heads (found through a bitmask of
// non-empty classes) and the top of one fallback binary heap. The heap
// takes absolute-time pushes (push(), Scheduler::schedule_at) and any
// delay past the class cap. Firing order is exactly (time, seq), whatever
// queue an event sits in.
//
// Hot-path layout: FIFOs and heap hold small (time, seq, slot) entries;
// the callables live in a slot vector indexed by those entries, with freed
// slots recycled through a free list. An entry is stale exactly when its
// slot's generation (`seq`) no longer matches, so cancel is one array
// write and skimming is one array read — no per-event hash lookups, and
// no per-event allocations thanks to EventAction's inline buffer. The
// least head is looked up once and cached until the next push, pop or
// cancel, so the scheduler's empty() → next_time() → pop() sequence
// searches once per entry.
//
// Fan-outs. push_fan_out() books n events that share one action, one time
// and one cause as a single entry reserving n consecutive sequence numbers
// (base .. base+n−1). No other event can sort between them — a tie at
// their instant needs a sequence number in that range — so they are
// contiguous in (time, seq) order, and the scheduler fires them one per
// step() after a single pop (scheduler.hpp). size() counts the members, so
// it is the number of events still to fire, as if each had its own entry;
// one push, one slot, one head scan and one pop serve all of them. A
// fan-out has no EventId: C-gcast, its only user, never cancels a delivery.

#include <array>
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

  /// Distinct delays that get their own FIFO; later delays use the heap.
  static constexpr std::size_t kMaxClasses = 32;
  /// Tombstones tolerated before they may outnumber the live events.
  static constexpr std::size_t kCompactFloor = 64;

  /// Schedule `action` at absolute time `when` (on the fallback heap).
  /// Requires !when.is_never(). `cause` is the sequence number of the
  /// event being fired when this one was scheduled (0 = scheduled from
  /// outside any event) — the causal edge the observability layer
  /// reconstructs spans from.
  EventId push(TimePoint when, Action&& action, std::uint64_t cause = 0);

  /// Schedule `action` at `now + delay` in `delay`'s class FIFO (the heap
  /// once kMaxClasses delays have classes). `now` must never decrease
  /// across calls: that keeps each FIFO sorted. Requires delay >= 0.
  EventId push_after(TimePoint now, Duration delay, Action&& action,
                     std::uint64_t cause = 0);

  /// Schedule `members` events at `now + delay` that all run `action`:
  /// one entry holding `members` consecutive sequence numbers, placed as
  /// push_after() places one event. Requires members >= 1. Not
  /// cancellable.
  void push_fan_out(TimePoint now, Duration delay, std::uint32_t members,
                    Action&& action, std::uint64_t cause = 0);

  /// Cancel a previously scheduled event. Cancelling an already-fired or
  /// already-cancelled event is a harmless no-op (returns false).
  bool cancel(EventId id);

  /// True if no live (non-cancelled) events remain.
  [[nodiscard]] bool empty() const { return live_entries_ == 0; }

  /// Time of the earliest live event. Requires !empty().
  [[nodiscard]] TimePoint next_time() const;

  /// Remove and return the earliest live entry's action.
  /// Requires !empty(). Also reports the entry's time via `when`.
  Action pop(TimePoint& when);

  /// Earliest live entry with its identity and causal parent (the
  /// scheduler's step path): `members` events with sequence numbers
  /// seq .. seq+members−1 (1 unless the entry is a fan-out).
  struct Popped {
    Action action;
    TimePoint when;
    std::uint64_t seq = 0;
    std::uint64_t cause = 0;
    std::uint32_t members = 0;
  };
  /// Requires !empty(). Moves the entry into `out`, whose action is
  /// replaced.
  void pop(Popped& out);
  Popped pop();

  /// Number of live events, a fan-out counting each member (O(1);
  /// maintained incrementally).
  [[nodiscard]] std::size_t size() const { return live_events_; }

  /// Entries held in the FIFOs and the heap: the live entries plus the
  /// tombstones not yet dropped. At most 2·size() + kCompactFloor.
  [[nodiscard]] std::size_t queued() const { return queued_; }

  /// Entries ever pushed: one per push(), push_after() or push_fan_out(),
  /// however many members a fan-out holds.
  [[nodiscard]] std::uint64_t pushes() const { return pushes_; }

  /// High-water mark of action slots ever allocated — stays at the peak
  /// number of simultaneously pending events because freed slots are
  /// recycled (observable in tests and the slot-reuse microbenchmark).
  [[nodiscard]] std::size_t slot_capacity() const { return slots_.size(); }

  /// Pushes that went to the fallback heap: every push(), plus every
  /// push_after() whose delay found no class.
  [[nodiscard]] std::uint64_t fallback_pushes() const {
    return fallback_pushes_;
  }

 private:
  struct Entry {
    TimePoint when;
    std::uint64_t seq;       // the first member's sequence number
    std::uint32_t slot;      // index into slots_; stale iff generation mismatch
    std::uint32_t members;   // events the entry holds (1 but for fan-outs)
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
  /// One delay class: a ring buffer (power-of-two capacity) of entries in
  /// (time, seq) order.
  struct Fifo {
    std::vector<Entry> ring;
    std::uint32_t head{0};
    std::uint32_t count{0};
  };

  /// Class index for `delay`, assigning a new class if one is free;
  /// kNoClass once the table is full and `delay` has none.
  std::uint32_t class_of(Duration delay);
  /// Book `action` into a fresh slot; returns the slot index.
  std::uint32_t store(Action&& action, std::uint64_t seq,
                      std::uint64_t cause, std::uint32_t members);
  /// Books an entry of `members` events at `now + delay` into its class
  /// FIFO (or the heap) and returns it.
  Entry enqueue_after(TimePoint now, Duration delay, std::uint32_t members,
                      Action&& action, std::uint64_t cause);
  void push_heap(const Entry& e);
  void push_fifo(std::uint32_t c, const Entry& e);
  void pop_front(std::uint32_t c) const;
  /// Find the least live entry (skimming stale fronts) and cache its
  /// source in min_src_. Requires !empty().
  void find_min() const;
  [[nodiscard]] bool stale(const Entry& e) const {
    return slots_[e.slot].seq != e.seq;
  }
  /// Drop every remaining (stale) entry once no live event is left.
  void clear_tombstones();
  /// Drop every stale entry, keeping each FIFO's order, and rebuild the
  /// heap.
  void drop_tombstones();

  static constexpr std::uint32_t kNoClass = 0xffffffffU;
  static constexpr std::uint32_t kHeapSrc = kMaxClasses;  // min_src_ value
  static constexpr unsigned kTableBits = 6;
  static constexpr std::size_t kTableSize = std::size_t{1} << kTableBits;
  static_assert(kTableSize >= 2 * kMaxClasses, "class table load <= 1/2");
  static_assert(kMaxClasses <= 32, "nonempty_ is a 32-bit mask");

  // Delay → class: open addressing with linear probing, keyed by the
  // delay in microseconds plus one, so a zero key marks an empty cell.
  std::array<std::uint64_t, kTableSize> table_key_{};
  std::array<std::uint32_t, kTableSize> table_class_{};
  std::uint32_t classes_{0};

  mutable std::array<Fifo, kMaxClasses> fifos_{};
  /// Copy of each non-empty FIFO's front entry, so the head scan reads
  /// one contiguous array.
  mutable std::array<Entry, kMaxClasses> heads_{};
  mutable std::uint32_t nonempty_{0};  // bit c set iff fifos_[c] non-empty
  mutable std::vector<Entry> heap_;
  /// Source of the least live entry (class index or kHeapSrc), or kNoClass
  /// when not yet looked up since the last push, pop or cancel.
  mutable std::uint32_t min_src_{kNoClass};

  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::uint64_t next_seq_{1};
  std::size_t live_entries_{0};
  std::size_t live_events_{0};  // live entries' members
  mutable std::size_t queued_{0};
  std::uint64_t pushes_{0};
  std::uint64_t fallback_pushes_{0};
};

}  // namespace vs::sim
