// Edge-case tests for the slot-vector event queue and its inline-buffer
// callable: tombstone skimming, same-instant ordering, slot recycling,
// the delay classes against a reference model, and EventAction's
// small-buffer/heap split. Complements the basic EventQueue coverage in
// test_sim.cpp.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <set>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "sim/action.hpp"
#include "sim/event_queue.hpp"
#include "sim/scheduler.hpp"

namespace vstest {
namespace {

using vs::Rng;
using vs::sim::Duration;
using vs::sim::EventAction;
using vs::sim::EventId;
using vs::sim::EventQueue;
using vs::sim::Scheduler;
using vs::sim::TimePoint;

TEST(EventQueueEdge, CancelThenPopSkimsTombstones) {
  EventQueue q;
  std::vector<int> order;
  const EventId a = q.push(TimePoint{10}, [&] { order.push_back(1); });
  const EventId b = q.push(TimePoint{20}, [&] { order.push_back(2); });
  const EventId c = q.push(TimePoint{30}, [&] { order.push_back(3); });
  EXPECT_TRUE(q.cancel(b));
  EXPECT_EQ(q.size(), 2u);

  TimePoint when;
  while (!q.empty()) q.pop(when)();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
  EXPECT_EQ(when.count(), 30);

  // Cancelling fired or already-cancelled events is a harmless no-op.
  EXPECT_FALSE(q.cancel(a));
  EXPECT_FALSE(q.cancel(b));
  EXPECT_FALSE(q.cancel(c));
  EXPECT_FALSE(q.cancel(EventId{}));
}

TEST(EventQueueEdge, CancelEverythingEmptiesTheQueue) {
  EventQueue q;
  std::vector<EventId> ids;
  for (int i = 0; i < 16; ++i) {
    ids.push_back(q.push(TimePoint{i + 1}, [] {}));
  }
  for (const EventId id : ids) EXPECT_TRUE(q.cancel(id));
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueueEdge, SameInstantTieBreakSurvivesCancellation) {
  // Five events at one instant; cancelling the middle one must not
  // perturb the scheduling-order tie-break of the survivors.
  EventQueue q;
  std::vector<int> order;
  std::array<EventId, 5> ids{};
  for (int i = 0; i < 5; ++i) {
    ids[static_cast<std::size_t>(i)] =
        q.push(TimePoint{100}, [&order, i] { order.push_back(i); });
  }
  EXPECT_TRUE(q.cancel(ids[2]));
  TimePoint when;
  while (!q.empty()) q.pop(when)();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 3, 4}));
}

TEST(EventQueueEdge, SlotIndicesAreRecycled) {
  // Arm/cancel churn (a re-armed timer) must reuse freed slots, not
  // grow the slot vector: capacity stays at the peak live count.
  EventQueue q;
  (void)q.push(TimePoint{1'000'000}, [] {});  // anchor keeps q non-empty
  for (int i = 0; i < 1000; ++i) {
    const EventId id = q.push(TimePoint{10}, [] {});
    EXPECT_TRUE(q.cancel(id));
  }
  EXPECT_EQ(q.size(), 1u);
  EXPECT_LE(q.slot_capacity(), 2u);
}

TEST(EventQueueEdge, StaleIdForReusedSlotDoesNotCancelNewEvent) {
  // After a slot is recycled, the old EventId's generation no longer
  // matches: cancelling it must not kill the slot's new occupant.
  EventQueue q;
  const EventId old_id = q.push(TimePoint{10}, [] {});
  EXPECT_TRUE(q.cancel(old_id));
  bool fired = false;
  (void)q.push(TimePoint{20}, [&] { fired = true; });  // reuses the slot
  EXPECT_FALSE(q.cancel(old_id));
  EXPECT_EQ(q.size(), 1u);
  TimePoint when;
  q.pop(when)();
  EXPECT_TRUE(fired);
}

TEST(EventQueueClasses, DelayPastTheCapGoesToTheHeapAndKeepsOrder) {
  EventQueue q;
  std::vector<int> order;
  const auto note = [&order](int tag) {
    return [&order, tag] { order.push_back(tag); };
  };
  // Delays 10..41 take all kMaxClasses classes: events at t = 10..41.
  constexpr int kClasses = static_cast<int>(EventQueue::kMaxClasses);
  for (int i = 0; i < kClasses; ++i) {
    (void)q.push_after(TimePoint{0}, Duration{10 + i}, note(i));
  }
  EXPECT_EQ(q.fallback_pushes(), 0u);
  // A new delay finds no class and lands on the heap at t = 100 ...
  (void)q.push_after(TimePoint{0}, Duration{100}, note(100));
  EXPECT_EQ(q.fallback_pushes(), 1u);
  // ... and still fires in (time, seq) order against class heads: the
  // same instant from a class (later seq), an earlier instant from a
  // class, and the same instant again from an absolute push.
  (void)q.push_after(TimePoint{60}, Duration{40}, note(101));
  (void)q.push_after(TimePoint{60}, Duration{39}, note(99));
  (void)q.push(TimePoint{100}, note(102));
  EXPECT_EQ(q.fallback_pushes(), 2u);
  std::vector<TimePoint> times;
  TimePoint when;
  while (!q.empty()) {
    q.pop(when)();
    times.push_back(when);
  }
  std::vector<int> want;
  for (int i = 0; i < kClasses; ++i) want.push_back(i);
  for (const int tag : {99, 100, 101, 102}) want.push_back(tag);
  EXPECT_EQ(order, want);
  EXPECT_TRUE(std::is_sorted(times.begin(), times.end()));
  EXPECT_EQ(times.back(), TimePoint{100});
}

TEST(EventQueueClasses, SchedulerAfterUsesClassesAndAtUsesTheHeap) {
  Scheduler s;
  int fired = 0;
  for (int i = 0; i < 100; ++i) {
    (void)s.schedule_after(Duration::micros(1 + i % 7), [&] { ++fired; });
  }
  EXPECT_EQ(s.fallback_pushes(), 0u);
  (void)s.schedule_at(TimePoint{3}, [&] { ++fired; });
  EXPECT_EQ(s.fallback_pushes(), 1u);
  EXPECT_EQ(s.run(), 101u);
  EXPECT_EQ(fired, 101);
}

// One seeded random program against a reference model. The program mixes
// push_after over more distinct delays than kMaxClasses, absolute pushes,
// cancels of class heads, of the newest event (a FIFO tail or a heap
// entry), of random earlier ids and of the event currently firing, and
// pushes from inside firing actions. Delays and offsets are a few
// microseconds, so same-instant ties across two classes and across a
// class and the heap are frequent. The model is the set of live
// (time, seq, cause) triples; every pop must yield its least element.
class DifferentialProgram {
 public:
  using Key = std::tuple<std::int64_t, std::uint64_t, std::uint64_t>;

  explicit DifferentialProgram(std::uint64_t seed) : rng_(seed) {}

  void run() {
    for (int i = 0; i < 20; ++i) step();
    while (!q_.empty()) {
      ASSERT_FALSE(model_.empty());
      ASSERT_EQ(q_.next_time().count(), std::get<0>(*model_.begin()));
      EventQueue::Popped p = q_.pop();
      if (!fired_.empty() && std::get<0>(fired_.back()) == p.when.count()) {
        ++ties_;
      }
      fired_.emplace_back(p.when.count(), p.seq, p.cause);
      expected_.push_back(*model_.begin());
      by_seq_.erase(std::get<1>(*model_.begin()));
      model_.erase(model_.begin());
      ASSERT_GE(p.when, now_);
      now_ = p.when;
      firing_ = ids_.at(p.seq);
      p.action();
      ASSERT_EQ(q_.size(), model_.size());
    }
    EXPECT_TRUE(model_.empty());
    EXPECT_EQ(fired_, expected_);
  }

  [[nodiscard]] std::uint64_t fallback_pushes() const {
    return q_.fallback_pushes();
  }
  [[nodiscard]] std::size_t fired() const { return fired_.size(); }
  [[nodiscard]] std::size_t ties() const { return ties_; }
  [[nodiscard]] std::size_t live_cancels() const { return live_cancels_; }

 private:
  // A firing action performs 2–4 random steps while pushes remain (about
  // 2.1 pushes against 0.9 cancels, so the program grows to its push
  // budget), then 0–1 (so it drains).
  void act() {
    const auto steps = pushes_left_ > 0 ? rng_.uniform_int(2, 4)
                                        : rng_.uniform_int(0, 1);
    for (std::int64_t i = 0; i < steps; ++i) step();
  }

  void step() {
    switch (rng_.uniform_int(0, 9)) {
      case 0:
        push_at();
        break;
      case 1:
        if (!model_.empty()) cancel(by_seq_.at(std::get<1>(*model_.begin())));
        break;
      case 2:
        if (!issued_.empty()) cancel(issued_.back());
        break;
      case 3:
        if (!issued_.empty()) {
          cancel(issued_[static_cast<std::size_t>(rng_.uniform_int(
              0, static_cast<std::int64_t>(issued_.size()) - 1))]);
        }
        break;
      case 4:
        if (firing_.valid()) {
          EXPECT_FALSE(q_.cancel(firing_));
        }
        break;
      default:
        push_after();
        break;
    }
  }

  [[nodiscard]] std::uint64_t cause() const { return firing_.value(); }

  void push_after() {
    if (pushes_left_ == 0) return;
    --pushes_left_;
    // Delays 0..kMaxClasses+7: the first kMaxClasses distinct ones seen get
    // classes, the rest go to the heap.
    const Duration delay{rng_.uniform_int(
        0, static_cast<std::int64_t>(EventQueue::kMaxClasses) + 7)};
    record(q_.push_after(now_, delay, [this] { act(); }, cause()),
           now_ + delay);
  }

  void push_at() {
    if (pushes_left_ == 0) return;
    --pushes_left_;
    const TimePoint when = now_ + Duration{rng_.uniform_int(0, 12)};
    record(q_.push(when, [this] { act(); }, cause()), when);
  }

  void record(EventId id, TimePoint when) {
    issued_.push_back(id);
    const Key key{when.count(), id.value(), cause()};
    model_.insert(key);
    by_seq_.emplace(id.value(), id);
    ids_.emplace(id.value(), id);
    keys_.emplace(id.value(), key);
  }

  void cancel(EventId id) {
    const bool live = by_seq_.contains(id.value());
    EXPECT_EQ(q_.cancel(id), live);
    if (live) {
      model_.erase(keys_.at(id.value()));
      by_seq_.erase(id.value());
      ++live_cancels_;
    }
  }

  EventQueue q_;
  Rng rng_;
  TimePoint now_{0};
  EventId firing_{};
  int pushes_left_ = 400;
  std::vector<EventId> issued_;
  std::set<Key> model_;
  std::map<std::uint64_t, EventId> by_seq_;  // live events by seq
  std::map<std::uint64_t, EventId> ids_;     // every event by seq
  std::map<std::uint64_t, Key> keys_;        // every event's model key
  std::vector<Key> fired_;
  std::vector<Key> expected_;
  std::size_t ties_ = 0;          // pops at the same instant as the last
  std::size_t live_cancels_ = 0;  // cancels that removed a live event
};

TEST(EventQueueClasses, DifferentialAgainstSortedModel) {
  std::uint64_t fired = 0;
  std::uint64_t fallbacks = 0;
  std::uint64_t ties = 0;
  std::uint64_t live_cancels = 0;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    SCOPED_TRACE(seed);
    DifferentialProgram program(seed);
    program.run();
    if (HasFatalFailure()) return;
    fired += program.fired();
    fallbacks += program.fallback_pushes();
    ties += program.ties();
    live_cancels += program.live_cancels();
  }
  // The programs exercised the classes, the fallback heap, same-instant
  // ties and cancels of pending events.
  EXPECT_GT(fired, 10'000u);
  EXPECT_GT(fallbacks, 1'000u);
  EXPECT_LT(fallbacks, fired);
  EXPECT_GT(ties, 1'000u);
  EXPECT_GT(live_cancels, 1'000u);
}

TEST(EventQueueTombstones, CancelChurnBehindAnAnchorStaysBounded) {
  // One far-future anchor keeps the queue non-empty, so no cancel ever
  // empties it, and each round pushes and cancels one event: the shape of
  // an armed-then-disarmed timer beside a long-lived one. The cancelled
  // entries must not pile up behind the anchor, on the heap or in a FIFO.
  for (const bool fifo : {false, true}) {
    SCOPED_TRACE(fifo);
    EventQueue q;
    int anchor_fired = 0;
    (void)q.push(TimePoint{std::int64_t{1} << 30}, [&] { ++anchor_fired; });
    for (int i = 0; i < 100'000; ++i) {
      const EventId id = fifo ? q.push_after(TimePoint{0}, Duration{1000}, [] {})
                              : q.push(TimePoint{1000}, [] {});
      ASSERT_LE(q.queued(), 2 * q.size() + EventQueue::kCompactFloor) << i;
      ASSERT_TRUE(q.cancel(id));
      ASSERT_LE(q.queued(), 2 * q.size() + EventQueue::kCompactFloor) << i;
    }
    EXPECT_EQ(q.size(), 1u);
    TimePoint when;
    q.pop(when)();
    EXPECT_EQ(when, TimePoint{std::int64_t{1} << 30});
    EXPECT_EQ(anchor_fired, 1);
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.queued(), 0u);
  }
}

TEST(EventQueueTombstones, SweepKeepsFiringOrder) {
  // Live events in more delay classes than the cap plus absolute-time
  // pushes; cancelling three in four at random sweeps the tombstones
  // several times, and the survivors still fire in (time, seq) order.
  EventQueue q;
  Rng rng(5);
  std::vector<EventId> ids;
  std::set<std::pair<std::int64_t, std::uint64_t>> model;
  for (int i = 0; i < 4000; ++i) {
    const TimePoint now{i / 8};
    EventId id;
    TimePoint when;
    if (rng.chance(0.2)) {
      when = now + Duration{rng.uniform_int(0, 50)};
      id = q.push(when, [] {});
    } else {
      const Duration delay{rng.uniform_int(
          0, static_cast<std::int64_t>(EventQueue::kMaxClasses) + 8)};
      when = now + delay;
      id = q.push_after(now, delay, [] {});
    }
    ids.push_back(id);
    model.emplace(when.count(), id.value());
  }
  std::shuffle(ids.begin(), ids.end(), rng);
  for (std::size_t i = 0; i < 3000; ++i) {
    ASSERT_TRUE(q.cancel(ids[i]));
    ASSERT_LE(q.queued(), 2 * q.size() + EventQueue::kCompactFloor) << i;
  }
  for (std::size_t i = 0; i < 3000; ++i) {
    const auto it = std::find_if(model.begin(), model.end(), [&](const auto& k) {
      return k.second == ids[i].value();
    });
    ASSERT_NE(it, model.end());
    model.erase(it);
  }
  // Sweeps ran: without them all 4000 entries would still be queued.
  EXPECT_EQ(q.size(), 1000u);
  EXPECT_LE(q.queued(), 2 * q.size() + EventQueue::kCompactFloor);
  std::vector<std::pair<std::int64_t, std::uint64_t>> fired;
  while (!q.empty()) {
    EventQueue::Popped p = q.pop();
    fired.emplace_back(p.when.count(), p.seq);
  }
  EXPECT_EQ(fired, std::vector(model.begin(), model.end()));
}

TEST(EventActionTest, SmallCallablesStayInline) {
  int hits = 0;
  EventAction a{[&hits] { ++hits; }};
  EXPECT_TRUE(static_cast<bool>(a));
  EXPECT_TRUE(a.is_inline());
  a();
  EXPECT_EQ(hits, 1);

  // Captures up to the inline budget stay allocation-free too.
  std::array<std::uint64_t, 5> payload{1, 2, 3, 4, 5};
  std::uint64_t sum = 0;
  static_assert(sizeof(payload) + sizeof(&sum) <= EventAction::kInlineSize);
  EventAction b{[payload, &sum] {
    for (const auto v : payload) sum += v;
  }};
  EXPECT_TRUE(b.is_inline());
  b();
  EXPECT_EQ(sum, 15u);
}

TEST(EventActionTest, OversizeCallablesFallBackToHeapAndCount) {
  std::array<std::uint64_t, 16> big{};  // 128 bytes > kInlineSize
  big[15] = 7;
  const auto before = EventAction::heap_fallbacks();
  std::uint64_t seen = 0;
  EventAction a{[big, &seen] { seen = big[15]; }};
  EXPECT_FALSE(a.is_inline());
  EXPECT_EQ(EventAction::heap_fallbacks(), before + 1);
  a();
  EXPECT_EQ(seen, 7u);
}

TEST(EventActionTest, MoveTransfersTheCallable) {
  int hits = 0;
  EventAction a{[&hits] { ++hits; }};
  EventAction b{std::move(a)};
  EXPECT_FALSE(static_cast<bool>(a));
  EXPECT_TRUE(static_cast<bool>(b));
  b();
  EXPECT_EQ(hits, 1);

  EventAction c;
  EXPECT_FALSE(static_cast<bool>(c));
  c = std::move(b);
  EXPECT_FALSE(static_cast<bool>(b));
  c();
  EXPECT_EQ(hits, 2);
  c.reset();
  EXPECT_FALSE(static_cast<bool>(c));
}

}  // namespace
}  // namespace vstest
