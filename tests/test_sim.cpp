// Unit tests for the discrete-event substrate: event queue and scheduler.

#include <gtest/gtest.h>

#include <functional>
#include <tuple>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "sim/event_queue.hpp"
#include "sim/scheduler.hpp"

namespace vstest {
namespace {

using vs::sim::Duration;
using vs::sim::EventId;
using vs::sim::EventQueue;
using vs::sim::Scheduler;
using vs::sim::TimePoint;

TEST(Time, Arithmetic) {
  const TimePoint t{100};
  const Duration d = Duration::micros(50);
  EXPECT_EQ((t + d).count(), 150);
  EXPECT_EQ((TimePoint{150} - t).count(), 50);
  EXPECT_EQ((d * 3).count(), 150);
  EXPECT_EQ(Duration::millis(2).count(), 2000);
  EXPECT_EQ(Duration::seconds(1).count(), 1000000);
}

TEST(Time, NeverSemantics) {
  EXPECT_TRUE(TimePoint::never().is_never());
  EXPECT_FALSE(TimePoint::zero().is_never());
  EXPECT_LT(TimePoint{1000000}, TimePoint::never());
}

TEST(EventQueueTest, FiresInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.push(TimePoint{30}, [&] { order.push_back(3); });
  q.push(TimePoint{10}, [&] { order.push_back(1); });
  q.push(TimePoint{20}, [&] { order.push_back(2); });
  TimePoint when;
  while (!q.empty()) q.pop(when)();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, TiesBreakBySchedulingOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    q.push(TimePoint{10}, [&order, i] { order.push_back(i); });
  }
  TimePoint when;
  while (!q.empty()) q.pop(when)();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueueTest, CancelPreventsDelivery) {
  EventQueue q;
  int fired = 0;
  const EventId a = q.push(TimePoint{10}, [&] { ++fired; });
  q.push(TimePoint{20}, [&] { ++fired; });
  EXPECT_TRUE(q.cancel(a));
  EXPECT_FALSE(q.cancel(a));  // idempotent
  EXPECT_EQ(q.size(), 1u);
  TimePoint when;
  while (!q.empty()) q.pop(when)();
  EXPECT_EQ(fired, 1);
}

TEST(EventQueueTest, CancelledHeadIsSkimmed) {
  EventQueue q;
  const EventId head = q.push(TimePoint{5}, [] {});
  q.push(TimePoint{10}, [] {});
  q.cancel(head);
  EXPECT_EQ(q.next_time(), TimePoint{10});
}

TEST(EventQueueTest, RejectsNeverAndEmptyAction) {
  EventQueue q;
  EXPECT_THROW(q.push(TimePoint::never(), [] {}), vs::Error);
  EXPECT_THROW(q.push(TimePoint{1}, EventQueue::Action{}), vs::Error);
}

TEST(SchedulerTest, AdvancesClockToEventTimes) {
  Scheduler s;
  std::vector<std::int64_t> times;
  s.schedule_after(Duration::micros(10), [&] { times.push_back(s.now().count()); });
  s.schedule_after(Duration::micros(5), [&] { times.push_back(s.now().count()); });
  s.run();
  EXPECT_EQ(times, (std::vector<std::int64_t>{5, 10}));
  EXPECT_EQ(s.now(), TimePoint{10});
}

TEST(SchedulerTest, NestedScheduling) {
  Scheduler s;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) s.schedule_after(Duration::micros(1), recurse);
  };
  s.schedule_after(Duration::micros(1), recurse);
  s.run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(s.now(), TimePoint{5});
}

TEST(SchedulerTest, RunUntilStopsAtDeadline) {
  Scheduler s;
  int fired = 0;
  s.schedule_after(Duration::micros(10), [&] { ++fired; });
  s.schedule_after(Duration::micros(30), [&] { ++fired; });
  s.run_until(TimePoint{20});
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(s.now(), TimePoint{20});  // clock advanced to the deadline
  s.run();
  EXPECT_EQ(fired, 2);
}

TEST(SchedulerTest, EventBudgetGuardsRunaway) {
  Scheduler s;
  std::function<void()> forever = [&] {
    s.schedule_after(Duration::micros(1), forever);
  };
  s.schedule_after(Duration::micros(1), forever);
  EXPECT_THROW(s.run(100), vs::Error);
}

// A seeded program of events that schedule more events: single events
// after a delay or at a time, fan-outs of 1–5 members, and cancels of
// earlier single events. Run as fan-outs (schedule_fan_out) or as loops
// of schedule_after; both runs must fire identical events.
class FanOutProgram {
 public:
  /// (time, seq, cause, event tag, member index)
  using Fired = std::tuple<std::int64_t, std::uint64_t, std::uint64_t, int,
                           int>;

  FanOutProgram(std::uint64_t seed, bool fan_out)
      : rng_(seed), fan_out_(fan_out) {
    while (s_.pending() < 4 && budget_ > 0) act();
  }

  Scheduler& sched() { return s_; }
  [[nodiscard]] const std::vector<Fired>& fired() const { return fired_; }

 private:
  void fire(int tag, int member) {
    fired_.emplace_back(s_.now().count(), s_.current_seq(),
                        s_.current_cause(), tag, member);
    const auto steps = budget_ > 0 ? rng_.uniform_int(1, 3)
                                   : rng_.uniform_int(0, 1);
    for (std::int64_t i = 0; i < steps; ++i) act();
  }

  void act() {
    if (budget_ == 0) return;
    --budget_;
    const int tag = next_tag_++;
    const Duration delay{rng_.uniform_int(0, 6)};
    switch (rng_.uniform_int(0, 4)) {
      case 0:
        singles_.push_back(s_.schedule_at(s_.now() + delay,
                                          [this, tag] { fire(tag, 0); }));
        break;
      case 1:
        if (!singles_.empty()) {
          (void)s_.cancel(singles_[static_cast<std::size_t>(rng_.uniform_int(
              0, static_cast<std::int64_t>(singles_.size()) - 1))]);
        }
        break;
      case 2:
      case 3: {
        const auto members = static_cast<int>(rng_.uniform_int(1, 5));
        if (fan_out_) {
          cursor_.resize(static_cast<std::size_t>(tag) + 1, 0);
          s_.schedule_fan_out(delay, static_cast<std::uint32_t>(members),
                              [this, tag] {
                                fire(tag, cursor_[static_cast<std::size_t>(
                                              tag)]++);
                              });
        } else {
          for (int k = 0; k < members; ++k) {
            (void)s_.schedule_after(delay, [this, tag, k] { fire(tag, k); });
          }
        }
        break;
      }
      default:
        singles_.push_back(
            s_.schedule_after(delay, [this, tag] { fire(tag, 0); }));
        break;
    }
  }

  Scheduler s_;
  vs::Rng rng_;
  bool fan_out_;
  int budget_ = 600;
  int next_tag_ = 0;
  std::vector<int> cursor_;  // fan-out tag → next member
  std::vector<EventId> singles_;
  std::vector<Fired> fired_;
};

TEST(SchedulerFanOut, FiresMembersLikeSeparateEvents) {
  std::size_t fired = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE(seed);
    FanOutProgram fan(seed, true);
    FanOutProgram loop(seed, false);
    ASSERT_EQ(fan.sched().pending(), loop.sched().pending());
    for (;;) {
      const bool stepped = fan.sched().step();
      ASSERT_EQ(stepped, loop.sched().step());
      if (!stepped) break;
      ASSERT_EQ(fan.fired().back(), loop.fired().back());
      ASSERT_EQ(fan.sched().events_fired(), loop.sched().events_fired());
      ASSERT_EQ(fan.sched().pending(), loop.sched().pending());
    }
    EXPECT_EQ(fan.fired(), loop.fired());
    EXPECT_LE(fan.sched().queue_pushes(), loop.sched().queue_pushes());
    fired += fan.fired().size();
  }
  EXPECT_GT(fired, 20'000u);
}

TEST(SchedulerFanOut, RunUntilFiresEveryMemberDueByTheDeadline) {
  Scheduler s;
  std::vector<std::int64_t> fired;
  s.schedule_fan_out(Duration::micros(10), 3,
                     [&] { fired.push_back(s.now().count()); });
  s.schedule_after(Duration::micros(20), [&] { fired.push_back(-1); });
  EXPECT_EQ(s.pending(), 4u);
  ASSERT_TRUE(s.step());
  EXPECT_EQ(s.pending(), 3u);
  EXPECT_EQ(s.run_until(TimePoint{15}), 2u);
  EXPECT_EQ(fired, (std::vector<std::int64_t>{10, 10, 10}));
  EXPECT_EQ(s.pending(), 1u);
  EXPECT_EQ(s.now(), TimePoint{15});
  EXPECT_EQ(s.run(), 1u);
  EXPECT_EQ(s.queue_pushes(), 2u);
}

TEST(SchedulerFanOut, MembersCountAgainstTheEventBudget) {
  // A fan-out that re-arms itself never quiesces; the budget trips on the
  // same event as it does for separate events.
  const auto exhaust = [](bool fan_out) {
    Scheduler s;
    std::function<void()> forever = [&] {
      if (fan_out) {
        s.schedule_fan_out(Duration::micros(1), 3, forever);
      } else {
        for (int k = 0; k < 3; ++k) {
          s.schedule_after(Duration::micros(1), forever);
        }
      }
    };
    forever();
    EXPECT_THROW(s.run(100), vs::Error);
    return std::pair{s.events_fired(), s.now()};
  };
  const auto fan = exhaust(true);
  EXPECT_EQ(fan, exhaust(false));
  EXPECT_EQ(fan.first, 101u);
}

TEST(SchedulerFanOut, AMemberMayGrowTheSlotTable) {
  // The member being fired schedules enough events to reallocate the
  // queue's slot table several times, then reads its own captures: they
  // must still be intact (ASan flags a member run from moved storage).
  Scheduler s;
  int members_run = 0;
  std::uint64_t tag = 0xFEEDFACE;
  s.schedule_fan_out(Duration::micros(1), 2, [&s, &members_run, tag] {
    for (int i = 0; i < 5000; ++i) s.schedule_after(Duration::micros(2), [] {});
    EXPECT_EQ(tag, 0xFEEDFACEu);
    ++members_run;
  });
  EXPECT_EQ(s.run(), 10'002u);
  EXPECT_EQ(members_run, 2);
}

TEST(SchedulerTest, RejectsPastAndNegative) {
  Scheduler s;
  s.schedule_after(Duration::micros(10), [] {});
  s.run();
  EXPECT_THROW(s.schedule_at(TimePoint{5}, [] {}), vs::Error);
  EXPECT_THROW(s.schedule_after(Duration::micros(-1), [] {}), vs::Error);
}

}  // namespace
}  // namespace vstest
