// Unit tests for the discrete-event substrate: event queue and scheduler.

#include <gtest/gtest.h>

#include <vector>

#include "common/error.hpp"
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

TEST(SchedulerTest, RejectsPastAndNegative) {
  Scheduler s;
  s.schedule_after(Duration::micros(10), [] {});
  s.run();
  EXPECT_THROW(s.schedule_at(TimePoint{5}, [] {}), vs::Error);
  EXPECT_THROW(s.schedule_after(Duration::micros(-1), [] {}), vs::Error);
}

}  // namespace
}  // namespace vstest
