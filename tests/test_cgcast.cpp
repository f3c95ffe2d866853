// Unit tests for the C-gcast service (paper §II-C.3): the exact latency
// rules (a)-(e), work accounting, in-transit introspection, drop-on-failed
// VSA, locality enforcement, and the neighbour fan-out's equivalence with
// per-neighbour sends.

#include <gtest/gtest.h>

#include <cstring>
#include <tuple>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "hier/grid_hierarchy.hpp"
#include "hier/strip_hierarchy.hpp"
#include "hier/torus_hierarchy.hpp"
#include "obs/op.hpp"
#include "obs/trace.hpp"
#include "sim/scheduler.hpp"
#include "stats/counters.hpp"
#include "vsa/cgcast.hpp"

namespace vstest {
namespace {

using vs::ClusterId;
using vs::Level;
using vs::RegionId;
using vs::hier::GridHierarchy;
using vs::sim::Duration;
using vs::sim::Scheduler;
using vs::stats::MsgKind;
using vs::stats::WorkCounters;
using vs::vsa::CGcast;
using vs::vsa::CGcastConfig;
using vs::vsa::Message;

struct Fixture {
  GridHierarchy hier{27, 27, 3};
  Scheduler sched;
  WorkCounters counters{hier.max_level()};
  CGcastConfig cfg{Duration::millis(1), Duration::millis(1)};
  CGcast cg{sched, hier, cfg, counters};

  ClusterId at(int x, int y, Level l) {
    return hier.cluster_of(hier.grid().region_at(x, y), l);
  }
};

TEST(CGcast, NeighborDelayIsRuleA) {
  Fixture f;
  // Two adjacent level-1 clusters: delay (δ+e)·n(1) = 2ms · 5.
  EXPECT_EQ(f.cg.vsa_delay(f.at(4, 4, 1), f.at(7, 4, 1)),
            Duration::millis(2) * 5);
  // Level 0: n(0) = 1.
  EXPECT_EQ(f.cg.vsa_delay(f.at(4, 4, 0), f.at(5, 4, 0)),
            Duration::millis(2));
}

TEST(CGcast, ParentChildDelayIsRuleB) {
  Fixture f;
  const ClusterId child = f.at(4, 4, 1);
  const ClusterId parent = f.hier.parent(child);
  // p(1) = 8 in base 3.
  EXPECT_EQ(f.cg.vsa_delay(child, parent), Duration::millis(2) * 8);
  EXPECT_EQ(f.cg.vsa_delay(parent, child), Duration::millis(2) * 8);
  // Level-0 child: p(0) = 2.
  const ClusterId leaf = f.at(4, 4, 0);
  EXPECT_EQ(f.cg.vsa_delay(leaf, f.hier.parent(leaf)), Duration::millis(2) * 2);
}

TEST(CGcast, NeighborOfNeighborDelayIsRuleC) {
  Fixture f;
  // Level-1 clusters two blocks apart: 2·n(1) = 10.
  EXPECT_EQ(f.cg.vsa_delay(f.at(4, 4, 1), f.at(10, 4, 1)),
            Duration::millis(2) * 10);
}

TEST(CGcast, ChildOfNeighborIsWithinTwoHops) {
  Fixture f;
  // Level-1 cluster to a level-0 child of its neighbour (the findAck
  // pointer chase): treated like rule (c) at the higher level.
  const ClusterId from = f.at(4, 4, 1);
  const ClusterId to = f.at(7, 4, 0);  // inside neighbouring level-1 block
  EXPECT_EQ(f.cg.vsa_delay(from, to), Duration::millis(2) * 10);
}

TEST(CGcast, NonLocalSendIsAProtocolError) {
  Fixture f;
  Message m;
  m.type = MsgKind::kGrow;
  m.from_cluster = f.at(0, 0, 0);
  // (0,0) level 0 → (20,20) level 0 is far outside two hops.
  EXPECT_THROW(f.cg.send(f.at(0, 0, 0), f.at(20, 20, 0), m), vs::Error);
}

TEST(CGcast, ClientSendDelayIsDeltaAndDeliveryWorks) {
  Fixture f;
  ClusterId got;
  f.cg.set_tracker_sink([&](ClusterId dest, const Message&) { got = dest; });
  Message m;
  m.type = MsgKind::kGrow;
  const RegionId r = f.hier.grid().region_at(3, 3);
  m.from_cluster = f.hier.cluster_of(r, 0);
  f.cg.send_from_client(r, m);
  EXPECT_EQ(f.cg.in_transit().size(), 1u);
  f.sched.run();
  EXPECT_EQ(f.sched.now().count(), Duration::millis(1).count());  // δ
  EXPECT_EQ(got, f.hier.cluster_of(r, 0));
  EXPECT_TRUE(f.cg.in_transit().empty());
}

TEST(CGcast, BroadcastToClientsDelayIsDeltaPlusE) {
  Fixture f;
  RegionId got;
  f.cg.set_client_sink([&](RegionId region, const Message&) { got = region; });
  Message m;
  m.type = MsgKind::kFound;
  const ClusterId c0 = f.at(5, 5, 0);
  m.from_cluster = c0;
  f.cg.broadcast_to_clients(c0, m);
  f.sched.run();
  EXPECT_EQ(f.sched.now().count(), Duration::millis(2).count());  // δ+e
  EXPECT_EQ(got, f.hier.grid().region_at(5, 5));
}

TEST(CGcast, WorkEqualsHeadDistance) {
  Fixture f;
  f.cg.set_tracker_sink([](ClusterId, const Message&) {});
  const ClusterId a = f.at(4, 4, 1);
  const ClusterId b = f.at(7, 4, 1);
  Message m;
  m.type = MsgKind::kGrow;
  m.from_cluster = a;
  f.cg.send(a, b, m);
  EXPECT_EQ(f.counters.messages(MsgKind::kGrow), 1);
  EXPECT_EQ(f.counters.work(MsgKind::kGrow), f.hier.head_distance(a, b));
  EXPECT_EQ(f.counters.messages_at_level(1), 1);
  f.sched.run();
}

TEST(CGcast, DropsToFailedVsa) {
  Fixture f;
  int delivered = 0;
  f.cg.set_tracker_sink([&](ClusterId, const Message&) { ++delivered; });
  const ClusterId b = f.at(7, 4, 1);
  f.cg.set_vsa_alive([&](RegionId u) { return u != f.hier.head(b); });
  Message m;
  m.type = MsgKind::kGrow;
  m.from_cluster = f.at(4, 4, 1);
  f.cg.send(f.at(4, 4, 1), b, m);
  f.sched.run();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(f.cg.dropped(), 1);
}

TEST(CGcast, ObserverSeesEverySend) {
  Fixture f;
  f.cg.set_tracker_sink([](ClusterId, const Message&) {});
  int observed = 0;
  f.cg.add_send_observer([&](const Message&, ClusterId, ClusterId, Level,
                             std::int64_t) { ++observed; });
  Message m;
  m.type = MsgKind::kShrink;
  m.from_cluster = f.at(4, 4, 1);
  f.cg.send(f.at(4, 4, 1), f.at(7, 4, 1), m);
  f.cg.send_from_client(f.hier.grid().region_at(0, 0), m);
  EXPECT_EQ(observed, 2);
  f.sched.run();
}

TEST(CGcast, InTransitReportsDeliveryTime) {
  Fixture f;
  f.cg.set_tracker_sink([](ClusterId, const Message&) {});
  Message m;
  m.type = MsgKind::kGrowPar;
  m.from_cluster = f.at(4, 4, 1);
  f.cg.send(f.at(4, 4, 1), f.at(7, 4, 1), m);
  const auto in_flight = f.cg.in_transit();
  ASSERT_EQ(in_flight.size(), 1u);
  EXPECT_EQ(in_flight[0].deliver_at.count(), (Duration::millis(2) * 5).count());
  EXPECT_EQ(in_flight[0].from, f.at(4, 4, 1));
  EXPECT_EQ(in_flight[0].to, f.at(7, 4, 1));
  f.sched.run();
}

TEST(CGcast, RejectsSelfSendAndBadConfig) {
  Fixture f;
  Message m;
  m.type = MsgKind::kGrow;
  EXPECT_THROW(f.cg.send(f.at(1, 1, 1), f.at(1, 1, 1), m), vs::Error);
  Scheduler s2;
  WorkCounters c2{2};
  EXPECT_THROW(CGcast(s2, f.hier, CGcastConfig{Duration::zero(), Duration::zero()}, c2),
               vs::Error);
}

// --- send_to_nbrs against a loop of send() ---------------------------------

/// The channel faults a FanOutWorld's seeded oracle injects.
enum class Faults { kNone, kDropOnly, kAll };

/// One C-gcast service with every send-side surface recorded: counters,
/// observer calls and trace records, plus (optionally) a seeded
/// channel-fault oracle. Nothing is delivered: the comparison reads the
/// in-flight slab.
struct FanOutWorld {
  using Observed =
      std::tuple<MsgKind, vs::obs::OpId, ClusterId, ClusterId, Level,
                 std::int64_t>;

  FanOutWorld(const vs::hier::ClusterHierarchy& h, Faults faults)
      : counters(h.max_level()),
        cg(sched, h, CGcastConfig{Duration::millis(1), Duration::millis(1)},
           counters),
        fault_rng(11) {
    trace.set_enabled(true);
    cg.set_trace_recorder(&trace);
    cg.add_send_observer([this](const Message& m, ClusterId from,
                                ClusterId to, Level l, std::int64_t hops) {
      observed.emplace_back(m.type, m.op, from, to, l, hops);
    });
    if (faults == Faults::kDropOnly) {
      cg.set_channel_faults([this](const Message&) {
        CGcast::ChannelDecision d;
        d.drop = fault_rng.chance(0.2);
        return d;
      });
    } else if (faults == Faults::kAll) {
      cg.set_channel_faults([this](const Message&) {
        CGcast::ChannelDecision d;
        d.drop = fault_rng.chance(0.1);
        d.duplicate = fault_rng.chance(0.1);
        if (fault_rng.chance(0.3)) {
          d.advance = Duration::micros(fault_rng.uniform_int(1, 3000));
        }
        return d;
      });
    }
  }

  Scheduler sched;
  WorkCounters counters;
  CGcast cg;
  vs::Rng fault_rng;
  vs::obs::TraceRecorder trace;
  std::vector<Observed> observed;
};

/// Sends one message per cluster and fan-out flavour through `world`,
/// either as send_to_nbrs or as the equivalent loop of send().
void drive_fan_outs(FanOutWorld& w, const vs::hier::ClusterHierarchy& h,
                    bool fan_out) {
  for (std::size_t i = 0; i < h.num_clusters(); ++i) {
    const ClusterId c{static_cast<ClusterId::rep_type>(i)};
    const auto nbrs = h.nbrs(c);
    Message m;
    m.from_cluster = c;
    m.target = vs::TargetId{static_cast<vs::TargetId::rep_type>(i % 5)};
    // growPar with an explicit op; findQuery to nbrs − {one neighbour};
    // shrinkUpd stamped by the ambient op.
    m.type = MsgKind::kGrowPar;
    m.op = vs::obs::make_op(vs::obs::OpClass::kMove, i);
    if (fan_out) {
      w.cg.send_to_nbrs(c, m);
    } else {
      for (const ClusterId b : nbrs) w.cg.send(c, b, m);
    }
    m.type = MsgKind::kFindQuery;
    m.find_id = vs::FindId{static_cast<vs::FindId::rep_type>(i)};
    const ClusterId except = nbrs.empty() ? ClusterId{} : nbrs[i % nbrs.size()];
    if (fan_out) {
      w.cg.send_to_nbrs(c, m, except);
    } else {
      for (const ClusterId b : nbrs) {
        if (b != except) w.cg.send(c, b, m);
      }
    }
    m.type = MsgKind::kShrinkUpd;
    m.find_id = vs::FindId{};
    m.op = vs::obs::kBackgroundOp;
    w.cg.set_ambient_op(vs::obs::make_op(vs::obs::OpClass::kMove, i + 1));
    if (fan_out) {
      w.cg.send_to_nbrs(c, m);
    } else {
      for (const ClusterId b : nbrs) w.cg.send(c, b, m);
    }
    w.cg.set_ambient_op(vs::obs::kBackgroundOp);
  }
}

void expect_same_sends(const vs::hier::ClusterHierarchy& h, Faults faults) {
  FanOutWorld fan(h, faults);
  FanOutWorld loop(h, faults);
  drive_fan_outs(fan, h, true);
  drive_fan_outs(loop, h, false);

  const auto a = fan.cg.in_transit();
  const auto b = loop.cg.in_transit();
  ASSERT_EQ(a.size(), b.size());
  ASSERT_FALSE(a.empty());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE(i);
    ASSERT_EQ(a[i].to, b[i].to);
    ASSERT_EQ(a[i].deliver_at, b[i].deliver_at);
    ASSERT_EQ(a[i].from, b[i].from);
    ASSERT_EQ(a[i].msg.type, b[i].msg.type);
    ASSERT_EQ(a[i].msg.target, b[i].msg.target);
    ASSERT_EQ(a[i].msg.find_id, b[i].msg.find_id);
    ASSERT_EQ(a[i].msg.op, b[i].msg.op);
  }
  for (int k = 0; k < static_cast<int>(MsgKind::kCount); ++k) {
    const auto kind = static_cast<MsgKind>(k);
    EXPECT_EQ(fan.counters.messages(kind), loop.counters.messages(kind));
    EXPECT_EQ(fan.counters.work(kind), loop.counters.work(kind));
  }
  for (Level l = 0; l <= h.max_level(); ++l) {
    EXPECT_EQ(fan.counters.messages_at_level(l),
              loop.counters.messages_at_level(l));
    EXPECT_EQ(fan.counters.work_at_level(l), loop.counters.work_at_level(l));
  }
  EXPECT_EQ(fan.counters.duplicated(), loop.counters.duplicated());
  EXPECT_EQ(fan.counters.jittered(), loop.counters.jittered());
  EXPECT_EQ(fan.cg.lost(), loop.cg.lost());
  EXPECT_EQ(fan.observed, loop.observed);
  const auto ta = fan.trace.events();
  const auto tb = loop.trace.events();
  ASSERT_EQ(ta.size(), tb.size());
  EXPECT_EQ(std::memcmp(ta.data(), tb.data(), ta.size() * sizeof(ta[0])), 0);
  if (faults != Faults::kNone) {
    EXPECT_GT(fan.cg.lost(), 0);
  }
  if (faults == Faults::kAll) {
    EXPECT_GT(fan.counters.duplicated(), 0);
    EXPECT_GT(fan.counters.jittered(), 0);
  }
}

TEST(CGcastFanOut, MatchesPerNeighbourSendsOnEveryCluster) {
  const vs::hier::GridHierarchy grid(27, 27, 3);
  const vs::hier::StripHierarchy strip(81, 3);
  const vs::hier::TorusHierarchy torus(27, 3);
  for (const vs::hier::ClusterHierarchy* h :
       {static_cast<const vs::hier::ClusterHierarchy*>(&grid),
        static_cast<const vs::hier::ClusterHierarchy*>(&strip),
        static_cast<const vs::hier::ClusterHierarchy*>(&torus)}) {
    SCOPED_TRACE(h->num_clusters());
    {
      SCOPED_TRACE("reliable");
      expect_same_sends(*h, Faults::kNone);
    }
    {
      SCOPED_TRACE("drop-only channel faults");
      expect_same_sends(*h, Faults::kDropOnly);
    }
    {
      SCOPED_TRACE("drop, duplicate and jitter channel faults");
      expect_same_sends(*h, Faults::kAll);
    }
  }
}

TEST(CGcastFanOut, DelayIsRuleAOnEveryLevel) {
  // On these hierarchies n(l) != p(l) at every level, so a fan-out filed
  // under rule (b) would show here as well as in the comparison above.
  Fixture f;
  f.cg.set_tracker_sink([](ClusterId, const Message&) {});
  for (Level l = 0; l < f.hier.max_level(); ++l) {
    ASSERT_NE(f.hier.n(l), f.hier.p(l));
    const ClusterId c = f.at(13, 13, l);
    Message m;
    m.type = MsgKind::kShrinkUpd;
    m.from_cluster = c;
    f.cg.send_to_nbrs(c, m);
    const auto in_flight = f.cg.in_transit();
    ASSERT_EQ(in_flight.size(), f.hier.nbrs(c).size());
    for (const auto& in : in_flight) {
      EXPECT_EQ((in.deliver_at - f.sched.now()).count(),
                (Duration::millis(2) * f.hier.n(l)).count());
    }
    f.sched.run();
  }
}

}  // namespace
}  // namespace vstest
