// E12 — robustness to channel loss (fault-injection study).
//
// The paper's C-gcast is reliable; this bench measures graceful (or not)
// degradation when messages are lost uniformly at random, with and without
// the §VII heartbeat stabilizer: structure consistency after a walk, find
// success, and the repair traffic spent. Each (loss rate, stabilizer)
// combination is an independent trial.
//
// Loss is driven through a fault::FaultPlan — a single loss window
// covering the whole run, with a fixed seed — embedded in each trial's
// ScenarioSpec, so incidents captured here replay with the identical loss
// sequence.

#include <array>

#include "ext/stabilizer.hpp"
#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"
#include "spec/consistency.hpp"

#include "bench_util.hpp"

namespace {

using namespace vsbench;

constexpr std::int64_t kStepUs = 200'000;
constexpr std::int64_t kSettleUs = 4'000'000;
constexpr std::int64_t kHeartbeatUs = 400'000;
// Covers placement, walk, settle, and the post-walk finds.
constexpr std::int64_t kLossWindowEndUs = 1'000'000'000;

struct Outcome {
  bool consistent;
  int finds_ok;
  int finds_total;
  std::int64_t lost;
  std::int64_t repairs;
};

Outcome run(double loss, bool stabilize, BenchObs& obs, std::size_t trial,
            BenchMonitor* mon = nullptr) {
  GridNet g = make_grid(27, 3);
  const RegionId start = g.at(13, 13);

  fault::FaultPlan plan;
  plan.seed = 0x10555;
  if (loss > 0.0) plan.loss_bursts.push_back({0, kLossWindowEndUs, loss, 0});

  // A windows-only plan arms before the target is placed: the initial
  // detection traffic runs over the lossy channel too.
  std::unique_ptr<fault::FaultInjector> inj;
  if (!plan.empty()) {
    inj = std::make_unique<fault::FaultInjector>(*g.net, plan);
    inj->arm();
  }

  const TargetId t = g.net->add_evader(start);
  g.net->run_to_quiescence();

  obs::ScenarioSpec scenario = walk_scenario(27, 3, start, 80, 0xE12);
  scenario.step_every_us = kStepUs;
  scenario.settle_us = kSettleUs;
  scenario.heartbeat_period_us = stabilize ? kHeartbeatUs : 0;
  if (!plan.empty()) scenario.fault_plan = plan.to_string();
  // Lossy channels can legitimately strand stale pointers; under --monitor
  // the bare (unstabilized) lossy trials are expected to report violations
  // — now with fault-replayable bundles.
  const auto wd = mon != nullptr ? mon->attach(*g.net, t, scenario) : nullptr;

  std::unique_ptr<ext::Stabilizer> stab;
  if (stabilize) {
    stab = std::make_unique<ext::Stabilizer>(*g.net, t,
                                             sim::Duration::micros(kHeartbeatUs));
    stab->start();
  }

  const auto walk = random_walk(g.hierarchy->tiling(), start, 80, 0xE12);
  for (std::size_t i = 1; i < walk.size(); ++i) {
    g.net->move_evader(t, walk[i]);
    g.net->run_for(sim::Duration::micros(kStepUs));
  }
  g.net->run_for(sim::Duration::micros(kSettleUs));
  if (stab) stab->stop();
  g.net->run_to_quiescence();

  Outcome out{};
  out.consistent =
      vs::spec::check_consistent(g.net->snapshot(t), walk.back()).ok();
  out.lost = g.net->cgcast().lost();
  out.repairs = stab ? stab->repairs() : 0;
  // Harvest the monitor before the finds: the final check then runs at the
  // same virtual time as a scenario replay's.
  if (mon != nullptr) mon->finish(trial, wd.get());
  Rng rng{0x12E};
  out.finds_total = 10;
  for (int i = 0; i < out.finds_total; ++i) {
    const RegionId origin{static_cast<RegionId::rep_type>(rng.uniform_int(
        0, static_cast<std::int64_t>(g.hierarchy->tiling().num_regions()) - 1))};
    const FindId f = g.net->start_find(origin, t);
    g.net->run_to_quiescence();
    if (g.net->find_result(f).done &&
        g.net->find_result(f).found_region == walk.back()) {
      ++out.finds_ok;
    }
  }
  obs.record(trial, *g.net);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace vsbench;
  const auto opt = parse_bench_args(argc, argv);
  banner("E12: channel-loss fault injection",
         "claim: under lossy channels the bare protocol degrades (stale\n"
         "       pointers accumulate) while heartbeat repair restores a\n"
         "       consistent, serviceable structure.\n"
         "world: 27x27 base 3; 80-step walk; 10 post-walk finds.");

  constexpr std::array<double, 4> kLoss{0.0, 0.01, 0.03, 0.08};
  stats::Table table({"loss_%", "stabilizer", "msgs_lost", "repair_msgs",
                      "consistent", "finds_ok/10"});
  // Trial 2i: loss[i] without stabilizer; trial 2i+1: with.
  BenchObs obs("e12_message_loss", kLoss.size() * 2);
  BenchMonitor mon("e12_message_loss", opt, kLoss.size() * 2);
  const auto rows = sweep(opt, kLoss.size() * 2, [&](std::size_t trial) {
    const double loss = kLoss[trial / 2];
    const bool stabilize = trial % 2 == 1;
    const Outcome o = run(loss, stabilize, obs, trial, &mon);
    return std::vector<stats::Table::Cell>{
        loss * 100.0, std::string(stabilize ? "on" : "off"), o.lost,
        o.repairs, std::string(o.consistent ? "yes" : "no"),
        std::int64_t{o.finds_ok}};
  });
  for (const auto& row : rows) table.add_row(row);
  table.print(std::cout);
  obs.maybe_write(opt);
  std::cout << "\nshape check: loss 0 is perfect either way; with loss > 0 "
               "the bare run loses consistency and finds, while the "
               "stabilized run stays serviceable with repair traffic "
               "scaling with the loss rate.\n";
  return mon.report();
}
