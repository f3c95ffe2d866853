// E11 — ablations of implementation design choices (DESIGN.md §2):
//  (a) clusterhead placement: the paper allows any member as head; the
//      choice moves the constants of every head-to-head message.
//  (b) timer policy: inequality (1) fixes a *minimum* shrink slack; extra
//      slack trades update latency for tolerance (and changes nothing
//      else — work is timer-independent).
// Each policy / slack multiple is an independent trial.

#include <array>

#include "hier/grid_hierarchy.hpp"

#include "bench_util.hpp"

namespace {

using namespace vsbench;

struct RunStats {
  double move_work_per_step;
  double settle_ms_per_step;  // virtual time to quiescence per move
  std::int64_t find_work;
};

RunStats run(const hier::GridHierarchy& h, tracking::NetworkConfig cfg,
             BenchObs& obs, std::size_t trial, BenchMonitor* mon = nullptr) {
  tracking::TrackingNetwork net(h, std::move(cfg));
  const auto telemetry = attach_telemetry(net);
  const RegionId start = h.grid().region_at(40, 40);
  const TargetId t = net.add_evader(start);
  net.run_to_quiescence();
  const auto wd = mon != nullptr ? mon->attach(net, t) : nullptr;
  const auto walk = random_walk(h.tiling(), start, 120, 0xAB1A);
  const auto work0 = net.counters().move_work();
  const auto t0 = net.now();
  for (std::size_t i = 1; i < walk.size(); ++i) {
    net.move_evader(t, walk[i]);
    net.run_to_quiescence();
  }
  const double steps = static_cast<double>(walk.size() - 1);
  const FindId f = net.start_find(h.grid().region_at(10, 10), t);
  net.run_to_quiescence();
  if (mon != nullptr) mon->finish(trial, wd.get());
  obs.record(trial, net);
  return RunStats{
      static_cast<double>(net.counters().move_work() - work0) / steps,
      static_cast<double>((net.now() - t0).count()) / steps / 1000.0,
      net.find_result(f).work};
}

}  // namespace

int main(int argc, char** argv) {
  using namespace vsbench;
  const auto opt = parse_bench_args(argc, argv);
  banner("E11: design-choice ablations",
         "(a) clusterhead placement moves the message-distance constants;\n"
         "(b) shrink-timer slack trades settle latency, not work.\n"
         "world: 81x81 base 3; same 120-step walk everywhere.");

  // Trials 0-2: the three head policies; trials 3-5: the slack multiples.
  BenchObs obs("e11_ablation", 6);
  BenchMonitor mon("e11_ablation", opt, 6);

  std::cout << "-- (a) head placement --\n";
  {
    struct Named {
      const char* name;
      hier::HeadPolicy policy;
    };
    constexpr std::array<Named, 3> kPolicies{
        Named{"center", hier::HeadPolicy::kCenter},
        Named{"min-corner", hier::HeadPolicy::kMinRegion},
        Named{"random", hier::HeadPolicy::kRandom}};
    stats::Table table(
        {"policy", "move_w/step", "settle_ms/step", "find_work"});
    const auto rows = sweep(opt, kPolicies.size(), [&](std::size_t trial) {
      const Named n = kPolicies[trial];
      hier::GridHierarchy h(81, 81, 3, n.policy, 17);
      const RunStats s =
          run(h, tracking::NetworkConfig{}, obs, trial, &mon);
      return std::vector<stats::Table::Cell>{
          std::string(n.name), s.move_work_per_step, s.settle_ms_per_step,
          s.find_work};
    });
    for (const auto& row : rows) table.add_row(row);
    table.print(std::cout);
  }

  std::cout << "\n-- (b) shrink-timer slack (× the paper-default) --\n";
  {
    constexpr std::array<int, 3> kSlacks{1, 2, 4};
    stats::Table table(
        {"slack_multiple", "move_w/step", "settle_ms/step", "find_work"});
    const auto rows = sweep(opt, kSlacks.size(), [&](std::size_t trial) {
      const int mult = kSlacks[trial];
      // Per-trial hierarchy: the timer lambdas below capture it, and
      // trials must not share captured state across threads.
      hier::GridHierarchy h(81, 81, 3);
      tracking::NetworkConfig cfg;
      tracking::TimerPolicy timers;
      const auto de = cfg.cgcast.delta + cfg.cgcast.e;
      timers.grow = [de](Level) { return de; };
      timers.shrink = [de, &h, mult](Level l) {
        return de + de * (mult * (h.n(l) + 1));
      };
      cfg.timers = timers;
      const RunStats s = run(h, std::move(cfg), obs, 3 + trial, &mon);
      return std::vector<stats::Table::Cell>{
          std::int64_t{mult}, s.move_work_per_step, s.settle_ms_per_step,
          s.find_work};
    });
    for (const auto& row : rows) table.add_row(row);
    table.print(std::cout);
  }
  obs.maybe_write(opt);

  std::cout << "\nshape check: (a) centre heads minimise per-step work "
               "(shorter head-to-head hops); corner and random placement "
               "only scale constants. (b) work per step is identical across "
               "slack multiples — timers gate *when* shrinks run, not what "
               "runs — while settle time grows with the slack.\n";
  return mon.report();
}
