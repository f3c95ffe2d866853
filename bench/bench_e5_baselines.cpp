// E5 — positioning against prior schemes (paper §I): total cost of a mixed
// move/find workload for VINESTALK vs the analytic baselines.
//
// A 120-step random walk on an 81×81 base-3 grid with a find from a random
// origin every k moves, k ∈ {10, 3, 1}. Expected shape: RootDirectory pays
// Θ(D) on both ops (worst overall); TreeDirectory dithers on moves;
// ExpandingRing is unbeatable on moves but pays Θ(d²) finds — VINESTALK is
// the only scheme cheap on both sides, and the find-heavy column shows the
// crossover where structure maintenance pays for itself.
//
// The three regime-(a) mixes and the regime-(b) adversarial workload are
// four independent trials run concurrently.

#include <array>

#include "baselines/expanding_ring.hpp"
#include "baselines/root_directory.hpp"
#include "baselines/tree_directory.hpp"
#include "bench_util.hpp"

namespace {

using namespace vsbench;

struct Workload {
  std::vector<RegionId> walk;       // step i: move to walk[i]
  std::vector<int> find_after;      // number of finds after step i
  std::vector<RegionId> find_from;  // origins, consumed in order
};

Workload make_workload(const geo::Tiling& tiling, RegionId start, int steps,
                       int find_every, std::uint64_t seed) {
  Workload w;
  w.walk = random_walk(tiling, start, steps, seed);
  Rng rng{seed ^ 0xF1Fu};
  w.find_after.assign(w.walk.size(), 0);
  for (std::size_t i = 1; i < w.walk.size(); ++i) {
    if (static_cast<int>(i) % find_every == 0) {
      w.find_after[i] = 1;
      w.find_from.push_back(RegionId{static_cast<RegionId::rep_type>(
          rng.uniform_int(0, static_cast<std::int64_t>(tiling.num_regions()) - 1))});
    }
  }
  return w;
}

struct Cost {
  double move_work = 0;
  double find_work = 0;
  [[nodiscard]] double total() const { return move_work + find_work; }
};

Cost run_model(vs::baselines::LocationService& svc, const Workload& w) {
  Cost c;
  std::size_t next_find = 0;
  svc.init(w.walk.front());
  for (std::size_t i = 1; i < w.walk.size(); ++i) {
    c.move_work += static_cast<double>(svc.move(w.walk[i]).work);
    for (int k = 0; k < w.find_after[i]; ++k) {
      c.find_work += static_cast<double>(svc.find(w.find_from[next_find++]).work);
    }
  }
  return c;
}

Cost run_vinestalk(const hier::GridHierarchy& h, const Workload& w,
                   BenchObs* obs, std::size_t trial,
                   BenchMonitor* mon = nullptr) {
  tracking::TrackingNetwork net(h, tracking::NetworkConfig{});
  const auto telemetry = attach_telemetry(net);
  const TargetId t = net.add_evader(w.walk.front());
  net.run_to_quiescence();
  const auto wd = mon != nullptr ? mon->attach(net, t) : nullptr;
  std::size_t next_find = 0;
  for (std::size_t i = 1; i < w.walk.size(); ++i) {
    net.move_evader(t, w.walk[i]);
    net.run_to_quiescence();
    for (int k = 0; k < w.find_after[i]; ++k) {
      net.start_find(w.find_from[next_find++], t);
      net.run_to_quiescence();
    }
  }
  if (mon != nullptr) mon->finish(trial, wd.get());
  if (obs != nullptr) obs->record(trial, net);
  Cost c;
  c.move_work = static_cast<double>(net.counters().move_work());
  c.find_work = static_cast<double>(net.counters().find_work());
  return c;
}

stats::Table mix_table() {
  return stats::Table(
      {"find_every", "scheme", "move_work", "find_work", "total_work"});
}

stats::Table run_mix(const hier::GridHierarchy& h, const Workload& w,
                     std::int64_t key, BenchObs* obs, std::size_t trial,
                     BenchMonitor* mon = nullptr) {
  stats::Table table = mix_table();
  const Cost vine = run_vinestalk(h, w, obs, trial, mon);
  table.add_row({key, std::string("VINESTALK"), vine.move_work,
                 vine.find_work, vine.total()});
  baselines::TreeDirectory tree(h);
  const Cost tc = run_model(tree, w);
  table.add_row({key, std::string("TreeDirectory"), tc.move_work,
                 tc.find_work, tc.total()});
  baselines::RootDirectory root(h);
  const Cost rc = run_model(root, w);
  table.add_row({key, std::string("RootDirectory"), rc.move_work,
                 rc.find_work, rc.total()});
  baselines::ExpandingRingSearch ring(h.tiling());
  const Cost gc = run_model(ring, w);
  table.add_row({key, std::string("ExpandingRing"), gc.move_work,
                 gc.find_work, gc.total()});
  return table;
}

stats::Table run_adversarial(BenchObs* obs, std::size_t trial,
                             BenchMonitor* mon) {
  hier::GridHierarchy h(243, 243, 3);
  Workload w;
  const RegionId a = h.grid().region_at(80, 121);
  const RegionId b = h.grid().region_at(81, 121);
  w.walk.push_back(a);
  Rng rng{0xE5B};
  for (int i = 1; i <= 120; ++i) w.walk.push_back(i % 2 == 1 ? b : a);
  w.find_after.assign(w.walk.size(), 0);
  for (std::size_t i = 3; i < w.walk.size(); i += 3) {
    w.find_after[i] = 1;
    // Origin within distance 5, on the far side of the boundary.
    w.find_from.push_back(h.grid().region_at(
        76 + static_cast<int>(rng.uniform_int(0, 3)),
        119 + static_cast<int>(rng.uniform_int(0, 4))));
  }
  return run_mix(h, w, 3, obs, trial, mon);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace vsbench;
  const auto opt = parse_bench_args(argc, argv);
  banner("E5: mixed workloads vs baselines (§I comparison)",
         "Two regimes. (a) benign: small world, random walk, random finds —\n"
         "idealised baselines (1 msg/op, no notifications, no timers) can\n"
         "win; the structure's upkeep is the price of worst-case locality.\n"
         "(b) adversarial: large world, boundary dithering, local finds —\n"
         "exactly the §I motivation; VINESTALK must win decisively while\n"
         "TreeDirectory dithers, RootDirectory pays Θ(D)/op and\n"
         "ExpandingRing explodes with find density.");

  constexpr std::array<int, 3> kFindEvery{10, 3, 1};
  // Trials 0-2: regime (a) mixes. Trial 3: the regime (b) workload.
  BenchObs obs("e5_baselines", kFindEvery.size() + 1);
  BenchMonitor mon("e5_baselines", opt, kFindEvery.size() + 1);
  auto tables = sweep(opt, kFindEvery.size() + 1, [&](std::size_t trial) {
    if (trial == kFindEvery.size()) {
      return run_adversarial(&obs, trial, &mon);
    }
    const int find_every = kFindEvery[trial];
    hier::GridHierarchy h(81, 81, 3);
    const Workload w = make_workload(
        h.tiling(), h.grid().region_at(40, 40), 120, find_every,
        0xE5 + static_cast<std::uint64_t>(find_every));
    return run_mix(h, w, find_every, &obs, trial, &mon);
  });

  std::cout << "-- regime (a): 81x81, 120-step random walk, random-origin "
               "finds --\n";
  stats::Table regime_a = mix_table();
  for (std::size_t i = 0; i < kFindEvery.size(); ++i) {
    regime_a.append(std::move(tables[i]));
  }
  regime_a.print(std::cout);

  std::cout << "\n-- regime (b): 243x243, dithering across the level-4 "
               "boundary (x = 80|81),\n   finds every 3 steps from ≤ 5 "
               "regions away (across the same boundary) --\n";
  tables.back().print(std::cout);
  obs.maybe_write(opt);

  std::cout << "\nshape check: in regime (b) VINESTALK's total is the "
               "smallest by a wide margin — locality under dithering is "
               "the paper's core claim; in regime (a) the idealised "
               "directories' head start reflects their free bookkeeping, "
               "not better asymptotics.\n";
  return mon.report();
}
