// E9 — engineering microbenchmarks (google-benchmark): raw simulator
// throughput, so the experiment benches' virtual-time measurements can be
// related to wall-clock cost and regressions in the substrate show up.
// BM_SchedulerDaemonMix replays the serving daemon's measured delay mix,
// which the event queue's delay classes serve without its fallback heap.
// Every figure is a google-benchmark case, so the binary takes the
// library's own flags (--benchmark_filter, --benchmark_min_time,
// --benchmark_format=json, ...) and leaves no file behind.
//
// BM_HierarchyConstruction and BM_NetworkConstruction time building the
// daemon's world, layer by layer, on 27², 81² and 243² grids.
//
// Each observability surface is timed in its runtime states on one shared
// walk (Walk81 below): BM_MoveAndQuiesce{Watched,Telemetered,Profiled,
// Ledgered}/0 times the walk bare, /1 and /2 with the surface attached
// (disabled then enabled; cadence then every-change for the watchdog).
// Only the walk is timed, not building the world or the surface. The
// serving path end to end is timed by perfbench/, not here.

#include <benchmark/benchmark.h>
#include <malloc.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_util.hpp"
#include "obs/ledger/ledger.hpp"
#include "obs/profile/profiler.hpp"
#include "obs/trace.hpp"
#include "sim/scheduler.hpp"

namespace {

using namespace vsbench;

// A self-rescheduling event chain: steady-state push/pop traffic with a
// live queue, the shape of real protocol timers. The capture (reference +
// two integers) fits EventAction's inline buffer, as all simulator events
// must.
struct Chain {
  sim::Scheduler& sched;
  std::uint64_t left;
  std::uint64_t jitter;
  void operator()() {
    if (--left > 0) {
      sched.schedule_after(sim::Duration::micros(
                               static_cast<std::int64_t>(jitter % 977 + 1)),
                           Chain{sched, left, jitter * 6364136223846793005ULL + 1});
    }
  }
};

std::uint64_t run_chains(std::uint64_t total_events) {
  sim::Scheduler sched;
  constexpr std::uint64_t kChains = 64;
  for (std::uint64_t c = 0; c < kChains; ++c) {
    sched.schedule_after(sim::Duration::micros(static_cast<std::int64_t>(c)),
                         Chain{sched, total_events / kChains, c + 1});
  }
  sched.run();
  return sched.events_fired();
}

// The same chain with a record point in the event body — the exact gate
// pattern the protocol layers use (see vsa::CGcast::record). With the
// recorder disabled this measures the pointer-test-plus-bool-load cost of
// an idle record point; enabled, the full 64-byte append. The extra
// pointer keeps the capture at 32 bytes, still inside EventAction's
// inline buffer.
struct TracedChain {
  sim::Scheduler& sched;
  obs::TraceRecorder* trace;
  std::uint64_t left;
  std::uint64_t jitter;
  void operator()() {
    if (trace != nullptr && trace->enabled()) {
      trace->append(obs::TraceEvent{
          .time_us = sched.now().count(),
          .seq = sched.current_seq(),
          .cause = sched.current_cause(),
          .find = -1,
          .a = -1,
          .b = -1,
          .target = -1,
          .arg = 0,
          .level = -1,
          .kind = static_cast<std::uint8_t>(obs::TraceKind::kTimerFire),
          .msg = obs::kNoMsg,
          .extra = 0,
          .op = obs::kBackgroundOp,
          .pad0 = 0});
    }
    if (--left > 0) {
      sched.schedule_after(
          sim::Duration::micros(static_cast<std::int64_t>(jitter % 977 + 1)),
          TracedChain{sched, trace, left,
                      jitter * 6364136223846793005ULL + 1});
    }
  }
};

std::uint64_t run_traced_chains(std::uint64_t total_events,
                                obs::TraceRecorder& trace) {
  sim::Scheduler sched;
  constexpr std::uint64_t kChains = 64;
  for (std::uint64_t c = 0; c < kChains; ++c) {
    sched.schedule_after(
        sim::Duration::micros(static_cast<std::int64_t>(c)),
        TracedChain{sched, &trace, total_events / kChains, c + 1});
  }
  sched.run();
  return sched.events_fired();
}

void BM_SchedulerEventThroughput(benchmark::State& state) {
  for (auto _ : state) {
    sim::Scheduler sched;
    const auto n = state.range(0);
    for (std::int64_t i = 0; i < n; ++i) {
      sched.schedule_after(sim::Duration::micros(i % 977), [] {});
    }
    benchmark::DoNotOptimize(sched.run());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SchedulerEventThroughput)->Arg(1000)->Arg(100000);

void BM_SchedulerSteadyState(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_chains(static_cast<std::uint64_t>(state.range(0))));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  state.counters["heap_fallbacks"] = benchmark::Counter(
      static_cast<double>(sim::EventAction::heap_fallbacks()));
}
BENCHMARK(BM_SchedulerSteadyState)->Arg(100000);

void BM_SchedulerSteadyStateTraced(benchmark::State& state) {
  // Arg 0: tracing runtime-disabled (idle gate); arg 1: enabled (full
  // append).
  obs::TraceRecorder trace;
  trace.set_enabled(state.range(1) != 0);
  for (auto _ : state) {
    trace.clear();
    trace.set_enabled(state.range(1) != 0);
    benchmark::DoNotOptimize(
        run_traced_chains(static_cast<std::uint64_t>(state.range(0)), trace));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  state.counters["trace_events"] =
      benchmark::Counter(static_cast<double>(trace.size()));
}
BENCHMARK(BM_SchedulerSteadyStateTraced)
    ->Args({100000, 0})
    ->Args({100000, 1});

// The daemon's queue shape: perfbench steady_mixed's delay mix, measured
// on its seed 1, session 0 (delay in ms, pushes in the session) — C-gcast's
// δ, δ+e and (δ+e)·{n(l), p(l), 2n(l)} plus the per-level timers.
constexpr std::array<std::array<std::int64_t, 2>, 21> kDaemonDelayMix{{
    {1, 29'412},  {2, 224'814}, {4, 9'645},   {6, 18'007},  {10, 51'860},
    {14, 2'885},  {16, 2'562},  {20, 505},    {34, 13'014}, {38, 489},
    {52, 1'460},  {68, 500},    {106, 6'235}, {110, 172},   {160, 1'292},
    {212, 461},   {322, 3'038}, {326, 152},   {484, 794},   {644, 216},
    {1'940, 68},
}};

// kChains self-rescheduling chains keep ~85 events live, as the daemon's
// queue held at a pop; each push draws its delay from kDaemonDelayMix, and
// one push in 200 is a re-arm that cancels another chain's pending event
// first (the tracker's timer re-arm; 0.55% of pushes in the session).
class DaemonMix {
 public:
  static constexpr std::uint32_t kChains = 85;

  DaemonMix(std::uint64_t events, std::uint64_t seed)
      : left_(events), rng_(seed), pending_(kChains) {
    std::int64_t sum = 0;
    for (const auto& delay_pushes : kDaemonDelayMix) {
      sum += delay_pushes[1];
      cumulative_.push_back(sum);
    }
    for (std::uint32_t c = 0; c < kChains; ++c) arm(c);
  }
  // Pending events hold `this`.
  DaemonMix(const DaemonMix&) = delete;
  DaemonMix& operator=(const DaemonMix&) = delete;

  std::uint64_t run() {
    sched_.run();
    return sched_.events_fired();
  }
  [[nodiscard]] std::uint64_t fallback_pushes() const {
    return sched_.fallback_pushes();
  }

 private:
  struct Fire {
    DaemonMix* mix;
    std::uint32_t chain;
    void operator()() const { mix->fire(chain); }
  };

  std::uint64_t next() {
    rng_ = rng_ * 6364136223846793005ULL + 1442695040888963407ULL;
    return rng_ >> 33;
  }
  void arm(std::uint32_t c) {
    const auto r =
        static_cast<std::int64_t>(next() % static_cast<std::uint64_t>(
                                               cumulative_.back()));
    const auto i = static_cast<std::size_t>(
        std::upper_bound(cumulative_.begin(), cumulative_.end(), r) -
        cumulative_.begin());
    pending_[c] = sched_.schedule_after(
        sim::Duration::millis(kDaemonDelayMix[i][0]), Fire{this, c});
  }
  void fire(std::uint32_t c) {
    pending_[c] = sim::EventId{};
    if (left_ == 0) return;
    --left_;
    arm(c);
    if (next() % 200 == 0) {
      const auto other = static_cast<std::uint32_t>(next() % kChains);
      if (sched_.cancel(pending_[other])) arm(other);
    }
  }

  sim::Scheduler sched_;
  std::uint64_t left_;
  std::uint64_t rng_;
  std::vector<sim::EventId> pending_;
  std::vector<std::int64_t> cumulative_;
};

void BM_SchedulerDaemonMix(benchmark::State& state) {
  std::int64_t fired = 0;
  std::uint64_t fallbacks = 0;
  for (auto _ : state) {
    DaemonMix mix(static_cast<std::uint64_t>(state.range(0)), /*seed=*/1);
    const std::uint64_t n = mix.run();
    benchmark::DoNotOptimize(n);
    fired += static_cast<std::int64_t>(n);
    fallbacks += mix.fallback_pushes();
  }
  state.SetItemsProcessed(fired);
  state.counters["fallback_pushes"] =
      benchmark::Counter(static_cast<double>(fallbacks));
}
BENCHMARK(BM_SchedulerDaemonMix)->Arg(100000);

void BM_EventQueueCancelChurn(benchmark::State& state) {
  // Arm-then-cancel traffic (a timer re-armed before it fires): every
  // iteration recycles a slot through the free list and leaves one
  // tombstone for the heap to skim.
  sim::EventQueue q;
  const auto anchor = q.push(sim::TimePoint{1u << 30}, [] {});
  (void)anchor;
  for (auto _ : state) {
    const auto id = q.push(sim::TimePoint{1000}, [] {});
    q.cancel(id);
    benchmark::DoNotOptimize(q.size());
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["slot_capacity"] =
      benchmark::Counter(static_cast<double>(q.slot_capacity()));
}
BENCHMARK(BM_EventQueueCancelChurn);

void BM_TrialPoolSweep(benchmark::State& state) {
  // Eight small but real simulation worlds per iteration, sharded over
  // the given number of threads (deterministic merge by trial index).
  const int jobs = static_cast<int>(state.range(0));
  for (auto _ : state) {
    runner::TrialPool pool(jobs);
    const auto fired = pool.run(8, [](std::size_t trial) {
      GridNet g = make_grid(27, 3);
      const RegionId start = g.at(13, 13);
      const TargetId t = g.net->add_evader(start);
      g.net->run_to_quiescence();
      const auto walk = random_walk(g.hierarchy->tiling(), start, 20,
                                    runner::trial_seed(0xB3, trial));
      for (std::size_t i = 1; i < walk.size(); ++i) {
        g.net->move_evader(t, walk[i]);
        g.net->run_to_quiescence();
      }
      return g.net->scheduler().events_fired();
    });
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * 8);
}
BENCHMARK(BM_TrialPoolSweep)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

void BM_HierarchyConstruction(benchmark::State& state) {
  const int side = static_cast<int>(state.range(0));
  for (auto _ : state) {
    hier::GridHierarchy h(side, side, 3);
    benchmark::DoNotOptimize(h.num_clusters());
  }
}
BENCHMARK(BM_HierarchyConstruction)->Arg(27)->Arg(81)->Arg(243);

// The network vinestalk_served builds on a prebuilt hierarchy: trackers,
// replica and hosted tables, VSA directory and one client per region.
// bytes_per_region is the heap the network holds once built (mallinfo2,
// heap plus mmapped blocks, around one construction outside the timing).
void BM_NetworkConstruction(benchmark::State& state) {
  const int side = static_cast<int>(state.range(0));
  const hier::GridHierarchy h(side, side, 3);
  tracking::NetworkConfig cfg;
  cfg.model_vsa_failures = true;
  cfg.t_restart = sim::Duration::millis(5);
  const auto in_use = [] {
    const struct mallinfo2 m = mallinfo2();
    return m.uordblks + m.hblkhd;
  };
  const std::size_t before = in_use();
  std::size_t bytes = 0;
  {
    const tracking::TrackingNetwork net(h, cfg);
    bytes = in_use() - before;
  }
  for (auto _ : state) {
    tracking::TrackingNetwork net(h, cfg);
    benchmark::DoNotOptimize(&net);
  }
  state.counters["bytes_per_region"] =
      static_cast<double>(bytes) /
      static_cast<double>(h.tiling().num_regions());
}
BENCHMARK(BM_NetworkConstruction)->Arg(27)->Arg(81)->Arg(243);

// queue_pushes_per_event: event-queue entries pushed per event fired
// over the timed moves. Every rule-(a) fan-out is one entry for all its
// members, so it reads well below 1 (one entry per event would read 1 or
// more: cancelled timers are pushed but never fire).
void BM_MoveAndQuiesce(benchmark::State& state) {
  const int side = static_cast<int>(state.range(0));
  GridNet g = make_grid(side, 3);
  const RegionId start = g.at(side / 2, side / 2);
  const TargetId t = g.net->add_evader(start);
  g.net->run_to_quiescence();
  vsa::RandomWalkMover mover(g.hierarchy->tiling(), 0xB3);
  RegionId cur = start;
  const sim::Scheduler& sched = g.net->scheduler();
  const std::uint64_t pushes0 = sched.queue_pushes();
  const std::uint64_t events0 = sched.events_fired();
  for (auto _ : state) {
    cur = mover.next(cur);
    g.net->move_evader(t, cur);
    g.net->run_to_quiescence();
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["sim_events"] = benchmark::Counter(
      static_cast<double>(sched.events_fired()), benchmark::Counter::kIsRate);
  const std::uint64_t events = sched.events_fired() - events0;
  state.counters["queue_pushes_per_event"] =
      static_cast<double>(sched.queue_pushes() - pushes0) /
      static_cast<double>(std::max<std::uint64_t>(1, events));
}
BENCHMARK(BM_MoveAndQuiesce)->Arg(27)->Arg(81)->Arg(243);

// The walk every overhead case times: an 81x81 base-3 world with one
// evader settled at its centre, then kSteps random-walk moves, each
// followed by quiescence.
struct Walk81 {
  static constexpr int kSteps = 400;
  GridNet g = make_grid(81, 3);
  RegionId cur = g.at(40, 40);
  TargetId t = g.net->add_evader(cur);
  vsa::RandomWalkMover mover{g.hierarchy->tiling(), 0xB7};

  Walk81() { g.net->run_to_quiescence(); }

  std::uint64_t walk() {
    for (int i = 0; i < kSteps; ++i) {
      cur = mover.next(cur);
      g.net->move_evader(t, cur);
      g.net->run_to_quiescence();
    }
    return g.net->scheduler().events_fired();
  }
};

/// Times Walk81::walk() and nothing else. Every iteration builds a fresh
/// world, so each one times the same moves from the same state, and runs
/// `body(w, walk)` on it: the body attaches the surface under test, calls
/// `walk()` (the timed part) once, then reads and detaches the surface.
template <typename Body>
void time_walks(benchmark::State& state, Body body) {
  for (auto _ : state) {
    state.PauseTiming();
    {
      Walk81 w;
      body(w, [&] {
        state.ResumeTiming();
        benchmark::DoNotOptimize(w.walk());
        state.PauseTiming();
      });
    }
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * Walk81::kSteps);
}

void BM_MoveAndQuiesceWatched(benchmark::State& state) {
  // Arg: 0 = off (the scheduler's null post-step-hook test is all that
  // is left), 1 = cadence 1000us, 2 = every-change.
  const int sel = static_cast<int>(state.range(0));
  std::int64_t checks = 0;
  time_walks(state, [&](Walk81& w, const auto& walk) {
    std::unique_ptr<obs::Watchdog> wd;
    if (sel > 0) {
      obs::WatchdogConfig cfg;
      cfg.mode =
          sel == 1 ? obs::WatchMode::kCadence : obs::WatchMode::kEveryChange;
      cfg.cadence = sim::Duration::micros(1000);
      cfg.source = "bench_micro";
      wd = std::make_unique<obs::Watchdog>(*w.g.net, w.t, cfg);
    }
    walk();
    if (wd) checks = wd->checks_run();
  });
  state.counters["invariant_checks"] =
      benchmark::Counter(static_cast<double>(checks));
}
BENCHMARK(BM_MoveAndQuiesceWatched)->Arg(0)->Arg(1)->Arg(2);

void BM_MoveAndQuiesceTelemetered(benchmark::State& state) {
  // Arg: 0 = no sampler, 1 = constructed but never enabled (arms
  // nothing), 2 = enabled @ 1000us, streaming VSTELEM1 to a scratch file
  // that is removed after each walk.
  const int sel = static_cast<int>(state.range(0));
  const char* const scratch = "bench_micro_telemetry.scratch";
  std::size_t samples = 0;
  time_walks(state, [&](Walk81& w, const auto& walk) {
    std::unique_ptr<obs::TelemetrySampler> sampler;
    if (sel > 0) {
      obs::TelemetryConfig cfg;
      cfg.cadence = sim::Duration::micros(1000);
      if (sel == 2) cfg.stream_path = scratch;
      sampler = std::make_unique<obs::TelemetrySampler>(*w.g.net, cfg);
      if (sel == 2) sampler->enable();
    }
    walk();
    if (sampler) {
      sampler->finish();
      samples = sampler->samples_taken();
    }
    if (sel == 2) std::remove(scratch);
  });
  state.counters["telemetry_samples"] =
      benchmark::Counter(static_cast<double>(samples));
}
BENCHMARK(BM_MoveAndQuiesceTelemetered)->Arg(0)->Arg(1)->Arg(2);

void BM_MoveAndQuiesceProfiled(benchmark::State& state) {
  // Arg: 0 = no profiler, 1 = attached-but-disabled (a null test plus a
  // bool load per scope site), 2 = enabled (two clock reads plus a
  // small-map upsert per scope).
  const int sel = static_cast<int>(state.range(0));
  std::uint64_t scopes = 0;
  time_walks(state, [&](Walk81& w, const auto& walk) {
    obs::Profiler prof;
    if (sel > 0) w.g.net->set_profiler(&prof);
    if (sel == 2) prof.enable();
    walk();
    scopes = prof.scopes_recorded();
    if (sel > 0) w.g.net->set_profiler(nullptr);
  });
  state.counters["profile_scopes"] =
      benchmark::Counter(static_cast<double>(scopes));
}
BENCHMARK(BM_MoveAndQuiesceProfiled)->Arg(0)->Arg(1)->Arg(2);

void BM_MoveAndQuiesceLedgered(benchmark::State& state) {
  // Arg: 0 = no ledger, 1 = attached-but-disabled (one bool test per
  // C-gcast send), 2 = enabled (a map upsert per send).
  const int sel = static_cast<int>(state.range(0));
  std::size_t entries = 0;
  time_walks(state, [&](Walk81& w, const auto& walk) {
    obs::OpLedger ledger;
    ledger.set_enabled(sel == 2);
    if (sel > 0) w.g.net->set_op_ledger(&ledger);
    walk();
    entries = ledger.entries();
    if (sel > 0) w.g.net->set_op_ledger(nullptr);
  });
  state.counters["ledger_entries"] =
      benchmark::Counter(static_cast<double>(entries));
}
BENCHMARK(BM_MoveAndQuiesceLedgered)->Arg(0)->Arg(1)->Arg(2);

void BM_FindRoundTrip(benchmark::State& state) {
  const int d = static_cast<int>(state.range(0));
  GridNet g = make_grid(243, 3);
  const RegionId where = g.at(121, 121);
  const TargetId t = g.net->add_evader(where);
  g.net->run_to_quiescence();
  for (auto _ : state) {
    const FindId f = g.net->start_find(g.at(121 + d, 121), t);
    g.net->run_to_quiescence();
    benchmark::DoNotOptimize(g.net->find_result(f).done);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FindRoundTrip)->Arg(1)->Arg(16)->Arg(100);

void BM_LookAheadSnapshot(benchmark::State& state) {
  GridNet g = make_grid(81, 3);
  const TargetId t = g.net->add_evader(g.at(40, 40));
  g.net->run_to_quiescence();
  for (auto _ : state) {
    benchmark::DoNotOptimize(g.net->snapshot(t));
  }
}
BENCHMARK(BM_LookAheadSnapshot);

}  // namespace

BENCHMARK_MAIN();
