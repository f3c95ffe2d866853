// E9 — engineering microbenchmarks (google-benchmark): raw simulator
// throughput, so the experiment benches' virtual-time measurements can be
// related to wall-clock cost and regressions in the substrate show up.
//
// Besides the google-benchmark suite, this binary emits a machine-readable
// BENCH_sched.json (see write_sched_json below) capturing the scheduler
// hot path's events/sec, heap-allocations per event, and the trial-pool's
// per-thread scaling — the perf trajectory future PRs regress against.
// A second artifact, BENCH_audit.json (see write_audit_json), records the
// cost auditor's trajectory: measured/bound ratios for the E1 move-cost
// and E3 find-cost shapes plus the ledger's overhead in its three states
// (detached / attached-but-disabled / enabled).
//
//   bench_micro                      # full google-benchmark suite + JSON
//   bench_micro --sched-json-only    # skip the suite, just write the JSON
//   bench_micro --sched-json=FILE    # choose the JSON path
//   bench_micro --audit-json[=FILE]  # additionally write BENCH_audit.json
//   bench_micro --audit-json-only    # skip everything else, just audit JSON

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/machine_env.hpp"
#include "obs/ledger/auditor.hpp"
#include "obs/ledger/ledger.hpp"
#include "obs/profile/profiler.hpp"
#include "obs/trace.hpp"
#include "sim/scheduler.hpp"
#include "tracking/config.hpp"

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
// an idle record point; enabled, the full 64-byte append; compiled out
// (-DVINESTALK_TRACE=OFF), the gate is dead code and the numbers must
// match the plain chain. The extra pointer keeps the capture at 32 bytes,
// still inside EventAction's inline buffer.
struct TracedChain {
  sim::Scheduler& sched;
  obs::TraceRecorder* trace;
  std::uint64_t left;
  std::uint64_t jitter;
  void operator()() {
    if (obs::kTraceCompiled && trace != nullptr && trace->enabled()) {
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
  // append). With VINESTALK_TRACE=OFF both collapse to the plain chain.
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

void BM_EventQueueCancelChurn(benchmark::State& state) {
  // Arm-then-cancel traffic (the Timer::arm/disarm pattern): every
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

void BM_TimerChurn(benchmark::State& state) {
  sim::Scheduler sched;
  sim::Timer t(sched, [] {});
  for (auto _ : state) {
    t.arm_after(sim::Duration::millis(1));
    t.disarm();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TimerChurn);

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

void BM_MoveAndQuiesce(benchmark::State& state) {
  const int side = static_cast<int>(state.range(0));
  GridNet g = make_grid(side, 3);
  const RegionId start = g.at(side / 2, side / 2);
  const TargetId t = g.net->add_evader(start);
  g.net->run_to_quiescence();
  vsa::RandomWalkMover mover(g.hierarchy->tiling(), 0xB3);
  RegionId cur = start;
  for (auto _ : state) {
    cur = mover.next(cur);
    g.net->move_evader(t, cur);
    g.net->run_to_quiescence();
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["sim_events"] = benchmark::Counter(
      static_cast<double>(g.net->scheduler().events_fired()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_MoveAndQuiesce)->Arg(27)->Arg(81)->Arg(243);

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// One trial of the watchdog-overhead workload: a 400-step random walk with
// full quiescence per step (the E1 shape, small world), run unmonitored
// (sel 0), under the cadence watchdog at 1000us (sel 1), or under
// every-change checking (sel 2). Unmonitored, the only residue of the
// watchdog machinery on this path is the scheduler's null post-step-hook
// test — the acceptance gate for "monitor off costs nothing".
struct WatchedWalkResult {
  double seconds = 0;
  std::int64_t checks = 0;
  std::int64_t violations = 0;
  std::uint64_t events = 0;
};

WatchedWalkResult run_watched_walk(int sel, int steps = 400) {
  GridNet g = make_grid(81, 3);
  const RegionId start = g.at(40, 40);
  const TargetId t = g.net->add_evader(start);
  g.net->run_to_quiescence();
  std::unique_ptr<obs::Watchdog> wd;
  if (sel > 0) {
    obs::WatchdogConfig cfg;
    cfg.mode =
        sel == 1 ? obs::WatchMode::kCadence : obs::WatchMode::kEveryChange;
    cfg.cadence = sim::Duration::micros(1000);
    cfg.source = "bench_micro";
    wd = std::make_unique<obs::Watchdog>(*g.net, t, cfg);
  }
  vsa::RandomWalkMover mover(g.hierarchy->tiling(), 0xB7);
  RegionId cur = start;
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < steps; ++i) {
    cur = mover.next(cur);
    g.net->move_evader(t, cur);
    g.net->run_to_quiescence();
  }
  WatchedWalkResult out;
  out.seconds = seconds_since(t0);
  out.events = g.net->scheduler().events_fired();
  if (wd) {
    wd->check_now();
    out.checks = wd->checks_run();
    out.violations = wd->violations_seen();
  }
  return out;
}

// One trial of the telemetry-overhead workload: the same walk shape rerun
// with the sampler in each of its runtime states — detached (sel 0),
// constructed-but-never-enabled (sel 1: the compiled-in idle cost, which
// must be nothing at all since an unenabled sampler arms no boundary
// hook), and enabled at a 1000us virtual-time cadence streaming VSTELEM1
// to a scratch file (sel 2). The compiled-out tier is this same bench
// under -DVINESTALK_TRACE=OFF, where enable() is a no-op and all three
// columns must coincide.
struct TelemeteredWalkResult {
  double seconds = 0;
  std::size_t samples = 0;
  std::uint64_t events = 0;
};

TelemeteredWalkResult run_telemetered_walk(int sel, int steps = 400) {
  GridNet g = make_grid(81, 3);
  const RegionId start = g.at(40, 40);
  const TargetId t = g.net->add_evader(start);
  g.net->run_to_quiescence();
  const std::string scratch = "bench_micro_telemetry.scratch";
  std::unique_ptr<obs::TelemetrySampler> sampler;
  if (sel > 0) {
    obs::TelemetryConfig cfg;
    cfg.cadence = sim::Duration::micros(1000);
    if (sel == 2) cfg.stream_path = scratch;
    sampler = std::make_unique<obs::TelemetrySampler>(*g.net, cfg);
    if (sel == 2) sampler->enable();
  }
  vsa::RandomWalkMover mover(g.hierarchy->tiling(), 0xB7);
  RegionId cur = start;
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < steps; ++i) {
    cur = mover.next(cur);
    g.net->move_evader(t, cur);
    g.net->run_to_quiescence();
  }
  TelemeteredWalkResult out;
  out.seconds = seconds_since(t0);
  out.events = g.net->scheduler().events_fired();
  if (sampler) {
    sampler->finish();
    out.samples = sampler->samples_taken();
  }
  if (sel == 2) std::remove(scratch.c_str());
  return out;
}

// One trial of the profiler-overhead workload: the same walk shape with
// the CPU profiler in each of its runtime states — detached (sel 0),
// attached-but-disabled (sel 1: one null-test-plus-bool-load per scope
// site — the ≤1.05x acceptance gate), and enabled (sel 2: two clock reads
// plus a small-map upsert per scope). The compiled-out tier is this same
// bench under -DVINESTALK_PROFILE=OFF, where every scope is dead code and
// all three columns must coincide with the plain walk.
struct ProfiledWalkResult {
  double seconds = 0;
  std::uint64_t scopes = 0;
  std::uint64_t events = 0;
};

ProfiledWalkResult run_profiled_walk(int sel, int steps = 400) {
  GridNet g = make_grid(81, 3);
  const RegionId start = g.at(40, 40);
  const TargetId t = g.net->add_evader(start);
  g.net->run_to_quiescence();
  obs::Profiler prof;
  if (sel > 0) {
    g.net->set_profiler(&prof);
    if (sel == 2) prof.enable();
  }
  vsa::RandomWalkMover mover(g.hierarchy->tiling(), 0xB7);
  RegionId cur = start;
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < steps; ++i) {
    cur = mover.next(cur);
    g.net->move_evader(t, cur);
    g.net->run_to_quiescence();
  }
  ProfiledWalkResult out;
  out.seconds = seconds_since(t0);
  out.events = g.net->scheduler().events_fired();
  if (sel == 2) {
    prof.disable();
    out.scopes = prof.scopes_recorded();
  }
  if (sel > 0) g.net->set_profiler(nullptr);
  return out;
}

void BM_MoveAndQuiesceProfiled(benchmark::State& state) {
  // Arg: 0 = no profiler, 1 = attached-but-disabled, 2 = enabled.
  const int sel = static_cast<int>(state.range(0));
  std::uint64_t scopes = 0;
  for (auto _ : state) {
    const ProfiledWalkResult r = run_profiled_walk(sel, 100);
    scopes = r.scopes;
    benchmark::DoNotOptimize(r.events);
  }
  state.SetItemsProcessed(state.iterations() * 100);
  state.counters["profile_scopes"] =
      benchmark::Counter(static_cast<double>(scopes));
}
BENCHMARK(BM_MoveAndQuiesceProfiled)->Arg(0)->Arg(1)->Arg(2);

void BM_MoveAndQuiesceTelemetered(benchmark::State& state) {
  // Arg: 0 = no sampler, 1 = attached-but-disabled, 2 = enabled @ 1000us.
  const int sel = static_cast<int>(state.range(0));
  std::size_t samples = 0;
  for (auto _ : state) {
    const TelemeteredWalkResult r = run_telemetered_walk(sel, 100);
    samples = r.samples;
    benchmark::DoNotOptimize(r.events);
  }
  state.SetItemsProcessed(state.iterations() * 100);
  state.counters["telemetry_samples"] =
      benchmark::Counter(static_cast<double>(samples));
}
BENCHMARK(BM_MoveAndQuiesceTelemetered)->Arg(0)->Arg(1)->Arg(2);

void BM_MoveAndQuiesceWatched(benchmark::State& state) {
  // Arg: 0 = off, 1 = cadence 1000us, 2 = every-change.
  const int sel = static_cast<int>(state.range(0));
  std::int64_t checks = 0;
  for (auto _ : state) {
    const WatchedWalkResult r = run_watched_walk(sel, 100);
    checks = r.checks;
    benchmark::DoNotOptimize(r.events);
  }
  state.SetItemsProcessed(state.iterations() * 100);
  state.counters["invariant_checks"] =
      benchmark::Counter(static_cast<double>(checks));
}
BENCHMARK(BM_MoveAndQuiesceWatched)->Arg(0)->Arg(1)->Arg(2);

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

// ---------------------------------------------------------------------------
// BENCH_sched.json: the scheduler perf trajectory, machine-readable.

struct ScalingPoint {
  int jobs;
  std::uint64_t events;
  double seconds;
};

bool write_sched_json(const std::string& path) {
  constexpr std::uint64_t kSerialEvents = 2'000'000;
  constexpr std::uint64_t kTrialEvents = 500'000;
  constexpr std::size_t kTrials = 8;

  // Serial hot path: best of three reps, with the heap-fallback delta
  // (must stay 0: every scheduled callable fits the inline buffer).
  double best = 1e100;
  std::uint64_t fired = 0;
  const auto fallbacks0 = sim::EventAction::heap_fallbacks();
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    fired = run_chains(kSerialEvents);
    best = std::min(best, seconds_since(t0));
  }
  const double fallbacks_per_event =
      static_cast<double>(sim::EventAction::heap_fallbacks() - fallbacks0) /
      (3.0 * static_cast<double>(fired));

  // Tracing overhead on the identical chain workload, best of three:
  // runtime-disabled measures the idle record-point gate, enabled the full
  // 56-byte append. With tracing compiled out both gates are dead code and
  // the numbers must sit within noise of the plain serial figure.
  obs::TraceRecorder trace;
  double best_off = 1e100;
  double best_on = 1e100;
  std::uint64_t traced_fired = 0;
  std::size_t trace_records = 0;
  for (int rep = 0; rep < 3; ++rep) {
    trace.clear();
    trace.set_enabled(false);
    auto t0 = std::chrono::steady_clock::now();
    traced_fired = run_traced_chains(kSerialEvents, trace);
    best_off = std::min(best_off, seconds_since(t0));
    trace.clear();
    trace.set_enabled(true);
    t0 = std::chrono::steady_clock::now();
    run_traced_chains(kSerialEvents, trace);
    best_on = std::min(best_on, seconds_since(t0));
    trace_records = trace.size();
  }

  // Watchdog overhead on a real move-quiesce walk (81x81, 400 steps),
  // best of three per mode: off (the null post-step-hook branch), cadence
  // 1000us of virtual time, and every-change. The off column is the
  // monitored-path-disabled figure the ≤2% acceptance gate reads; the
  // cadence column is the recommended always-on production setting.
  WatchedWalkResult walk_off, walk_cadence, walk_every;
  walk_off.seconds = walk_cadence.seconds = walk_every.seconds = 1e100;
  for (int rep = 0; rep < 3; ++rep) {
    for (int sel = 0; sel < 3; ++sel) {
      const WatchedWalkResult r = run_watched_walk(sel);
      WatchedWalkResult& best_r =
          sel == 0 ? walk_off : (sel == 1 ? walk_cadence : walk_every);
      if (r.seconds < best_r.seconds) best_r = r;
    }
  }

  // Telemetry-sampler overhead on the same walk, best of three per state:
  // detached, attached-but-disabled (the compiled-in idle cost), and
  // enabled at a 1000us virtual-time cadence streaming to a scratch file.
  // The disabled column is the "costs nothing when off" acceptance gate;
  // with the trace layer compiled out all three must sit within noise.
  TelemeteredWalkResult tel_off, tel_disabled, tel_on;
  tel_off.seconds = tel_disabled.seconds = tel_on.seconds = 1e100;
  for (int rep = 0; rep < 3; ++rep) {
    for (int sel = 0; sel < 3; ++sel) {
      const TelemeteredWalkResult r = run_telemetered_walk(sel);
      TelemeteredWalkResult& best_r =
          sel == 0 ? tel_off : (sel == 1 ? tel_disabled : tel_on);
      if (r.seconds < best_r.seconds) best_r = r;
    }
  }

  // Profiler overhead on the same walk, best of three per state: detached,
  // attached-but-disabled (the ≤1.05x gate), and enabled. See
  // run_profiled_walk for the three-state cost model.
  ProfiledWalkResult prof_off, prof_disabled, prof_on;
  prof_off.seconds = prof_disabled.seconds = prof_on.seconds = 1e100;
  for (int rep = 0; rep < 3; ++rep) {
    for (int sel = 0; sel < 3; ++sel) {
      const ProfiledWalkResult r = run_profiled_walk(sel);
      ProfiledWalkResult& best_r =
          sel == 0 ? prof_off : (sel == 1 ? prof_disabled : prof_on);
      if (r.seconds < best_r.seconds) best_r = r;
    }
  }

  // Trial-pool scaling: the same 8-world sweep at 1, 2, 4 threads.
  std::vector<ScalingPoint> scaling;
  for (const int jobs : {1, 2, 4}) {
    runner::TrialPool pool(jobs);
    const auto t0 = std::chrono::steady_clock::now();
    const auto counts = pool.run(
        kTrials, [](std::size_t) { return run_chains(kTrialEvents); });
    std::uint64_t total = 0;
    for (const auto c : counts) total += c;
    scaling.push_back({jobs, total, seconds_since(t0)});
  }

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_micro: cannot write %s\n", path.c_str());
    return false;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"scheduler_hot_path\",\n");
  std::fprintf(f, "  \"machine\": %s,\n",
               vs::machine_env_json(vs::collect_machine_env(), 2).c_str());
  std::fprintf(f, "  \"inline_buffer_bytes\": %zu,\n",
               sim::EventAction::kInlineSize);
  std::fprintf(f, "  \"serial\": {\n");
  std::fprintf(f, "    \"events\": %llu,\n",
               static_cast<unsigned long long>(fired));
  std::fprintf(f, "    \"seconds\": %.6f,\n", best);
  std::fprintf(f, "    \"events_per_sec\": %.0f,\n",
               static_cast<double>(fired) / best);
  std::fprintf(f, "    \"heap_fallbacks_per_event\": %.6f\n",
               fallbacks_per_event);
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"trace\": {\n");
  std::fprintf(f, "    \"compiled\": %s,\n",
               vs::obs::kTraceCompiled ? "true" : "false");
  std::fprintf(f, "    \"events\": %llu,\n",
               static_cast<unsigned long long>(traced_fired));
  std::fprintf(f, "    \"disabled_seconds\": %.6f,\n", best_off);
  std::fprintf(f, "    \"disabled_events_per_sec\": %.0f,\n",
               static_cast<double>(traced_fired) / best_off);
  std::fprintf(f, "    \"disabled_slowdown_vs_serial\": %.3f,\n",
               best_off / best);
  std::fprintf(f, "    \"enabled_seconds\": %.6f,\n", best_on);
  std::fprintf(f, "    \"enabled_events_per_sec\": %.0f,\n",
               static_cast<double>(traced_fired) / best_on);
  std::fprintf(f, "    \"enabled_slowdown_vs_serial\": %.3f,\n",
               best_on / best);
  std::fprintf(f, "    \"enabled_trace_records\": %zu\n", trace_records);
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"watchdog\": {\n");
  std::fprintf(f, "    \"walk_steps\": 400,\n");
  std::fprintf(f, "    \"off_seconds\": %.6f,\n", walk_off.seconds);
  std::fprintf(f, "    \"off_events\": %llu,\n",
               static_cast<unsigned long long>(walk_off.events));
  std::fprintf(f, "    \"cadence_us\": 1000,\n");
  std::fprintf(f, "    \"cadence_seconds\": %.6f,\n", walk_cadence.seconds);
  std::fprintf(f, "    \"cadence_checks\": %lld,\n",
               static_cast<long long>(walk_cadence.checks));
  std::fprintf(f, "    \"cadence_slowdown_vs_off\": %.3f,\n",
               walk_cadence.seconds / walk_off.seconds);
  std::fprintf(f, "    \"every_change_seconds\": %.6f,\n",
               walk_every.seconds);
  std::fprintf(f, "    \"every_change_checks\": %lld,\n",
               static_cast<long long>(walk_every.checks));
  std::fprintf(f, "    \"every_change_slowdown_vs_off\": %.3f,\n",
               walk_every.seconds / walk_off.seconds);
  std::fprintf(f, "    \"violations\": %lld\n",
               static_cast<long long>(walk_off.violations +
                                      walk_cadence.violations +
                                      walk_every.violations));
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"telemetry\": {\n");
  std::fprintf(f, "    \"compiled\": %s,\n",
               vs::obs::kTraceCompiled ? "true" : "false");
  std::fprintf(f, "    \"walk_steps\": 400,\n");
  std::fprintf(f, "    \"cadence_us\": 1000,\n");
  std::fprintf(f, "    \"off_seconds\": %.6f,\n", tel_off.seconds);
  std::fprintf(f, "    \"disabled_seconds\": %.6f,\n", tel_disabled.seconds);
  std::fprintf(f, "    \"disabled_slowdown_vs_off\": %.3f,\n",
               tel_disabled.seconds / tel_off.seconds);
  std::fprintf(f, "    \"enabled_seconds\": %.6f,\n", tel_on.seconds);
  std::fprintf(f, "    \"enabled_slowdown_vs_off\": %.3f,\n",
               tel_on.seconds / tel_off.seconds);
  // The pre-fix figure, kept for the trajectory: before the sampler
  // batched its stream flush + Prometheus rewrite per boundary crossing
  // and recycled ring slots (PR 8), the 1ms-cadence enabled path measured
  // 5.143x on this walk.
  std::fprintf(f, "    \"enabled_slowdown_vs_off_before_batched_io\": "
                  "5.143,\n");
  std::fprintf(f, "    \"enabled_samples\": %zu\n", tel_on.samples);
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"profile\": {\n");
  std::fprintf(f, "    \"compiled\": %s,\n",
               vs::obs::kProfileCompiled ? "true" : "false");
  std::fprintf(f, "    \"walk_steps\": 400,\n");
  std::fprintf(f, "    \"off_seconds\": %.6f,\n", prof_off.seconds);
  std::fprintf(f, "    \"disabled_seconds\": %.6f,\n",
               prof_disabled.seconds);
  std::fprintf(f, "    \"disabled_slowdown_vs_off\": %.3f,\n",
               prof_disabled.seconds / prof_off.seconds);
  std::fprintf(f, "    \"enabled_seconds\": %.6f,\n", prof_on.seconds);
  std::fprintf(f, "    \"enabled_slowdown_vs_off\": %.3f,\n",
               prof_on.seconds / prof_off.seconds);
  std::fprintf(f, "    \"enabled_scopes\": %llu\n",
               static_cast<unsigned long long>(prof_on.scopes));
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"scaling\": [\n");
  const double base = scaling.front().seconds;
  for (std::size_t i = 0; i < scaling.size(); ++i) {
    const auto& p = scaling[i];
    std::fprintf(f,
                 "    {\"jobs\": %d, \"events\": %llu, \"seconds\": %.6f, "
                 "\"events_per_sec\": %.0f, \"speedup_vs_jobs1\": %.3f}%s\n",
                 p.jobs, static_cast<unsigned long long>(p.events), p.seconds,
                 static_cast<double>(p.events) / p.seconds, base / p.seconds,
                 i + 1 < scaling.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
  return true;
}

// ---------------------------------------------------------------------------
// BENCH_audit.json: the cost auditor's trajectory — measured/bound ratios
// for the paper's two headline cost shapes, plus the ledger's overhead in
// its three states on the same walk.

vs::obs::AuditConfig audit_config(const GridNet& g) {
  const vs::vsa::CGcastConfig& cg = g.net->config().cgcast;
  return vs::obs::AuditConfig{
      .slack = 2.0,
      .delta_plus_e = cg.delta + cg.e,
      .timers = vs::tracking::TimerPolicy::paper_default(*g.hierarchy, cg)};
}

// One 200-step E1-shape walk (243x243 base 3, the Theorem 4.9 grid
// corollary world) with a live ledger; returns the audited report.
vs::obs::AuditReport run_e1_audit(vs::obs::OpLedger& ledger) {
  GridNet g = make_grid(243, 3);
  ledger.set_enabled(true);
  g.net->set_op_ledger(&ledger);
  const RegionId start = g.at(121, 121);
  const TargetId t = g.net->add_evader(start);
  g.net->run_to_quiescence();
  vsa::RandomWalkMover mover(g.hierarchy->tiling(), 0xE1);
  RegionId cur = start;
  for (int i = 0; i < 200; ++i) {
    cur = mover.next(cur);
    g.net->move_evader(t, cur);
    g.net->run_to_quiescence();
  }
  const vs::obs::BoundAuditor auditor(*g.hierarchy, audit_config(g));
  const vs::obs::AuditReport report = auditor.audit(ledger);
  g.net->set_op_ledger(nullptr);
  return report;
}

// One E3-shape find (fresh quiesced 243x243 world, find issued distance d
// from the centred evader); returns the per-find audit row.
vs::obs::FindAudit run_e3_audit(int d) {
  GridNet g = make_grid(243, 3);
  vs::obs::OpLedger ledger;
  ledger.set_enabled(true);
  g.net->set_op_ledger(&ledger);
  const TargetId t = g.net->add_evader(g.at(121, 121));
  g.net->run_to_quiescence();
  g.net->start_find(g.at(121 + d, 121), t);
  g.net->run_to_quiescence();
  const vs::obs::BoundAuditor auditor(*g.hierarchy, audit_config(g));
  const vs::obs::AuditReport report = auditor.audit(ledger);
  g.net->set_op_ledger(nullptr);
  return report.finds.empty() ? vs::obs::FindAudit{} : report.finds.front();
}

// Ledger-overhead walk (the BM_MoveAndQuiesce shape, 81x81, 200 steps).
// sel 0: no ledger attached (the pre-ledger hot path); sel 1: attached
// but disabled (one bool test per C-gcast send); sel 2: enabled (map
// upsert per send). With tracing compiled out sel 2 degrades to sel 1 —
// the "compiled-out" column of the acceptance gate is this same binary
// built with -DVINESTALK_TRACE=OFF, where set_enabled is forced false.
double run_ledger_walk(int sel, int steps = 200) {
  GridNet g = make_grid(81, 3);
  vs::obs::OpLedger ledger;
  if (sel >= 1) {
    ledger.set_enabled(sel == 2);
    g.net->set_op_ledger(&ledger);
  }
  const RegionId start = g.at(40, 40);
  const TargetId t = g.net->add_evader(start);
  g.net->run_to_quiescence();
  vsa::RandomWalkMover mover(g.hierarchy->tiling(), 0xB7);
  RegionId cur = start;
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < steps; ++i) {
    cur = mover.next(cur);
    g.net->move_evader(t, cur);
    g.net->run_to_quiescence();
  }
  return seconds_since(t0);
}

bool write_audit_json(const std::string& path) {
  vs::obs::OpLedger e1_ledger;
  const vs::obs::AuditReport e1 = run_e1_audit(e1_ledger);

  constexpr int kFindDistances[] = {1, 4, 16, 64, 120};
  std::vector<vs::obs::FindAudit> finds;
  for (const int d : kFindDistances) finds.push_back(run_e3_audit(d));

  double off = 1e100, disabled = 1e100, enabled = 1e100;
  for (int rep = 0; rep < 3; ++rep) {
    off = std::min(off, run_ledger_walk(0));
    disabled = std::min(disabled, run_ledger_walk(1));
    enabled = std::min(enabled, run_ledger_walk(2));
  }

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_micro: cannot write %s\n", path.c_str());
    return false;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"cost_auditor\",\n");
  std::fprintf(f, "  \"machine\": %s,\n",
               vs::machine_env_json(vs::collect_machine_env(), 2).c_str());
  std::fprintf(f, "  \"trace_compiled\": %s,\n",
               vs::obs::kTraceCompiled ? "true" : "false");
  std::fprintf(f, "  \"slack\": 2.0,\n");
  std::fprintf(f, "  \"e1_move\": {\n");
  std::fprintf(f, "    \"world\": \"243x243 base 3\",\n");
  std::fprintf(f, "    \"steps\": %lld,\n",
               static_cast<long long>(e1.move.steps));
  std::fprintf(f, "    \"distance\": %lld,\n",
               static_cast<long long>(e1.move.distance));
  std::fprintf(f, "    \"work\": %lld,\n",
               static_cast<long long>(e1.move.work));
  std::fprintf(f, "    \"work_bound_per_step\": %.3f,\n",
               e1.move.work_bound_per_step);
  std::fprintf(f, "    \"work_ratio\": %.4f,\n", e1.move.work_ratio);
  std::fprintf(f, "    \"time_bound_per_step_us\": %.3f,\n",
               e1.move.time_bound_per_step_us);
  std::fprintf(f, "    \"time_ratio\": %.4f,\n", e1.move.time_ratio);
  std::fprintf(f, "    \"attributed_fraction\": %.4f,\n",
               e1.attributed_fraction());
  std::fprintf(f, "    \"within_slack\": %s\n",
               e1.ok() ? "true" : "false");
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"e3_finds\": [\n");
  for (std::size_t i = 0; i < finds.size(); ++i) {
    const vs::obs::FindAudit& fd = finds[i];
    std::fprintf(f,
                 "    {\"d\": %lld, \"work\": %lld, \"work_bound\": %.3f, "
                 "\"work_ratio\": %.4f, \"latency_us\": %lld, "
                 "\"time_bound_us\": %.3f, \"time_ratio\": %.4f}%s\n",
                 static_cast<long long>(fd.distance),
                 static_cast<long long>(fd.work), fd.work_bound,
                 fd.work_ratio, static_cast<long long>(fd.latency_us),
                 fd.time_bound_us, fd.time_ratio,
                 i + 1 < finds.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"ledger_overhead\": {\n");
  std::fprintf(f, "    \"walk\": \"81x81 base 3, 200 move+quiesce steps\",\n");
  std::fprintf(f, "    \"detached_seconds\": %.6f,\n", off);
  std::fprintf(f, "    \"disabled_seconds\": %.6f,\n", disabled);
  std::fprintf(f, "    \"disabled_slowdown_vs_detached\": %.3f,\n",
               disabled / off);
  std::fprintf(f, "    \"enabled_seconds\": %.6f,\n", enabled);
  std::fprintf(f, "    \"enabled_slowdown_vs_detached\": %.3f\n",
               enabled / off);
  std::fprintf(f, "  }\n");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool json_only = false;
  bool audit_only = false;
  std::string json_path = "BENCH_sched.json";
  std::string audit_path;
  std::vector<char*> bench_args{argv[0]};
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--sched-json-only") {
      json_only = true;
    } else if (arg.rfind("--sched-json=", 0) == 0) {
      json_path = arg.substr(13);
    } else if (arg == "--audit-json-only") {
      audit_only = true;
      if (audit_path.empty()) audit_path = "BENCH_audit.json";
    } else if (arg == "--audit-json") {
      audit_path = "BENCH_audit.json";
    } else if (arg.rfind("--audit-json=", 0) == 0) {
      audit_path = arg.substr(13);
    } else {
      bench_args.push_back(argv[i]);
    }
  }
  if (!json_only && !audit_only) {
    int bench_argc = static_cast<int>(bench_args.size());
    benchmark::Initialize(&bench_argc, bench_args.data());
    if (benchmark::ReportUnrecognizedArguments(bench_argc,
                                               bench_args.data())) {
      return 1;
    }
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
  }
  bool ok = true;
  if (!audit_only) ok = write_sched_json(json_path) && ok;
  if (!audit_path.empty()) ok = write_audit_json(audit_path) && ok;
  return ok ? 0 : 1;
}
