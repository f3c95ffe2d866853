// The time-series telemetry subsystem: VSTELEM1 streams are byte-identical
// at every --jobs value (the boundary-hook guarantee); the
// disabled sampler holds nothing and arms nothing; the in-memory ring keeps
// exactly the last K samples; the sliding-window bound audit raises its
// incident mid-run — strictly before the run ends — and the bundle replays
// exactly; vinestalk_top --once renders a golden frame; the Prometheus
// snapshot is well-formed exposition text; and MetricsRegistry rejects
// registering one name as two metric types.

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "obs/monitor/replay.hpp"
#include "obs/monitor/watchdog.hpp"
#include "obs/telemetry/prometheus.hpp"
#include "obs/telemetry/telemetry.hpp"
#include "obs/telemetry/telemetry_io.hpp"
#include "obs/trace.hpp"
#include "runner/trial_pool.hpp"
#include "tracking/config.hpp"
#include "util.hpp"

#ifndef VS_TOP_PATH
#error "VS_TOP_PATH must be defined by the build"
#endif

namespace vstest {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

/// The canonical telemetered run: seeded walk + one find on a 27x27 world,
/// streaming VSTELEM1 to `path` at a 2ms cadence.
void run_streamed(const std::string& path, std::uint64_t seed) {
  GridNet g = make_grid(27, 3);
  obs::TelemetryConfig cfg;
  cfg.cadence = sim::Duration::millis(2);
  cfg.stream_path = path;
  obs::TelemetrySampler sampler(*g.net, cfg);
  sampler.enable();
  const RegionId start = g.at(13, 13);
  const TargetId t = g.net->add_evader(start);
  g.net->run_to_quiescence();
  const auto walk = random_walk(g.hierarchy->tiling(), start, 8, seed);
  for (std::size_t i = 1; i < walk.size(); ++i) {
    g.net->move_and_quiesce(t, walk[i]);
  }
  g.net->start_find(g.at(26, 0), t);
  g.net->run_to_quiescence();
  sampler.finish();
}

TEST(Telemetry, StreamByteIdenticalAcrossJobsAndShards) {
  if (!obs::kTraceCompiled) GTEST_SKIP() << "tracing compiled out";
  // Every jobs value must produce the same per-trial stream bytes:
  // inter-world concurrency may not leak into what the sampler observes
  // at a cadence boundary.
  const auto sweep = [](int jobs) {
    runner::TrialPool pool(jobs);
    return pool.run(4u, [&](std::size_t trial) {
      const std::string path = testing::TempDir() + "telem_j" +
                               std::to_string(jobs) + "_t" +
                               std::to_string(trial) + ".vst";
      run_streamed(path, 0xA110 + trial);
      return slurp(path);
    });
  };
  const std::vector<std::string> serial = sweep(1);
  EXPECT_FALSE(serial[0].empty());
  for (const int jobs : {2, 8}) {
    EXPECT_EQ(sweep(jobs), serial) << "jobs=" << jobs;
  }
}

TEST(Telemetry, DisabledSamplerHoldsNothingAndArmsNothing) {
  GridNet g = make_grid(9, 3);
  obs::TelemetryConfig cfg;
  cfg.stream_path = testing::TempDir() + "telem_disabled.vst";
  std::remove(cfg.stream_path.c_str());
  {
    obs::TelemetrySampler sampler(*g.net, cfg);
    // Constructed but never enabled: no scheduler hook, no samples, no
    // file — the world runs the plain hot path.
    EXPECT_FALSE(sampler.enabled());
    EXPECT_FALSE(g.net->scheduler().has_boundary_hook());
    g.net->add_evader(g.at(4, 4));
    g.net->run_to_quiescence();
    EXPECT_TRUE(sampler.ring().empty());
    EXPECT_EQ(sampler.samples_taken(), 0u);
  }
  std::ifstream in(cfg.stream_path);
  EXPECT_FALSE(in.good()) << "disabled sampler must not create the stream";
}

TEST(Telemetry, RingKeepsExactlyLastK) {
  if (!obs::kTraceCompiled) GTEST_SKIP() << "tracing compiled out";
  GridNet g = make_grid(27, 3);
  obs::TelemetryConfig cfg;
  cfg.cadence = sim::Duration::millis(1);
  cfg.ring_capacity = 4;
  obs::TelemetrySampler sampler(*g.net, cfg);
  sampler.enable();
  const RegionId start = g.at(13, 13);
  const TargetId t = g.net->add_evader(start);
  g.net->run_to_quiescence();
  const auto walk = random_walk(g.hierarchy->tiling(), start, 10, 0x41);
  for (std::size_t i = 1; i < walk.size(); ++i) {
    g.net->move_and_quiesce(t, walk[i]);
  }
  sampler.finish();
  ASSERT_GT(sampler.samples_taken(), 4u);
  ASSERT_EQ(sampler.ring().size(), 4u);
  // The ring holds the *last* four boundaries, oldest first, cadence
  // apart.
  const auto& ring = sampler.ring();
  const std::int64_t c = cfg.cadence.count();
  const auto last_k = static_cast<std::int64_t>(sampler.samples_taken());
  for (std::size_t i = 0; i < ring.size(); ++i) {
    EXPECT_EQ(ring[i].t_us,
              (last_k - 3 + static_cast<std::int64_t>(i)) * c);
  }
}

TEST(Telemetry, TailReadToleratesUnfinishedStreamStrictDoesNot) {
  if (!obs::kTraceCompiled) GTEST_SKIP() << "tracing compiled out";
  const std::string path = testing::TempDir() + "telem_tail.vst";
  obs::TelemetryHeader h;
  h.cadence_us = 1000;
  h.max_level = 1;
  h.series = static_cast<std::uint32_t>(h.expected_series());
  obs::TelemetryWriter writer(path, h);
  obs::TelemetrySample s;
  s.values.assign(h.series, 0);
  s.t_us = 1000;
  s.values[obs::kTsEventsFired] = 7;
  writer.append(s);
  s.t_us = 2000;
  s.values[obs::kTsEventsFired] = 11;
  writer.append(s);
  // No trailer yet: exactly what a live producer mid-run looks like
  // after its per-boundary flush (append alone may sit in the stream
  // buffer — the sampler flushes at every cadence boundary).
  writer.flush();
  EXPECT_THROW((void)obs::read_telemetry_file(path, /*strict=*/true),
               vs::Error);
  const obs::TelemetryFile tail =
      obs::read_telemetry_file(path, /*strict=*/false);
  EXPECT_FALSE(tail.complete);
  ASSERT_EQ(tail.samples.size(), 2u);
  EXPECT_EQ(tail.samples[1].t_us, 2000);
  EXPECT_EQ(tail.samples[1].values[obs::kTsEventsFired], 11);
  writer.finish();
  const obs::TelemetryFile full = obs::read_telemetry_file(path);
  EXPECT_TRUE(full.complete);
  EXPECT_EQ(full.samples.size(), 2u);
}

/// The canonical replayable scenario (same shape as test_audit's).
obs::ScenarioSpec walk_scenario(int steps, std::uint64_t seed) {
  const hier::GridHierarchy h(27, 27, 3);
  obs::ScenarioSpec s;
  s.side = 27;
  s.base = 3;
  s.start_region = h.grid().region_at(13, 13).value();
  s.steps = steps;
  s.seed = seed;
  return s;
}

TEST(Telemetry, SlidingWindowAuditFiresMidRunAndReplaysExactly) {
  if (!obs::kTraceCompiled) GTEST_SKIP() << "tracing compiled out";
  obs::ScenarioSpec s = walk_scenario(10, 0x5CA1);
  s.timer_scale = 32.0;  // over Theorem 4.9's time bound, within ineq (1)

  // Establish the full-run end time first: the identical world and walk,
  // driven without any watchdog.
  std::int64_t end_us = 0;
  {
    hier::GridHierarchy h(27, 27, 3);
    tracking::NetworkConfig net_cfg;
    net_cfg.timers =
        tracking::scaled_paper_default(h, net_cfg.cgcast, s.timer_scale);
    tracking::TrackingNetwork net(h, net_cfg);
    const RegionId start{s.start_region};
    const TargetId t = net.add_evader(start);
    net.run_to_quiescence();
    const auto walk = random_walk(h.tiling(), start, s.steps, s.seed);
    for (std::size_t i = 1; i < walk.size(); ++i) {
      net.move_and_quiesce(t, walk[i]);
    }
    end_us = net.now().count();
  }

  obs::WatchdogConfig cfg;
  cfg.mode = obs::WatchMode::kCadence;
  cfg.cadence = sim::Duration::micros(2000);
  cfg.source = "test";
  cfg.audit = true;
  cfg.audit_slack = 2.0;
  cfg.audit_window = sim::Duration::millis(400);
  const obs::ScenarioOutcome out = obs::run_scenario(s, cfg);
  ASSERT_TRUE(out.ran);
  const obs::IncidentBundle* bundle = nullptr;
  for (const auto& b : out.incidents) {
    if (b.violation.predicate == "theorem-4.9-move-time") bundle = &b;
  }
  ASSERT_NE(bundle, nullptr) << "no theorem-4.9-move-time incident captured";
  EXPECT_EQ(bundle->audit_window_us, cfg.audit_window.count());
  // The whole point of the sliding window: the incident fires while the
  // run is still going, not at the final drain.
  EXPECT_LT(bundle->violation.time_us, end_us);

  // v4 bundles are self-contained: the replay restores the window and
  // reproduces the violation at the same virtual time.
  const obs::ReplayResult replay = obs::replay_incident(*bundle);
  ASSERT_TRUE(replay.ran) << replay.message;
  EXPECT_TRUE(replay.reproduced) << replay.message;
  EXPECT_TRUE(replay.exact) << replay.message;
}

std::string run_top(const std::string& args, int* exit_code) {
  const std::string cmd = std::string(VS_TOP_PATH) + " " + args + " 2>&1";
  FILE* pipe = popen(cmd.c_str(), "r");
  EXPECT_NE(pipe, nullptr);
  std::string out;
  std::array<char, 256> buf{};
  while (fgets(buf.data(), buf.size(), pipe) != nullptr) out += buf.data();
  const int status = pclose(pipe);
  *exit_code = status >= 256 ? status / 256 : status;  // WEXITSTATUS
  return out;
}

TEST(Telemetry, TopOnceRendersGoldenFrame) {
  // A hand-crafted two-sample stream, so the --once render exercises
  // every dashboard element deterministically.
  const std::string path = testing::TempDir() + "telem_top.vst";
  obs::TelemetryHeader h;
  h.cadence_us = 1000;
  h.max_level = 1;
  h.series = static_cast<std::uint32_t>(h.expected_series());
  {
    obs::TelemetryWriter writer(path, h);
    obs::TelemetrySample a;
    a.t_us = 1000;
    a.values.assign(h.series, 0);
    writer.append(a);
    obs::TelemetrySample b = a;
    b.t_us = 2000;
    b.values[obs::kTsEventsFired] = 500;
    b.values[obs::kTsMsgsTotal] = 400;
    b.values[obs::kTsWorkTotal] = 900;
    b.values[obs::kTsHeartbeats] = 8;
    b.values[obs::kTsFindsIssued] = 3;
    b.values[obs::kTsFindsCompleted] = 2;
    b.values[obs::kTsFindLatencyP50] = 1500;
    b.values[obs::kTsFindLatencyP90] = 2500;
    b.values[obs::kTsFindLatencyP99] = 4000;
    b.values[obs::kTsAuditBase + 0] = 700;   // move work: within bound
    b.values[obs::kTsAuditBase + 1] = 1600;  // move time: over bound
    b.values[obs::kTsAuditBase + 2] = 300;
    b.values[obs::kTsAuditBase + 3] = 450;
    writer.append(b);
    writer.finish();
  }
  int rc = -1;
  const std::string out = run_top(path + " --once", &rc);
  EXPECT_EQ(rc, 0);
  const std::string golden =
      "vinestalk_top — " + path +
      "  (2 sample(s), complete, cadence 1000us)\n"
      "  t = 2000us\n"
      "  rates/s: events 500000  msgs 400000  work 900000  finds 2000  "
      "heartbeats 8000\n"
      "  finds: 3 issued, 2 completed; latency us p50=1500 p90=2500 "
      "p99=4000\n"
      "  bounds (x1000, window audit): OVER BOUND\n"
      "    move work (Thm 4.9) [#######.............] 700m\n"
      "    move time (Thm 4.9) [################....] 1600m  OVER\n"
      "    find work (Thm 5.2) [###.................] 300m\n"
      "    find time (Thm 5.2) [#####...............] 450m\n";
  EXPECT_EQ(out, golden);

  // Nothing writes header flags any more (the per-lane section is gone),
  // so a stream that sets them is rejected.
  std::string bytes = slurp(path);
  bytes[12] = 1;  // flags: after the 8-byte magic and the u32 version
  const std::string flagged = testing::TempDir() + "telem_top_flagged.vst";
  std::ofstream(flagged, std::ios::binary) << bytes;
  EXPECT_THROW((void)obs::read_telemetry_file(flagged), vs::Error);
}

TEST(Telemetry, PrometheusSnapshotIsWellFormedExposition) {
  if (!obs::kTraceCompiled) GTEST_SKIP() << "tracing compiled out";
  const std::string path = testing::TempDir() + "telem_prom.txt";
  GridNet g = make_grid(27, 3);
  obs::TelemetryConfig cfg;
  cfg.cadence = sim::Duration::millis(2);
  cfg.prometheus_path = path;
  obs::TelemetrySampler sampler(*g.net, cfg);
  sampler.enable();
  const RegionId start = g.at(13, 13);
  const TargetId t = g.net->add_evader(start);
  g.net->run_to_quiescence();
  const auto walk = random_walk(g.hierarchy->tiling(), start, 6, 0x99);
  for (std::size_t i = 1; i < walk.size(); ++i) {
    g.net->move_and_quiesce(t, walk[i]);
  }
  g.net->start_find(g.at(26, 0), t);
  g.net->run_to_quiescence();
  sampler.finish();
  ASSERT_GT(sampler.samples_taken(), 0u);

  const std::string text = slurp(path);
  // Exposition format: every line is a comment or "name[{labels}] value".
  std::size_t pos = 0;
  int metrics = 0;
  while (pos < text.size()) {
    std::size_t nl = text.find('\n', pos);
    if (nl == std::string::npos) nl = text.size();
    const std::string line = text.substr(pos, nl - pos);
    pos = nl + 1;
    if (line.empty()) continue;
    if (line.rfind("# TYPE ", 0) == 0) continue;
    const std::size_t sp = line.rfind(' ');
    ASSERT_NE(sp, std::string::npos) << line;
    EXPECT_NO_THROW((void)std::stoll(line.substr(sp + 1))) << line;
    ++metrics;
  }
  EXPECT_GT(metrics, 20);
  // The histogram series a scraper needs, and the cumulative invariant:
  // the +Inf bucket equals _count.
  EXPECT_NE(text.find("vinestalk_find_latency_us_bucket{le=\"+Inf\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("vinestalk_find_latency_us_count 1"),
            std::string::npos);
  EXPECT_NE(text.find("vinestalk_find_latency_us_sum "), std::string::npos);
  // The per-sample telemetry gauges ride along.
  EXPECT_NE(text.find("vinestalk_telemetry_events_fired "),
            std::string::npos);
  EXPECT_NE(text.find("vinestalk_telemetry_t_us "), std::string::npos);
}

TEST(Metrics, CrossTypeRegistrationFailsFast) {
  obs::MetricsRegistry m;
  m.add("x.count");
  m.add("x.count", 3);  // same type: fine
  EXPECT_THROW(m.set_gauge("x.count", 1), vs::Error);
  static constexpr std::int64_t kBounds[] = {10, 100};
  EXPECT_THROW((void)m.histogram("x.count", kBounds), vs::Error);
  m.set_gauge("x.gauge", 7);
  m.set_gauge("x.gauge", 9);  // same type: fine
  EXPECT_THROW(m.add("x.gauge"), vs::Error);
  (void)m.histogram("x.hist", kBounds);
  EXPECT_THROW(m.add("x.hist"), vs::Error);
  EXPECT_THROW(m.set_gauge("x.hist", 1), vs::Error);
}

}  // namespace
}  // namespace vstest
