// The time-series telemetry subsystem: VSTELEM1 streams are byte-identical
// at every --jobs value (the boundary-hook guarantee); the
// disabled sampler holds nothing and arms nothing; the in-memory ring keeps
// exactly the last K samples; the sliding-window bound audit raises its
// incident mid-run — strictly before the run ends — and the bundle replays
// exactly; vinestalk_top --once renders a golden frame from series it
// finds by name; the vinestalk_trace summary prints rates for counters
// only; the Prometheus snapshot is well-formed exposition text typed by
// series kind; and MetricsRegistry rejects registering one name as two
// metric types.

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <utility>
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

#if !defined(VS_TOP_PATH) || !defined(VS_TRACE_TOOL_PATH)
#error "VS_TOP_PATH and VS_TRACE_TOOL_PATH must be defined by the build"
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
  h.series = {{"events_fired", obs::SeriesKind::kCounter},
              {"find_latency_p50_us", obs::SeriesKind::kGauge}};
  obs::TelemetryWriter writer(path, h);
  obs::TelemetrySample s;
  s.values.assign(h.series.size(), 0);
  s.t_us = 1000;
  s.values[0] = 7;
  writer.append(s);
  s.t_us = 2000;
  s.values[0] = 11;
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
  EXPECT_EQ(tail.samples[1].values[0], 11);
  writer.finish();
  const obs::TelemetryFile full = obs::read_telemetry_file(path);
  EXPECT_TRUE(full.complete);
  EXPECT_EQ(full.samples.size(), 2u);
  // The header round-trips: names and kinds in values order.
  ASSERT_EQ(full.header.series.size(), 2u);
  EXPECT_EQ(full.header.series[1].name, "find_latency_p50_us");
  EXPECT_EQ(full.header.series[1].kind, obs::SeriesKind::kGauge);
  EXPECT_EQ(full.header.index_of("events_fired"), 0u);
  EXPECT_FALSE(full.header.index_of("events").has_value());
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

std::string run_tool(const std::string& cmd_line, int* exit_code) {
  const std::string cmd = cmd_line + " 2>&1";
  FILE* pipe = popen(cmd.c_str(), "r");
  EXPECT_NE(pipe, nullptr);
  std::string out;
  std::array<char, 256> buf{};
  while (fgets(buf.data(), buf.size(), pipe) != nullptr) out += buf.data();
  const int status = pclose(pipe);
  *exit_code = status >= 256 ? status / 256 : status;  // WEXITSTATUS
  return out;
}

/// A two-sample stream with header `h`: all zeros at 1000us, then `last`.
void write_two_samples(const std::string& path,
                       const obs::TelemetryHeader& h,
                       const std::vector<std::int64_t>& last) {
  obs::TelemetryWriter writer(path, h);
  obs::TelemetrySample a;
  a.t_us = 1000;
  a.values.assign(h.series.size(), 0);
  writer.append(a);
  obs::TelemetrySample b;
  b.t_us = 2000;
  b.values = last;
  writer.append(b);
  writer.finish();
}

TEST(Telemetry, TopOnceRendersGoldenFrame) {
  // A hand-crafted two-sample stream, so the --once render exercises
  // every dashboard element deterministically. It carries only the series
  // the frame shows, shuffled, behind one series the dashboard does not
  // know: the dashboard finds each series by name.
  const std::string path = testing::TempDir() + "telem_top.vst";
  const struct {
    const char* name;
    obs::SeriesKind kind;
    std::int64_t value;
  } shown[] = {
      {"not_a_dashboard_series", obs::SeriesKind::kCounter, 123},
      {"find_latency_p90_us", obs::SeriesKind::kGauge, 2500},
      {"audit_move_time_ratio_milli", obs::SeriesKind::kGauge, 1600},
      {"heartbeats", obs::SeriesKind::kCounter, 8},
      {"finds_completed", obs::SeriesKind::kCounter, 2},
      {"audit_find_work_ratio_milli", obs::SeriesKind::kGauge, 300},
      {"events_fired", obs::SeriesKind::kCounter, 500},
      {"find_latency_p99_us", obs::SeriesKind::kGauge, 4000},
      {"work_total", obs::SeriesKind::kCounter, 900},
      {"audit_move_work_ratio_milli", obs::SeriesKind::kGauge, 700},
      {"finds_issued", obs::SeriesKind::kCounter, 3},
      {"msgs_total", obs::SeriesKind::kCounter, 400},
      {"audit_find_time_ratio_milli", obs::SeriesKind::kGauge, 450},
      {"find_latency_p50_us", obs::SeriesKind::kGauge, 1500},
  };
  obs::TelemetryHeader h;
  h.cadence_us = 1000;
  std::vector<std::int64_t> last;
  for (const auto& s : shown) {
    h.series.push_back({s.name, s.kind});
    last.push_back(s.value);
  }
  write_two_samples(path, h, last);
  int rc = -1;
  const std::string out =
      run_tool(std::string(VS_TOP_PATH) + " " + path + " --once", &rc);
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

  // Nothing writes header flags, so a stream that sets them is rejected.
  std::string bytes = slurp(path);
  bytes[12] = 1;  // flags: after the 8-byte magic and the u32 version
  const std::string flagged = testing::TempDir() + "telem_top_flagged.vst";
  std::ofstream(flagged, std::ios::binary) << bytes;
  EXPECT_THROW((void)obs::read_telemetry_file(flagged), vs::Error);
}

TEST(Telemetry, SummaryPrintsRatesOnlyForCounters) {
  // The sampler's own header (names and kinds from its series table) over
  // two hand-set samples: a counter and a gauge that both moved.
  GridNet g = make_grid(9, 3);
  const obs::TelemetrySampler sampler(*g.net, obs::TelemetryConfig{});
  obs::TelemetryHeader h = sampler.header();
  h.cadence_us = 1000;
  std::vector<std::int64_t> last(h.series.size(), 0);
  last[h.index_of("events_fired").value()] = 1000;
  last[h.index_of("ingest_queue_depth_peak").value()] = 64;
  const std::string path = testing::TempDir() + "telem_summary.vst";
  write_two_samples(path, h, last);

  int rc = -1;
  const std::string out = run_tool(
      std::string(VS_TRACE_TOOL_PATH) + " telemetry " + path, &rc);
  EXPECT_EQ(rc, 0);
  EXPECT_NE(out.find("  cadence 1000us, " + std::to_string(h.series.size()) +
                     " series, max level 2\n"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("  events_fired: 1000 (1000000/s over the stream)\n"),
            std::string::npos)
      << out;
  // A high-water mark is a gauge: a per-second rate of it means nothing.
  EXPECT_NE(out.find("  ingest_queue_depth_peak: 64\n"), std::string::npos)
      << out;
}

TEST(Telemetry, ExtremeValuesRoundTripAndViewersStayDefined) {
  // A stream may carry any int64: deltas wrap on the way in and sums wrap
  // on the way out, so extreme values round-trip exactly, and the viewers'
  // differences wrap too (the sanitizer build aborts on a signed
  // overflow, so there this checks that none happens).
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  obs::TelemetryHeader h;
  h.cadence_us = 1000;
  for (const char* name :
       {"events_fired", "msgs_total", "work_total", "finds_completed",
        "heartbeats", "ingest_ingested", "ingest_applied",
        "ingest_suppressed", "ingest_dropped", "ingest_shed_tier1_entries",
        "ingest_shed_tier2_entries", "ingest_shed_tier3_entries",
        "ingest_queue_depth_peak"}) {
    h.series.push_back({name, obs::SeriesKind::kCounter});
  }
  const std::string path = testing::TempDir() + "telem_extreme.vst";
  {
    obs::TelemetryWriter writer(path, h);
    obs::TelemetrySample s;
    for (const auto& [t, v] : {std::pair{kMin, std::int64_t{0}},
                               std::pair{std::int64_t{1000}, kMin},
                               std::pair{std::int64_t{2000}, kMax}}) {
      s.t_us = t;
      s.values.assign(h.series.size(), v);
      writer.append(s);
    }
  }
  const obs::TelemetryFile f = obs::read_telemetry_file(path);
  ASSERT_EQ(f.samples.size(), 3u);
  EXPECT_EQ(f.samples[0].t_us, kMin);
  EXPECT_EQ(f.samples[1].values[0], kMin);
  EXPECT_EQ(f.samples[2].values[4], kMax);

  int rc = -1;
  (void)run_tool(std::string(VS_TRACE_TOOL_PATH) + " telemetry " + path,
                 &rc);
  EXPECT_EQ(rc, 0);
  (void)run_tool(std::string(VS_TOP_PATH) + " " + path + " --once", &rc);
  EXPECT_EQ(rc, 0);
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
  // The per-sample telemetry series ride along, typed by their kind.
  EXPECT_NE(text.find("vinestalk_telemetry_events_fired "),
            std::string::npos);
  EXPECT_NE(text.find("vinestalk_telemetry_t_us "), std::string::npos);
  EXPECT_NE(text.find("# TYPE vinestalk_telemetry_events_fired counter\n"),
            std::string::npos);
  EXPECT_NE(
      text.find("# TYPE vinestalk_telemetry_find_latency_p99_us gauge\n"),
      std::string::npos);
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
