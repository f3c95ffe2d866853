// Observability layer: trace determinism across --jobs, causal span
// completeness for a scripted find, disabled-mode zero overhead, the
// Lemma replay of check_trace on hand-crafted violating traces (both the
// library and the vinestalk_trace binary), and metrics-merge determinism.

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/trace_io.hpp"
#include "obs/trace_query.hpp"
#include "runner/trial_pool.hpp"
#include "stats/counters.hpp"
#include "util.hpp"

namespace vstest {
namespace {

#ifndef VS_TRACE_TOOL_PATH
#error "VS_TRACE_TOOL_PATH must be defined by the build"
#endif

// One traced world: setup, short walk, one long-distance find, quiesced.
std::vector<obs::TraceEvent> traced_trial(std::size_t trial) {
  GridNet g = make_grid(27, 3);
  g.net->set_tracing(true);
  const RegionId start = g.at(13, 13);
  const TargetId t = g.net->add_evader(start);
  g.net->run_to_quiescence();
  const auto walk = random_walk(g.hierarchy->tiling(), start, 15,
                                runner::trial_seed(0x0B5, trial));
  for (std::size_t i = 1; i < walk.size(); ++i) {
    g.net->move_evader(t, walk[i]);
    g.net->run_to_quiescence();
  }
  g.net->start_find(g.at(0, 0), t);
  g.net->run_to_quiescence();
  return g.net->trace().events();
}

std::string trace_bytes_at_jobs(int jobs) {
  runner::TrialPool pool(jobs);
  auto parts = pool.run(4, traced_trial);
  const auto worlds = runner::merge_traces(std::move(parts));
  std::ostringstream os;
  obs::write_trace(os, worlds);
  return os.str();
}

TEST(TraceDeterminism, ByteIdenticalAcrossJobs) {
  const std::string serial = trace_bytes_at_jobs(1);
  EXPECT_EQ(serial, trace_bytes_at_jobs(2));
  EXPECT_EQ(serial, trace_bytes_at_jobs(8));
  if (obs::kTraceCompiled) {
    // The file must actually contain events, not be vacuously equal.
    const auto worlds = obs::read_trace(serial);
    ASSERT_EQ(worlds.size(), 4u);
    for (const auto& w : worlds) EXPECT_FALSE(w.events.empty());
  }
}

TEST(TraceSpan, ScriptedFindIsCompleteCausalChain) {
  if (!obs::kTraceCompiled) GTEST_SKIP() << "tracing compiled out";
  GridNet g = make_grid(27, 3);
  g.net->set_tracing(true);
  const TargetId t = g.net->add_evader(g.at(13, 13));
  g.net->run_to_quiescence();
  const FindId f = g.net->start_find(g.at(0, 0), t);
  g.net->run_to_quiescence();
  ASSERT_TRUE(g.net->find_result(f).done);

  const obs::WorldTrace w{0, g.net->trace().events()};
  const obs::FindSpan span = obs::find_span(w, f.value());
  EXPECT_TRUE(span.issued);
  EXPECT_TRUE(span.found);
  EXPECT_TRUE(span.causally_connected);
  EXPECT_TRUE(span.complete());
  EXPECT_GT(span.events.size(), 2u);

  // The full trace replays clean: every lemma check passes on real data.
  const obs::CheckReport report = obs::check_trace(w);
  EXPECT_TRUE(report.ok()) << report.to_string();

  const obs::TraceSummary s = obs::summarize(w);
  EXPECT_EQ(s.finds_issued, 1u);
  EXPECT_EQ(s.finds_completed, 1u);
  EXPECT_EQ(s.events, w.events.size());
  EXPECT_EQ(obs::find_ids(w), std::vector<std::int64_t>{f.value()});
}

TEST(TraceOverhead, DisabledModeAllocatesNothing) {
  GridNet g = make_grid(27, 3);  // tracing stays off
  const RegionId start = g.at(13, 13);
  const TargetId t = g.net->add_evader(start);
  g.net->run_to_quiescence();
  const auto walk = random_walk(g.hierarchy->tiling(), start, 10, 0x0FF);
  for (std::size_t i = 1; i < walk.size(); ++i) {
    g.net->move_evader(t, walk[i]);
    g.net->run_to_quiescence();
  }
  g.net->start_find(g.at(0, 0), t);
  g.net->run_to_quiescence();
  EXPECT_EQ(g.net->trace().segments_allocated(), 0u);
  EXPECT_EQ(g.net->trace().size(), 0u);
  EXPECT_TRUE(g.net->trace().empty());
}

// ---------------------------------------------------------------------------
// check_trace on hand-crafted traces.

obs::TraceEvent event(obs::TraceKind kind, std::int64_t time_us,
                      std::int16_t level = -1, std::uint8_t msg = obs::kNoMsg,
                      std::int32_t target = -1, std::int64_t find = -1) {
  return obs::TraceEvent{.time_us = time_us,
                         .seq = 0,
                         .cause = 0,
                         .find = find,
                         .a = 0,
                         .b = 1,
                         .target = target,
                         .arg = 0,
                         .level = level,
                         .kind = static_cast<std::uint8_t>(kind),
                         .msg = msg,
                         .extra = 0,
                         .op = obs::kBackgroundOp,
                         .pad0 = 0};
}

constexpr std::uint8_t kGrow =
    static_cast<std::uint8_t>(stats::MsgKind::kGrow);
constexpr std::uint8_t kShrink =
    static_cast<std::uint8_t>(stats::MsgKind::kShrink);
constexpr std::uint8_t kFindQuery =
    static_cast<std::uint8_t>(stats::MsgKind::kFindQuery);
constexpr std::uint8_t kFindAck =
    static_cast<std::uint8_t>(stats::MsgKind::kFindAck);

TEST(TraceCheck, CleanHandCraftedTracePasses) {
  obs::WorldTrace w;
  w.events = {event(obs::TraceKind::kSend, 0, 0, kGrow, /*target=*/7),
              event(obs::TraceKind::kSend, 10, 1, kGrow, 7),
              event(obs::TraceKind::kSend, 20, 1, kShrink, 7)};
  EXPECT_TRUE(obs::check_trace(w).ok());
}

TEST(TraceCheck, GrowLevelSkipViolatesLemma41) {
  obs::WorldTrace w;
  w.events = {event(obs::TraceKind::kSend, 0, 0, kGrow, 7),
              event(obs::TraceKind::kSend, 10, 2, kGrow, 7)};
  const auto report = obs::check_trace(w);
  ASSERT_EQ(report.violations.size(), 1u) << report.to_string();
  EXPECT_NE(report.violations[0].find("Lemma 4.1"), std::string::npos);
}

TEST(TraceCheck, FirstGrowAboveLevelZeroViolatesLemma41) {
  obs::WorldTrace w;
  w.events = {event(obs::TraceKind::kSend, 0, 1, kGrow, 7)};
  const auto report = obs::check_trace(w);
  ASSERT_EQ(report.violations.size(), 1u) << report.to_string();
  EXPECT_NE(report.violations[0].find("Lemma 4.1"), std::string::npos);
}

TEST(TraceCheck, ShrinkWithoutGrowViolatesLemma42) {
  obs::WorldTrace w;
  w.events = {event(obs::TraceKind::kSend, 0, 0, kGrow, 7),
              event(obs::TraceKind::kSend, 10, 1, kShrink, 7)};
  const auto report = obs::check_trace(w);
  ASSERT_EQ(report.violations.size(), 1u) << report.to_string();
  EXPECT_NE(report.violations[0].find("Lemma 4.2"), std::string::npos);
}

TEST(TraceCheck, FindAckWithoutQueryIsFlagged) {
  obs::WorldTrace w;
  w.events = {event(obs::TraceKind::kFindIssued, 0, -1, obs::kNoMsg, 7, 3),
              event(obs::TraceKind::kSend, 10, 0, kFindAck, 7, 3),
              event(obs::TraceKind::kFoundOutput, 20, -1, obs::kNoMsg, 7, 3)};
  const auto report = obs::check_trace(w);
  ASSERT_EQ(report.violations.size(), 1u) << report.to_string();
  EXPECT_NE(report.violations[0].find("findQuery"), std::string::npos);
}

TEST(TraceCheck, FoundWithoutIssueAndIssueWithoutFoundAreFlagged) {
  obs::WorldTrace w;
  w.events = {event(obs::TraceKind::kFindIssued, 0, -1, obs::kNoMsg, 7, 3),
              event(obs::TraceKind::kFoundOutput, 10, -1, obs::kNoMsg, 7, 4)};
  const auto report = obs::check_trace(w);
  ASSERT_EQ(report.violations.size(), 2u) << report.to_string();
  EXPECT_NE(report.violations[0].find("never issued"), std::string::npos);
  EXPECT_NE(report.violations[1].find("never completed"), std::string::npos);
}

TEST(TraceCheck, TimeBackwardsAndExcessDeliveriesAreFlagged) {
  obs::WorldTrace w;
  w.events = {event(obs::TraceKind::kSend, 100, 0, kGrow, 7),
              event(obs::TraceKind::kDeliver, 50, 0, kGrow, 7),
              event(obs::TraceKind::kDeliver, 110, 0, kGrow, 7)};
  const auto report = obs::check_trace(w);
  ASSERT_EQ(report.violations.size(), 2u) << report.to_string();
  EXPECT_NE(report.violations[0].find("backwards"), std::string::npos);
  EXPECT_NE(report.violations[1].find("deliveries"), std::string::npos);
}

// ---------------------------------------------------------------------------
// The vinestalk_trace binary end to end.

std::string run_tool(const std::string& args, int* exit_code) {
  const std::string cmd = std::string(VS_TRACE_TOOL_PATH) + " " + args + " 2>&1";
  FILE* pipe = popen(cmd.c_str(), "r");
  EXPECT_NE(pipe, nullptr);
  std::string out;
  std::array<char, 256> buf{};
  while (fgets(buf.data(), buf.size(), pipe) != nullptr) out += buf.data();
  const int status = pclose(pipe);
  *exit_code = status >= 256 ? status / 256 : status;  // WEXITSTATUS
  return out;
}

TEST(TraceTool, CheckFlagsHandCraftedViolation) {
  const std::string path = ::testing::TempDir() + "vs_bad_trace.bin";
  obs::WorldTrace w;
  w.events = {event(obs::TraceKind::kSend, 0, 0, kGrow, 7),
              event(obs::TraceKind::kSend, 10, 2, kGrow, 7)};
  obs::write_trace_file(path, {w});

  int code = 0;
  const std::string out = run_tool("check " + path, &code);
  EXPECT_EQ(code, 2) << out;
  EXPECT_NE(out.find("Lemma 4.1"), std::string::npos) << out;
  std::remove(path.c_str());
}

TEST(TraceTool, CheckAndSummaryAcceptCleanTrace) {
  const std::string path = ::testing::TempDir() + "vs_good_trace.bin";
  obs::WorldTrace w;
  w.events = {event(obs::TraceKind::kSend, 0, 0, kGrow, 7),
              event(obs::TraceKind::kSend, 10, 1, kGrow, 7)};
  obs::write_trace_file(path, {w});

  int code = 1;
  const std::string out = run_tool("check " + path, &code);
  EXPECT_EQ(code, 0) << out;
  EXPECT_NE(out.find("check: OK"), std::string::npos) << out;

  const std::string summary = run_tool("summary " + path, &code);
  EXPECT_EQ(code, 0) << summary;
  EXPECT_NE(summary.find("events"), std::string::npos) << summary;
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Metrics.

TEST(Metrics, MergeIsCommutativeAndJsonStable) {
  constexpr std::array<std::int64_t, 3> kBounds{10, 100, 1000};
  obs::MetricsRegistry a;
  a.add("msgs", 5);
  a.set_gauge("time_us", 400);
  a.histogram("lat", kBounds).record(7);
  a.histogram("lat", kBounds).record(5000);
  obs::MetricsRegistry b;
  b.add("msgs", 3);
  b.add("drops", 1);
  b.set_gauge("time_us", 900);
  b.histogram("lat", kBounds).record(50);

  obs::MetricsRegistry ab = a;
  ab.merge(b);
  obs::MetricsRegistry ba = b;
  ba.merge(a);

  std::ostringstream os_ab, os_ba;
  ab.to_json(os_ab);
  ba.to_json(os_ba);
  EXPECT_EQ(os_ab.str(), os_ba.str());

  EXPECT_EQ(ab.counter("msgs"), 8);
  EXPECT_EQ(ab.counter("drops"), 1);
  EXPECT_EQ(ab.gauge("time_us"), 900);
  const obs::Histogram* h = ab.find_histogram("lat");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count(), 3);
  EXPECT_EQ(h->sum(), 7 + 5000 + 50);
  EXPECT_EQ(h->buckets().back(), 1);  // the 5000 overflow
}

TEST(Metrics, ExportedNetworkMetricsAreDeterministic) {
  const auto run = [] {
    GridNet g = make_grid(27, 3);
    const TargetId t = g.net->add_evader(g.at(13, 13));
    g.net->run_to_quiescence();
    g.net->start_find(g.at(0, 0), t);
    g.net->run_to_quiescence();
    std::ostringstream os;
    g.net->export_metrics().to_json(os);
    return os.str();
  };
  const std::string first = run();
  EXPECT_EQ(first, run());
  EXPECT_NE(first.find("find.completed"), std::string::npos);
  EXPECT_NE(first.find("sched.events_fired"), std::string::npos);
}

TEST(Metrics, PoolMergeMatchesSerialFold) {
  runner::TrialPool pool(4);
  auto parts = pool.run(6, [](std::size_t trial) {
    obs::MetricsRegistry m;
    m.add("trials");
    m.add("value", static_cast<std::int64_t>(trial));
    m.set_gauge("max_trial", static_cast<std::int64_t>(trial));
    return m;
  });
  const obs::MetricsRegistry merged = runner::merge_metrics(parts);
  EXPECT_EQ(merged.counter("trials"), 6);
  EXPECT_EQ(merged.counter("value"), 0 + 1 + 2 + 3 + 4 + 5);
  EXPECT_EQ(merged.gauge("max_trial"), 5);
}

TEST(Metrics, HistogramPercentilesAreExactOnUniformFill) {
  obs::MetricsRegistry m;
  // Bucket bounds at every integer 1..100: the interpolated estimate of a
  // quantile over a uniform 1..100 fill is the exact nearest value.
  std::vector<std::int64_t> bounds;
  for (std::int64_t i = 1; i <= 100; ++i) bounds.push_back(i);
  auto& h = m.histogram("latency", bounds);
  for (std::int64_t v = 1; v <= 100; ++v) h.record(v);
  EXPECT_EQ(h.percentile(0.50), 50);
  EXPECT_EQ(h.percentile(0.90), 90);
  EXPECT_EQ(h.percentile(0.99), 99);
  EXPECT_EQ(h.percentile(0.0), 1);
  EXPECT_EQ(h.percentile(1.0), 100);

  std::ostringstream os;
  h.to_json(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"p50\": 50"), std::string::npos) << json;
  EXPECT_NE(json.find("\"p90\": 90"), std::string::npos) << json;
  EXPECT_NE(json.find("\"p99\": 99"), std::string::npos) << json;
}

TEST(Metrics, EmptyHistogramPercentilesAreZero) {
  const std::vector<std::int64_t> bounds{10, 100};
  obs::Histogram h{std::span<const std::int64_t>(bounds)};
  EXPECT_EQ(h.percentile(0.5), 0);
  EXPECT_EQ(h.percentile(0.99), 0);
}

TEST(Metrics, PercentileClampsToObservedRangeOnOverflowBucket) {
  const std::vector<std::int64_t> bounds{10};  // [≤10] and overflow
  obs::Histogram h{std::span<const std::int64_t>(bounds)};
  h.record(5);
  h.record(5000);              // lands in the overflow bucket
  EXPECT_EQ(h.percentile(0.99), 5000);  // clamped to max, not +inf
}

// Log-bucketed histograms are the SLO monitor's latency currency: merge is
// the TrialPool / sidecar fold, percentile the alert threshold, from_parts
// the VSSLO1 reader. All three have to agree bucket-for-bucket.

TEST(Metrics, Log2BoundsDoubleFromLoToHi) {
  const std::vector<std::int64_t> b = obs::log2_bounds(1'000, 8'000);
  EXPECT_EQ(b, (std::vector<std::int64_t>{1'000, 2'000, 4'000, 8'000}));
  // hi between bounds: the ladder runs to the first bound >= hi.
  EXPECT_EQ(obs::log2_bounds(1, 5).back(), 8);
  EXPECT_EQ(obs::log2_bounds(7, 7), (std::vector<std::int64_t>{7}));
}

TEST(Metrics, LogBucketMergeSumsBucketsAndTallies) {
  const std::vector<std::int64_t> bounds = obs::log2_bounds(1, 1024);
  obs::Histogram a{std::span<const std::int64_t>(bounds)};
  obs::Histogram b{std::span<const std::int64_t>(bounds)};
  for (const std::int64_t v : {1, 3, 700}) a.record(v);
  for (const std::int64_t v : {2, 3, 5'000}) b.record(v);  // 5000 overflows

  obs::Histogram ab = a;
  ab.merge(b);
  obs::Histogram ba = b;
  ba.merge(a);
  // Commutative merge: trial-index order is a determinism convention, not
  // a correctness requirement.
  EXPECT_EQ(ab.buckets(), ba.buckets());
  EXPECT_EQ(ab.count(), 6);
  EXPECT_EQ(ab.sum(), 1 + 3 + 700 + 2 + 3 + 5'000);
  EXPECT_EQ(ab.min(), 1);
  EXPECT_EQ(ab.max(), 5'000);
  EXPECT_EQ(ab.buckets().back(), 1) << "the overflow sample";
  std::int64_t total = 0;
  for (const std::int64_t c : ab.buckets()) total += c;
  EXPECT_EQ(total, ab.count()) << "every sample lands in exactly one bucket";

  // Merging an empty histogram is the identity, in both directions.
  obs::Histogram empty{std::span<const std::int64_t>(bounds)};
  obs::Histogram ab2 = ab;
  ab2.merge(empty);
  EXPECT_EQ(ab2.buckets(), ab.buckets());
  EXPECT_EQ(ab2.min(), ab.min());
  empty.merge(ab);
  EXPECT_EQ(empty.buckets(), ab.buckets());
  EXPECT_EQ(empty.count(), ab.count());
}

TEST(Metrics, LogBucketPercentileAtBucketEdges) {
  const std::vector<std::int64_t> bounds = obs::log2_bounds(1, 8);
  obs::Histogram h{std::span<const std::int64_t>(bounds)};
  // One sample exactly on every bound: 1, 2, 4, 8.
  for (const std::int64_t v : bounds) h.record(v);
  EXPECT_EQ(h.percentile(0.0), 1) << "q=0 is the observed minimum";
  EXPECT_EQ(h.percentile(1.0), 8) << "q=1 is the observed maximum";
  EXPECT_EQ(h.percentile(0.25), 1) << "the first quarter sits in bucket 0";
  // A single-sample histogram answers every quantile with that sample.
  obs::Histogram one{std::span<const std::int64_t>(bounds)};
  one.record(4);
  EXPECT_EQ(one.percentile(0.0), 4);
  EXPECT_EQ(one.percentile(0.5), 4);
  EXPECT_EQ(one.percentile(0.999), 4);
}

TEST(Metrics, HistogramFromPartsRoundTrips) {
  const std::vector<std::int64_t> bounds = obs::log2_bounds(1'000, 1 << 20);
  obs::Histogram h{std::span<const std::int64_t>(bounds)};
  for (const std::int64_t v : {1'500, 3'000, 3'000, 900'000}) h.record(v);
  const obs::Histogram back = obs::Histogram::from_parts(
      h.bounds(), h.buckets(), h.count(), h.sum(), h.min(), h.max());
  EXPECT_EQ(back.bounds(), h.bounds());
  EXPECT_EQ(back.buckets(), h.buckets());
  EXPECT_EQ(back.count(), h.count());
  EXPECT_EQ(back.sum(), h.sum());
  EXPECT_EQ(back.percentile(0.5), h.percentile(0.5));
  EXPECT_EQ(back.percentile(0.99), h.percentile(0.99));
  // A reconstructed histogram keeps recording and merging like the
  // original — the sidecar reader's output is a first-class histogram.
  obs::Histogram grown = back;
  grown.merge(h);
  EXPECT_EQ(grown.count(), 2 * h.count());
}

// ---------------------------------------------------------------------------
// trace_io hardening: short and damaged files fail loudly in the library
// and make the tool exit 1 with a diagnostic.

TEST(TraceIO, TruncatedStreamThrows) {
  std::ostringstream os;
  obs::WorldTrace w;
  w.events = {event(obs::TraceKind::kSend, 0, 0, kGrow, 7),
              event(obs::TraceKind::kSend, 10, 1, kGrow, 7)};
  obs::write_trace(os, {w});
  const std::string bytes = os.str();

  for (const std::size_t keep :
       {bytes.size() / 4, bytes.size() / 2, bytes.size() - 4}) {
    EXPECT_THROW((void)obs::read_trace(bytes.substr(0, keep)), vs::Error)
        << keep;
  }
}

TEST(TraceIO, BadMagicThrows) {
  std::ostringstream os;
  obs::write_trace(os, {});
  std::string bytes = os.str();
  bytes[0] = 'X';
  EXPECT_THROW((void)obs::read_trace(bytes), vs::Error);
}

TEST(TraceIO, CraftedHeadersThrowWithoutHugeAllocations) {
  // Headers whose counts claim far more than the stream holds: memory
  // must track the bytes read, so each fails as truncated instead of
  // allocating 256 GiB (2^32 events x 64 B) or 2^32 world slots first.
  const auto header = [](std::uint32_t version, std::uint32_t worlds) {
    std::string b("VSTRACE1", 8);
    b.append(reinterpret_cast<const char*>(&version), sizeof version);
    b.append(reinterpret_cast<const char*>(&worlds), sizeof worlds);
    return b;
  };
  std::string huge_world = header(obs::kTraceFormatVersion, 1);
  const std::uint32_t world = 0, reserved = 0;
  const std::uint64_t count = std::uint64_t{1} << 32;
  huge_world.append(reinterpret_cast<const char*>(&world), sizeof world);
  huge_world.append(reinterpret_cast<const char*>(&reserved),
                    sizeof reserved);
  huge_world.append(reinterpret_cast<const char*>(&count), sizeof count);
  ASSERT_EQ(huge_world.size(), 32u);
  for (const std::string& bytes :
       {huge_world, header(obs::kTraceFormatVersion, 0xffffffffu)}) {
    EXPECT_THROW((void)obs::read_trace(bytes), vs::Error);
  }

  // Version 2 (56-byte records) is no longer read, even when the rest of
  // the file is well formed.
  std::string v2 = header(2, 0);
  const std::uint64_t total = 0;
  v2.append(reinterpret_cast<const char*>(&total), sizeof total);
  v2.append("VSTREND1", 8);
  try {
    (void)obs::read_trace(v2);
    ADD_FAILURE() << "a v2 trace was accepted";
  } catch (const vs::Error& e) {
    EXPECT_NE(std::string(e.what()).find("unsupported trace format version"),
              std::string::npos)
        << e.what();
  }
}

TEST(TraceTool, TruncatedFileExitsOneWithDiagnostic) {
  const std::string path = ::testing::TempDir() + "vs_truncated_trace.bin";
  {
    std::ostringstream os;
    obs::WorldTrace w;
    w.events = {event(obs::TraceKind::kSend, 0, 0, kGrow, 7)};
    obs::write_trace(os, {w});
    const std::string bytes = os.str();
    std::ofstream f(path, std::ios::binary);
    f.write(bytes.data(),
            static_cast<std::streamsize>(bytes.size() / 2));
  }
  int code = 0;
  const std::string out = run_tool("summary " + path, &code);
  EXPECT_EQ(code, 1) << out;
  EXPECT_NE(out.find("truncated"), std::string::npos) << out;
  std::remove(path.c_str());
}

TEST(TraceTool, SummaryReportsFindLatencyPercentiles) {
  const std::string path = ::testing::TempDir() + "vs_latency_trace.bin";
  obs::WorldTrace w;
  // Three finds with latencies 10, 20, 30 us.
  for (std::int64_t f = 0; f < 3; ++f) {
    w.events.push_back(event(obs::TraceKind::kFindIssued, f * 100, -1,
                             obs::kNoMsg, 7, f));
    w.events.push_back(event(obs::TraceKind::kFoundOutput,
                             f * 100 + 10 * (f + 1), -1, obs::kNoMsg, 7, f));
  }
  obs::write_trace_file(path, {w});
  int code = 1;
  const std::string out = run_tool("summary " + path, &code);
  EXPECT_EQ(code, 0) << out;
  EXPECT_NE(out.find("p50"), std::string::npos) << out;
  EXPECT_NE(out.find("p99"), std::string::npos) << out;
  std::remove(path.c_str());
}

}  // namespace
}  // namespace vstest
