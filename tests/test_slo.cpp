// Request-level SLO observability (src/obs/slo): the strict `slo v1` spec
// round-trip, log-spaced find-distance bands, RAII span accounting into
// RED counters and latency histograms, the multi-window burn-rate
// evaluator and its VSINCID1 incidents (spec + window state + exemplars),
// the VSSLO1 sidecar round-trip and its JSON / Prometheus / CSV
// renderings, the VSTELEM1 serve-RPC series, and
// the quarantine doctrine end to end: every deterministic artifact of
// vinestalk_served is byte-identical SLO on vs off, while a tight spec
// fires a burn-rate incident whose exemplar OpId replays exactly.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include <sys/stat.h>
#include <sys/wait.h>

#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "obs/monitor/incident.hpp"
#include "obs/op.hpp"
#include "obs/slo/slo.hpp"
#include "obs/slo/slo_io.hpp"
#include "obs/telemetry/telemetry.hpp"
#include "obs/telemetry/telemetry_io.hpp"
#include "obs/trace.hpp"
#include "serve/server.hpp"
#include "stats/counters.hpp"
#include "util.hpp"

namespace vstest {
namespace {

#ifndef VS_SERVED_PATH
#error "VS_SERVED_PATH must be defined by the build"
#endif
#ifndef VS_TOP_PATH
#error "VS_TOP_PATH must be defined by the build"
#endif
#ifndef VS_TRACE_TOOL_PATH
#error "VS_TRACE_TOOL_PATH must be defined by the build"
#endif

std::string tmp_path(const std::string& stem) {
  return testing::TempDir() + stem;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void spit(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::string run_cmd(const std::string& cmd, int* exit_code = nullptr) {
  FILE* pipe = popen(cmd.c_str(), "r");
  EXPECT_NE(pipe, nullptr);
  std::string out;
  std::array<char, 256> buf{};
  while (fgets(buf.data(), buf.size(), pipe) != nullptr) out += buf.data();
  const int rc = pclose(pipe);
  if (exit_code != nullptr) *exit_code = WEXITSTATUS(rc);
  return out;
}

/// Daemon run capturing stdout ONLY — the byte-identity artifact. All SLO
/// chatter (burn alerts, sidecar notices) goes to stderr by design.
std::string run_served_stdout(const std::string& args) {
  return run_cmd(std::string(VS_SERVED_PATH) + " " + args + " 2>/dev/null");
}

/// Daemon run capturing stdout + stderr (to see the SLO BURN alerts).
std::string run_served(const std::string& args, int* exit_code = nullptr) {
  return run_cmd(std::string(VS_SERVED_PATH) + " " + args + " 2>&1",
                 exit_code);
}

// ------------------------------------------------------------- spec format

TEST(SloSpec, CanonicalExampleRoundTrips) {
  obs::SloSpec spec;
  spec.objectives.push_back(
      {obs::SloClass::kFind, /*ns_per_d=*/false, 990, 2'000'000});
  spec.objectives.push_back(
      {obs::SloClass::kFind, /*ns_per_d=*/true, 990, 1'500});
  spec.avail_milli = 99'900;
  const std::string text = spec.to_string();
  EXPECT_EQ(text,
            "slo v1\n"
            "objective find p99 <= 2000000ns\n"
            "objective find ns_per_d p99 <= 1500\n"
            "availability >= 99.900\n"
            "window short 300000000us long 3600000000us\n"
            "burn fast 14.40 slow 6.00\n"
            "clock virtual\n"
            "end\n");
  EXPECT_EQ(obs::SloSpec::parse(text), spec);
}

TEST(SloSpec, QuantilesAndUnitsCanonicalize) {
  // p5 = p50 = median; p95 has two digits; p999 keeps three. Targets
  // accept us/ms and canonicalize to ns; ns_per_d targets are plain ints.
  const obs::SloSpec spec = obs::SloSpec::parse(
      "slo v1\n"
      "objective update p5 <= 2ms\n"
      "objective find p95 <= 100us\n"
      "objective round p999 <= 7ns\n"
      "window short 1000us long 2000us\n"
      "burn fast 1.00 slow 1.00\n"
      "clock wall\n"
      "end\n");
  ASSERT_EQ(spec.objectives.size(), 3u);
  EXPECT_EQ(spec.objectives[0].permille, 500);
  EXPECT_EQ(spec.objectives[0].target_ns, 2'000'000);
  EXPECT_EQ(spec.objectives[1].permille, 950);
  EXPECT_EQ(spec.objectives[1].target_ns, 100'000);
  EXPECT_EQ(spec.objectives[2].permille, 999);
  EXPECT_EQ(spec.objectives[2].target_ns, 7);
  EXPECT_TRUE(spec.wall_clock);
  EXPECT_EQ(spec.objectives[0].to_string(), "update p50 <= 2000000ns");
  EXPECT_EQ(spec.objectives[2].to_string(), "round p999 <= 7ns");
  EXPECT_EQ(obs::SloSpec::parse(spec.to_string()), spec);
}

TEST(SloSpec, ParseIsStrict) {
  const char* bad[] = {
      // missing header
      "objective find p99 <= 1ns\nend\n",
      // missing end
      "slo v1\nobjective find p99 <= 1ns\n",
      // unknown line
      "slo v1\nobjektive find p99 <= 1ns\nend\n",
      // content after end
      "slo v1\nend\nobjective find p99 <= 1ns\n",
      // quantile out of range
      "slo v1\nobjective find p0 <= 1ns\nend\n",
      "slo v1\nobjective find p1000 <= 1ns\nend\n",
      // ns_per_d only applies to find
      "slo v1\nobjective update ns_per_d p99 <= 5\nend\n",
      // target needs a unit suffix (and a known one)
      "slo v1\nobjective find p99 <= 2000000\nend\n",
      "slo v1\nobjective find p99 <= 2s\nend\n",
      // availability must be in (0, 100)%
      "slo v1\navailability >= 100.000\nend\n",
      // short window must not exceed the long one
      "slo v1\nwindow short 2000us long 1000us\nend\n",
      // burn thresholds must be positive
      "slo v1\nburn fast 0.00 slow 6.00\nend\n",
      // a decorated end line is not an end line
      "slo v1\nend now\n",
  };
  for (const char* text : bad) {
    EXPECT_THROW((void)obs::SloSpec::parse(text), Error) << text;
  }
}

TEST(SloSpec, FindBandsAreLogSpaced) {
  EXPECT_EQ(obs::slo_find_band(0), 0u);
  EXPECT_EQ(obs::slo_find_band(1), 0u);
  EXPECT_EQ(obs::slo_find_band(2), 1u);
  EXPECT_EQ(obs::slo_find_band(3), 2u);
  EXPECT_EQ(obs::slo_find_band(4), 2u);
  EXPECT_EQ(obs::slo_find_band(5), 3u);
  EXPECT_EQ(obs::slo_find_band(8), 3u);
  EXPECT_EQ(obs::slo_find_band(1'000'000), obs::kSloFindBands - 1);
  EXPECT_EQ(obs::slo_band_label(0), "d<=1");
  EXPECT_EQ(obs::slo_band_label(3), "d 5-8");
  EXPECT_EQ(obs::slo_band_label(obs::kSloFindBands - 1), "d>64");
}

// ---------------------------------------------------------------- monitor

TEST(SloMonitor, SpansRecordRedCountersAndBands) {
  obs::SloMonitor mon{obs::SloSpec{}};
  const obs::OpId op = obs::make_op(obs::OpClass::kFindSearch, 3);
  {
    obs::SloSpan span(&mon, obs::SloClass::kFind);
    EXPECT_TRUE(span.armed());
    span.close_find(/*t_us=*/1'000, op, /*distance=*/5,
                    /*deadline_missed=*/false);
  }
  // An abandoned span is the exception-path safety net: RED error.
  { obs::SloSpan dropped(&mon, obs::SloClass::kFind); }
  // A moved-from span must not double count.
  {
    obs::SloSpan a(&mon, obs::SloClass::kRound);
    obs::SloSpan b(std::move(a));
    b.close_round(/*t_us=*/2'000);
  }
  mon.note_errors(obs::SloClass::kUpdate, /*t_us=*/2'000, 3);

  const obs::SloReport rep = mon.report();
  const auto& find = rep.classes[static_cast<std::size_t>(
      obs::SloClass::kFind)];
  EXPECT_EQ(find.requests, 2);
  EXPECT_EQ(find.errors, 1);
  EXPECT_EQ(find.latency.count(), 1);
  const auto& round = rep.classes[static_cast<std::size_t>(
      obs::SloClass::kRound)];
  EXPECT_EQ(round.requests, 1);
  EXPECT_EQ(round.errors, 0);
  const auto& update = rep.classes[static_cast<std::size_t>(
      obs::SloClass::kUpdate)];
  EXPECT_EQ(update.requests, 3);
  EXPECT_EQ(update.errors, 3);
  EXPECT_EQ(update.latency.count(), 0) << "errors carry no latency sample";
  // d=5 lands in the "d 5-8" band; ns_per_d recorded once per find.
  ASSERT_EQ(rep.find_bands.size(), 1u);
  EXPECT_EQ(rep.find_bands[0].first, 3u);
  EXPECT_EQ(rep.find_ns_per_d.count(), 1);
  ASSERT_FALSE(rep.exemplars.empty());
  bool saw_op = false;
  for (const obs::SloExemplar& e : rep.exemplars) {
    if (e.op == op) {
      saw_op = true;
      EXPECT_EQ(e.distance, 5);
      EXPECT_EQ(e.t_us, 1'000);
    }
  }
  EXPECT_TRUE(saw_op) << "the find exemplar must link its OpId";
  EXPECT_EQ(rep.end_t_us, 2'000);
  EXPECT_FALSE(mon.any_fired()) << "no objectives declared, nothing fires";
}

TEST(SloMonitor, BurnRateFiresOnceWhenBothWindowsExceed) {
  obs::SloSpec spec = obs::SloSpec::parse(
      "slo v1\n"
      "objective find p99 <= 1ns\n"
      "window short 100us long 1000us\n"
      "burn fast 1.00 slow 1.00\n"
      "clock virtual\n"
      "end\n");
  obs::SloMonitor mon(std::move(spec));
  std::vector<obs::IncidentBundle> fired;
  mon.set_incident_sink(
      [&](const obs::IncidentBundle& b) { fired.push_back(b); });

  const obs::OpId op = obs::make_op(obs::OpClass::kFindTrace, 7);
  for (int i = 0; i < 4; ++i) {
    // Real clock reads: every span lasts > 1ns, so every find violates.
    mon.close_find(obs::SloMonitor::now_ns(),
                   /*t_us=*/10 * (i + 1), op, /*distance=*/2,
                   /*deadline_missed=*/false);
  }
  ASSERT_EQ(fired.size(), 1u) << "fires once per objective, not per close";
  const obs::IncidentBundle& b = fired[0];
  EXPECT_EQ(b.source, "slo");
  EXPECT_EQ(b.violation.predicate, "slo-burn-rate:find p99 <= 1ns");
  EXPECT_EQ(b.violation.time_us, 10);
  EXPECT_NE(b.violation.detail.find("error budget burn rate"),
            std::string::npos);
  EXPECT_NE(b.scenario.slo_spec.find("objective find p99 <= 1ns"),
            std::string::npos);
  EXPECT_NE(b.slo_state_json.find("\"fired\": true"), std::string::npos)
      << b.slo_state_json;
  ASSERT_FALSE(b.slo_exemplars.empty());
  EXPECT_EQ(b.slo_exemplars[0].op, op);
  EXPECT_TRUE(mon.any_fired());

  const obs::SloReport rep = mon.report();
  ASSERT_EQ(rep.objectives.size(), 1u);
  EXPECT_TRUE(rep.objectives[0].fired);
  EXPECT_GE(rep.objectives[0].burn_short_centi, 100);
  EXPECT_EQ(rep.budget_remaining_milli(0), 0)
      << "a 100% violation rate leaves no budget";
}

TEST(SloMonitor, AvailabilityObjectiveBurnsOnErrors) {
  obs::SloSpec spec = obs::SloSpec::parse(
      "slo v1\n"
      "availability >= 99.000\n"
      "window short 100us long 1000us\n"
      "burn fast 1.00 slow 1.00\n"
      "clock virtual\n"
      "end\n");
  obs::SloMonitor mon(std::move(spec));
  std::vector<obs::IncidentBundle> fired;
  mon.set_incident_sink(
      [&](const obs::IncidentBundle& b) { fired.push_back(b); });
  mon.note_errors(obs::SloClass::kUpdate, /*t_us=*/50, 5);
  mon.evaluate(/*t_us=*/50);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0].violation.predicate,
            "slo-burn-rate:availability >= 99.000");
}

TEST(SloMonitor, BurnWindowsPruneOldBuckets) {
  obs::SloSpec spec = obs::SloSpec::parse(
      "slo v1\n"
      "objective find p99 <= 1ns\n"
      "window short 100us long 200us\n"
      // Above the 100.00x ceiling a p99 objective can burn at, so the
      // evaluator never fires and the window arithmetic stays visible.
      "burn fast 200.00 slow 200.00\n"
      "clock virtual\n"
      "end\n");
  obs::SloMonitor mon(std::move(spec));
  mon.close_find(obs::SloMonitor::now_ns(), /*t_us=*/50,
                 obs::kBackgroundOp, 1, false);
  {
    const obs::SloReport rep = mon.report();
    EXPECT_EQ(rep.objectives[0].short_req, 1);
    EXPECT_EQ(rep.objectives[0].long_req, 1);
  }
  // Both windows slide past t=50: the bucket must fall out of both tallies.
  mon.evaluate(/*t_us=*/500);
  const obs::SloReport rep = mon.report();
  EXPECT_EQ(rep.objectives[0].short_req, 0);
  EXPECT_EQ(rep.objectives[0].long_req, 0);
  EXPECT_EQ(rep.objectives[0].burn_long_centi, 0);
  EXPECT_FALSE(mon.any_fired());
}

// ---------------------------------------------------------------- sidecar

obs::SloReport sample_report() {
  obs::SloSpec spec = obs::SloSpec::parse(
      "slo v1\n"
      "objective find p99 <= 2000000ns\n"
      "availability >= 99.900\n"
      "window short 1000us long 10000us\n"
      "burn fast 14.40 slow 6.00\n"
      "clock virtual\n"
      "end\n");
  obs::SloMonitor mon(std::move(spec));
  mon.close_update(obs::SloMonitor::now_ns(), 100);
  mon.close_find(obs::SloMonitor::now_ns(), 200,
                 obs::make_op(obs::OpClass::kFindSearch, 1), 3, false);
  mon.close_round(obs::SloMonitor::now_ns(), 300);
  mon.note_errors(obs::SloClass::kUpdate, 300, 2);
  return mon.report();
}

TEST(SloSidecar, RoundTripsExactly) {
  const obs::SloReport rep = sample_report();
  const std::string path = tmp_path("slo_roundtrip.vsslo");
  obs::write_slo_file(path, rep);
  const obs::SloReport back = obs::read_slo_file(path);
  EXPECT_EQ(back.spec_text, rep.spec_text);
  EXPECT_EQ(back.wall_clock, rep.wall_clock);
  EXPECT_EQ(back.end_t_us, rep.end_t_us);
  for (std::size_t c = 0; c < obs::kSloClasses; ++c) {
    EXPECT_EQ(back.classes[c].requests, rep.classes[c].requests) << c;
    EXPECT_EQ(back.classes[c].errors, rep.classes[c].errors) << c;
    EXPECT_EQ(back.classes[c].latency.buckets(),
              rep.classes[c].latency.buckets())
        << c;
    EXPECT_EQ(back.classes[c].latency.sum(), rep.classes[c].latency.sum());
  }
  EXPECT_EQ(back.find_ns_per_d.count(), rep.find_ns_per_d.count());
  ASSERT_EQ(back.find_bands.size(), rep.find_bands.size());
  ASSERT_EQ(back.objectives.size(), rep.objectives.size());
  for (std::size_t i = 0; i < rep.objectives.size(); ++i) {
    EXPECT_EQ(back.objectives[i].name, rep.objectives[i].name);
    EXPECT_EQ(back.objectives[i].short_req, rep.objectives[i].short_req);
    EXPECT_EQ(back.objectives[i].long_bad, rep.objectives[i].long_bad);
    EXPECT_EQ(back.objectives[i].measured_ns, rep.objectives[i].measured_ns);
    EXPECT_EQ(back.objectives[i].fired, rep.objectives[i].fired);
  }
  ASSERT_EQ(back.exemplars.size(), rep.exemplars.size());
  for (std::size_t i = 0; i < rep.exemplars.size(); ++i) {
    EXPECT_EQ(back.exemplars[i].op, rep.exemplars[i].op);
    EXPECT_EQ(back.exemplars[i].latency_ns, rep.exemplars[i].latency_ns);
    EXPECT_EQ(back.exemplars[i].distance, rep.exemplars[i].distance);
  }
}

TEST(SloSidecar, ReaderRejectsCorruptFiles) {
  const std::string path = tmp_path("slo_corrupt.vsslo");
  obs::write_slo_file(path, sample_report());
  const std::string good = slurp(path);
  // Truncation loses the VSSLOEND trailer.
  spit(path, good.substr(0, good.size() / 2));
  EXPECT_THROW((void)obs::read_slo_file(path), Error);
  // Bad magic.
  std::string bad = good;
  bad[0] = 'X';
  spit(path, bad);
  EXPECT_THROW((void)obs::read_slo_file(path), Error);
  // Unsupported version.
  bad = good;
  bad[8] = 99;
  spit(path, bad);
  EXPECT_THROW((void)obs::read_slo_file(path), Error);
}

TEST(SloSidecar, RenderingsCarryTheReport) {
  const obs::SloReport rep = sample_report();
  std::ostringstream json;
  obs::slo_to_json(json, rep);
  EXPECT_NE(json.str().find("\"spec\": \"slo v1\\n"), std::string::npos);
  EXPECT_NE(json.str().find("\"find\": {\"requests\": 1"),
            std::string::npos);
  EXPECT_NE(json.str().find("\"objectives\": ["), std::string::npos);
  EXPECT_NE(json.str().find("find#1/search"), std::string::npos)
      << "exemplars must name their op";

  std::ostringstream prom;
  obs::slo_to_prometheus(prom, rep, "vinestalk");
  EXPECT_NE(prom.str().find("vinestalk_slo_requests_total{class=\"find\"} 1"),
            std::string::npos)
      << prom.str();
  EXPECT_NE(prom.str().find(
                "vinestalk_slo_burn_rate_centi{objective=\"find p99 <= "
                "2000000ns\",window=\"short\"}"),
            std::string::npos);
  EXPECT_NE(prom.str().find("vinestalk_slo_error_budget_remaining_milli"),
            std::string::npos);

  std::ostringstream csv;
  obs::slo_to_csv(csv, rep);
  EXPECT_EQ(csv.str().substr(0, 20), "series,le_ns,count\nu");
  EXPECT_NE(csv.str().find("find:d 3-4,"), std::string::npos) << csv.str();
  EXPECT_NE(csv.str().find("+inf"), std::string::npos);
}

// --------------------------------------------------------------- incidents

TEST(SloIncident, V5RoundTripsSloFields) {
  obs::IncidentBundle b;
  b.source = "slo";
  b.violation.predicate = "slo-burn-rate:find p99 <= 1ns";
  b.violation.time_us = 1234;
  b.scenario.side = 9;
  b.scenario.base = 3;
  b.scenario.slo_spec = "slo v1\nobjective find p99 <= 1ns\nend\n";
  b.scenario.replayable_flag = false;
  b.slo_state_json = "{\"t_us\": 1234, \"objectives\": []}";
  b.slo_exemplars.push_back(
      {1, obs::make_op(obs::OpClass::kFindSearch, 2), 1000, 55'555, 4});
  b.slo_exemplars.push_back({0, obs::kBackgroundOp, 900, 22'222, 0});
  const std::string path = tmp_path("slo_incident.vsi");
  obs::write_incident_file(path, b);
  const obs::IncidentBundle back = obs::read_incident_file(path);
  EXPECT_EQ(back.source, "slo");
  EXPECT_EQ(back.violation.predicate, b.violation.predicate);
  EXPECT_EQ(back.scenario.slo_spec, b.scenario.slo_spec);
  EXPECT_EQ(back.slo_state_json, b.slo_state_json);
  ASSERT_EQ(back.slo_exemplars.size(), 2u);
  EXPECT_EQ(back.slo_exemplars[0].op, b.slo_exemplars[0].op);
  EXPECT_EQ(back.slo_exemplars[0].latency_ns, 55'555);
  EXPECT_EQ(back.slo_exemplars[1].cls, 0);
  EXPECT_EQ(back.slo_exemplars[1].op, obs::kBackgroundOp);
}

TEST(SloIncident, NonSloIncidentKeepsEmptySloFields) {
  obs::IncidentBundle b;
  b.source = "watchdog";
  b.violation.predicate = "cadence";
  const std::string path = tmp_path("plain_incident.vsi");
  obs::write_incident_file(path, b);
  const obs::IncidentBundle back = obs::read_incident_file(path);
  EXPECT_TRUE(back.scenario.slo_spec.empty());
  EXPECT_TRUE(back.slo_state_json.empty());
  EXPECT_TRUE(back.slo_exemplars.empty());
}

// ------------------------------------------------------- server SLO hooks

TEST(SloServer, ServerClosesSpansThroughItsHooks) {
  serve::ServeConfig cfg;
  cfg.queues = 1;
  cfg.queue_capacity = 4;
  tracking::NetworkConfig net_cfg;
  net_cfg.model_vsa_failures = true;
  GridNet g = make_grid(9, 3, net_cfg);
  serve::IngestServer srv(*g.net, *g.hierarchy, cfg);
  srv.add_object(g.at(4, 4));
  obs::SloMonitor mon{obs::SloSpec{}};
  srv.set_slo(&mon);

  // 10 offers into a 4-deep ring: 4 resolve as spans, 6 drop as RED
  // errors (fold_reader_counters -> note_errors).
  for (int i = 0; i < 10; ++i) (void)srv.offer({0, 1 + i % 3, 1});
  srv.run_round();
  (void)srv.find(g.at(0, 0), 0, sim::Duration::millis(400));
  srv.finish();

  const obs::SloReport rep = mon.report();
  const auto& update = rep.classes[static_cast<std::size_t>(
      obs::SloClass::kUpdate)];
  EXPECT_EQ(update.requests, 10) << "every admitted-or-dropped frame counts";
  EXPECT_EQ(update.errors, 6);
  EXPECT_EQ(update.latency.count(), 4);
  const auto& round = rep.classes[static_cast<std::size_t>(
      obs::SloClass::kRound)];
  EXPECT_GE(round.requests, 1);
  const auto& find = rep.classes[static_cast<std::size_t>(
      obs::SloClass::kFind)];
  EXPECT_EQ(find.requests, 1);
  EXPECT_EQ(find.errors, 0);
  EXPECT_FALSE(rep.find_bands.empty());
  bool find_exemplar = false;
  for (const obs::SloExemplar& e : rep.exemplars) {
    if (e.cls == 1 && e.op != obs::kBackgroundOp) find_exemplar = true;
  }
  EXPECT_TRUE(find_exemplar)
      << "the server must link find spans to their OpId";
  // The deterministic RPC twins of the wall-clock spans.
  const stats::IngestCounters& ing = g.net->counters().ingest();
  EXPECT_EQ(ing.rpc_finds_issued, 1);
  EXPECT_EQ(ing.rpc_finds_done, 1);
}

// ------------------------------------------------- telemetry serve series

TEST(SloTelemetry, ServeSeriesCarryRpcCounters) {
  if (!obs::kTraceCompiled) GTEST_SKIP() << "telemetry compiled out";
  serve::ServeConfig cfg;
  cfg.queues = 1;
  cfg.queue_capacity = 8;
  tracking::NetworkConfig net_cfg;
  net_cfg.model_vsa_failures = true;
  GridNet g = make_grid(9, 3, net_cfg);
  serve::IngestServer srv(*g.net, *g.hierarchy, cfg);
  srv.add_object(g.at(4, 4));
  obs::TelemetryConfig tcfg;
  tcfg.cadence = sim::Duration::millis(1);
  obs::TelemetrySampler sampler(*g.net, tcfg);
  sampler.enable();

  srv.note_wire_error();
  (void)srv.offer({0, 2, 2});
  srv.run_round();
  (void)srv.find(g.at(0, 0), 0, sim::Duration::millis(400));
  (void)srv.find(g.at(0, 0), 0, sim::Duration::micros(1));  // deadline miss
  srv.run_round();
  srv.finish();

  ASSERT_FALSE(sampler.ring().empty());
  const obs::TelemetrySample& s = sampler.ring().back();
  const obs::TelemetryHeader& h = sampler.header();
  const auto value = [&](std::string_view name) {
    const std::optional<std::size_t> i = h.index_of(name);
    EXPECT_TRUE(i.has_value()) << name;
    return i.has_value() ? s.values[*i] : -1;
  };
  const stats::IngestCounters& ing = g.net->counters().ingest();
  EXPECT_EQ(value("ingest_wire_errors"), ing.wire_errors);
  EXPECT_EQ(ing.wire_errors, 1);
  EXPECT_EQ(value("ingest_retry_after_us"), ing.retry_after_us);
  EXPECT_EQ(value("ingest_rpc_finds_issued"), ing.rpc_finds_issued);
  EXPECT_EQ(ing.rpc_finds_issued, 2);
  EXPECT_EQ(value("ingest_rpc_finds_done"), ing.rpc_finds_done);
  EXPECT_EQ(value("ingest_rpc_deadline_misses"), ing.rpc_deadline_misses);
  EXPECT_EQ(ing.rpc_deadline_misses, 1);
  EXPECT_EQ(value("ingest_rpc_find_attempts"), ing.rpc_find_attempts);
  EXPECT_GE(ing.rpc_find_attempts, ing.rpc_finds_issued);

  // The serve-RPC block follows the ingest block; the retry-after hint is
  // a setting, so it is the block's one gauge.
  const std::optional<std::size_t> first = h.index_of("ingest_wire_errors");
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(h.index_of("ingest_queue_depth_peak"), *first - 1);
  EXPECT_EQ(h.index_of("ingest_retry_after_us"), *first + 1);
  EXPECT_EQ(h.index_of("ingest_rpc_find_attempts"), *first + 5);
  EXPECT_EQ(h.series[*first + 1].kind, obs::SeriesKind::kGauge);
  EXPECT_EQ(h.series[*first + 5].kind, obs::SeriesKind::kCounter);
}

// --------------------------------------------- the daemon, quarantined SLO

const char* kLooseSpec =
    "slo v1\n"
    "objective find p99 <= 500000000ns\n"
    "availability >= 99.900\n"
    "window short 300000000us long 3600000000us\n"
    "burn fast 14.40 slow 6.00\n"
    "clock virtual\n"
    "end\n";

const char* kTightSpec =
    "slo v1\n"
    "objective find p99 <= 1ns\n"
    "window short 300000000us long 3600000000us\n"
    "burn fast 1.00 slow 1.00\n"
    "clock virtual\n"
    "end\n";

TEST(ServedSlo, ArtifactsByteIdenticalSloOnVsOff) {
  if (!obs::kTraceCompiled) GTEST_SKIP() << "tracing compiled out";
  const std::string spec = tmp_path("slo_loose.slo");
  spit(spec, kLooseSpec);
  const std::string common =
      "--side 9 --base 3 --objects 2 --queues 2 --queue-capacity 16 "
      "--load 10 --overdrive 2 --seed 7 --find-every 4 "
      "--deadline-us 400000 ";
  const auto art = [&](const char* which, const char* stem) {
    return tmp_path(std::string("slo_bid") + which + stem);
  };
  const std::string out_off = run_served_stdout(
      common + "--trace " + art("off", ".vst") + " --telemetry " +
      art("off", ".vstelem") + " --capture " + art("off", ".vsingest"));
  const std::string out_on = run_served_stdout(
      common + "--trace " + art("on", ".vst") + " --telemetry " +
      art("on", ".vstelem") + " --capture " + art("on", ".vsingest") +
      " --slo " + spec + " --slo-out " + art("on", ".vsslo"));
  EXPECT_EQ(out_on, out_off) << "stdout diverged with --slo";
  EXPECT_EQ(slurp(art("on", ".vst")), slurp(art("off", ".vst")))
      << "world trace diverged with --slo";
  EXPECT_EQ(slurp(art("on", ".vstelem")), slurp(art("off", ".vstelem")))
      << "telemetry diverged with --slo";
  EXPECT_EQ(slurp(art("on", ".vsingest")), slurp(art("off", ".vsingest")))
      << "capture diverged with --slo";
  // The quarantine surface exists and holds the armed spec.
  const obs::SloReport rep = obs::read_slo_file(art("on", ".vsslo"));
  EXPECT_EQ(rep.spec_text, kLooseSpec);
  EXPECT_GT(rep.classes[1].requests, 0) << "finds were monitored";
  EXPECT_NE(slurp(art("on", ".vsslo") + ".json").find("\"spec\": \"slo v1"),
            std::string::npos);
}

TEST(ServedSlo, TightSpecFiresBurnIncidentWhoseExemplarReplays) {
  if (!obs::kTraceCompiled) GTEST_SKIP() << "tracing compiled out";
  const std::string dir = tmp_path("slo_fire");
  ::mkdir(dir.c_str(), 0755);
  const std::string spec = dir + "/tight.slo";
  spit(spec, kTightSpec);
  const std::string cap = dir + "/cap.vsingest";
  const std::string trace = dir + "/live.vst";
  const std::string telem = dir + "/live.vstelem";
  const std::string sidecar = dir + "/live.vsslo";
  int rc = -1;
  const std::string out = run_served(
      "--side 9 --base 3 --objects 2 --queues 2 --queue-capacity 16 "
      "--load 12 --overdrive 2 --seed 7 --find-every 4 --deadline-us 400000 "
      "--capture " + cap + " --trace " + trace + " --telemetry " + telem +
      " --slo " + spec + " --slo-out " + sidecar + " --incident-dir " + dir,
      &rc);
  EXPECT_EQ(rc, 0) << "a burn-rate alert never changes the exit status\n"
                   << out;
  EXPECT_NE(out.find("SLO BURN slo-burn-rate:find p99 <= 1ns"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("slo incident bundle written to"), std::string::npos)
      << out;
  EXPECT_NE(out.find("conservation OK"), std::string::npos) << out;

  // The incident bundle carries spec, window state, and a find exemplar.
  const obs::IncidentBundle b =
      obs::read_incident_file(dir + "/incident_slo_0.vsi");
  EXPECT_EQ(b.source, "slo");
  EXPECT_EQ(b.violation.predicate, "slo-burn-rate:find p99 <= 1ns");
  EXPECT_NE(b.scenario.slo_spec.find("objective find p99 <= 1ns"),
            std::string::npos);
  EXPECT_NE(b.slo_state_json.find("\"fired\": true"), std::string::npos);
  obs::OpId find_op = obs::kBackgroundOp;
  for (const obs::SloExemplar& e : b.slo_exemplars) {
    if (e.cls == 1 && e.op != obs::kBackgroundOp) {
      find_op = e.op;
      break;
    }
  }
  ASSERT_NE(find_op, obs::kBackgroundOp)
      << "the burn incident must carry a find exemplar with its OpId";
  const std::uint32_t find_id = obs::op_index(find_op);

  // The exemplar's OpId is a find id: the trace pretty-prints its causal
  // chain, and a capture replay reproduces it exactly.
  const std::string spans_cmd = std::string(VS_TRACE_TOOL_PATH) + " spans " +
                                trace + " " + std::to_string(find_id) +
                                " 2>&1";
  int spans_rc = -1;
  const std::string spans_live = run_cmd(spans_cmd, &spans_rc);
  EXPECT_EQ(spans_rc, 0);
  EXPECT_NE(spans_live.find(", find " + std::to_string(find_id) + ": "),
            std::string::npos)
      << spans_live;
  EXPECT_EQ(spans_live.find("not present"), std::string::npos) << spans_live;

  const std::string replay_trace = dir + "/replay.vst";
  const std::string out2 = run_served(
      "--side 9 --base 3 --objects 2 --queues 2 --queue-capacity 16 "
      "--replay " + cap + " --trace " + replay_trace,
      &rc);
  EXPECT_EQ(rc, 0) << out2;
  EXPECT_EQ(slurp(replay_trace), slurp(trace))
      << "the replayed world trace must be byte-identical";
  const std::string spans_replay = run_cmd(
      std::string(VS_TRACE_TOOL_PATH) + " spans " + replay_trace + " " +
      std::to_string(find_id) + " 2>&1");
  EXPECT_EQ(spans_replay, spans_live)
      << "the exemplar find must replay to the same causal chain";

  // Exporters over the run's artifacts: the top panel and the trace tool.
  int top_rc = -1;
  const std::string top = run_cmd(std::string(VS_TOP_PATH) + " " + telem +
                                      " --once --slo " + sidecar + " 2>&1",
                                  &top_rc);
  EXPECT_EQ(top_rc, 0);
  EXPECT_NE(top.find("slo (virtual windows"), std::string::npos) << top;
  EXPECT_NE(top.find("find p99 <= 1ns"), std::string::npos) << top;
  EXPECT_NE(top.find("FIRED"), std::string::npos) << top;
  EXPECT_NE(top.find("slowest:"), std::string::npos) << top;
  EXPECT_NE(top.find("wire errors 0"), std::string::npos)
      << "the ingest panel must surface wire errors\n"
      << top;

  int tool_rc = -1;
  const std::string summary = run_cmd(
      std::string(VS_TRACE_TOOL_PATH) + " slo " + sidecar + " 2>&1",
      &tool_rc);
  EXPECT_EQ(tool_rc, 0);
  EXPECT_NE(summary.find("VSSLO1 report:"), std::string::npos) << summary;
  EXPECT_NE(summary.find("find p99 <= 1ns"), std::string::npos) << summary;
  const std::string csv = run_cmd(std::string(VS_TRACE_TOOL_PATH) + " slo " +
                                  sidecar + " --csv 2>&1");
  EXPECT_EQ(csv.substr(0, 19), "series,le_ns,count\n");
}

TEST(ServedSlo, EnvFallbackArmsTheMonitor) {
  const std::string spec = tmp_path("slo_env.slo");
  spit(spec, kLooseSpec);
  const std::string sidecar = tmp_path("slo_env.vsslo");
  int rc = -1;
  const std::string out = run_cmd(
      "VS_SLO=" + spec + " VS_SLO_OUT=" + sidecar + " " + VS_SERVED_PATH +
          " --side 9 --base 3 --objects 2 --queues 2 --queue-capacity 16 "
          "--load 6 --seed 7 2>&1",
      &rc);
  EXPECT_EQ(rc, 0) << out;
  EXPECT_NE(out.find("slo sidecar written to"), std::string::npos) << out;
  const obs::SloReport rep = obs::read_slo_file(sidecar);
  EXPECT_EQ(rep.spec_text, kLooseSpec);
  EXPECT_GT(rep.classes[2].requests, 0) << "rounds were monitored";
  // --slo-out without any spec is a usage error, not a silent no-op.
  run_cmd(std::string(VS_SERVED_PATH) + " --side 9 --base 3 --load 2 "
              "--slo-out " + sidecar + " 2>/dev/null",
          &rc);
  EXPECT_EQ(rc, 2);
}

}  // namespace
}  // namespace vstest
