// The wall-clock CPU profiler: profiling is observability-only — every
// deterministic artifact (trace bytes, VSTELEM1 stream, run summary) is
// byte-identical with profiling enabled vs absent at every jobs value; an
// attached-but-disabled profiler records nothing at all; self-time
// conservation holds by construction (paths sum == domain sum == root
// sum ≤ wall time); snapshots are virtual-time ordered and monotone; the
// VSPROF1 sidecar round-trips exactly; the folded/JSON/Prometheus/Perfetto
// renderings are well-formed; and the vinestalk_top --profile panel
// renders a golden frame.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "obs/chrome_export.hpp"
#include "obs/profile/profile_io.hpp"
#include "obs/profile/profiler.hpp"
#include "obs/telemetry/telemetry.hpp"
#include "obs/telemetry/telemetry_io.hpp"
#include "obs/trace.hpp"
#include "obs/trace_io.hpp"
#include "runner/trial_pool.hpp"
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

/// Everything one run produces, split into the deterministic artifacts
/// (trace bytes, telemetry stream bytes, a summary of every observable
/// output) and the nondeterministic profile report.
struct RunArtifacts {
  std::string trace;
  std::string telemetry;
  std::string summary;
  obs::ProfileReport report;
  std::uint64_t scopes = 0;
};

/// The canonical run: traced + telemetered walk and find on a 27×27 world,
/// optionally under an enabled profiler.
RunArtifacts run_world(bool profiled, const std::string& tag,
                       int walk_steps = 8) {
  GridNet g = make_grid(27, 3);
  g.net->set_tracing(true);
  obs::Profiler prof;
  if (profiled) {
    g.net->set_profiler(&prof);
    prof.enable();
  }
  const std::string telem_path = testing::TempDir() + "prof_" + tag + ".vst";
  obs::TelemetryConfig tcfg;
  tcfg.cadence = sim::Duration::millis(2);
  tcfg.stream_path = telem_path;
  obs::TelemetrySampler sampler(*g.net, tcfg);
  sampler.enable();

  const RegionId start = g.at(13, 13);
  const TargetId t = g.net->add_evader(start);
  g.net->run_to_quiescence();
  const auto walk =
      random_walk(g.hierarchy->tiling(), start, walk_steps, 0x9F0F);
  for (std::size_t i = 1; i < walk.size(); ++i) {
    g.net->move_and_quiesce(t, walk[i]);
  }
  const FindId f = g.net->start_find(g.at(26, 0), t);
  g.net->run_to_quiescence();
  sampler.finish();

  RunArtifacts out;
  const std::string trace_path =
      testing::TempDir() + "prof_" + tag + ".vstrace";
  obs::write_trace_file(trace_path, g.net->trace());
  out.trace = slurp(trace_path);
  out.telemetry = slurp(telem_path);
  std::ostringstream sum;
  const auto& fr = g.net->find_result(f);
  sum << g.net->scheduler().events_fired() << "|"
      << g.net->counters().total_messages() << "|"
      << g.net->counters().total_work() << "|" << fr.latency().count() << "|"
      << fr.work << "|" << fr.found_region;
  out.summary = sum.str();
  if (profiled) {
    prof.disable();
    out.report = prof.report(g.net->counters().total_work(),
                             g.net->counters().total_messages());
    out.scopes = prof.scopes_recorded();
    g.net->set_profiler(nullptr);
  }
  return out;
}

TEST(Profile, DeterministicArtifactsByteIdenticalAcrossJobsAndShards) {
  // Baseline: serial, unprofiled. Every jobs sweep with profiling ENABLED
  // must reproduce the identical trace bytes, telemetry stream bytes, and
  // observable outputs — wall-clock accumulation may never leak into a
  // deterministic artifact.
  const RunArtifacts base = run_world(false, "base");
  ASSERT_FALSE(base.trace.empty());
  ASSERT_FALSE(base.telemetry.empty());

  const auto sweep = [](int jobs) {
    runner::TrialPool pool(jobs);
    return pool.run(2u, [&](std::size_t trial) {
      std::ostringstream tag;
      tag << "j" << jobs << "t" << trial;
      const RunArtifacts a = run_world(true, tag.str());
      return a.trace + "\x1f" + a.telemetry + "\x1f" + a.summary;
    });
  };
  const std::string expect =
      base.trace + "\x1f" + base.telemetry + "\x1f" + base.summary;
  for (const int jobs : {1, 2, 8}) {
    for (const auto& one : sweep(jobs)) {
      EXPECT_EQ(one, expect) << "jobs=" << jobs;
    }
  }
  // And the profiled runs really did profile.
  const RunArtifacts p = run_world(true, "really");
  EXPECT_GT(p.scopes, 0u);
  EXPECT_GT(p.report.total_ns, 0u);
}

TEST(Profile, AttachedButDisabledRecordsNothing) {
  // Attached but never enabled: every scope site is a pointer test and
  // a bool load — no clock reads, no map growth, zero scopes recorded
  // (the same zero-cost pin as TraceRecorder::segments_allocated).
  GridNet g = make_grid(27, 3);
  obs::Profiler prof;
  g.net->set_profiler(&prof);
  const TargetId t = g.net->add_evader(g.at(13, 13));
  g.net->run_to_quiescence();
  g.net->move_and_quiesce(t, g.at(14, 13));
  g.net->start_find(g.at(0, 0), t);
  g.net->run_to_quiescence();
  g.net->set_profiler(nullptr);
  EXPECT_EQ(prof.scopes_recorded(), 0u);
  const obs::ProfileReport rep = prof.report();
  EXPECT_EQ(rep.total_ns, 0u);
  EXPECT_EQ(rep.scopes, 0u);
  EXPECT_TRUE(rep.paths.empty());
  EXPECT_TRUE(rep.ops.empty());
}

TEST(Profile, ConservationByConstruction) {
  // Long enough for several periodic snapshots (one per kSnapshotEvery
  // fired events).
  const RunArtifacts a = run_world(true, "conserve", 800);
  const obs::ProfileReport& r = a.report;
  ASSERT_GT(r.total_ns, 0u);

  // sum over folded paths == sum over domains == sum over root frames.
  std::uint64_t path_sum = 0, path_scopes = 0;
  for (const obs::ProfilePathStat& p : r.paths) {
    path_sum += p.self_ns;
    path_scopes += p.count;
  }
  std::uint64_t domain_sum = 0;
  for (const std::uint64_t ns : r.domain_self_ns) domain_sum += ns;
  EXPECT_EQ(path_sum, r.total_ns);
  EXPECT_EQ(domain_sum, r.total_ns);
  EXPECT_EQ(path_scopes, r.scopes);
  // CPU time attributed cannot exceed the enable()→report() wall clock.
  EXPECT_LE(r.total_ns, r.wall_ns);

  // The message/op bridge: per-kind and per-op tallies describe the same
  // deliveries, and class totals fold the ops exactly.
  std::uint64_t msg_count = 0;
  for (const obs::ProfileMsgStat& m : r.msgs) msg_count += m.count;
  std::uint64_t op_count = 0;
  for (const obs::ProfileOpStat& o : r.ops) op_count += o.count;
  std::uint64_t class_count = 0;
  for (const obs::ProfileClassStat& c : r.classes) class_count += c.count;
  EXPECT_GT(msg_count, 0u);
  EXPECT_EQ(op_count, msg_count);
  EXPECT_EQ(class_count, op_count);
  EXPECT_GT(r.ns_per_work(), 0.0);

  // Snapshots record the domain totals in virtual-time order.
  ASSERT_GE(r.snapshots.size(), 2u);
  for (std::size_t i = 1; i < r.snapshots.size(); ++i) {
    EXPECT_LE(r.snapshots[i - 1].t_us, r.snapshots[i].t_us);
    for (std::size_t d = 0; d < obs::kProfDomains; ++d) {
      EXPECT_LE(r.snapshots[i - 1].domain_self_ns[d],
                r.snapshots[i].domain_self_ns[d]);
    }
  }
}

TEST(Profile, SidecarRoundTripsExactly) {
  const RunArtifacts a = run_world(true, "roundtrip");
  const obs::ProfileReport& r = a.report;
  const std::string path = testing::TempDir() + "roundtrip.vsprof";
  obs::write_profile_file(path, r);
  const obs::ProfileReport back = obs::read_profile_file(path);
  EXPECT_EQ(back.total_ns, r.total_ns);
  EXPECT_EQ(back.wall_ns, r.wall_ns);
  EXPECT_EQ(back.scopes, r.scopes);
  EXPECT_EQ(back.domain_self_ns, r.domain_self_ns);
  EXPECT_EQ(back.total_work, r.total_work);
  EXPECT_EQ(back.total_msgs, r.total_msgs);
  ASSERT_EQ(back.paths.size(), r.paths.size());
  for (std::size_t i = 0; i < r.paths.size(); ++i) {
    EXPECT_EQ(back.paths[i].path, r.paths[i].path);
    EXPECT_EQ(back.paths[i].self_ns, r.paths[i].self_ns);
    EXPECT_EQ(back.paths[i].count, r.paths[i].count);
  }
  ASSERT_EQ(back.ops.size(), r.ops.size());
  for (std::size_t i = 0; i < r.ops.size(); ++i) {
    EXPECT_EQ(back.ops[i].op, r.ops[i].op);
    EXPECT_EQ(back.ops[i].ns, r.ops[i].ns);
    EXPECT_EQ(back.ops[i].work, r.ops[i].work);
  }
  for (std::size_t k = 0; k < obs::kProfMsgKinds; ++k) {
    EXPECT_EQ(back.msgs[k].ns, r.msgs[k].ns);
    EXPECT_EQ(back.msgs[k].count, r.msgs[k].count);
  }
  ASSERT_EQ(back.snapshots.size(), r.snapshots.size());
  for (std::size_t i = 0; i < r.snapshots.size(); ++i) {
    EXPECT_EQ(back.snapshots[i].t_us, r.snapshots[i].t_us);
    EXPECT_EQ(back.snapshots[i].domain_self_ns,
              r.snapshots[i].domain_self_ns);
  }
}

TEST(Profile, SidecarRejectsOpOutsideEveryClass) {
  // An OpId's class is its top 3 bits (0..7), but a report folds ops into
  // kProfOpClasses (6) class slots: class 7 must be rejected, not indexed.
  obs::ProfileReport r;
  r.ops.push_back({0xE0000001u, 10, 1, 0, 0});
  const std::string path = testing::TempDir() + "bad_class.vsprof";
  obs::write_profile_file(path, r);
  EXPECT_THROW((void)obs::read_profile_file(path), vs::Error);
}

TEST(Profile, RenderingsAreWellFormed) {
  const RunArtifacts a = run_world(true, "render");
  const obs::ProfileReport& r = a.report;

  // Folded stacks: "domain[;domain...] <self_ns>" lines whose ns column
  // sums back to total_ns.
  std::ostringstream folded;
  obs::profile_to_folded(folded, r);
  std::istringstream fin(folded.str());
  std::string line;
  std::uint64_t folded_sum = 0;
  while (std::getline(fin, line)) {
    const auto space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    folded_sum += std::stoull(line.substr(space + 1));
  }
  EXPECT_EQ(folded_sum, r.total_ns);

  // JSON: brace-balanced, carries the headline fields.
  std::ostringstream json;
  obs::profile_to_json(json, r);
  const std::string js = json.str();
  EXPECT_EQ(std::count(js.begin(), js.end(), '{'),
            std::count(js.begin(), js.end(), '}'));
  EXPECT_NE(js.find("\"total_ns\""), std::string::npos);
  EXPECT_NE(js.find("\"ns_per_work\""), std::string::npos);
  EXPECT_NE(js.find("\"domains\""), std::string::npos);

  // Prometheus: every non-comment line is `vinestalk_profile_* value`.
  std::ostringstream prom;
  obs::profile_to_prometheus(prom, r);
  std::istringstream pin(prom.str());
  bool saw_gauge = false;
  while (std::getline(pin, line)) {
    if (line.empty() || line[0] == '#') continue;
    EXPECT_EQ(line.rfind("vinestalk_profile_", 0), 0u) << line;
    saw_gauge = true;
  }
  EXPECT_TRUE(saw_gauge);
}

TEST(Profile, ChromeExportMergesProfileCounterTrack) {
  // Deterministic hand-crafted report: two snapshots become two "C"
  // counter rows in their own "cpu profile" process.
  obs::ProfileReport r;
  r.total_ns = 1000;
  r.snapshots.resize(2);
  r.snapshots[0].t_us = 100;
  r.snapshots[0].domain_self_ns[0] = 400;
  r.snapshots[1].t_us = 200;
  r.snapshots[1].domain_self_ns[0] = 900;

  std::vector<obs::WorldTrace> worlds(1);
  worlds[0].world = 0;
  std::ostringstream os;
  const obs::ChromeExportStats stats =
      obs::write_chrome_trace(os, worlds, &r);
  const std::string out = os.str();
  EXPECT_EQ(stats.counters, 2u);
  EXPECT_NE(out.find("\"cpu profile\""), std::string::npos);
  EXPECT_NE(out.find("\"cpu self ns\""), std::string::npos);
  EXPECT_NE(out.find("\"fire\":400"), std::string::npos);
  EXPECT_NE(out.find("\"fire\":900"), std::string::npos);

  // Without a profile the export is unchanged from the two-arg form.
  std::ostringstream plain;
  obs::write_chrome_trace(plain, worlds);
  EXPECT_EQ(plain.str().find("cpu profile"), std::string::npos);
}

TEST(Profile, TopProfilePanelGoldenFrame) {
  // A fixed sidecar + an empty-but-complete stream: the --once frame is a
  // pure function of the file bytes, pinned to the byte.
  const std::string stream = testing::TempDir() + "top_prof.vst";
  obs::TelemetryHeader h;
  h.cadence_us = 1000;
  obs::TelemetryWriter(stream, h).finish();

  obs::ProfileReport r;
  r.total_ns = 100'000;
  r.wall_ns = 250'000;
  r.scopes = 722;
  r.total_work = 500;
  r.total_msgs = 100;
  r.domain_self_ns[static_cast<std::size_t>(obs::ProfDomain::kFire)] =
      50'000;
  r.domain_self_ns[static_cast<std::size_t>(obs::ProfDomain::kDeliver)] =
      30'000;
  r.domain_self_ns[static_cast<std::size_t>(obs::ProfDomain::kTelemetry)] =
      20'000;
  const std::string sidecar = testing::TempDir() + "top_prof.vsprof";
  obs::write_profile_file(sidecar, r);

  int code = -1;
  const std::string frame = run_tool(
      std::string(VS_TOP_PATH) + " " + stream + " --once --profile " +
          sidecar,
      &code);
  EXPECT_EQ(code, 0);
  const std::string expect =
      "vinestalk_top — " + stream +
      "  (0 sample(s), complete, cadence 1000us)\n"
      "  waiting for the first cadence boundary...\n"
      "  cpu (profile): 100us self over 722 scope(s), wall 250us\n"
      "    efficiency 200.000 ns/work  (500 hop-work, 100 msg(s))\n"
      "    fire           [##########..........]  50.0%  50us\n"
      "    deliver        [######..............]  30.0%  30us\n"
      "    telemetry      [####................]  20.0%  20us\n";
  EXPECT_EQ(frame, expect);

  // A missing sidecar is a live-mode state, not an error.
  int code2 = -1;
  const std::string waiting = run_tool(
      std::string(VS_TOP_PATH) + " " + stream + " --once --profile " +
          sidecar + ".absent",
      &code2);
  EXPECT_EQ(code2, 0);
  EXPECT_NE(waiting.find("waiting for sidecar"), std::string::npos);
}

}  // namespace
}  // namespace vstest
