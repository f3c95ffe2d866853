// vs_perfbench — the serving benchmark's harness. See README.md here.
//
//   vs_perfbench --workload W --seed N --seconds S --trace 0|1
//                [--spans-out PATH] [--xcheck-out PATH]
//
// --trace 0 runs sessions untraced, each twice, for S seconds (and at
// least the workload's deterministic sessions) and reports the end-to-end
// metrics.
// --trace 1 runs each session untraced and then traced, reports the
// per-layer split, and runs the attribution self-test. Either way the last
// stdout line is one JSON object {correct, attempted, failed, metrics};
// a failed correctness gate exits 1.

#include <sched.h>

#include <algorithm>
#include <array>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "measure.hpp"
#include "session.hpp"
#include "workload.hpp"

namespace {

using namespace perfbench;

// vinestalk_served's default ServeConfig: 4 rings x 256 slots.
constexpr std::int64_t kQueues = 4;
constexpr std::int64_t kQueueCapacity = 256;

struct Args {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string spans_out;
  std::string xcheck_out;
};

template <class T>
double median(std::vector<T> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? static_cast<double>(v[n / 2])
                    : (static_cast<double>(v[n / 2 - 1]) +
                       static_cast<double>(v[n / 2])) /
                          2.0;
}

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

/// Metrics in output order, each with its unit.
class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit,
           const std::string& note = "") {
    rows_.push_back(Row{name, value, unit, note});
  }
  void print_lines(std::ostream& os) const {
    for (const Row& r : rows_) {
      os << "  " << std::left << std::setw(34) << r.name << " "
         << std::setprecision(6) << r.value << " " << r.unit;
      if (!r.note.empty()) os << "  (" << r.note << ")";
      os << "\n";
    }
  }
  void print_json_metrics(std::ostream& os) const {
    os << "{";
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      os << (i == 0 ? "" : ", ") << "\"" << rows_[i].name
         << "\": {\"value\": " << std::setprecision(17) << rows_[i].value
         << ", \"unit\": \"" << rows_[i].unit << "\"}";
    }
    os << "}";
  }
 private:
  struct Row {
    std::string name;
    double value;
    std::string unit;
    std::string note;
  };
  std::vector<Row> rows_;
};

struct Gate {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;

  void session(const SessionResult& r, const std::string& what) {
    attempted += r.offers + r.digest.rpc_issued;
    const Digest& d = r.digest;
    failed += r.wrong_answers + d.wire_errors +
              std::abs(d.ingested - (d.applied + d.suppressed + d.dropped));
    if (!r.error.empty()) fail(what + ": " + r.error);
  }
  void same(const Digest& a, const Digest& b, const std::string& what) {
    if (!(a == b)) fail(what + ": deterministic results differ");
  }
  void fail(const std::string& why) {
    correct = false;
    std::cout << "GATE FAILED " << why << "\n";
  }
};

void print_result(const Gate& g, const Report& rep) {
  std::cout << "{\"correct\": " << (g.correct ? "true" : "false")
            << ", \"attempted\": " << g.attempted
            << ", \"failed\": " << g.failed << ", \"metrics\": ";
  rep.print_json_metrics(std::cout);
  std::cout << "}" << std::endl;
}

void session_input(const Args& a, std::int64_t deadline_us, std::uint64_t i,
                   SessionInput& in) {
  make_session(*a.workload, a.seed, i, deadline_us, kQueues, kQueueCapacity,
               in);
}

/// Deterministic metrics over the first det_sessions sessions.
void add_deterministic(Report& rep, const Workload& w,
                       const std::vector<Digest>& det) {
  std::int64_t issued = 0, done = 0, applied = 0, ingested = 0, ok = 0;
  std::int64_t move_work = 0, moves = 0;
  std::vector<std::int64_t> vtime;
  std::vector<double> work_ratio;
  for (const Digest& d : det) {
    issued += d.rpc_issued;
    done += d.rpc_done;
    applied += d.applied;
    ingested += d.ingested;
    ok += d.structures_ok;
    move_work += d.move_work;
    moves += d.moves;
    vtime.insert(vtime.end(), d.find_vtime_us.begin(), d.find_vtime_us.end());
    work_ratio.insert(work_ratio.end(), d.find_work_ratio.begin(),
                      d.find_work_ratio.end());
  }
  const auto n = static_cast<double>(det.size());
  rep.add("find_done_frac", ratio(static_cast<double>(done),
                                  static_cast<double>(issued)),
          "frac", std::to_string(done) + "/" + std::to_string(issued));
  rep.add("served_frac", ratio(static_cast<double>(applied),
                               static_cast<double>(ingested)),
          "frac", std::to_string(applied) + "/" + std::to_string(ingested));
  rep.add("structure_ok_frac",
          ratio(static_cast<double>(ok), n * w.objects), "frac",
          std::to_string(ok) + "/" +
              std::to_string(static_cast<std::int64_t>(n) * w.objects));
  rep.add("find_vtime_p50_us", median(vtime), "us-virtual",
          "n=" + std::to_string(vtime.size()));
  rep.add("move_work_per_hop",
          ratio(static_cast<double>(move_work), static_cast<double>(moves)),
          "hops/hop", std::to_string(moves) + " hops");
  rep.add("find_work_ratio_p50", median(work_ratio), "ratio",
          "n=" + std::to_string(work_ratio.size()));
}

/// The run's request latencies, pooled over all its sessions. Every
/// session runs twice on its bytes, and a request's sample is the lower of
/// its two latencies: both runs do the same work for it (their digests are
/// equal), so the lower one drops a stall the machine put into one run only,
/// such as a descheduled vCPU, and keeps every cost the code pays on each
/// run. Percentiles are taken over the whole run, so a stretch of it slowed
/// by the machine moves them in proportion to its length.
class Latencies {
 public:
  /// Percentiles need this many find RPCs, ten beyond the p99.
  static constexpr std::uint64_t kMinFinds = 1000;

  /// Add the two runs of one session; false when they measured different
  /// request sequences.
  [[nodiscard]] bool add_pair(const Samples& a, const Samples& b) {
    if (a.update_ns.size() != b.update_ns.size() ||
        a.find_ns.size() != b.find_ns.size()) {
      return false;
    }
    for (std::size_t k = 0; k < a.update_ns.size(); ++k) {
      update_.add(std::min(a.update_ns[k], b.update_ns[k]));
    }
    for (std::size_t k = 0; k < a.find_ns.size(); ++k) {
      find_.add(std::min(a.find_ns[k], b.find_ns[k]));
    }
    return true;
  }
  [[nodiscard]] bool enough() const { return find_.count() >= kMinFinds; }
  void report(Report& rep) const {
    const std::string u =
        "min of 2 runs, n=" + std::to_string(update_.count()) + " updates";
    const std::string f =
        "min of 2 runs, n=" + std::to_string(find_.count()) + " finds";
    rep.add("update_latency_p50_us", update_.percentile(0.50) / 1000.0, "us",
            u);
    rep.add("update_latency_p99_us", update_.percentile(0.99) / 1000.0, "us",
            u);
    rep.add("find_latency_p50_us", find_.percentile(0.50) / 1000.0, "us", f);
    rep.add("find_latency_p99_us", find_.percentile(0.99) / 1000.0, "us", f);
  }

 private:
  LatencyHist update_, find_;
};

int run_end_to_end(const Args& a, std::int64_t deadline_us) {
  const Workload& w = *a.workload;
  Gate gate;
  Latencies latencies;
  std::array<Samples, 2> runs;  // the two runs of the current session
  std::vector<double> setup_s;
  std::int64_t updates = 0;  // measured update frames of every session run
  double ingest_s = 0;       // and the wall time they took
  std::vector<Digest> det;
  SessionInput in;
  session_input(a, deadline_us, 0, in);
  // Every session holds as many requests as session 0. Touch the sample
  // buffers before the RSS baseline, so peak_rss_mb leaves them out.
  for (Samples& s : runs) {
    s.update_ns.resize(static_cast<std::size_t>(in.updates));
    s.find_ns.resize(static_cast<std::size_t>(in.finds));
  }
  const double rss_base = anon_rss_bytes();
  double rss_peak = rss_base;
  const std::uint64_t t_start = now_ns();
  for (std::uint64_t i = 0;; ++i) {
    if (i > 0) session_input(a, deadline_us, i, in);
    const std::string what = "session " + std::to_string(i);
    std::array<SessionResult, 2> r;
    for (std::size_t k = 0; k < r.size(); ++k) {
      runs[k].update_ns.clear();
      runs[k].find_ns.clear();
      r[k] = run_session(w, in, i, runs[k], nullptr);
      gate.session(r[k], what);
      setup_s.push_back(r[k].setup_s);
      updates += r[k].measured.updates;
      ingest_s += r[k].measured.ingest_s;
    }
    gate.same(r[0].digest, r[1].digest, what + " run twice");
    if (!latencies.add_pair(runs[0], runs[1])) {
      gate.fail(what + ": its two runs measured different requests");
    }
    if (i < static_cast<std::uint64_t>(w.det_sessions)) {
      det.push_back(r[0].digest);
      rss_peak = std::max({rss_peak, r[0].rss_end_bytes, r[1].rss_end_bytes});
    }
    const double elapsed = static_cast<double>(now_ns() - t_start) * 1e-9;
    if (i + 1 >= static_cast<std::uint64_t>(w.det_sessions) &&
        latencies.enough() && elapsed >= a.seconds) {
      break;
    }
  }

  // Gate: a traced run of session 0 must reproduce it exactly.
  session_input(a, deadline_us, 0, in);
  {
    Samples scratch;
    SpanLog spans(0);
    const SessionResult again = run_session(w, in, 0, scratch, &spans);
    gate.session(again, "traced rerun of session 0");
    gate.same(det.front(), again.digest, "traced rerun of session 0");
  }
  if (!a.xcheck_out.empty()) {
    std::ofstream os(a.xcheck_out, std::ios::binary | std::ios::trunc);
    os.write(in.bytes.data(), static_cast<std::streamsize>(in.bytes.size()));
    if (!os.good()) gate.fail("cannot write " + a.xcheck_out);
    std::cout << "xcheck-args --side " << w.side << " --base " << w.base
              << " --objects " << w.objects << "\n"
              << "xcheck-quiescent " << det.front().quiescent << "\n"
              << "xcheck-ingest " << daemon_ingest_line(det.front()) << "\n"
              << "xcheck-finds " << daemon_finds_line(det.front()) << "\n";
  }

  Report rep;
  rep.add("setup_s", median(setup_s), "s",
          "median of " + std::to_string(setup_s.size()) + " set-ups");
  rep.add("updates_per_s", static_cast<double>(updates) / ingest_s, "1/s",
          "over " + std::to_string(setup_s.size()) + " session runs");
  latencies.report(rep);
  add_deterministic(rep, w, det);
  rep.add("peak_rss_mb", (rss_peak - rss_base) / (1024.0 * 1024.0), "MB",
          "highest at the end of " + std::to_string(2 * det.size()) +
              " session runs");

  const auto stuck = std::count_if(det.begin(), det.end(), [](const Digest& d) {
    return !d.quiescent;
  });
  std::cout << w.name << " seed " << a.seed << ": " << setup_s.size() / 2
            << " sessions run twice each, find deadline " << deadline_us
            << " us, " << stuck << " of " << det.size()
            << " deterministic sessions never quiesced\n";
  rep.print_lines(std::cout);
  print_result(gate, rep);
  return gate.correct ? 0 : 1;
}

/// Per-layer metrics of the traced sessions.
Report layer_report(const std::vector<SessionResult>& runs,
                    const Samples& s, const SpanLog& spans,
                    double overhead_frac) {
  Measured m;
  std::int64_t moves = 0, move_msgs = 0, move_work = 0;
  std::int64_t find_msgs = 0, find_work = 0, finds_started = 0;
  std::array<std::uint64_t, vs::obs::kProfDomains> prof{};
  std::vector<int> level;
  std::vector<double> telemetry_samples, retained;
  std::array<std::vector<double>, 5> setup;
  for (const SessionResult& r : runs) {
    const Measured& x = r.measured;
    m.frames += x.frames;
    m.updates += x.updates;
    m.rejected += x.rejected;
    m.rounds += x.rounds;
    m.tier3_rounds += x.tier3_rounds;
    m.applied += x.applied;
    m.suppressed += x.suppressed;
    m.moves += x.moves;
    m.rpcs += x.rpcs;
    m.attempts += x.attempts;
    m.busy_ns += x.busy_ns;
    m.events_in_rounds += x.events_in_rounds;
    m.events_in_finds += x.events_in_finds;
    // Message and work ratios are deterministic: whole sessions.
    const Digest& d = r.digest;
    moves += d.moves;
    move_msgs += d.move_msgs;
    move_work += d.move_work;
    find_msgs += d.find_msgs;
    find_work += d.find_work;
    finds_started += d.finds_started;
    for (std::size_t i = 0; i < prof.size(); ++i) prof[i] += r.prof_self_ns[i];
    level.insert(level.end(), d.find_search_level.begin(),
                 d.find_search_level.end());
    telemetry_samples.push_back(static_cast<double>(r.telemetry_samples));
    retained.push_back(static_cast<double>(r.finds_retained));
    for (std::size_t i = 0; i < setup.size(); ++i) {
      setup[i].push_back(r.setup_phase_s[i]);
    }
  }
  const auto f = [](auto v) { return static_cast<double>(v); };
  const auto pct = [](std::vector<std::uint64_t> v, double q) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const auto k = static_cast<std::size_t>(
        q * static_cast<double>(v.size() - 1) + 0.5);
    return static_cast<double>(v[k]) / 1000.0;
  };
  const auto share = [&](vs::obs::ProfDomain d) {
    return ratio(f(prof[static_cast<std::size_t>(d)]), f(m.busy_ns));
  };
  Report rep;
  rep.add("serve.parse_ns_per_frame",
          ratio(f(spans.total(Layer::kParse).self_ns), f(m.frames)), "ns");
  rep.add("serve.offer_ns_per_update",
          ratio(f(spans.total(Layer::kOffer).self_ns), f(m.updates)), "ns");
  rep.add("serve.offer_reject_frac", ratio(f(m.rejected), f(m.updates)),
          "frac");
  rep.add("serve.round_busy_us_p50", pct(s.round_busy_ns, 0.50), "us");
  rep.add("serve.round_busy_us_p99", pct(s.round_busy_ns, 0.99), "us");
  rep.add("serve.suppressed_frac", ratio(f(m.suppressed), f(m.updates)),
          "frac");
  rep.add("serve.tier3_round_frac", ratio(f(m.tier3_rounds), f(m.rounds)),
          "frac");
  rep.add("serve.moves_per_applied_update", ratio(f(m.moves), f(m.applied)),
          "hops");
  rep.add("serve.round_wait_us_p50", pct(s.round_wait_ns, 0.50), "us");
  rep.add("serve.find_wait_us_p50", pct(s.find_wait_ns, 0.50), "us");
  rep.add("serve.find_busy_us_p50", pct(s.find_busy_ns, 0.50), "us");
  rep.add("serve.find_busy_us_p99", pct(s.find_busy_ns, 0.99), "us");
  rep.add("serve.find_attempts_per_rpc", ratio(f(m.attempts), f(m.rpcs)),
          "count");
  rep.add("vsa.move_msgs_per_move", ratio(f(move_msgs), f(moves)), "msgs");
  rep.add("vsa.move_work_per_move", ratio(f(move_work), f(moves)), "hops");
  rep.add("prof.tracker_grow_share",
          share(vs::obs::ProfDomain::kTrackerGrow), "frac");
  rep.add("prof.tracker_shrink_share",
          share(vs::obs::ProfDomain::kTrackerShrink), "frac");
  rep.add("prof.tracker_timer_share",
          share(vs::obs::ProfDomain::kTrackerTimer), "frac");
  rep.add("vsa.find_msgs_per_find", ratio(f(find_msgs), f(finds_started)),
          "msgs");
  rep.add("vsa.find_work_per_find", ratio(f(find_work), f(finds_started)),
          "hops");
  rep.add("tracking.find_search_level_p50", median(level), "level");
  rep.add("prof.tracker_find_share",
          share(vs::obs::ProfDomain::kTrackerFind), "frac");
  rep.add("sim.events_per_round", ratio(f(m.events_in_rounds), f(m.rounds)),
          "count");
  rep.add("sim.events_per_find", ratio(f(m.events_in_finds), f(m.rpcs)),
          "count");
  rep.add("sim.ns_per_event",
          ratio(f(m.busy_ns), f(m.events_in_rounds + m.events_in_finds)), "ns");
  rep.add("prof.fire_share", share(vs::obs::ProfDomain::kFire), "frac");
  rep.add("prof.queue_share", share(vs::obs::ProfDomain::kQueue), "frac");
  rep.add("prof.deliver_share", share(vs::obs::ProfDomain::kDeliver),
          "frac");
  rep.add("obs.telemetry_share", share(vs::obs::ProfDomain::kTelemetry),
          "frac");
  rep.add("obs.telemetry_samples", median(telemetry_samples), "count");
  rep.add("tracking.finds_retained", median(retained), "count");
  const char* setup_names[] = {"setup.hierarchy_s", "setup.network_s",
                               "setup.server_s", "setup.objects_s",
                               "setup.obs_s"};
  for (std::size_t i = 0; i < setup.size(); ++i) {
    rep.add(setup_names[i], median(setup[i]), "s");
  }
  rep.add("trace.overhead_frac", overhead_frac, "frac");
  return rep;
}

/// The attribution self-test: a busy-wait injected into the harness's
/// offer() wrapper must show up in the serve.offer layer and no other. It
/// runs one ramp of burst_shed under the run's seed whatever the workload:
/// between the few offers of a steady round the driver sleeps so briefly
/// that the added wait also lengthens its wake-up, a real second-order cost
/// the report rightly charges to the hand-off, not a misattribution.
void attribution_self_test(const Args& a, Gate& gate) {
  Workload w = *find_workload("burst_shed");
  w.rounds_per_session = w.ramp_rounds;
  SessionInput in;
  make_session(w, a.seed, 0, find_deadline_us(w), kQueues, kQueueCapacity,
               in);
  constexpr Layer kTimed[] = {Layer::kParse,      Layer::kOffer,
                              Layer::kClientRound, Layer::kServeRound,
                              Layer::kClientFind, Layer::kServeFind};
  const auto layer_totals = [&](std::uint64_t inject, Digest& digest,
                                double& wall, double& injected) {
    std::map<Layer, std::vector<double>> per_layer;
    std::vector<double> walls, spent;
    for (int rep = 0; rep < 3; ++rep) {
      Samples scratch;
      SpanLog spans(0);
      const SessionResult r =
          run_session(w, in, 0, scratch, &spans, inject);
      gate.session(r, "attribution self-test");
      digest = r.digest;
      walls.push_back(r.measured.ingest_s);
      spent.push_back(static_cast<double>(r.injected_ns));
      for (const Layer l : kTimed) {
        per_layer[l].push_back(static_cast<double>(spans.total(l).self_ns));
      }
    }
    wall = median(walls);
    injected = median(spent);
    std::map<Layer, double> out;
    for (const auto& [l, v] : per_layer) out[l] = median(v);
    return out;
  };
  Digest base_digest, inj_digest;
  double base_wall = 0, inj_wall = 0, none = 0, added = 0;
  const auto base = layer_totals(0, base_digest, base_wall, none);
  // Inject about twice the baseline session's wall time in all, so the
  // added time stands well above the other layers' run-to-run noise.
  const std::uint64_t inject = std::max<std::uint64_t>(
      200, static_cast<std::uint64_t>(2.0 * base_wall * 1e9 /
                                      static_cast<double>(in.updates)));
  const auto inj = layer_totals(inject, inj_digest, inj_wall, added);
  gate.same(base_digest, inj_digest, "attribution self-test");
  std::cout << "attribution self-test: " << inject << " ns busy-wait in "
            << in.updates << " offer() calls (" << added * 1e-6
            << " ms in all)\n";
  for (const Layer l : kTimed) {
    const double delta = inj.at(l) - base.at(l);
    const double share = delta / added;
    const bool want = l == Layer::kOffer;
    const bool ok = want ? share >= 0.8 && share <= 1.2 : share < 0.2;
    std::cout << "  " << std::left << std::setw(14) << layer_name(l) << " +"
              << std::setprecision(4) << delta * 1e-6 << " ms ("
              << share * 100.0 << "% of injected)" << (ok ? "" : "  <-- ")
              << (ok ? "" : (want ? "not charged" : "charged here")) << "\n";
    if (!ok) {
      gate.fail(std::string("attribution self-test: ") + layer_name(l) +
                (want ? " missed the injected time"
                      : " was charged injected time"));
    }
  }
}

int run_traced(const Args& a, std::int64_t deadline_us) {
  const Workload& w = *a.workload;
  Gate gate;
  Samples samples;
  SpanLog spans(1U << 17);
  std::vector<SessionResult> traced;
  std::vector<double> wall_untraced, wall_traced;
  SessionInput in;
  const std::uint64_t t_start = now_ns();
  for (std::uint64_t i = 0;; ++i) {
    session_input(a, deadline_us, i, in);
    Samples scratch;
    const SessionResult u = run_session(w, in, i, scratch, nullptr);
    gate.session(u, "session " + std::to_string(i));
    SessionResult t = run_session(w, in, i, samples, &spans);
    // The traced run reports no request latencies; keep memory bounded.
    samples.update_ns.clear();
    samples.find_ns.clear();
    gate.session(t, "traced session " + std::to_string(i));
    gate.same(u.digest, t.digest,
              "traced vs untraced session " + std::to_string(i));
    wall_untraced.push_back(u.measured.ingest_s);
    wall_traced.push_back(t.measured.ingest_s);
    traced.push_back(std::move(t));
    if (static_cast<double>(now_ns() - t_start) * 1e-9 >= a.seconds) break;
  }
  attribution_self_test(a, gate);
  if (!a.spans_out.empty()) {
    std::ofstream os(a.spans_out, std::ios::trunc);
    spans.write_jsonl(os);
    if (!os.good()) gate.fail("cannot write " + a.spans_out);
  }
  const Report rep =
      layer_report(traced, samples, spans,
                   median(wall_traced) / median(wall_untraced) - 1.0);
  std::cout << w.name << " seed " << a.seed << ": " << traced.size()
            << " traced sessions\n";
  rep.print_lines(std::cout);
  print_result(gate, rep);
  return gate.correct ? 0 : 1;
}

/// Pin the process, and so both of its threads, to the last CPU it may
/// run on. The reader and the driver never run at once (each waits for the
/// other), so one CPU is all they use; sharing it, a hand-off is a context
/// switch rather than a wake-up of another, idle vCPU, whose latency is set
/// by the host's load. Returns the CPU, or -1 when the process stays
/// unpinned.
int pin_to_one_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return -1;
  std::size_t cpu = CPU_SETSIZE;
  for (std::size_t c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) cpu = c;
  }
  if (cpu == CPU_SETSIZE) return -1;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  if (sched_setaffinity(0, sizeof(one), &one) != 0) return -1;
  return static_cast<int>(cpu);
}

int usage(const std::string& msg) {
  std::cerr << "vs_perfbench: " << msg
            << "\nusage: vs_perfbench --workload W --seed N --seconds S "
               "--trace 0|1 [--spans-out PATH] [--xcheck-out PATH]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(arg + " needs a value");
    const std::string val = argv[++i];
    try {
      if (arg == "--workload") {
        a.workload = find_workload(val);
        if (a.workload == nullptr) return usage("unknown workload " + val);
      } else if (arg == "--seed") {
        a.seed = std::stoull(val);
        have_seed = true;
      } else if (arg == "--seconds") {
        a.seconds = std::stod(val);
        have_seconds = a.seconds > 0;
      } else if (arg == "--trace") {
        if (val != "0" && val != "1") return usage("--trace takes 0 or 1");
        a.trace = val == "1";
        have_trace = true;
      } else if (arg == "--spans-out") {
        a.spans_out = val;
      } else if (arg == "--xcheck-out") {
        a.xcheck_out = val;
      } else {
        return usage("unknown argument " + arg);
      }
    } catch (const std::exception&) {
      return usage("bad value for " + arg + ": " + val);
    }
  }
  if (a.workload == nullptr || !have_seed || !have_seconds || !have_trace) {
    return usage("--workload, --seed, --seconds (> 0) and --trace are required");
  }
  const int cpu = pin_to_one_cpu();
  std::cout << "reader and driver threads "
            << (cpu >= 0 ? "pinned to CPU " + std::to_string(cpu)
                         : std::string("not pinned"))
            << "\n";
  try {
    const std::int64_t deadline_us = find_deadline_us(*a.workload);
    return a.trace ? run_traced(a, deadline_us)
                   : run_end_to_end(a, deadline_us);
  } catch (const std::exception& e) {
    std::cerr << "vs_perfbench: " << e.what() << "\n";
    return 1;
  }
}
