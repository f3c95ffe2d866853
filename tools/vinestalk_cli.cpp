// vinestalk_cli — scriptable driver for a VINESTALK world.
//
// Reads commands from stdin (one per line; '#' starts a comment) and
// prints results to stdout, making interactive exploration and shell-based
// smoke tests possible without writing C++:
//
//   world <side> <base>        build a grid world (must come first)
//   evader <x> <y>             place a new evader (prints its target id)
//   move <target> <x> <y>      relocate an evader (neighbouring region)
//   walk <target> <steps> <seed>  random-walk an evader
//   find <x> <y> <target>      run a find and print the result, including
//                              the find's logical operation id and its
//                              measured work against the Theorem 5.2 bound
//                              at the issue-time distance. With
//                              --deadline-us N [--attempts N]
//                              [--backoff-us N] the find runs the serve
//                              daemon's deadline-bounded RPC path instead:
//                              each attempt gets N us of virtual time, a
//                              miss backs off exponentially and retries,
//                              and a fully missed find prints a
//                              retry-after hint
//   fail <x> <y>               fail the VSA at a region (enables failures)
//   fault <plan-file>          arm a fault::FaultPlan against this world
//                              (strict parse; regions validated against
//                              the grid). Plans with discrete faults need
//                              an evader first; their events fire during
//                              the next walk, which switches to timed
//                              stepping with a periodic heartbeat
//                              stabilizer and a post-walk settle+drain.
//                              The VS_FAULTS env var names a plan file to
//                              arm automatically (windows-only plans at
//                              world creation, others at first evader).
//   tick <target>              one stabilizer repair pass
//   show <target>              render the tracking structure
//   check <target>             consistency verdict for the structure
//   sweep <trials> <steps> <seed>  run <trials> independent walk worlds
//                              (same side/base) on the --jobs thread pool;
//                              output is identical for every --jobs value
//   monitor <target> every|cadence [us]
//                              attach the live invariant watchdog to an
//                              evader; violations print immediately and
//                              (with --incident-dir) write incident
//                              bundles for vinestalk_trace
//   corrupt <target> <x> <y>   overwrite the level-0 tracker at a region
//                              with a rogue grow front (c=self, p=⊥) —
//                              fault injection for watchdog demos; two
//                              corrupts make a Lemma 4.1 violation
//   audit <trace-file>         alias for `vinestalk_trace audit` judged
//                              against this world's shape: rebuild the
//                              per-operation cost ledger from the file and
//                              check the Theorem 4.9/5.2 bounds
//   stats                      work counters so far
//   trace on|off               toggle structured tracing for this world
//                              (enable before placing evaders if the trace
//                              is meant to pass `vinestalk_trace check` —
//                              mid-run traces start mid-protocol)
//   trace dump <path>          write recorded events as a VSTRACE1 file
//                              (read it back with vinestalk_trace)
//   telemetry <path> [us]      stream VSTELEM1 time-series samples of this
//                              world to <path> on a virtual-time cadence
//                              (default 10000us); watch live with
//                              `vinestalk_top <path>`, summarize with
//                              `vinestalk_trace telemetry <path>`
//   telemetry off              finish the stream (writes the trailer)
//   slo <spec-file>            arm request-level SLO monitoring (`slo v1`
//                              spec) on this session: deadline-mode finds
//                              get latency spans, and the spec text is
//                              embedded in any incident bundles the
//                              watchdog writes (ScenarioSpec.slo_spec)
//   slo report                 print the monitor's per-objective burn
//                              windows and find percentiles
//   quit
//
// The binary takes `--jobs N` (default: hardware concurrency) for the
// sweep command's trial pool. Per-trial randomness derives from the trial
// index (runner::trial_seed), never from thread identity, so the merged
// table is bit-identical at any job count.
//
// Example:
//   printf 'world 27 3\nevader 20 6\nfind 0 26 0\nstats\n' | vinestalk_cli

#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>

#include "common/error.hpp"
#include "ext/stabilizer.hpp"
#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"
#include "hier/grid_hierarchy.hpp"
#include "obs/ledger/auditor.hpp"
#include "obs/monitor/incident.hpp"
#include "obs/monitor/watchdog.hpp"
#include "obs/op.hpp"
#include "obs/slo/slo.hpp"
#include "obs/telemetry/telemetry.hpp"
#include "obs/trace_io.hpp"
#include "spec/bounds.hpp"
#include "runner/trial_pool.hpp"
#include "serve/server.hpp"
#include "spec/consistency.hpp"
#include "spec/inspect.hpp"
#include "stats/table.hpp"
#include "tracking/network.hpp"
#include "vsa/evader.hpp"

namespace {

using namespace vs;

class Cli {
 public:
  Cli(int jobs, std::string incident_dir)
      : jobs_(jobs), incident_dir_(std::move(incident_dir)) {}

  int run(std::istream& in, std::ostream& out) {
    std::string line;
    while (std::getline(in, line)) {
      const auto hash = line.find('#');
      if (hash != std::string::npos) line.erase(hash);
      std::istringstream ss(line);
      std::string cmd;
      if (!(ss >> cmd)) continue;
      try {
        if (!dispatch(cmd, ss, out)) return 0;  // quit
      } catch (const Error& e) {
        out << "error: " << e.what() << "\n";
      }
    }
    return 0;
  }

 private:
  bool dispatch(const std::string& cmd, std::istringstream& ss,
                std::ostream& out) {
    if (cmd == "quit" || cmd == "exit") return false;
    if (cmd == "world") {
      int side = 0, base = 0;
      ss >> side >> base;
      side_ = side;
      base_ = base;
      watchdog_.reset();  // watches the old world; drop before replacing it
      telemetry_.reset();  // ditto — finishes its stream before the world dies
      injector_.reset();
      stabilizers_.clear();
      hierarchy_ = std::make_unique<hier::GridHierarchy>(side, side, base);
      tracking::NetworkConfig cfg;
      cfg.model_vsa_failures = true;
      cfg.t_restart = sim::Duration::millis(5);
      net_ = std::make_unique<tracking::TrackingNetwork>(*hierarchy_, cfg);
      cli_ledger_.reset();  // the old world's; the new one attaches fresh
      // Begin capturing the session as a replayable scenario; commands
      // outside the canonical world→evader→walk→corrupt shape clear the
      // replayable flag below.
      scenario_ = obs::ScenarioSpec{};
      scenario_.side = side;
      scenario_.base = base;
      scenario_.model_vsa_failures = true;
      scenario_.t_restart_us = cfg.t_restart.count();
      out << "world " << side << "x" << side << " base " << base << ", MAX "
          << hierarchy_->max_level() << ", " << hierarchy_->num_clusters()
          << " clusters\n";
      // VS_FAULTS: arm the named plan automatically. Windows-only plans
      // arm now (their now()-predicates then cover placement, like a
      // replay's); plans with discrete events wait for the first evader —
      // the placement drain would fast-forward through their timers.
      if (const char* f = std::getenv("VS_FAULTS"); f != nullptr && *f != '\0') {
        const fault::FaultPlan plan = fault::FaultPlan::parse_file(f);
        if (plan.crashes.empty() && plan.outages.empty() &&
            plan.depopulations.empty()) {
          arm_fault_plan(plan, out);
        } else {
          pending_faults_ = plan;
          out << "fault plan " << f << " staged (arms at first evader)\n";
        }
      }
      return true;
    }
    VS_REQUIRE(net_ != nullptr, "run `world <side> <base>` first");
    if (cmd == "evader") {
      const RegionId start = region(ss);
      const TargetId t = net_->add_evader(start);
      net_->run_to_quiescence();
      if (scenario_.start_region < 0) {
        scenario_.start_region = start.value();
      } else {
        scenario_.replayable_flag = false;  // >1 evader: not canonical
      }
      out << "evader " << t.value() << " placed\n";
      if (pending_faults_.has_value()) {
        const fault::FaultPlan plan = *pending_faults_;
        pending_faults_.reset();
        arm_fault_plan(plan, out);
      }
    } else if (cmd == "move") {
      const TargetId t = target(ss);
      scenario_.replayable_flag = false;  // manual move: not canonical
      net_->move_evader(t, region(ss));
      net_->run_to_quiescence();
      out << "evader " << t.value() << " now at "
          << hierarchy_->tiling().describe(net_->evaders().region_of(t))
          << "\n";
    } else if (cmd == "walk") {
      const TargetId t = target(ss);
      int steps = 0;
      std::uint64_t seed = 0;
      ss >> steps >> seed;
      if (scenario_.steps == 0 && scenario_.corruptions.empty()) {
        scenario_.steps = steps;  // first walk: the canonical one
        scenario_.seed = seed;
      } else {
        scenario_.replayable_flag = false;
      }
      vsa::RandomWalkMover mover(hierarchy_->tiling(), seed);
      RegionId cur = net_->evaders().region_of(t);
      if (injector_) {
        // Fault-mode walk: the plan's events are anchored to absolute
        // virtual times, so step in timed slices instead of draining
        // (run_to_quiescence would fast-forward through them), run a
        // periodic heartbeat stabilizer, and settle + drain at the end —
        // the exact shape run_scenario replays.
        scenario_.step_every_us = kFaultStepUs;
        scenario_.settle_us = kFaultSettleUs;
        scenario_.heartbeat_period_us = kFaultHeartbeatUs;
        if (watchdog_) watchdog_->set_scenario(scenario_);
        ext::Stabilizer stab(*net_, t,
                             sim::Duration::micros(kFaultHeartbeatUs));
        stab.start();
        for (int i = 0; i < steps; ++i) {
          cur = mover.next(cur);
          net_->move_evader(t, cur);
          net_->run_for(sim::Duration::micros(kFaultStepUs));
        }
        net_->run_for(sim::Duration::micros(kFaultSettleUs));
        stab.stop();
        net_->run_to_quiescence();
        // Judge the settled structure now (this also evaluates a pending
        // recovery deadline on the healed state, like a replay's
        // post-drain check).
        if (watchdog_) watchdog_->check_now();
        out << "walked " << steps << " steps to "
            << hierarchy_->tiling().describe(cur) << " under the fault plan ("
            << injector_->faults_injected() << "/"
            << injector_->planned_faults() << " discrete fault(s) fired, "
            << stab.repairs() << " repair action(s))\n";
        if (watchdog_ && injector_->recovery_deadline().has_value()) {
          out << "recovery deadline "
              << (watchdog_->recovery_deadline_met()
                      ? "met"
                      : (watchdog_->recovery_deadline_pending() ? "pending"
                                                                : "MISSED"))
              << "\n";
        }
      } else {
        if (watchdog_) watchdog_->set_scenario(scenario_);
        for (int i = 0; i < steps; ++i) {
          cur = mover.next(cur);
          net_->move_evader(t, cur);
          net_->run_to_quiescence();
        }
        out << "walked " << steps << " steps to "
            << hierarchy_->tiling().describe(cur) << "\n";
      }
    } else if (cmd == "find") {
      const RegionId from = region(ss);
      const TargetId t = target(ss);
      // Optional deadline mode: `find <x> <y> <t> --deadline-us N
      // [--attempts N] [--backoff-us N]` runs the daemon's exact
      // deadline/retry RPC path (serve::find_with_deadline) instead of
      // draining to quiescence.
      std::int64_t deadline_us = 0, backoff_us = 1000;
      int attempts = 4;
      std::string tok;
      while (ss >> tok) {
        if (tok == "--deadline-us") {
          VS_REQUIRE(static_cast<bool>(ss >> deadline_us) && deadline_us > 0,
                     "--deadline-us needs a count of microseconds > 0");
        } else if (tok == "--attempts") {
          VS_REQUIRE(static_cast<bool>(ss >> attempts) && attempts >= 1,
                     "--attempts needs a count >= 1");
        } else if (tok == "--backoff-us") {
          VS_REQUIRE(static_cast<bool>(ss >> backoff_us) && backoff_us > 0,
                     "--backoff-us needs a count of microseconds > 0");
        } else {
          VS_REQUIRE(false, "unknown find option " << tok);
        }
      }
      FindId f{};
      if (deadline_us > 0) {
        scenario_.replayable_flag = false;  // deadline pacing isn't captured
        const std::uint64_t t0 =
            slo_ != nullptr ? obs::SloMonitor::now_ns() : 0;
        const serve::FindOutcome o = serve::find_with_deadline(
            *net_, from, t, sim::Duration::micros(deadline_us), attempts,
            sim::Duration::micros(backoff_us));
        if (slo_ != nullptr) {
          const tracking::FindResult& fr = net_->find_result(o.id);
          slo_->close_find(t0, net_->now().count(), fr.op, fr.distance,
                           !o.done);
        }
        if (!o.done) {
          out << "find missed a " << deadline_us << "us deadline "
              << o.attempts << " time(s); retry after " << o.retry_after
              << "\n";
          return true;
        }
        out << "find met its deadline on attempt " << o.attempts << "\n";
        f = o.id;
      } else {
        f = net_->start_find(from, t);
        net_->run_to_quiescence();
      }
      const auto& r = net_->find_result(f);
      if (r.done) {
        out << "found at " << hierarchy_->tiling().describe(r.found_region)
            << " in " << r.latency() << " (" << r.work << " hop-work, "
            << r.messages << " messages)\n";
        // Judge the find against Theorem 5.2 at its issue-time distance —
        // the same work bound (plus the client delivery allowance) the
        // cost auditor applies.
        const double bound =
            spec::find_work_bound(*hierarchy_,
                                  static_cast<int>(r.distance)) +
            2.0 + 2.0 * static_cast<double>(hierarchy_->omega(0));
        const auto flags = out.flags();
        out << "  op " << obs::op_name(r.op) << " d=" << r.distance
            << ": work " << r.work << " vs Theorem 5.2 bound " << std::fixed
            << std::setprecision(3) << bound << " (ratio "
            << static_cast<double>(r.work) / bound << ")\n";
        out.flags(flags);
      } else {
        out << "find did not complete\n";
      }
    } else if (cmd == "fail") {
      const RegionId u = region(ss);
      scenario_.replayable_flag = false;  // ad-hoc failure: use fault plans
      net_->fail_vsa(u);
      out << "failed VSA at " << hierarchy_->tiling().describe(u) << "\n";
    } else if (cmd == "fault") {
      std::string path;
      ss >> path;
      VS_REQUIRE(!path.empty(), "fault needs a plan file");
      std::string rest;
      VS_REQUIRE(!(ss >> rest), "fault takes exactly one plan file");
      arm_fault_plan(fault::FaultPlan::parse_file(path), out);
    } else if (cmd == "tick") {
      const TargetId t = target(ss);
      scenario_.replayable_flag = false;  // repairs aren't captured
      auto& stab = stabilizer(t);
      const int injected = stab.tick_once();
      net_->run_to_quiescence();
      out << "stabilizer injected " << injected << " repair message(s)\n";
    } else if (cmd == "show") {
      out << spec::render_structure(net_->snapshot(target(ss)));
    } else if (cmd == "check") {
      const TargetId t = target(ss);
      const auto report = spec::check_consistent(
          net_->snapshot(t), net_->evaders().region_of(t));
      out << (report.ok() ? "consistent\n" : report.to_string());
    } else if (cmd == "sweep") {
      int trials = 0, steps = 0;
      std::uint64_t seed = 0;
      ss >> trials >> steps >> seed;
      VS_REQUIRE(trials > 0 && steps > 0, "sweep needs trials > 0, steps > 0");
      run_sweep(trials, steps, seed, out);
    } else if (cmd == "trace") {
      std::string sub;
      ss >> sub;
      if (sub == "on") {
        VS_REQUIRE(obs::kTraceCompiled,
                   "tracing compiled out (rebuild with -DVINESTALK_TRACE=ON)");
        // An explicit full-trace request outranks an attached watchdog's
        // bounded flight recorder — otherwise `trace dump` would silently
        // hold only the ring's last K events.
        if (watchdog_) watchdog_->yield_recorder();
        net_->set_tracing(true);
        out << "tracing on\n";
      } else if (sub == "off") {
        net_->set_tracing(false);
        out << "tracing off\n";
      } else if (sub == "dump") {
        std::string path;
        ss >> path;
        VS_REQUIRE(!path.empty(), "trace dump needs a path");
        obs::write_trace_file(path, net_->trace());
        out << "wrote " << net_->trace().size() << " events to " << path;
        if (net_->trace().ring_capacity() > 0) {
          out << " (flight-recorder ring: last "
              << net_->trace().ring_capacity() << " events at most)";
        }
        out << "\n";
      } else {
        out << "usage: trace on|off|dump <path>\n";
      }
    } else if (cmd == "telemetry") {
      std::string sub;
      ss >> sub;
      if (sub == "off") {
        VS_REQUIRE(telemetry_ != nullptr, "no telemetry sampler is running");
        telemetry_->finish();
        out << "telemetry off after " << telemetry_->samples_taken()
            << " sample(s)\n";
        telemetry_.reset();
      } else if (!sub.empty()) {
        VS_REQUIRE(obs::kTraceCompiled,
                   "telemetry compiled out (rebuild with -DVINESTALK_TRACE=ON)");
        VS_REQUIRE(telemetry_ == nullptr,
                   "a telemetry sampler is already running (telemetry off "
                   "first)");
        // Per-class ledger series need a live ledger; attach one if the
        // world has none (observation only — the run is unperturbed).
        if (net_->op_ledger() == nullptr) {
          cli_ledger_ = std::make_unique<obs::OpLedger>();
          cli_ledger_->set_enabled(true);
          net_->set_op_ledger(cli_ledger_.get());
        }
        obs::TelemetryConfig cfg;
        cfg.stream_path = sub;
        std::int64_t us = 0;
        if (ss >> us) {
          std::string rest;
          VS_REQUIRE(us > 0 && !(ss >> rest),
                     "cadence must be a bare count of microseconds > 0");
          cfg.cadence = sim::Duration::micros(us);
        }
        telemetry_ = std::make_unique<obs::TelemetrySampler>(*net_, cfg);
        telemetry_->enable();
        out << "telemetry streaming to " << sub << " every "
            << cfg.cadence.count() << "us\n";
      } else {
        out << "usage: telemetry <path> [cadence-us] | telemetry off\n";
      }
    } else if (cmd == "slo") {
      std::string sub;
      ss >> sub;
      if (sub == "report") {
        VS_REQUIRE(slo_ != nullptr, "no SLO monitor armed (slo <spec-file>)");
        slo_->evaluate(net_->now().count());
        const obs::SloReport rep = slo_->report();
        const auto& finds =
            rep.classes[static_cast<std::size_t>(obs::SloClass::kFind)];
        out << "slo: " << finds.requests << " find(s), " << finds.errors
            << " error(s); latency us p50="
            << finds.latency.percentile(0.50) / 1000
            << " p99=" << finds.latency.percentile(0.99) / 1000 << "\n";
        for (std::size_t i = 0; i < rep.objectives.size(); ++i) {
          const obs::SloObjectiveState& o = rep.objectives[i];
          out << "  " << o.name << ": burn short " << o.burn_short_centi
              << "c long " << o.burn_long_centi << "c, budget "
              << rep.budget_remaining_milli(i) << "m left"
              << (o.fired ? " [FIRED]" : "") << "\n";
        }
      } else if (!sub.empty()) {
        std::ifstream sin(sub);
        VS_REQUIRE(sin.good(), "cannot open SLO spec " << sub);
        const std::string text((std::istreambuf_iterator<char>(sin)),
                               std::istreambuf_iterator<char>());
        slo_ = std::make_unique<obs::SloMonitor>(obs::SloSpec::parse(text));
        // The spec rides in the scenario so any incident the watchdog
        // writes carries the objectives the run was judged against.
        scenario_.slo_spec = slo_->spec().to_string();
        if (watchdog_) watchdog_->set_scenario(scenario_);
        out << "slo armed: " << slo_->spec().objectives.size()
            << " objective(s)\n";
      } else {
        out << "usage: slo <spec-file> | slo report\n";
      }
    } else if (cmd == "monitor") {
      const TargetId t = target(ss);
      std::string mode;
      ss >> mode;
      obs::WatchdogConfig cfg;
      cfg.source = "cli";
      if (mode == "every") {
        cfg.mode = obs::WatchMode::kEveryChange;
      } else if (mode == "cadence" || mode.empty()) {
        std::int64_t us = 0;
        if (ss >> us) {
          std::string rest;
          VS_REQUIRE(us > 0 && !(ss >> rest),
                     "cadence must be a bare count of microseconds > 0");
          cfg.cadence = sim::Duration::micros(us);
        }
      } else {
        out << "usage: monitor <target> every|cadence [us]\n";
        return true;
      }
      watchdog_.reset();  // one watchdog at a time; release the old hooks
      watchdog_ = std::make_unique<obs::Watchdog>(*net_, t, cfg, scenario_);
      if (injector_) {
        if (const auto d = injector_->recovery_deadline()) {
          watchdog_->arm_recovery_deadline(*d);
        }
      }
      // Capture the stream by address: the sink outlives this dispatch
      // call (it fires from later walk/corrupt commands).
      watchdog_->set_incident_sink(
          [this, os = &out](const obs::IncidentBundle& b) {
            *os << "VIOLATION " << b.violation.predicate << " at "
                << b.violation.time_us << "us";
            if (b.violation.cluster >= 0) {
              *os << " (cluster " << b.violation.cluster << ", level "
                  << b.violation.level << ")";
            }
            *os << "\n";
            if (!incident_dir_.empty()) {
              const std::string path = incident_dir_ + "/incident_cli_" +
                                       std::to_string(incidents_written_++) +
                                       ".vsi";
              obs::write_incident_file(path, b);
              *os << "incident bundle written to " << path << "\n";
            }
          });
      out << "watchdog on target " << t.value() << " ("
          << obs::to_string(cfg.mode);
      if (cfg.mode == obs::WatchMode::kCadence) {
        out << " every " << cfg.cadence.count() << "us";
      }
      out << ")\n";
    } else if (cmd == "corrupt") {
      const TargetId t = target(ss);
      const RegionId u = region(ss);
      const ClusterId c0 = hierarchy_->cluster_of(u, 0);
      tracking::TrackerSnapshot forced;
      forced.clust = c0;
      forced.c = c0;  // rogue grow front: c≠⊥, p=⊥
      obs::ScenarioSpec::Corruption corr;
      corr.cluster = c0.value();
      corr.c = c0.value();
      scenario_.corruptions.push_back(corr);
      // Refresh the watchdog's embedded scenario first so a bundle
      // captured by this very corruption already includes it.
      if (watchdog_) watchdog_->set_scenario(scenario_);
      net_->tracker(c0).corrupt_state(t, forced);
      if (watchdog_) watchdog_->check_now();
      out << "corrupted tracker of cluster " << c0.value() << " at "
          << hierarchy_->tiling().describe(u) << " (c=self, p=bot)\n";
    } else if (cmd == "audit") {
      std::string path;
      ss >> path;
      VS_REQUIRE(!path.empty(), "audit needs a trace file");
      const auto worlds = obs::read_trace_file(path);
      const vsa::CGcastConfig& cg = net_->config().cgcast;
      const obs::BoundAuditor auditor(
          *hierarchy_,
          obs::AuditConfig{
              .slack = 2.0,
              .delta_plus_e = cg.delta + cg.e,
              .timers = tracking::TimerPolicy::paper_default(*hierarchy_, cg)});
      for (const auto& w : worlds) {
        out << "world " << w.world << ":\n";
        const obs::TraceAttribution attr = obs::attribute_trace(w);
        obs::print_audit(out, attr, auditor.audit(attr.ledger));
      }
    } else if (cmd == "stats") {
      const auto& c = net_->counters();
      out << "moves: " << c.move_messages() << " messages, " << c.move_work()
          << " hop-work; finds: " << c.find_messages() << " messages, "
          << c.find_work() << " hop-work; virtual time " << net_->now()
          << "\n";
    } else {
      out << "unknown command: " << cmd << "\n";
    }
    return true;
  }

  // Validate + arm a fault plan against the current world and fold it into
  // the captured scenario. One plan per world; discrete events need an
  // evader placed first (see the dispatch comment).
  void arm_fault_plan(const fault::FaultPlan& plan, std::ostream& out) {
    VS_REQUIRE(net_ != nullptr, "run `world <side> <base>` first");
    VS_REQUIRE(injector_ == nullptr,
               "a fault plan is already armed for this world");
    const bool windows_only = plan.crashes.empty() && plan.outages.empty() &&
                              plan.depopulations.empty();
    VS_REQUIRE(windows_only || scenario_.start_region >= 0,
               "place an evader before arming a plan with discrete faults "
               "(the placement drain would fast-forward through them)");
    injector_ = std::make_unique<fault::FaultInjector>(*net_, plan);
    injector_->arm();
    // Scenario capture: canonical only when the plan precedes the walk and
    // its channel windows cannot have covered traffic sent before arming
    // (a replay arms windows-only plans before placement).
    if (scenario_.steps != 0) scenario_.replayable_flag = false;
    const std::int64_t now_us = net_->now().count();
    for (const auto* windows :
         {&plan.loss_bursts, &plan.duplications, &plan.jitters}) {
      for (const fault::FaultPlan::Window& w : *windows) {
        if (w.from_us < now_us) scenario_.replayable_flag = false;
      }
    }
    scenario_.fault_plan = plan.to_string();
    if (watchdog_) {
      if (const auto d = injector_->recovery_deadline()) {
        watchdog_->arm_recovery_deadline(*d);
      }
      watchdog_->set_scenario(scenario_);
    }
    out << "fault plan armed: " << injector_->planned_faults()
        << " discrete fault(s), "
        << plan.loss_bursts.size() + plan.duplications.size() +
               plan.jitters.size()
        << " channel window(s)";
    if (const auto d = injector_->recovery_deadline()) {
      out << ", recovery deadline " << *d;
    }
    out << "\n";
  }

  // Run `trials` independent worlds (same side/base as the current one),
  // each walking a fresh evader from the centre with an index-derived
  // seed, on the trial pool; merge per-trial counters in index order.
  void run_sweep(int trials, int steps, std::uint64_t seed,
                 std::ostream& out) {
    const int side = side_;
    const int base = base_;
    runner::TrialPool pool(jobs_);
    struct TrialRow {
      std::int64_t move_work;
      std::int64_t move_msgs;
      std::int64_t virtual_us;
    };
    const auto rows = pool.run(
        static_cast<std::size_t>(trials), [&](std::size_t trial) {
          hier::GridHierarchy h(side, side, base);
          tracking::TrackingNetwork net(h, tracking::NetworkConfig{});
          const RegionId start = h.grid().region_at(side / 2, side / 2);
          const TargetId t = net.add_evader(start);
          net.run_to_quiescence();
          vsa::RandomWalkMover mover(h.tiling(),
                                     runner::trial_seed(seed, trial));
          RegionId cur = start;
          for (int i = 0; i < steps; ++i) {
            cur = mover.next(cur);
            net.move_evader(t, cur);
            net.run_to_quiescence();
          }
          return TrialRow{net.counters().move_work(),
                          net.counters().move_messages(),
                          net.now().count()};
        });
    stats::Table table({"trial", "move_work", "move_msgs", "virtual_ms"});
    std::int64_t total_work = 0, total_msgs = 0;
    for (std::size_t i = 0; i < rows.size(); ++i) {
      total_work += rows[i].move_work;
      total_msgs += rows[i].move_msgs;
      table.add_row({static_cast<std::int64_t>(i), rows[i].move_work,
                     rows[i].move_msgs,
                     static_cast<double>(rows[i].virtual_us) / 1000.0});
    }
    table.print(out);
    out << "sweep total: " << total_work << " hop-work, " << total_msgs
        << " messages over " << trials << " trials x " << steps
        << " steps\n";
  }

  RegionId region(std::istringstream& ss) {
    int x = -1, y = -1;
    ss >> x >> y;
    return hierarchy_->grid().region_at(x, y);
  }

  TargetId target(std::istringstream& ss) {
    int t = -1;
    ss >> t;
    return TargetId{t};
  }

  ext::Stabilizer& stabilizer(TargetId t) {
    auto it = stabilizers_.find(t);
    if (it == stabilizers_.end()) {
      it = stabilizers_
               .emplace(t, std::make_unique<ext::Stabilizer>(
                               *net_, t, sim::Duration::millis(500)))
               .first;
    }
    return *it->second;
  }

  /// Fault-mode walk pacing (recorded into the captured scenario).
  static constexpr std::int64_t kFaultStepUs = 200'000;
  static constexpr std::int64_t kFaultSettleUs = 2'000'000;
  static constexpr std::int64_t kFaultHeartbeatUs = 400'000;

  int jobs_;
  std::string incident_dir_;
  int incidents_written_ = 0;
  int side_ = 0;
  int base_ = 0;
  std::unique_ptr<hier::GridHierarchy> hierarchy_;
  std::unique_ptr<obs::OpLedger> cli_ledger_;  // before net_: outlives it
  std::unique_ptr<tracking::TrackingNetwork> net_;
  std::unique_ptr<obs::Watchdog> watchdog_;  // declared after net_: dies first
  std::unique_ptr<obs::TelemetrySampler> telemetry_;  // ditto
  std::unique_ptr<obs::SloMonitor> slo_;
  std::unique_ptr<fault::FaultInjector> injector_;  // ditto
  std::optional<fault::FaultPlan> pending_faults_;  // VS_FAULTS, pre-evader
  obs::ScenarioSpec scenario_;
  std::map<TargetId, std::unique_ptr<ext::Stabilizer>> stabilizers_;
};

}  // namespace

int main(int argc, char** argv) {
  int jobs = 0;  // 0 = runner::default_jobs() (hardware concurrency)
  std::string incident_dir;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if ((arg == "--jobs" || arg == "-j") && i + 1 < argc) {
      jobs = std::atoi(argv[++i]);
    } else if (arg.rfind("--jobs=", 0) == 0) {
      jobs = std::atoi(arg.c_str() + 7);
    } else if (arg == "--incident-dir" && i + 1 < argc) {
      incident_dir = argv[++i];
    } else if (arg.rfind("--incident-dir=", 0) == 0) {
      incident_dir = arg.substr(15);
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: vinestalk_cli [--jobs N] "
                   "[--incident-dir D] < script\n"
                   "commands on stdin; see the header of this source file.\n"
                   "--jobs N sets the sweep command's thread count "
                   "(default: hardware concurrency; sweep output is "
                   "identical for every N).\n"
                   "--incident-dir D makes the monitor command write "
                   "incident bundles into D.\n";
      return 0;
    } else {
      std::cerr << "unknown argument: " << arg << " (try --help)\n";
      return 2;
    }
  }
  if (jobs < 0) {
    std::cerr << "--jobs must be >= 1 (0 means auto), got " << jobs << "\n";
    return 2;
  }
  Cli cli(jobs, incident_dir);
  return cli.run(std::cin, std::cout);
}
