// vinestalk_served — long-running ingest/query daemon over a VINESTALK
// world (the serve::IngestServer robustness core, end to end).
//
//   vinestalk_served --side N --base B (--load R | --stdin | --replay F)
//                    [options]
//
// Exactly one input mode:
//   --load <rounds>      deterministic loopback open-loop load: a producer
//                        thread synthesizes a VSINGEST1 client session in
//                        memory (a triangular burst ramp that climbs to
//                        --overdrive x the ring capacity, so the ladder is
//                        driven through tiers 1 -> 2 -> 3 and into hard
//                        backpressure) and plays it through the exact
//                        reader path --stdin uses. A round-handshake
//                        between producer and driver makes drop counts
//                        deterministic while still exercising real
//                        threads.
//   --stdin              read a VSINGEST1 stream from stdin on the reader
//                        thread. kUpdate frames are offer()ed, kRound
//                        frames are client drain ticks (their upto_us is
//                        advisory; the daemon owns its virtual clock), and
//                        kFind frames run the deadline/backoff find RPC.
//                        The strict parser's first malformed byte is
//                        terminal: ingestion stops, the error is
//                        accounted, and the daemon exits 1 — a frame is
//                        never applied partially.
//   --replay <file>      deterministically re-execute a --capture file:
//                        same batches at the same round boundaries, ladder
//                        decisions recomputed. With --trace, the world
//                        trace is byte-identical to the live run's.
//
// Options:
//   --objects N          tracked objects, spread over the grid (default 4)
//   --capture <path>     VSINGEST1 capture of drained frames + markers
//   --queues N --queue-capacity N --round-us N --dead-band N
//                        serve::ServeConfig knobs
//   --overdrive N        --load peak per-queue burst, in ring capacities
//                        (default 2)
//   --seed S             --load PRNG seed (default 42)
//   --find-every N       --load: issue a find RPC every N rounds
//   --deadline-us N --attempts N --backoff-us N
//                        find RPC deadline policy (defaults 500000 / 4 /
//                        1000; a (δ+e)-latency world needs a few ms of
//                        deadline per hop of distance)
//   --monitor            cadence watchdog on object 0; violations print
//                        and (with --incident-dir D) write bundles
//   --fault-plan <file>  arm a fault::FaultPlan (chaos) against the world
//   --heartbeat-us N     run a stabilizer heartbeat on object 0 (repairs
//                        under discrete-fault plans)
//   --telemetry <path> [--telemetry-us N] [--prometheus <path>]
//                        VSTELEM1 stream (+ Prometheus snapshot) with the
//                        ingest series
//   --trace <path>       dump the world's VSTRACE1 trace at exit
//   --slo <spec-file>    arm request-level SLO monitoring with the given
//                        `slo v1` spec (env fallback: VS_SLO=). Burn-rate
//                        incidents land in --incident-dir as
//                        incident_slo_N.vsi and print to stderr; every
//                        deterministic artifact (trace, telemetry, capture,
//                        stdout) stays byte-identical SLO on vs off.
//   --slo-out <path>     VSSLO1 sidecar (+ <path>.json twin) written at
//                        exit (env fallback: VS_SLO_OUT=; requires --slo)
//
// Exit status: 0 on a clean run; 1 on a wire-format error, a watchdog
// violation, or a broken conservation identity
// (ingested == applied + suppressed + dropped — checked every run).
// A fired SLO burn-rate alert never changes the exit status: alerting is
// observability, not a verdict on the run.

#include <algorithm>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <iterator>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "ext/stabilizer.hpp"
#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"
#include "hier/grid_hierarchy.hpp"
#include "obs/monitor/incident.hpp"
#include "obs/monitor/watchdog.hpp"
#include "obs/slo/slo.hpp"
#include "obs/slo/slo_io.hpp"
#include "obs/telemetry/telemetry.hpp"
#include "obs/trace_io.hpp"
#include "serve/ingest_io.hpp"
#include "serve/server.hpp"
#include "tracking/network.hpp"

namespace {

using namespace vs;

struct Options {
  int side = 27;
  int base = 3;
  int objects = 4;
  int load_rounds = -1;   // --load
  bool from_stdin = false;
  std::string replay_path;
  std::string capture_path;
  serve::ServeConfig serve;
  std::int64_t overdrive = 2;
  std::uint64_t seed = 42;
  int find_every = 0;
  std::int64_t deadline_us = 500'000;
  bool monitor = false;
  std::string incident_dir;
  std::string fault_plan;
  std::int64_t heartbeat_us = 0;
  std::string telemetry_path;
  std::int64_t telemetry_us = 10'000;
  std::string prometheus_path;
  std::string trace_path;
  std::string slo_spec_path;
  std::string slo_out_path;
};

/// splitmix64 — tiny deterministic PRNG for the load generator.
std::uint64_t next_rand(std::uint64_t& s) {
  s += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = s;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Synthesize a VSINGEST1 client session: per round a burst of GPS fixes
/// (triangular ramp peaking at overdrive x ring capacity per queue) then a
/// drain tick; every find_every rounds a find RPC. Objects mostly jitter
/// one cell (tier-2 dead-band fodder) with occasional multi-cell jumps.
std::string make_load_stream(const Options& opt) {
  std::string out;
  serve::encode_ingest_header(out);
  std::uint64_t frames = 0;
  std::uint64_t rng = opt.seed;
  std::vector<std::pair<int, int>> pos(
      static_cast<std::size_t>(opt.objects));
  for (int i = 0; i < opt.objects; ++i) {
    const int c = (i + 1) * opt.side / (opt.objects + 1);
    pos[static_cast<std::size_t>(i)] = {c, c};
  }
  const int rounds = opt.load_rounds;
  const int half = rounds / 2;
  const std::int64_t peak =
      opt.overdrive * static_cast<std::int64_t>(opt.serve.queue_capacity);
  const auto clamp_cell = [&](int v) {
    return std::max(0, std::min(opt.side - 1, v));
  };
  int finds = 0;
  for (int r = 0; r < rounds; ++r) {
    const std::int64_t per_queue =
        r <= half ? peak * (r + 1) / (half + 1)
                  : peak * (rounds - r) / std::max(1, rounds - half);
    const std::int64_t burst = per_queue * opt.serve.queues;
    for (std::int64_t i = 0; i < burst; ++i) {
      const std::size_t obj =
          static_cast<std::size_t>(next_rand(rng) %
                                   static_cast<std::uint64_t>(opt.objects));
      auto& [x, y] = pos[obj];
      if (next_rand(rng) % 8 == 0) {
        x = clamp_cell(x + static_cast<int>(next_rand(rng) % 9) - 4);
        y = clamp_cell(y + static_cast<int>(next_rand(rng) % 9) - 4);
      } else {
        x = clamp_cell(x + static_cast<int>(next_rand(rng) % 3) - 1);
        y = clamp_cell(y + static_cast<int>(next_rand(rng) % 3) - 1);
      }
      serve::IngestFrame f;
      f.type = serve::IngestFrame::Type::kUpdate;
      f.update = {static_cast<std::uint64_t>(obj), x, y};
      serve::encode_frame(out, f);
      ++frames;
    }
    serve::IngestFrame tick;
    tick.type = serve::IngestFrame::Type::kRound;
    tick.round.upto_us = 0;  // client tick: the daemon owns its clock
    serve::encode_frame(out, tick);
    ++frames;
    if (opt.find_every > 0 && (r + 1) % opt.find_every == 0) {
      serve::IngestFrame f;
      f.type = serve::IngestFrame::Type::kFind;
      f.find.object =
          static_cast<std::uint64_t>(finds++ % opt.objects);
      f.find.x = 0;
      f.find.y = 0;
      f.find.deadline_us = opt.deadline_us;
      serve::encode_frame(out, f);
      ++frames;
    }
  }
  serve::encode_ingest_trailer(out, frames);
  return out;
}

/// Reader -> driver handshake. The reader offers updates freely (the
/// driver is parked between commands, so admission decisions are
/// deterministic) and blocks on each round tick / find RPC until the
/// driver has executed it.
struct ClientLink {
  enum class Cmd : std::uint8_t { kIdle, kRound, kFind, kDone };
  std::mutex m;
  std::condition_variable cv;
  Cmd cmd = Cmd::kIdle;
  serve::FindFrame find{};
  std::string wire_error;  // set by the reader before kDone

  /// Reader side: post a command and wait until the driver is done.
  void post(Cmd c, const serve::FindFrame* f = nullptr) {
    std::unique_lock<std::mutex> lk(m);
    cv.wait(lk, [&] { return cmd == Cmd::kIdle; });
    if (f != nullptr) find = *f;
    cmd = c;
    cv.notify_all();
    if (c != Cmd::kDone) {
      cv.wait(lk, [&] { return cmd == Cmd::kIdle; });
    }
  }
};

/// The reader thread: parse a VSINGEST1 byte source strictly, offer
/// updates, and hand round ticks / finds to the driver. `read` returns
/// the next chunk size (0 = EOF). Returns false on a wire-format error.
template <class ReadFn>
bool run_reader(serve::IngestServer& srv, ClientLink& link, ReadFn read) {
  serve::IngestParser parser;
  char buf[4096];
  bool eof = false;
  for (;;) {
    serve::IngestFrame frame;
    const auto st = parser.next(frame);
    if (st == serve::IngestParser::Status::kNeedMore) {
      if (eof) {
        srv.note_wire_error();
        link.wire_error = "truncated VSINGEST stream (no trailer)";
        link.post(ClientLink::Cmd::kDone);
        return false;
      }
      const std::size_t n = read(buf, sizeof(buf));
      if (n == 0) {
        eof = true;
      } else {
        parser.feed(buf, n);
      }
      continue;
    }
    if (st == serve::IngestParser::Status::kError) {
      srv.note_wire_error();
      link.wire_error = parser.error();
      link.post(ClientLink::Cmd::kDone);
      return false;
    }
    if (st == serve::IngestParser::Status::kEnd) {
      link.post(ClientLink::Cmd::kDone);
      return true;
    }
    switch (frame.type) {
      case serve::IngestFrame::Type::kUpdate:
        (void)srv.offer(frame.update);  // accounting is internal
        break;
      case serve::IngestFrame::Type::kRound:
        link.post(ClientLink::Cmd::kRound);
        break;
      case serve::IngestFrame::Type::kFind:
        link.post(ClientLink::Cmd::kFind, &frame.find);
        break;
    }
  }
}

int usage(const char* msg = nullptr) {
  if (msg != nullptr) std::cerr << "vinestalk_served: " << msg << "\n";
  std::cerr << "usage: vinestalk_served --side N --base B "
               "(--load R | --stdin | --replay F) [options]\n"
               "see the header of this source file for the option list.\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto val = [&]() -> std::string {
      VS_REQUIRE(i + 1 < argc, "" << arg << " needs a value");
      return argv[++i];
    };
    try {
      if (arg == "--side") {
        opt.side = std::stoi(val());
      } else if (arg == "--base") {
        opt.base = std::stoi(val());
      } else if (arg == "--objects") {
        opt.objects = std::stoi(val());
      } else if (arg == "--load") {
        opt.load_rounds = std::stoi(val());
      } else if (arg == "--stdin") {
        opt.from_stdin = true;
      } else if (arg == "--replay") {
        opt.replay_path = val();
      } else if (arg == "--capture") {
        opt.capture_path = val();
      } else if (arg == "--queues") {
        opt.serve.queues = static_cast<std::uint32_t>(std::stoul(val()));
      } else if (arg == "--queue-capacity") {
        opt.serve.queue_capacity = std::stoul(val());
      } else if (arg == "--round-us") {
        opt.serve.round = sim::Duration::micros(std::stoll(val()));
      } else if (arg == "--dead-band") {
        opt.serve.dead_band = std::stoi(val());
      } else if (arg == "--overdrive") {
        opt.overdrive = std::stoll(val());
      } else if (arg == "--seed") {
        opt.seed = std::stoull(val());
      } else if (arg == "--find-every") {
        opt.find_every = std::stoi(val());
      } else if (arg == "--deadline-us") {
        opt.deadline_us = std::stoll(val());
      } else if (arg == "--attempts") {
        opt.serve.find_attempts = std::stoi(val());
      } else if (arg == "--backoff-us") {
        opt.serve.find_backoff = sim::Duration::micros(std::stoll(val()));
      } else if (arg == "--monitor") {
        opt.monitor = true;
      } else if (arg == "--incident-dir") {
        opt.incident_dir = val();
      } else if (arg == "--fault-plan") {
        opt.fault_plan = val();
      } else if (arg == "--heartbeat-us") {
        opt.heartbeat_us = std::stoll(val());
      } else if (arg == "--telemetry") {
        opt.telemetry_path = val();
      } else if (arg == "--telemetry-us") {
        opt.telemetry_us = std::stoll(val());
      } else if (arg == "--prometheus") {
        opt.prometheus_path = val();
      } else if (arg == "--trace") {
        opt.trace_path = val();
      } else if (arg == "--slo") {
        opt.slo_spec_path = val();
      } else if (arg == "--slo-out") {
        opt.slo_out_path = val();
      } else if (arg == "--help" || arg == "-h") {
        return usage();
      } else {
        return usage(("unknown argument: " + arg).c_str());
      }
    } catch (const Error& e) {
      return usage(e.what());
    }
  }
  // Env fallbacks so a wrapping harness can arm SLO monitoring without
  // touching the command line (quickstart: VS_SLO=slo.txt vinestalk_served
  // ...).
  if (opt.slo_spec_path.empty()) {
    if (const char* e = std::getenv("VS_SLO"); e != nullptr && *e != '\0') {
      opt.slo_spec_path = e;
    }
  }
  if (opt.slo_out_path.empty()) {
    if (const char* e = std::getenv("VS_SLO_OUT");
        e != nullptr && *e != '\0') {
      opt.slo_out_path = e;
    }
  }
  if (!opt.slo_out_path.empty() && opt.slo_spec_path.empty()) {
    return usage("--slo-out needs --slo (or VS_SLO=) to arm a monitor");
  }
  const int modes = (opt.load_rounds >= 0 ? 1 : 0) +
                    (opt.from_stdin ? 1 : 0) +
                    (opt.replay_path.empty() ? 0 : 1);
  if (modes != 1) {
    return usage("pick exactly one of --load, --stdin, --replay");
  }
  if (opt.side < 2 || opt.base < 2 || opt.objects < 1) {
    return usage("need --side >= 2, --base >= 2, --objects >= 1");
  }

  try {
    hier::GridHierarchy hierarchy(opt.side, opt.side, opt.base);
    tracking::NetworkConfig net_cfg;
    net_cfg.model_vsa_failures = true;
    net_cfg.t_restart = sim::Duration::millis(5);
    tracking::TrackingNetwork net(hierarchy, net_cfg);
    if (!opt.trace_path.empty()) {
      VS_REQUIRE(obs::kTraceCompiled,
                 "tracing compiled out (rebuild with -DVINESTALK_TRACE=ON)");
      net.set_tracing(true);
    }

    opt.serve.capture_path = opt.capture_path;
    serve::IngestServer srv(net, hierarchy, opt.serve);
    for (int i = 0; i < opt.objects; ++i) {
      const int c = (i + 1) * opt.side / (opt.objects + 1);
      srv.add_object(hierarchy.grid().region_at(c, c));
    }

    // Request-level SLO monitoring. All of its wall-clock data is
    // quarantined in the VSSLO1 sidecar / JSON twin / Prometheus snapshot
    // and the incident_slo_* bundles, so arming it leaves every
    // deterministic artifact byte-identical.
    std::optional<obs::SloMonitor> slo;
    int slo_incidents = 0;
    if (!opt.slo_spec_path.empty()) {
      std::ifstream sin(opt.slo_spec_path);
      VS_REQUIRE(sin.good(), "cannot open SLO spec " << opt.slo_spec_path);
      const std::string spec_text((std::istreambuf_iterator<char>(sin)),
                                  std::istreambuf_iterator<char>());
      slo.emplace(obs::SloSpec::parse(spec_text));
      obs::ScenarioSpec scen;
      scen.side = opt.side;
      scen.base = opt.base;
      scen.model_vsa_failures = true;
      scen.seed = opt.seed;
      scen.t_restart_us = 5'000;
      slo->set_scenario(std::move(scen));
      slo->set_incident_sink([&](const obs::IncidentBundle& b) {
        std::cerr << "SLO BURN " << b.violation.predicate << " at "
                  << b.violation.time_us << "us\n";
        if (!opt.incident_dir.empty()) {
          const std::string path = opt.incident_dir + "/incident_slo_" +
                                   std::to_string(slo_incidents) + ".vsi";
          obs::write_incident_file(path, b);
          std::cerr << "slo incident bundle written to " << path << "\n";
        }
        ++slo_incidents;
      });
      srv.set_slo(&*slo);
    }

    // Observability: telemetry sampler (VSTELEM1 ingest series +
    // Prometheus), watchdog supervision, chaos plan, heartbeat stabilizer.
    std::optional<obs::TelemetrySampler> telemetry;
    if (!opt.telemetry_path.empty() || !opt.prometheus_path.empty()) {
      VS_REQUIRE(obs::kTraceCompiled,
                 "telemetry compiled out (rebuild with -DVINESTALK_TRACE=ON)");
      obs::TelemetryConfig tcfg;
      tcfg.stream_path = opt.telemetry_path;
      tcfg.prometheus_path = opt.prometheus_path;
      tcfg.cadence = sim::Duration::micros(opt.telemetry_us);
      telemetry.emplace(net, tcfg);
      if (slo.has_value()) telemetry->bind_slo(&*slo);
      telemetry->enable();
    }
    std::optional<obs::Watchdog> watchdog;
    int incidents_written = 0;
    if (opt.monitor) {
      obs::WatchdogConfig wcfg;
      wcfg.source = "served";
      watchdog.emplace(net, TargetId{0}, wcfg, obs::ScenarioSpec{});
      watchdog->set_incident_sink([&](const obs::IncidentBundle& b) {
        std::cerr << "VIOLATION " << b.violation.predicate << " at "
                  << b.violation.time_us << "us\n";
        if (!opt.incident_dir.empty()) {
          const std::string path = opt.incident_dir + "/incident_served_" +
                                   std::to_string(incidents_written++) +
                                   ".vsi";
          obs::write_incident_file(path, b);
          std::cerr << "incident bundle written to " << path << "\n";
        }
      });
    }
    std::optional<fault::FaultInjector> injector;
    if (!opt.fault_plan.empty()) {
      injector.emplace(net, fault::FaultPlan::parse_file(opt.fault_plan));
      injector->arm();
      if (watchdog.has_value()) {
        if (const auto d = injector->recovery_deadline()) {
          watchdog->arm_recovery_deadline(*d);
        }
      }
    }
    std::optional<ext::Stabilizer> stabilizer;
    if (opt.heartbeat_us > 0) {
      stabilizer.emplace(net, TargetId{0},
                         sim::Duration::micros(opt.heartbeat_us));
      stabilizer->start();
    }

    std::int64_t rounds_run = 0;
    int max_tier = 0;
    std::int64_t finds_issued = 0, finds_done = 0, find_attempts = 0;
    bool wire_ok = true;

    if (!opt.replay_path.empty()) {
      srv.replay_file(opt.replay_path);
    } else {
      ClientLink link;
      std::thread reader;
      std::string load_stream;
      if (opt.load_rounds >= 0) {
        load_stream = make_load_stream(opt);
        reader = std::thread([&] {
          std::size_t off = 0;
          wire_ok = run_reader(srv, link, [&](char* buf, std::size_t cap) {
            const std::size_t n =
                std::min(cap, load_stream.size() - off);
            std::memcpy(buf, load_stream.data() + off, n);
            off += n;
            return n;
          });
        });
      } else {
        reader = std::thread([&] {
          wire_ok = run_reader(srv, link, [&](char* buf, std::size_t cap) {
            std::cin.read(buf, static_cast<std::streamsize>(cap));
            return static_cast<std::size_t>(std::cin.gcount());
          });
        });
      }
      // Driver loop: all world mutation happens here.
      for (;;) {
        std::unique_lock<std::mutex> lk(link.m);
        link.cv.wait(lk, [&] { return link.cmd != ClientLink::Cmd::kIdle; });
        const auto cmd = link.cmd;
        const serve::FindFrame ff = link.find;
        if (cmd == ClientLink::Cmd::kDone) break;
        lk.unlock();
        if (cmd == ClientLink::Cmd::kRound) {
          const serve::RoundReport rep = srv.run_round();
          ++rounds_run;
          max_tier = std::max(max_tier, rep.tier);
        } else {
          if (ff.object < srv.num_objects() &&
              hierarchy.grid().in_bounds(geo::Coord{ff.x, ff.y})) {
            const serve::FindOutcome o =
                srv.find(hierarchy.grid().region_at(ff.x, ff.y), ff.object,
                         sim::Duration(ff.deadline_us));
            ++finds_issued;
            find_attempts += o.attempts;
            if (o.done) ++finds_done;
          } else {
            srv.note_wire_error();
          }
        }
        lk.lock();
        link.cmd = ClientLink::Cmd::kIdle;
        lk.unlock();
        link.cv.notify_all();
      }
      reader.join();
      srv.finish();
    }

    if (stabilizer.has_value()) stabilizer->stop();
    net.run_to_quiescence();
    if (watchdog.has_value()) watchdog->check_now();
    if (telemetry.has_value()) telemetry->finish();
    if (!opt.trace_path.empty()) {
      obs::write_trace_file(opt.trace_path, net.trace());
    }
    if (slo.has_value()) {
      slo->evaluate(net.now().count());
      if (!opt.slo_out_path.empty()) {
        const obs::SloReport rep = slo->report();
        obs::write_slo_file(opt.slo_out_path, rep);
        std::ofstream js(opt.slo_out_path + ".json", std::ios::trunc);
        VS_REQUIRE(js.good(),
                   "cannot write SLO JSON twin " << opt.slo_out_path
                                                 << ".json");
        obs::slo_to_json(js, rep);
        // stderr, like the incident notices: stdout is one of the
        // byte-identity artifacts and must not vary with --slo.
        std::cerr << "slo sidecar written to " << opt.slo_out_path << " (+ "
                  << opt.slo_out_path << ".json)\n";
      }
    }

    // Summary + verdicts. The conservation identity is judged on every
    // run; a violation is a daemon bug, never load-dependent.
    const stats::IngestCounters& ing = net.counters().ingest();
    const bool conserved =
        ing.ingested == ing.applied + ing.suppressed + ing.dropped;
    const char* mode = !opt.replay_path.empty() ? "replay"
                       : opt.from_stdin         ? "stdin"
                                                : "load";
    std::cout << "vinestalk_served: " << mode << " side " << opt.side
              << " base " << opt.base << " objects " << opt.objects
              << "\n";
    std::cout << "rounds: " << rounds_run << " (max tier " << max_tier
              << ")\n";
    std::cout << "ingest: " << ing.ingested << " ingested = " << ing.applied
              << " applied + " << ing.suppressed << " suppressed + "
              << ing.dropped << " dropped ["
              << (conserved ? "conservation OK" : "CONSERVATION VIOLATED")
              << "]\n";
    std::cout << "shed tier entries: t1 " << ing.shed_tier_entries[0]
              << " t2 " << ing.shed_tier_entries[1] << " t3 "
              << ing.shed_tier_entries[2] << "; queue depth peak "
              << ing.queue_depth_peak << "\n";
    std::cout << "wire errors: " << ing.wire_errors << "\n";
    if (finds_issued > 0) {
      std::cout << "finds: " << finds_issued << " issued, " << finds_done
                << " completed, " << find_attempts << " attempt(s)\n";
    }
    std::cout << "virtual time: " << net.now() << "\n";
    if (watchdog.has_value()) {
      std::cout << "watchdog: " << watchdog->violations_seen()
                << " violation(s)\n";
    }
    if (!wire_ok) {
      std::cerr << "vinestalk_served: wire error\n";
      return 1;
    }
    if (!conserved || ing.wire_errors > 0) return 1;
    if (watchdog.has_value() && !watchdog->ok()) return 1;
    return 0;
  } catch (const Error& e) {
    std::cerr << "vinestalk_served: " << e.what() << "\n";
    return 1;
  }
}
