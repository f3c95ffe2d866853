#include "session.hpp"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <exception>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>

#include "hier/grid_hierarchy.hpp"
#include "obs/slo/slo.hpp"
#include "obs/telemetry/telemetry.hpp"
#include "serve/ingest_io.hpp"
#include "serve/server.hpp"
#include "spec/bounds.hpp"
#include "spec/consistency.hpp"
#include "tracking/network.hpp"

namespace perfbench {

namespace {

using namespace vs;

/// Virtual time the final drain may take: past every deadline-missed RPC's
/// abandoned attempts (4 x the 10.1 s steady deadline) with room to spare.
constexpr sim::Duration kDrainHorizon = sim::Duration::millis(60'000);

/// vinestalk_served's network configuration.
tracking::NetworkConfig daemon_network_config() {
  tracking::NetworkConfig cfg;
  cfg.model_vsa_failures = true;
  cfg.t_restart = sim::Duration::millis(5);
  return cfg;
}

double seconds_between(std::uint64_t t0, std::uint64_t t1) {
  return static_cast<double>(t1 - t0) * 1e-9;
}

/// Busy-wait for at least `ns`; returns the wall time actually spent.
std::uint64_t spin_for(std::uint64_t ns) {
  const std::uint64_t start = now_ns();
  std::uint64_t t = start;
  while (t < start + ns) t = now_ns();
  return t - start;
}

/// vinestalk_served's ClientLink, call for call. The driver also publishes
/// the wall interval it spent executing the command, under the same mutex
/// that hands the command back.
struct ClientLink {
  enum class Cmd : std::uint8_t { kIdle, kRound, kFind, kDone };
  std::mutex m;
  std::condition_variable cv;
  Cmd cmd = Cmd::kIdle;
  serve::FindFrame find{};
  std::string wire_error;  // set by the reader before kDone
  std::uint64_t busy_t0 = 0;
  std::uint64_t busy_t1 = 0;

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

/// The reader thread: vinestalk_served's run_reader over an in-memory byte
/// source, with the harness's clock reads around each call it makes.
class Reader {
 public:
  Reader(serve::IngestServer& srv, ClientLink& link, const std::string& bytes,
         int warmup_rounds, std::uint64_t inject_offer_ns, Samples& samples,
         SpanLog* spans, std::uint64_t req_base)
      : srv_(srv),
        link_(link),
        bytes_(bytes),
        warmup_rounds_(warmup_rounds),
        inject_offer_ns_(inject_offer_ns),
        samples_(samples),
        spans_(spans),
        req_base_(req_base) {}

  /// Never throws; a failure is left in error() after kDone was posted.
  void run() {
    try {
      wire_ok_ = read_all();
    } catch (const std::exception& e) {
      error_ = e.what();
      if (!done_posted_) post(ClientLink::Cmd::kDone);
    }
  }

  [[nodiscard]] bool wire_ok() const { return wire_ok_; }
  [[nodiscard]] const std::string& error() const { return error_; }
  /// When the measured part began: its first byte parsed.
  [[nodiscard]] std::uint64_t measure_start_ns() const { return t_measure_; }
  [[nodiscard]] std::int64_t offers() const { return offers_; }
  [[nodiscard]] std::uint64_t injected_ns() const { return injected_ns_; }
  /// Reader-side counts of the measured part.
  void fill(Measured& m) const {
    m.frames = frames_;
    m.updates = updates_;
    m.rejected = rejected_;
  }

 private:
  struct Admitted {
    std::uint64_t t0 = 0;
    std::uint64_t span_id = 0;
    std::uint64_t req = 0;
  };

  [[nodiscard]] bool measuring() const { return rounds_ >= warmup_rounds_; }
  /// The span log while measuring, else null.
  [[nodiscard]] SpanLog* tracing() const {
    return measuring() ? spans_ : nullptr;
  }

  void post(ClientLink::Cmd c, const serve::FindFrame* f = nullptr) {
    if (c == ClientLink::Cmd::kDone) done_posted_ = true;
    link_.post(c, f);
  }

  std::size_t read(char* buf, std::size_t cap) {
    const std::size_t n = std::min(cap, bytes_.size() - off_);
    std::memcpy(buf, bytes_.data() + off_, n);
    off_ += n;
    return n;
  }

  bool read_all() {
    serve::IngestParser parser;
    char buf[4096];
    bool eof = false;
    t_measure_ = now_ns();
    std::uint64_t t_mark = t_measure_;  // start of the next frame's parse span
    std::uint64_t seq = 0;  // frames parsed: the request id's low bits
    for (;;) {
      serve::IngestFrame frame;
      const auto st = parser.next(frame);
      if (st == serve::IngestParser::Status::kNeedMore) {
        if (eof) {
          srv_.note_wire_error();
          link_.wire_error = "truncated VSINGEST stream (no trailer)";
          post(ClientLink::Cmd::kDone);
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
        srv_.note_wire_error();
        link_.wire_error = parser.error();
        post(ClientLink::Cmd::kDone);
        return false;
      }
      if (st == serve::IngestParser::Status::kEnd) {
        post(ClientLink::Cmd::kDone);
        return true;
      }
      const std::uint64_t req = req_base_ + seq++;
      std::uint64_t t_parsed = 0;
      if (measuring()) ++frames_;
      if (SpanLog* tr = tracing()) {
        t_parsed = now_ns();
        tr->record(Layer::kParse, 0, req, t_mark, t_parsed);
      }
      switch (frame.type) {
        case serve::IngestFrame::Type::kUpdate:
          offer(frame.update, req, t_parsed);
          break;
        case serve::IngestFrame::Type::kRound:
          round(req);
          break;
        case serve::IngestFrame::Type::kFind:
          find(frame.find, req);
          break;
      }
      if (tracing() != nullptr) t_mark = now_ns();
    }
  }

  void offer(const serve::UpdateFrame& u, std::uint64_t req,
             std::uint64_t t_parsed) {
    SpanLog* const tr = tracing();
    const std::uint64_t t0 = tr != nullptr ? t_parsed : now_ns();
    if (inject_offer_ns_ > 0) {
      injected_ns_ += spin_for(inject_offer_ns_);
    }
    const bool queued =
        srv_.offer(u) == serve::IngestServer::Admit::kQueued;
    ++offers_;
    if (!measuring()) return;
    ++updates_;
    if (!queued) ++rejected_;
    std::uint64_t span_id = 0;
    if (tr != nullptr) {
      const std::uint64_t t1 = now_ns();
      if (queued) span_id = tr->reserve_id();
      tr->record(Layer::kOffer, span_id, req, t0, t1);
    }
    if (queued) admitted_.push_back(Admitted{t0, span_id, req});
  }

  void round(std::uint64_t req) {
    const std::uint64_t t0 = now_ns();
    post(ClientLink::Cmd::kRound);
    const std::uint64_t t1 = now_ns();
    // Written by the driver before it handed the command back under
    // link_.m, which post() re-acquired.
    const std::uint64_t b0 = link_.busy_t0;
    const std::uint64_t b1 = link_.busy_t1;
    for (const Admitted& a : admitted_) samples_.update_ns.push_back(b1 - a.t0);
    if (SpanLog* tr = tracing()) {
      const std::uint64_t cid =
          tr->record(Layer::kClientRound, 0, req, t0, t1, b1 - b0);
      tr->record(Layer::kServeRound, cid, req, b0, b1);
      for (const Admitted& a : admitted_) {
        tr->record(Layer::kClientUpdate, 0, a.req, a.t0, b1, 0, a.span_id);
      }
      samples_.round_busy_ns.push_back(b1 - b0);
      samples_.round_wait_ns.push_back((t1 - t0) - (b1 - b0));
    }
    admitted_.clear();
    if (++rounds_ == warmup_rounds_) t_measure_ = now_ns();
  }

  void find(const serve::FindFrame& f, std::uint64_t req) {
    const std::uint64_t t0 = now_ns();
    post(ClientLink::Cmd::kFind, &f);
    const std::uint64_t t1 = now_ns();
    if (!measuring()) return;
    samples_.find_ns.push_back(t1 - t0);
    if (SpanLog* tr = tracing()) {
      const std::uint64_t b0 = link_.busy_t0;
      const std::uint64_t b1 = link_.busy_t1;
      const std::uint64_t cid =
          tr->record(Layer::kClientFind, 0, req, t0, t1, b1 - b0);
      tr->record(Layer::kServeFind, cid, req, b0, b1);
      samples_.find_busy_ns.push_back(b1 - b0);
      samples_.find_wait_ns.push_back((t1 - t0) - (b1 - b0));
    }
  }

  serve::IngestServer& srv_;
  ClientLink& link_;
  const std::string& bytes_;
  const int warmup_rounds_;
  const std::uint64_t inject_offer_ns_;
  Samples& samples_;
  SpanLog* spans_;
  std::uint64_t req_base_;
  std::size_t off_ = 0;
  std::vector<Admitted> admitted_;
  int rounds_ = 0;  // round ticks the driver has completed
  std::uint64_t t_measure_ = 0;
  std::int64_t frames_ = 0;
  std::int64_t updates_ = 0;
  std::int64_t rejected_ = 0;
  std::int64_t offers_ = 0;
  std::uint64_t injected_ns_ = 0;
  bool wire_ok_ = false;
  bool done_posted_ = false;
  std::string error_;
};

}  // namespace

std::int64_t find_deadline_us(const Workload& w) {
  const hier::GridHierarchy h(w.side, w.side, w.base);
  const tracking::NetworkConfig cfg = daemon_network_config();
  const double bound = spec::find_time_bound(h, h.tiling().diameter(),
                                             cfg.cgcast.delta + cfg.cgcast.e);
  return 2 * static_cast<std::int64_t>(std::llround(bound));
}

SessionResult run_session(const Workload& w, const SessionInput& in,
                          std::uint64_t session, Samples& samples,
                          SpanLog* tr, std::uint64_t inject_offer_ns) {
  SessionResult r;
  // Declared before the world so it outlives its attachment.
  obs::Profiler prof;

  const std::uint64_t t_setup = now_ns();
  const hier::GridHierarchy h(w.side, w.side, w.base);
  const std::uint64_t t_hier = now_ns();
  tracking::TrackingNetwork net(h, daemon_network_config());
  const std::uint64_t t_net = now_ns();
  // Declared before the server, which keeps a pointer to the monitor and
  // may still run a round when it is destroyed.
  std::optional<obs::SloMonitor> slo;
  std::optional<obs::TelemetrySampler> telemetry;
  serve::IngestServer srv(net, h, serve::ServeConfig{});
  const std::uint64_t t_srv = now_ns();
  for (int i = 0; i < w.objects; ++i) {
    const int c = start_cell(i, w.objects, w.side);
    srv.add_object(h.grid().region_at(c, c));
  }
  const std::uint64_t t_obj = now_ns();
  if (w.observed) {
    slo.emplace(obs::SloSpec{});
    srv.set_slo(&*slo);
    obs::TelemetryConfig tcfg;
    tcfg.stream_path = "/dev/null";  // encode and flush, no disk
    tcfg.cadence = sim::Duration::micros(10'000);
    telemetry.emplace(net, tcfg);
    telemetry->bind_slo(&*slo);
    telemetry->enable();
  }
  const std::uint64_t t_obs = now_ns();
  r.setup_s = seconds_between(t_setup, t_obs);
  r.setup_phase_s = {seconds_between(t_setup, t_hier),
                     seconds_between(t_hier, t_net),
                     seconds_between(t_net, t_srv),
                     seconds_between(t_srv, t_obj),
                     seconds_between(t_obj, t_obs)};
  const std::uint64_t req_base = session << 32;
  if (tr != nullptr) {
    const std::uint64_t root = tr->reserve_id();
    tr->record(Layer::kSetupHierarchy, root, req_base, t_setup, t_hier);
    tr->record(Layer::kSetupNetwork, root, req_base, t_hier, t_net);
    tr->record(Layer::kSetupServer, root, req_base, t_net, t_srv);
    tr->record(Layer::kSetupObjects, root, req_base, t_srv, t_obj);
    tr->record(Layer::kSetupObs, root, req_base, t_obj, t_obs);
    tr->record(Layer::kSetup, 0, req_base, t_setup, t_obs, t_obs - t_setup,
               root);
    net.set_profiler(&prof);
    if (w.warmup_rounds == 0) prof.enable();
  }

  stats::WorkCounters& wc = net.counters();
  const std::int64_t move_msgs0 = wc.move_messages();
  const std::int64_t move_work0 = wc.move_work();
  const std::int64_t find_msgs0 = wc.find_messages();
  const std::int64_t find_work0 = wc.find_work();
  const std::uint32_t moves0 = net.move_count();
  const std::size_t finds0 = net.finds().size();

  ClientLink link;
  Reader reader(srv, link, in.bytes, w.warmup_rounds, inject_offer_ns,
                samples, tr, req_base);
  std::thread reader_thread([&reader] { reader.run(); });

  // The driver loop of vinestalk_served: all world mutation happens here.
  Measured& m = r.measured;
  int rounds_run = 0;
  std::vector<FindId> answered;
  std::string driver_error;
  for (;;) {
    std::unique_lock<std::mutex> lk(link.m);
    link.cv.wait(lk, [&] { return link.cmd != ClientLink::Cmd::kIdle; });
    const auto cmd = link.cmd;
    const serve::FindFrame ff = link.find;
    if (cmd == ClientLink::Cmd::kDone) break;
    lk.unlock();
    const bool measuring = rounds_run >= w.warmup_rounds;
    const std::uint64_t ev0 = net.scheduler().events_fired();
    const std::uint32_t mv0 = net.move_count();
    serve::RoundReport rep;
    std::optional<serve::FindOutcome> outcome;
    const std::uint64_t t0 = now_ns();
    std::uint64_t t1 = 0;
    try {
      if (cmd == ClientLink::Cmd::kRound) {
        rep = srv.run_round();
      } else if (ff.object < srv.num_objects() &&
                 h.grid().in_bounds(geo::Coord{ff.x, ff.y})) {
        outcome = srv.find(h.grid().region_at(ff.x, ff.y), ff.object,
                           sim::Duration(ff.deadline_us));
      } else {
        srv.note_wire_error();
      }
      t1 = now_ns();
      if (outcome.has_value() && outcome->done) {
        // The object cannot move during the RPC: updates apply only in
        // rounds, and the driver runs one command at a time.
        const tracking::FindResult& fr = net.find_result(outcome->id);
        if (fr.found_region != net.evaders().region_of(fr.target)) {
          ++r.wrong_answers;
        }
        answered.push_back(outcome->id);
      }
    } catch (const std::exception& e) {
      // Recorded, and the command is still handed back, so the reader
      // never waits on a driver that stopped.
      if (driver_error.empty()) driver_error = e.what();
      if (t1 == 0) t1 = now_ns();
    }
    if (measuring) {
      const std::uint64_t events = net.scheduler().events_fired() - ev0;
      m.busy_ns += t1 - t0;
      if (cmd == ClientLink::Cmd::kRound) {
        ++m.rounds;
        if (rep.tier >= 3) ++m.tier3_rounds;
        m.applied += rep.applied;
        m.suppressed += rep.suppressed;
        m.moves += net.move_count() - mv0;
        m.events_in_rounds += events;
      } else if (outcome.has_value()) {
        ++m.rpcs;
        m.attempts += outcome->attempts;
        m.events_in_finds += events;
      }
    }
    if (cmd == ClientLink::Cmd::kRound && ++rounds_run == w.warmup_rounds &&
        tr != nullptr) {
      prof.enable();
    }
    lk.lock();
    link.busy_t0 = t0;
    link.busy_t1 = t1;
    link.cmd = ClientLink::Cmd::kIdle;
    lk.unlock();
    link.cv.notify_all();
  }
  reader_thread.join();
  try {
    srv.finish();
  } catch (const std::exception& e) {
    if (driver_error.empty()) driver_error = e.what();
  }
  const std::uint64_t t_end = now_ns();
  m.ingest_s = seconds_between(reader.measure_start_ns(), t_end);
  reader.fill(m);
  r.offers = reader.offers();
  r.injected_ns = reader.injected_ns();

  if (tr != nullptr) {
    prof.disable();
    r.prof_self_ns = prof.report().domain_self_ns;
    net.set_profiler(nullptr);
  }
  // The daemon's final run_to_quiescence, bounded: a find that circles a
  // broken structure never lets the world quiesce, and the unbounded call
  // would only fail after the scheduler's 2e8-event budget. Such a session
  // is reported as not quiescent instead.
  const sim::TimePoint drain_end = net.now() + kDrainHorizon;
  while (net.scheduler().pending() > 0 && net.now() < drain_end) {
    net.run_until(std::min(drain_end, net.now() + sim::Duration::millis(100)));
  }
  if (telemetry.has_value()) {
    telemetry->finish();
    r.telemetry_samples = telemetry->samples_taken();
  }
  r.finds_retained = net.finds().size();

  Digest& d = r.digest;
  const stats::IngestCounters& ing = wc.ingest();
  d.ingested = ing.ingested;
  d.applied = ing.applied;
  d.suppressed = ing.suppressed;
  d.dropped = ing.dropped;
  d.wire_errors = ing.wire_errors;
  d.tier_entries = ing.shed_tier_entries;
  d.queue_depth_peak = ing.queue_depth_peak;
  d.rpc_issued = ing.rpc_finds_issued;
  d.rpc_done = ing.rpc_finds_done;
  d.rpc_misses = ing.rpc_deadline_misses;
  d.rpc_attempts = ing.rpc_find_attempts;
  d.quiescent = net.scheduler().pending() == 0;
  d.events_fired = net.scheduler().events_fired();
  d.end_time_us = net.now().count();
  d.move_msgs = wc.move_messages() - move_msgs0;
  d.move_work = wc.move_work() - move_work0;
  d.find_msgs = wc.find_messages() - find_msgs0;
  d.find_work = wc.find_work() - find_work0;
  d.moves = static_cast<std::int64_t>(net.move_count() - moves0);
  d.finds_started = static_cast<std::int64_t>(net.finds().size() - finds0);
  for (int i = 0; i < w.objects; ++i) {
    const TargetId t{static_cast<TargetId::rep_type>(i)};
    if (spec::check_consistent(net.snapshot(t), net.evaders().region_of(t))
            .ok()) {
      ++d.structures_ok;
    }
  }
  for (const FindId id : answered) {
    const tracking::FindResult& fr = net.find_result(id);
    d.find_vtime_us.push_back(fr.latency().count());
    if (fr.distance > 0) {
      d.find_work_ratio.push_back(
          static_cast<double>(fr.work) /
          spec::find_work_bound(h, static_cast<int>(fr.distance)));
    }
    d.find_search_level.push_back(fr.max_search_level);
  }

  // The correctness gate for one session.
  std::ostringstream err;
  if (!reader.error().empty()) err << "reader: " << reader.error() << "; ";
  if (!reader.wire_ok()) err << "wire: " << link.wire_error << "; ";
  if (!driver_error.empty()) err << "driver: " << driver_error << "; ";
  if (d.ingested != d.applied + d.suppressed + d.dropped) {
    err << "conservation violated: " << daemon_ingest_line(d) << "; ";
  }
  if (d.wire_errors != 0) err << d.wire_errors << " wire errors; ";
  if (r.wrong_answers != 0) {
    err << r.wrong_answers << " finds answered away from their object; ";
  }
  if (d.rpc_issued != in.finds || d.ingested != in.updates) {
    err << "session consumed " << d.ingested << " updates / " << d.rpc_issued
        << " finds of " << in.updates << " / " << in.finds << "; ";
  }
  r.error = err.str();
  r.rss_end_bytes = anon_rss_bytes();
  return r;
}

std::string daemon_ingest_line(const Digest& d) {
  std::ostringstream os;
  const bool conserved = d.ingested == d.applied + d.suppressed + d.dropped;
  os << "ingest: " << d.ingested << " ingested = " << d.applied
     << " applied + " << d.suppressed << " suppressed + " << d.dropped
     << " dropped ["
     << (conserved ? "conservation OK" : "CONSERVATION VIOLATED") << "]";
  return os.str();
}

std::string daemon_finds_line(const Digest& d) {
  std::ostringstream os;
  os << "finds: " << d.rpc_issued << " issued, " << d.rpc_done
     << " completed, " << d.rpc_attempts << " attempt(s)";
  return os.str();
}

}  // namespace perfbench
