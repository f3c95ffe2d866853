#include "serve/server.hpp"

#include <algorithm>
#include <limits>

#include "common/error.hpp"
#include "obs/slo/slo.hpp"

namespace vs::serve {

namespace {

// Ladder watermarks in permille of the ring capacity: tier 1 coalesces,
// tier 3 closes the admission gate, and the gate reopens only below the
// readmit level (tier 2).
constexpr std::int64_t kTier1Pm = 250;
constexpr std::int64_t kReadmitPm = 500;
constexpr std::int64_t kTier3Pm = 875;

}  // namespace

IngestServer::IngestServer(tracking::TrackingNetwork& net,
                           const hier::GridHierarchy& hier, ServeConfig cfg)
    : net_(&net), hier_(&hier), cfg_(std::move(cfg)) {
  VS_REQUIRE(cfg_.queues >= 1, "need at least one ingest queue");
  VS_REQUIRE(cfg_.queue_capacity >= 1, "queue capacity must be >= 1");
  VS_REQUIRE(cfg_.round > sim::Duration::zero(),
             "round length must be positive");
  queues_.reserve(cfg_.queues);
  for (std::uint32_t i = 0; i < cfg_.queues; ++i) {
    queues_.push_back(
        std::make_unique<SpscQueue<Pending>>(cfg_.queue_capacity));
  }
  if (!cfg_.capture_path.empty()) capture_.emplace(cfg_.capture_path);
  // A deterministic config-derived gauge, surfaced via VSTELEM1/Prometheus
  // alongside the conservation counters.
  net_->counters().ingest().retry_after_us = retry_after().count();
}

IngestServer::~IngestServer() {
  try {
    finish();
  } catch (...) {
    // Destructor cleanup: a failed final drain must not terminate.
  }
}

std::uint64_t IngestServer::add_object(RegionId start) {
  const TargetId t = net_->add_evader(start);
  net_->run_to_quiescence();
  objects_.push_back(t);
  return objects_.size() - 1;
}

IngestServer::Admit IngestServer::offer(const UpdateFrame& update) {
  if (update.object >= objects_.size() ||
      !hier_->grid().in_bounds(geo::Coord{update.x, update.y})) {
    wire_errors_.fetch_add(1, std::memory_order_relaxed);
    return Admit::kRejectedBad;
  }
  // Both reject paths count `dropped`: the frame was valid and read off
  // the wire, so it enters the conservation identity on the lossy side.
  if (shedding_.load(std::memory_order_acquire)) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return Admit::kRejectedShed;
  }
  Pending p;
  p.update = update;
  p.region = hier_->grid().region_at(update.x, update.y);
  // SLO update span opens at admission (reader thread reads the clock;
  // the monitor itself is only touched by the driver at resolution).
  if (slo_ != nullptr) p.admit_ns = obs::SloMonitor::now_ns();
  if (!queues_[queue_of(p.region)]->push(p)) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return Admit::kRejectedFull;
  }
  return Admit::kQueued;
}

void IngestServer::set_slo(obs::SloMonitor* slo) { slo_ = slo; }

RoundReport IngestServer::run_round() {
  VS_REQUIRE(!finished_, "ingest server already finished");
  const std::uint64_t round_t0 =
      slo_ != nullptr ? obs::SloMonitor::now_ns() : 0;
  batch_.clear();
  std::int64_t depth_peak = 0;
  for (auto& q : queues_) {
    std::int64_t depth = 0;
    Pending p;
    while (q->pop(p)) {
      batch_.push_back(p);
      ++depth;
    }
    depth_peak = std::max(depth_peak, depth);
  }
  const std::int64_t c = cfg_.round.count();
  const std::int64_t k = net_->now().count() / c + 1;
  const sim::TimePoint upto(k * c);
  const RoundReport rep = process_batch(batch_, depth_peak, upto);
  fold_reader_counters();
  net_->run_until(upto);
  if (slo_ != nullptr) slo_->close_round(round_t0, upto.count());
  return rep;
}

FindOutcome IngestServer::find(RegionId from, std::uint64_t object,
                               sim::Duration deadline) {
  VS_REQUIRE(!finished_, "ingest server already finished");
  VS_REQUIRE(object < objects_.size(),
             "find for unregistered object " << object);
  // Capture before running: a find advances virtual time, so a replay must
  // re-issue it at the same point in the round sequence to stay identical.
  if (capture_.has_value()) {
    const geo::Coord at = hier_->grid().coord(from);
    IngestFrame frame;
    frame.type = IngestFrame::Type::kFind;
    frame.find.object = object;
    frame.find.x = at.x;
    frame.find.y = at.y;
    frame.find.deadline_us = deadline.count();
    capture_->append(frame);
  }
  return run_find(from, object, deadline);
}

FindOutcome IngestServer::run_find(RegionId from, std::uint64_t object,
                                   sim::Duration deadline) {
  const std::uint64_t t0 = slo_ != nullptr ? obs::SloMonitor::now_ns() : 0;
  const FindOutcome o =
      find_with_deadline(*net_, from, objects_[object], deadline,
                         cfg_.find_attempts, cfg_.find_backoff);
  // Deterministic RPC accounting (deadline misses derive from virtual
  // time), shared verbatim between the live path and replay so a replayed
  // world's counters equal the live run's.
  stats::IngestCounters& ing = net_->counters().ingest();
  ++ing.rpc_finds_issued;
  ing.rpc_find_attempts += o.attempts;
  if (o.done) {
    ++ing.rpc_finds_done;
  } else {
    ++ing.rpc_deadline_misses;
  }
  if (slo_ != nullptr) {
    const tracking::FindResult& fr = net_->find_result(o.id);
    slo_->close_find(t0, net_->now().count(), fr.op, fr.distance, !o.done);
  }
  return o;
}

void IngestServer::finish() {
  if (finished_) return;
  // One last drain so every queued frame is resolved before the counters
  // are judged (the caller has stopped the reader thread by now).
  run_round();
  finished_ = true;
  shedding_.store(true, std::memory_order_release);
  if (capture_.has_value()) capture_->finish();
}

std::int64_t IngestServer::replay_file(const std::string& path) {
  VS_REQUIRE(!finished_, "ingest server already finished");
  const IngestFile f = read_ingest_file(path);
  std::int64_t rounds = 0;
  std::vector<Pending> batch;
  std::vector<std::int64_t> depth(queues_.size(), 0);
  for (const IngestFrame& frame : f.frames) {
    if (frame.type == IngestFrame::Type::kUpdate) {
      VS_REQUIRE(frame.update.object < objects_.size(),
                 "capture update for unregistered object "
                     << frame.update.object);
      VS_REQUIRE(
          hier_->grid().in_bounds(geo::Coord{frame.update.x, frame.update.y}),
          "capture update outside the world grid");
      Pending p;
      p.update = frame.update;
      p.region = hier_->grid().region_at(frame.update.x, frame.update.y);
      ++depth[queue_of(p.region)];
      batch.push_back(p);
      continue;
    }
    if (frame.type == IngestFrame::Type::kFind) {
      // Finds run between rounds on the driver thread, so a well-formed
      // capture never interleaves one with a half-batched round.
      VS_REQUIRE(batch.empty(),
                 "capture find frame inside an unfinished round");
      VS_REQUIRE(frame.find.object < objects_.size(),
                 "capture find for unregistered object " << frame.find.object);
      VS_REQUIRE(
          hier_->grid().in_bounds(geo::Coord{frame.find.x, frame.find.y}),
          "capture find origin outside the world grid");
      const RegionId from =
          hier_->grid().region_at(frame.find.x, frame.find.y);
      // Re-capture verbatim so a capture-of-a-replay equals the original.
      if (capture_.has_value()) capture_->append(frame);
      (void)run_find(from, frame.find.object,
                     sim::Duration(frame.find.deadline_us));
      continue;
    }
    const sim::TimePoint upto(frame.round.upto_us);
    VS_REQUIRE(upto > net_->now(),
               "capture round boundary " << frame.round.upto_us
                                         << "us is not in the future");
    const std::int64_t depth_peak =
        depth.empty() ? 0 : *std::max_element(depth.begin(), depth.end());
    process_batch(batch, depth_peak, upto);
    net_->run_until(upto);
    ++rounds;
    batch.clear();
    std::fill(depth.begin(), depth.end(), 0);
  }
  VS_REQUIRE(batch.empty(),
             "capture " << path << " ends mid-round (missing round marker)");
  // A replayed server is complete: keep finish()/the destructor from
  // appending an extra live round after the capture's final boundary.
  finished_ = true;
  shedding_.store(true, std::memory_order_release);
  if (capture_.has_value()) capture_->finish();
  return rounds;
}

RoundReport IngestServer::process_batch(const std::vector<Pending>& batch,
                                        std::int64_t depth_peak,
                                        sim::TimePoint upto) {
  RoundReport rep;
  rep.drained = static_cast<std::int64_t>(batch.size());

  // Ladder tier: deepest drained per-queue batch vs the watermarks. Each
  // watermark is at least one slot so an empty round can never engage.
  int tier = 0;
  if (depth_peak > 0) {
    for (const std::int64_t pm : {kTier1Pm, kReadmitPm, kTier3Pm}) {
      if (depth_peak >= std::max<std::int64_t>(1, watermark_slots(pm))) {
        ++tier;
      }
    }
  }
  tier_ = tier;
  rep.tier = tier;
  // Admission gate with hysteresis: shed at tier 3, readmit below the
  // readmit level (tier 2).
  if (tier >= 3) {
    shedding_.store(true, std::memory_order_release);
  } else if (tier < 2) {
    shedding_.store(false, std::memory_order_release);
  }

  stats::IngestCounters& ing = net_->counters().ingest();
  for (int i = 0; i < tier; ++i) ++ing.shed_tier_entries[static_cast<std::size_t>(i)];
  ing.ingested += rep.drained;
  ing.queue_depth_peak = std::max(ing.queue_depth_peak, depth_peak);

  // Capture before applying: the file records what was drained, pre-ladder,
  // so a replay re-derives every shedding decision instead of trusting us.
  // Every round writes its marker — even an empty one (a shed or idle
  // round) — because later finds are issued relative to the round clock: a
  // replay that skipped empty boundaries would run them at earlier virtual
  // times and diverge.
  if (capture_.has_value()) {
    for (const Pending& p : batch) {
      IngestFrame frame;
      frame.type = IngestFrame::Type::kUpdate;
      frame.update = p.update;
      capture_->append(frame);
    }
    IngestFrame mark;
    mark.type = IngestFrame::Type::kRound;
    mark.round.upto_us = upto.count();
    capture_->append(mark);
  }

  // Tier 1: coalesce — only the last update per object survives the round.
  // last_[o] is written for every object in the batch before it is read,
  // so entries left over from earlier rounds are never seen.
  keep_.assign(batch.size(), 1);
  if (tier >= 1) {
    last_.resize(objects_.size());
    for (std::size_t i = 0; i < batch.size(); ++i) last_[batch[i].object()] = i;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (last_[batch[i].object()] != i) keep_[i] = 0;
    }
  }
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const Pending& p = batch[i];
    if (keep_[i] == 0) {
      ++rep.suppressed;
    } else {
      apply_update(p);
      ++rep.applied;
    }
    // An update span closes when the frame is *resolved* — applied or
    // suppressed, both at this round boundary. Dropped frames never carried
    // a span; they reach the monitor as RED errors via fold_reader_counters.
    if (slo_ != nullptr && p.admit_ns != 0) {
      slo_->close_update(p.admit_ns, upto.count());
    }
  }
  ing.applied += rep.applied;
  ing.suppressed += rep.suppressed;
  return rep;
}

void IngestServer::apply_update(const Pending& p) {
  // The evader model only accepts neighbour moves, so a fix that jumped
  // several regions (suppression gaps, sparse client updates) is applied
  // as a deterministic greedy catch-up walk: always step to the first
  // neighbour (in neighbors() order) that minimizes the remaining
  // distance.
  const geo::Tiling& tiling = hier_->tiling();
  const TargetId t = objects_[p.object()];
  RegionId cur = net_->evaders().region_of(t);
  while (cur != p.region) {
    RegionId best{};
    int best_d = std::numeric_limits<int>::max();
    for (const RegionId n : tiling.neighbors(cur)) {
      const int d = tiling.distance(n, p.region);
      if (d < best_d) {
        best_d = d;
        best = n;
      }
    }
    net_->move_evader(t, best);
    cur = best;
  }
}

void IngestServer::fold_reader_counters() {
  stats::IngestCounters& ing = net_->counters().ingest();
  const std::int64_t d = dropped_.load(std::memory_order_acquire);
  // A reader-side drop was a valid frame off the wire: it joins the
  // identity on both sides at once.
  ing.ingested += d - folded_dropped_;
  ing.dropped += d - folded_dropped_;
  const std::int64_t w = wire_errors_.load(std::memory_order_acquire);
  ing.wire_errors += w - folded_wire_errors_;
  if (slo_ != nullptr) {
    // RED errors for the update class: requests that failed before a span
    // could resolve (tier-3/overflow drops, malformed frames).
    slo_->note_errors(obs::SloClass::kUpdate, net_->now().count(),
                      (d - folded_dropped_) + (w - folded_wire_errors_));
  }
  folded_dropped_ = d;
  folded_wire_errors_ = w;
}

FindOutcome find_with_deadline(tracking::TrackingNetwork& net, RegionId from,
                               TargetId target, sim::Duration deadline,
                               int attempts, sim::Duration backoff) {
  VS_REQUIRE(deadline > sim::Duration::zero(),
             "find deadline must be positive");
  VS_REQUIRE(attempts >= 1, "need at least one find attempt");
  FindOutcome o;
  sim::Duration wait = backoff;
  // Polling slice: check for completion 16 times per deadline so a met
  // deadline costs only the virtual time it actually took, not the whole
  // budget. The slicing is fixed policy, so runs stay deterministic.
  const sim::Duration slice = sim::Duration::micros(
      std::max<std::int64_t>(1, deadline.count() / 16));
  for (int i = 0; i < attempts; ++i) {
    o.id = net.start_find(from, target);
    o.attempts = i + 1;
    const sim::TimePoint cutoff = net.now() + deadline;
    while (net.now() < cutoff && !net.find_result(o.id).done) {
      net.run_until(std::min(cutoff, net.now() + slice));
    }
    if (net.find_result(o.id).done) {
      o.done = true;
      return o;
    }
    if (i + 1 < attempts) {
      // Exponential client backoff before the retry; the missed find stays
      // in flight and may still land, but the RPC's answer is the retry's.
      net.run_for(wait);
      wait = wait * 2;
    }
  }
  o.retry_after = wait;
  return o;
}

}  // namespace vs::serve
