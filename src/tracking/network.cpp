#include "tracking/network.hpp"

#include <algorithm>
#include <memory>
#include <numeric>

#include "common/error.hpp"
#include "common/log.hpp"

namespace vs::tracking {

namespace {

constexpr std::int64_t kFindLatencyBoundsUs[] = {
    1'000,   2'000,   4'000,   8'000,   16'000,  32'000,
    64'000,  128'000, 256'000, 512'000, 1'024'000};

}  // namespace

TrackingNetwork::TrackerArray::TrackerArray(const TrackerEnv& env,
                                            std::size_t n)
    : data_(std::allocator<Tracker>{}.allocate(n)) {
  try {
    for (; size_ < n; ++size_) {
      std::construct_at(data_ + size_, env,
                        ClusterId{static_cast<ClusterId::rep_type>(size_)});
    }
  } catch (...) {
    std::destroy_n(data_, size_);
    std::allocator<Tracker>{}.deallocate(data_, n);
    throw;
  }
}

TrackingNetwork::TrackerArray::~TrackerArray() {
  std::destroy_n(data_, size_);
  std::allocator<Tracker>{}.deallocate(data_, size_);
}

namespace {

TrackerConfig make_tracker_config(const hier::ClusterHierarchy& hierarchy,
                                  const NetworkConfig& config) {
  TrackerConfig tc;
  tc.lateral_links = config.lateral_links;
  tc.timers = config.timers
                  ? *config.timers
                  : TimerPolicy::paper_default(hierarchy, config.cgcast);
  validate_timer_policy(tc.timers, hierarchy, config.cgcast);
  return tc;
}

}  // namespace

TrackingNetwork::TrackingNetwork(const hier::ClusterHierarchy& hierarchy,
                                 NetworkConfig config)
    : hier_(&hierarchy),
      config_(std::move(config)),
      counters_(hierarchy.max_level()),
      tracker_config_(make_tracker_config(hierarchy, config_)),
      cgcast_(std::make_unique<vsa::CGcast>(sched_, hierarchy, config_.cgcast,
                                            counters_)),
      evaders_(hierarchy.tiling()),
      rows_(hierarchy.num_clusters()),
      // Observability: one recorder per world, shared by the message
      // service and every cluster process; off until set_tracing(true).
      tracker_env_{.sched = &sched_,
                   .hier = &hierarchy,
                   .cgcast = cgcast_.get(),
                   .config = &tracker_config_,
                   .trace = &trace_,
                   .prof = nullptr,
                   .rows = &rows_,
                   .state_hook = {}},
      trackers_(tracker_env_, hierarchy.num_clusters()),
      census_{.latency_us = obs::Histogram(kFindLatencyBoundsUs)} {

  if (config_.model_vsa_failures) {
    directory_ = std::make_unique<vsa::VsaDirectory>(
        sched_, hierarchy.tiling().num_regions(), config_.t_restart);
  }

  clients_ = std::make_unique<vsa::ClientPopulation>(*cgcast_, hierarchy,
                                                     directory_.get());
  clients_->populate_uniform(config_.clients_per_region);

  evaders_.set_move_hook([this](TargetId t, RegionId from, RegionId to) {
    clients_->on_evader_move(t, from, to);
  });

  // Replica placement (§VII): the head plus members spread evenly across
  // the cluster, capped by cluster size (level-0 clusters are singletons).
  // With one replica per cluster the replicas are the hierarchy's heads,
  // and replicas_of() reads them there.
  VS_REQUIRE(config_.head_replicas >= 1, "head_replicas must be >= 1");
  const std::size_t num_clusters = hierarchy.num_clusters();
  if (config_.head_replicas > 1) {
    const auto want = static_cast<std::size_t>(config_.head_replicas);
    replica_offset_.reserve(num_clusters + 1);
    replica_offset_.push_back(0);
    replica_flat_.reserve(num_clusters);
    for (std::size_t c = 0; c < num_clusters; ++c) {
      const ClusterId id{static_cast<ClusterId::rep_type>(c)};
      const std::uint32_t first = replica_offset_.back();
      const auto placed = [&](RegionId r) {
        return std::find(replica_flat_.begin() + first, replica_flat_.end(),
                         r) != replica_flat_.end();
      };
      replica_flat_.push_back(hierarchy.head(id));
      const auto members = hierarchy.members(id);
      for (std::size_t k = 0;
           replica_flat_.size() - first < want && k < members.size(); ++k) {
        // Even spread over the member list.
        const RegionId candidate = members[k * members.size() / want];
        if (!placed(candidate)) replica_flat_.push_back(candidate);
      }
      replica_offset_.push_back(
          static_cast<std::uint32_t>(replica_flat_.size()));
    }
  }
  // Hosted lists: a counting sort of the replicas by region, filled in
  // cluster-id order.
  hosted_offset_.assign(hierarchy.tiling().num_regions() + 1, 0);
  for (std::size_t c = 0; c < num_clusters; ++c) {
    for (const RegionId r :
         replicas_of(ClusterId{static_cast<ClusterId::rep_type>(c)})) {
      ++hosted_offset_[static_cast<std::size_t>(r.value()) + 1];
    }
  }
  std::partial_sum(hosted_offset_.begin(), hosted_offset_.end(),
                   hosted_offset_.begin());
  hosted_flat_.resize(hosted_offset_.back());
  std::vector<std::uint32_t> cursor(hosted_offset_.begin(),
                                    hosted_offset_.end() - 1);
  for (std::size_t c = 0; c < num_clusters; ++c) {
    const ClusterId id{static_cast<ClusterId::rep_type>(c)};
    for (const RegionId r : replicas_of(id)) {
      hosted_flat_[cursor[static_cast<std::size_t>(r.value())]++] = id;
    }
  }

  cgcast_->set_tracker_sink(
      [this](ClusterId dest, const vsa::Message& m) { dispatch(dest, m); });
  cgcast_->set_client_sink([this](RegionId region, const vsa::Message& m) {
    clients_->on_broadcast(region, m);
  });
  clients_->set_found_output(
      [this](FindId f, TargetId t, RegionId region, ClientId by) {
        on_found_output(f, t, region, by);
      });

  if (config_.head_replicas > 1) {
    cgcast_->set_replicas(
        [this](ClusterId c) { return replicas_of(c); });
  }

  if (directory_) {
    cgcast_->set_vsa_alive(
        [this](RegionId u) { return directory_->alive(u); });
    directory_->set_on_fail([this](RegionId u) {
      // A process loses its state only when its last hosting replica
      // fails (§VII: limited sets of VSA failures are survivable).
      for (const ClusterId c : hosted_at(u)) {
        bool any_alive = false;
        for (const RegionId r : replicas_of(c)) {
          if (directory_->alive(r)) {
            any_alive = true;
            break;
          }
        }
        if (!any_alive) tracker(c).reset();
      }
    });
    // Restart is from the initial (empty) state; reset on fail suffices.
  }

  cgcast_->set_trace_recorder(&trace_);

  // Stamp this thread's log lines with this world's virtual clock (the
  // newest world on a thread wins; the destructor's identity-guarded clear
  // keeps out-of-order teardown safe).
  set_log_clock(this, [](const void* ctx) {
    return static_cast<const TrackingNetwork*>(ctx)->sched_.now().count();
  });

  // Per-find accounting.
  cgcast_->add_send_observer([this](const vsa::Message& m, ClusterId, ClusterId,
                                    Level level, std::int64_t hops) {
    const std::size_t i = find_index(m.find_id);
    if (i == finds_.size()) return;
    FindResult& r = finds_[i];
    ++r.messages;
    r.work += hops;
    if (m.type == vsa::MsgType::kFindQuery) {
      r.max_search_level = std::max(r.max_search_level, level);
    }
  });
}

TrackingNetwork::~TrackingNetwork() { clear_log_clock(this); }

void TrackingNetwork::set_op_ledger(obs::OpLedger* ledger) {
  if (ledger_observer_ != 0) {
    cgcast_->remove_send_observer(ledger_observer_);
    ledger_observer_ = 0;
  }
  ledger_ = ledger;
  if (ledger_ == nullptr) return;
  ledger_observer_ = cgcast_->add_send_observer(
      [this](const vsa::Message& m, ClusterId, ClusterId, Level level,
             std::int64_t hops) {
        ledger_->note_send(m.op, level, hops, sched_.now().count());
      });
}

void TrackingNetwork::set_profiler(obs::Profiler* prof) {
  prof_ = prof;
  sched_.set_profile_probe(
      prof != nullptr ? &obs::Profiler::probe_thunk : nullptr, prof,
      prof != nullptr ? prof->enabled_flag() : nullptr);
  cgcast_->set_profiler(prof);
  tracker_env_.prof = prof;
}

Tracker& TrackingNetwork::tracker(ClusterId c) {
  VS_REQUIRE(c.valid() && static_cast<std::size_t>(c.value()) < trackers_.size(),
             "cluster " << c << " out of range");
  return trackers_[static_cast<std::size_t>(c.value())];
}

void TrackingNetwork::dispatch(ClusterId dest, const vsa::Message& m) {
  if (stats::is_heartbeat_kind(m.type)) {
    // Index loop (not range-for): a handler's reaction may register or
    // remove handlers, invalidating iterators.
    for (std::size_t i = 0; i < heartbeat_handlers_.size(); ++i) {
      heartbeat_handlers_[i].second(dest, m);
    }
    return;
  }
  tracker(dest).on_message(m);
}

namespace {

// Clears the C-gcast ambient op on scope exit, so a throwing move never
// leaves later background traffic stamped with a stale operation.
struct AmbientOpScope {
  vsa::CGcast* cg;
  AmbientOpScope(vsa::CGcast& c, obs::OpId op) : cg(&c) {
    cg->set_ambient_op(op);
  }
  ~AmbientOpScope() { cg->set_ambient_op(obs::kBackgroundOp); }
  AmbientOpScope(const AmbientOpScope&) = delete;
  AmbientOpScope& operator=(const AmbientOpScope&) = delete;
};

}  // namespace

void TrackingNetwork::record_move(TargetId target, RegionId from, RegionId to,
                                  std::int64_t distance, obs::OpId op) {
  if (ledger_ != nullptr) {
    ledger_->begin_move(obs::op_index(op), distance, sched_.now().count());
  }
  if (!trace_.enabled()) return;
  trace_.append(obs::TraceEvent{
      .time_us = sched_.now().count(),
      .seq = sched_.current_seq(),
      .cause = sched_.current_cause(),
      .find = -1,
      .a = from.valid() ? from.value() : -1,
      .b = to.value(),
      .target = target.valid() ? target.value() : -1,
      .arg = static_cast<std::int32_t>(distance),
      .level = -1,
      .kind = static_cast<std::uint8_t>(obs::TraceKind::kMoveIssued),
      .msg = obs::kNoMsg,
      .extra = 0,
      .op = op,
      .pad0 = 0,
  });
}

TargetId TrackingNetwork::add_evader(RegionId start) {
  const bool quiescent = sched_.pending() == 0;
  // Placement is move step 0 of the walk for cost attribution: a
  // distance-0 move op (charged, but excluded from the Theorem 4.9 sums).
  const obs::OpId op = obs::make_op(obs::OpClass::kMove, move_count_++);
  TargetId target;
  {
    AmbientOpScope ambient(*cgcast_, op);
    target = evaders_.add_evader(start);
  }
  // Recorded after the fact so the event carries the target id; placement
  // never throws once add_evader returned.
  record_move(target, RegionId{}, start, 0, op);
  if (move_observer_) move_observer_(target, RegionId{}, start, quiescent);
  return target;
}

void TrackingNetwork::move_evader(TargetId target, RegionId to) {
  // Capture `from` and the quiescence predicate before the move (it
  // schedules its own client messages), but notify only after it succeeds
  // — a rejected move must never reach attached monitors, or their shadow
  // state diverges from the live structure.
  const RegionId from = evaders_.region_of(target);
  const bool quiescent = sched_.pending() == 0;
  const obs::OpId op = obs::make_op(obs::OpClass::kMove, move_count_++);
  record_move(target, from, to, hier_->tiling().distance(from, to), op);
  {
    AmbientOpScope ambient(*cgcast_, op);
    evaders_.move(target, to);
  }
  if (move_observer_) move_observer_(target, from, to, quiescent);
}

void TrackingNetwork::move_and_quiesce(TargetId target, RegionId to) {
  move_evader(target, to);
  run_to_quiescence();
}

void TrackingNetwork::record(obs::TraceKind kind, FindId f, TargetId t,
                             RegionId region, obs::OpId op,
                             std::int32_t arg) {
  trace_.append(obs::TraceEvent{
      .time_us = sched_.now().count(),
      .seq = sched_.current_seq(),
      .cause = sched_.current_cause(),
      .find = f.valid() ? f.value() : -1,
      .a = region.valid() ? region.value() : -1,
      .b = -1,
      .target = t.valid() ? t.value() : -1,
      .arg = arg,
      .level = -1,
      .kind = static_cast<std::uint8_t>(kind),
      .msg = obs::kNoMsg,
      .extra = 0,
      .op = op,
      .pad0 = 0,
  });
}

FindId TrackingNetwork::start_find(RegionId from, TargetId target) {
  const FindId f{static_cast<FindId::rep_type>(finds_.size()) + 1};
  const obs::OpId op = obs::make_op(
      obs::OpClass::kFindSearch, static_cast<std::uint32_t>(f.value()));
  FindResult r;
  r.id = f;
  r.target = target;
  r.origin = from;
  r.issued = sched_.now();
  r.op = op;
  // The `d` the Theorem 5.2 bounds apply at: origin→evader distance when
  // the find is issued.
  r.distance = hier_->tiling().distance(from, evaders_.region_of(target));
  finds_.push_back(r);
  ++census_.issued;
  if (ledger_ != nullptr) {
    ledger_->begin_find(obs::op_index(op), sched_.now().count());
  }
  if (trace_.enabled()) {
    record(obs::TraceKind::kFindIssued, f, target, from, op,
           static_cast<std::int32_t>(r.distance));
  }
  {
    AmbientOpScope ambient(*cgcast_, op);
    clients_->inject_find(from, target, f);
  }
  return f;
}

std::size_t TrackingNetwork::find_index(FindId f) const {
  const bool issued =
      f.value() >= 1 && static_cast<std::uint64_t>(f.value()) <= finds_.size();
  return issued ? static_cast<std::size_t>(f.value() - 1) : finds_.size();
}

const FindResult& TrackingNetwork::find_result(FindId f) const {
  const std::size_t i = find_index(f);
  VS_REQUIRE(i < finds_.size(), "unknown find " << f);
  return finds_[i];
}

void TrackingNetwork::on_found_output(FindId f, TargetId t, RegionId region,
                                      ClientId /*by*/) {
  const std::size_t i = find_index(f);
  VS_REQUIRE(i < finds_.size(), "found output for unknown find " << f);
  FindResult& r = finds_[i];
  VS_REQUIRE(r.target == t, "found output target mismatch");
  if (r.done) return;  // several believing clients may answer
  r.done = true;
  r.found_region = region;
  r.completed = sched_.now();
  ++census_.completed;
  census_.latency_us.record(r.latency().count());
  if (ledger_ != nullptr) {
    ledger_->complete_find(static_cast<std::uint32_t>(f.value()), r.distance,
                           sched_.now().count());
  }
  if (trace_.enabled()) {
    record(obs::TraceKind::kFoundOutput, f, t, region,
           obs::make_op(obs::OpClass::kFindTrace,
                        static_cast<std::uint32_t>(f.value())));
  }
}

std::uint64_t TrackingNetwork::run_to_quiescence() { return sched_.run(); }

std::uint64_t TrackingNetwork::run_until(sim::TimePoint deadline) {
  return sched_.run_until(deadline);
}

std::uint64_t TrackingNetwork::run_for(sim::Duration d) {
  return sched_.run_until(sched_.now() + d);
}

void TrackingNetwork::fail_vsa(RegionId u) {
  VS_REQUIRE(directory_ != nullptr,
             "fail_vsa requires NetworkConfig::model_vsa_failures");
  directory_->fail(u);
}

SystemSnapshot TrackingNetwork::snapshot(TargetId target) const {
  SystemSnapshot snap;
  snap.hier = hier_;
  snap.target = target;
  // Every cluster reads ⊥ but those holding a row for `target`.
  snap.trackers.resize(trackers_.size());
  for (std::size_t c = 0; c < snap.trackers.size(); ++c) {
    snap.trackers[c].clust = ClusterId{static_cast<ClusterId::rep_type>(c)};
  }
  if (const TrackerRows::TargetTable* rows = rows_.targets(target)) {
    rows->for_each([&](const TargetRow& row) {
      TrackerSnapshot& s =
          snap.trackers[static_cast<std::size_t>(row.clust.value())];
      s.c = row.c;
      s.p = row.p;
      s.nbrptup = row.nbrptup;
      s.nbrptdown = row.nbrptdown;
    });
  }
  for (const auto& in : cgcast_->in_transit()) {
    if (in.msg.target != target) continue;
    if (!stats::is_move_kind(in.msg.type)) continue;
    snap.in_transit.push_back(
        TransitMsg{in.msg.type, in.msg.from_cluster, in.to});
  }
  return snap;
}

std::span<const ClusterId> TrackingNetwork::hosted_at(RegionId u) const {
  VS_REQUIRE(u.valid() &&
                 static_cast<std::size_t>(u.value()) + 1 < hosted_offset_.size(),
             "region " << u << " out of range");
  const auto i = static_cast<std::size_t>(u.value());
  return {hosted_flat_.data() + hosted_offset_[i],
          hosted_offset_[i + 1] - hosted_offset_[i]};
}

std::span<const RegionId> TrackingNetwork::replicas_of(ClusterId c) const {
  VS_REQUIRE(c.valid() &&
                 static_cast<std::size_t>(c.value()) < hier_->num_clusters(),
             "cluster " << c << " out of range");
  const auto i = static_cast<std::size_t>(c.value());
  if (replica_offset_.empty()) return hier_->heads().subspan(i, 1);
  return {replica_flat_.data() + replica_offset_[i],
          replica_offset_[i + 1] - replica_offset_[i]};
}

void TrackingNetwork::set_state_change_hook(
    TrackerEnv::StateChangeHook hook) {
  tracker_env_.state_hook = std::move(hook);
}

}  // namespace vs::tracking
