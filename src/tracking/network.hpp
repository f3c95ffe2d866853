#pragma once
// TrackingNetwork — the assembled VINESTALK system.
//
// Owns the scheduler, the C-gcast service, the VSA directory, the client
// population, the evader model, and one Tracker per cluster, wired exactly
// as §III-B prescribes: clients broadcast detections to their level-0
// VSAs; Trackers maintain the tracking path; finds are injected at client
// regions and complete with a client found output at the evader's region.
//
// This is the facade downstream code uses: examples, benches, the spec
// checkers and the baselines all drive a TrackingNetwork.

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "common/ids.hpp"
#include "hier/hierarchy.hpp"
#include "obs/ledger/ledger.hpp"
#include "obs/metrics.hpp"
#include "obs/op.hpp"
#include "obs/trace.hpp"
#include "sim/scheduler.hpp"
#include "stats/counters.hpp"
#include "tracking/config.hpp"
#include "tracking/snapshot.hpp"
#include "tracking/tracker.hpp"
#include "vsa/cgcast.hpp"
#include "vsa/client.hpp"
#include "vsa/directory.hpp"
#include "vsa/evader.hpp"

namespace vs::tracking {

struct NetworkConfig {
  vsa::CGcastConfig cgcast;
  /// Lateral links on/off (off = STALK-style baseline).
  bool lateral_links = true;
  /// Timer policy; defaults to TimerPolicy::paper_default when unset.
  std::optional<TimerPolicy> timers;
  int clients_per_region = 1;
  /// Model VSA failures (client-presence-driven liveness + fault
  /// injection). Off: every VSA is assumed alive, the paper's correctness
  /// assumption.
  bool model_vsa_failures = false;
  sim::Duration t_restart = sim::Duration::millis(50);
  /// §VII "multiple heads per cluster": each cluster's process is jointly
  /// hosted by up to this many member regions (capped by cluster size).
  /// Messages pay the sum of hop distances to all replicas (the quorum
  /// overhead) and the process state survives while any replica's VSA is
  /// alive. 1 = the paper's base algorithm.
  int head_replicas = 1;
};

/// Outcome record of one find operation.
struct FindResult {
  FindId id{};
  TargetId target{};
  RegionId origin{};
  sim::TimePoint issued = sim::TimePoint::never();
  bool done = false;
  RegionId found_region{};
  sim::TimePoint completed = sim::TimePoint::never();
  /// find/findQuery/findAck/found messages and hop-work attributable to
  /// this find.
  std::int64_t messages = 0;
  std::int64_t work = 0;
  /// Highest hierarchy level at which the search phase queried neighbours
  /// (-1 if the path was met before any query round). Theorem 5.2: at most
  /// the minimum l with d ≤ q(l) in the atomic case.
  Level max_search_level = -1;
  /// Cost-ledger identity: the find's search-phase OpId (the trace phase
  /// shares the index under OpClass::kFindTrace).
  obs::OpId op = obs::kBackgroundOp;
  /// Origin→evader region distance at issue time — the `d` the Theorem 5.2
  /// bounds are evaluated at (callers compute the measured/bound ratio via
  /// spec::find_work_bound(h, distance); tracking cannot link spec).
  std::int64_t distance = 0;

  [[nodiscard]] sim::Duration latency() const { return completed - issued; }
};

/// Running tally of finds(), kept as each find is issued and first
/// answered, so readers need not walk the find history.
struct FindCensus {
  std::int64_t issued = 0;
  std::int64_t completed = 0;
  /// Completed finds' latency in µs, bucketed at powers of two of a
  /// millisecond (1 ms … 1024 ms).
  obs::Histogram latency_us;
};

class TrackingNetwork {
 public:
  TrackingNetwork(const hier::ClusterHierarchy& hierarchy,
                  NetworkConfig config);
  ~TrackingNetwork();

  TrackingNetwork(const TrackingNetwork&) = delete;
  TrackingNetwork& operator=(const TrackingNetwork&) = delete;

  // Component access.
  [[nodiscard]] sim::Scheduler& scheduler() { return sched_; }
  [[nodiscard]] const hier::ClusterHierarchy& hierarchy() const {
    return *hier_;
  }
  [[nodiscard]] stats::WorkCounters& counters() { return counters_; }
  [[nodiscard]] vsa::CGcast& cgcast() { return *cgcast_; }
  [[nodiscard]] vsa::ClientPopulation& clients() { return *clients_; }
  [[nodiscard]] vsa::EvaderModel& evaders() { return evaders_; }
  /// Null unless model_vsa_failures.
  [[nodiscard]] vsa::VsaDirectory* directory() { return directory_.get(); }
  [[nodiscard]] Tracker& tracker(ClusterId c);
  [[nodiscard]] const NetworkConfig& config() const { return config_; }

  // Observability. The recorder is wired through C-gcast and every Tracker
  // at construction; recording stays off until set_tracing(true).
  [[nodiscard]] obs::TraceRecorder& trace() { return trace_; }
  [[nodiscard]] const obs::TraceRecorder& trace() const { return trace_; }
  void set_tracing(bool on) { trace_.set_enabled(on); }

  /// Attach (or with nullptr detach) a per-operation cost ledger. While
  /// attached and enabled, every accepted send is charged to its message's
  /// OpId and move/find boundaries record their metadata. The ledger must
  /// outlive the attachment; the network never owns it.
  void set_op_ledger(obs::OpLedger* ledger);
  [[nodiscard]] obs::OpLedger* op_ledger() { return ledger_; }

  /// Attach (or with nullptr detach) a wall-clock CPU profiler. Wires the
  /// scheduler's probe, C-gcast's deliver scope, and every Tracker's
  /// handler scopes. The profiler must outlive the attachment and is
  /// never owned. Profile output is nondeterministic sidecar data only —
  /// attaching and enabling one never changes any deterministic artifact.
  void set_profiler(obs::Profiler* prof);
  [[nodiscard]] obs::Profiler* profiler() { return prof_; }

  /// Move steps taken so far (placements included); the move-op index.
  [[nodiscard]] std::uint32_t move_count() const { return move_count_; }

  /// Deterministic run metrics (events fired, message/work totals, drops,
  /// find outcomes and latency histogram), rebuilt from live state on each
  /// call. TrialPool merges these across worlds in trial-index order.
  [[nodiscard]] obs::MetricsRegistry export_metrics() const;

  // Evader control.
  TargetId add_evader(RegionId start);
  void move_evader(TargetId target, RegionId to);
  /// Move, then run the scheduler dry (Theorem 4.5: updates terminate).
  void move_and_quiesce(TargetId target, RegionId to);

  // Finds.
  FindId start_find(RegionId from, TargetId target);
  [[nodiscard]] const FindResult& find_result(FindId f) const;
  /// Every find issued so far, by id.
  [[nodiscard]] const std::map<FindId, FindResult>& finds() const {
    return finds_;
  }
  /// Issued/completed counts and the latency distribution of finds() —
  /// what the telemetry sampler and export_metrics read.
  [[nodiscard]] const FindCensus& find_census() const { return census_; }

  // Execution.
  std::uint64_t run_to_quiescence();
  std::uint64_t run_until(sim::TimePoint deadline);
  std::uint64_t run_for(sim::Duration d);
  [[nodiscard]] sim::TimePoint now() const { return sched_.now(); }

  /// Fault injection (requires model_vsa_failures).
  void fail_vsa(RegionId u);

  /// Pointer state + in-transit move messages for one target (input to the
  /// spec module).
  [[nodiscard]] SystemSnapshot snapshot(TargetId target) const;

  /// Clusters hosted at a region's VSA (clusters with a replica at `u`).
  [[nodiscard]] std::span<const ClusterId> hosted_at(RegionId u) const;

  /// The regions jointly hosting a cluster's process (== {head} unless
  /// head_replicas > 1).
  [[nodiscard]] std::span<const RegionId> replicas_of(ClusterId c) const;

  /// Hook invoked on every tracker pointer-state change (monitors).
  void set_state_change_hook(Tracker::StateChangeHook hook);

  /// Observer of evader placement/relocation as seen at the network API:
  /// (target, from, to, quiescent_at_issue); `from` is invalid on initial
  /// placement. Called only after the move/placement succeeded (a throwing
  /// move — bad region, unknown target — is never observed, so monitors
  /// can't desync from the live structure). `quiescent_at_issue` is
  /// whether the scheduler was drained when the move was issued, captured
  /// *before* the move schedules its own client messages — the atomic-move
  /// predicate of Theorem 4.8. The obs watchdog uses this to reset
  /// per-move invariant counters and maintain its atomicMoveSeq shadow.
  /// Distinct from EvaderModel::set_move_hook, which the client
  /// population owns.
  using MoveObserver =
      std::function<void(TargetId, RegionId, RegionId, bool)>;
  void set_move_observer(MoveObserver observer) {
    move_observer_ = std::move(observer);
  }

  /// Handlers for §VII heartbeat overlay traffic (kHeartbeat /
  /// kHeartbeatAck). These kinds are not part of the Tracker signature
  /// (Figure 2), so dispatch routes them here instead of
  /// Tracker::on_message; with no handler installed a probe is absorbed
  /// silently, like any message to a process that ignores it. Multiple
  /// handlers may coexist (one ext::Stabilizer per target); each sees
  /// every heartbeat and filters by target itself. The returned token
  /// must be passed to remove_heartbeat_handler before the owner dies.
  using HeartbeatHandler =
      std::function<void(ClusterId dest, const vsa::Message&)>;
  int add_heartbeat_handler(HeartbeatHandler handler) {
    const int token = next_heartbeat_token_++;
    heartbeat_handlers_.emplace_back(token, std::move(handler));
    return token;
  }
  void remove_heartbeat_handler(int token) {
    std::erase_if(heartbeat_handlers_,
                  [token](const auto& h) { return h.first == token; });
  }

 private:
  void dispatch(ClusterId dest, const vsa::Message& m);
  void on_found_output(FindId f, TargetId t, RegionId region, ClientId by);
  void record(obs::TraceKind kind, FindId f, TargetId t, RegionId region,
              obs::OpId op, std::int32_t arg = 0);
  void record_move(TargetId target, RegionId from, RegionId to,
                   std::int64_t distance, obs::OpId op);

  const hier::ClusterHierarchy* hier_;
  NetworkConfig config_;
  sim::Scheduler sched_;
  stats::WorkCounters counters_;
  TrackerConfig tracker_config_;
  std::unique_ptr<vsa::CGcast> cgcast_;
  std::unique_ptr<vsa::VsaDirectory> directory_;
  std::unique_ptr<vsa::ClientPopulation> clients_;
  vsa::EvaderModel evaders_;
  std::vector<std::unique_ptr<Tracker>> trackers_;  // by cluster id
  std::vector<std::vector<ClusterId>> hosted_;      // by region id
  std::vector<std::vector<RegionId>> replicas_;     // by cluster id
  std::map<FindId, FindResult> finds_;
  FindCensus census_;
  FindId::rep_type next_find_{1};
  obs::TraceRecorder trace_;
  obs::OpLedger* ledger_ = nullptr;
  obs::Profiler* prof_ = nullptr;
  vsa::CGcast::ObserverId ledger_observer_ = 0;
  std::uint32_t move_count_ = 0;
  MoveObserver move_observer_;
  std::vector<std::pair<int, HeartbeatHandler>> heartbeat_handlers_;
  int next_heartbeat_token_{1};
};

}  // namespace vs::tracking
