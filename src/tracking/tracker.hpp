#pragma once
// Trackeru,lvl — the VINESTALK cluster process (paper Figure 2).
//
// One Tracker runs for every cluster, hosted at the VSA of the cluster's
// head region. Per tracked target it keeps the four pointers of Figure 2
// (child c, parent p, secondary pointers nbrptup / nbrptdown) and the
// single shared grow/shrink timer; per outstanding find it keeps the
// finding flag and the nbrtimeout timer.
//
// Faithfulness notes (see DESIGN.md §3 for the full list):
//  * sends are immediate where Figure 2 queues into sendq — the TIOA model
//    fires enabled outputs without time passing, so this is equivalent;
//  * find bookkeeping is keyed by FindId and tracking state by TargetId so
//    concurrent finds/targets do not clobber each other (a documented
//    generalisation; with one find and one target this is exactly
//    Figure 2);
//  * if a find's neighbour-query timeout fires at the root while the root
//    is transiently off the path (c = ⊥ mid-move), the query is reissued
//    instead of forwarding to a nonexistent parent — a liveness completion
//    for executions outside the paper's atomic-find assumption.
//
// State layout (DESIGN.md §3): Figure 2's rows live in world tables, not
// in the trackers. Each target has one open-addressed table of per-target
// rows keyed by cluster id, and one table holds every find row, keyed by
// (cluster, find); a tracker holds only its env, cluster, level and
// current op, and allocates nothing. Each timer is the EventId of its
// pending expiry, fired through an inline [this, id] action that looks
// its row up again. A row exists only while it holds something a later
// action can observe: a target row is erased once its four pointers are ⊥
// and its timer is disarmed, a find row once the find stopped finding,
// its nbrtimeout is disarmed and it has no root retry recorded. So row
// storage follows live rows, not every cluster that ever held one.
// Everything the trackers of one world share (scheduler, hierarchy,
// C-gcast, config, observers, row tables) lives in one TrackerEnv they
// point at.

#include <cstdint>
#include <functional>
#include <vector>

#include "common/ids.hpp"
#include "obs/op.hpp"
#include "obs/profile/profiler.hpp"
#include "obs/trace.hpp"
#include "sim/scheduler.hpp"
#include "tracking/config.hpp"
#include "tracking/row_table.hpp"
#include "tracking/snapshot.hpp"
#include "vsa/cgcast.hpp"
#include "vsa/messages.hpp"

namespace vs::tracking {

/// Figure 2's per-target state at one cluster: the four pointers, the
/// shared grow/shrink timer and the operation that armed it. Keyed by the
/// cluster in its target's table.
struct TargetRow {
  ClusterId clust{};  // key; ⊥ marks an empty slot
  ClusterId c{};
  ClusterId p{};
  ClusterId nbrptup{};
  ClusterId nbrptdown{};
  /// Operation that armed the timer: the cascade a timer expiry emits is
  /// still part of the move step whose grow/shrink armed it.
  obs::OpId op = obs::kBackgroundOp;
  /// Shared grow/shrink timer: its pending expiry (invalid = ∞).
  sim::EventId timer{};

  [[nodiscard]] ClusterId key() const { return clust; }
  /// Any pointer set or the timer armed (an active target).
  [[nodiscard]] bool active() const {
    return c.valid() || p.valid() || nbrptup.valid() || nbrptdown.valid() ||
           timer.valid();
  }
};

/// A find row's key.
struct FindKey {
  FindId find{};
  ClusterId clust{};
  friend bool operator==(FindKey, FindKey) = default;
};
/// One outstanding find's state at one cluster.
struct FindRow {
  FindId find{};  // key, with clust; ⊥ in both marks an empty slot
  ClusterId clust{};
  TargetId target{};
  sim::EventId nbrtimeout{};  // pending expiry (invalid = ∞)
  std::int32_t root_retries = 0;  // bounded re-queries at a bare root
  bool finding = false;
  bool queried = false;  // findquery performed for this find receipt

  [[nodiscard]] FindKey key() const { return {find, clust}; }
};

/// RowTable hashes of the two keys.
struct ClusterHash {
  std::uint64_t operator()(ClusterId c) const {
    return fibonacci_hash(static_cast<std::uint32_t>(c.value()));
  }
};
struct FindKeyHash {
  std::uint64_t operator()(FindKey k) const {
    return fibonacci_hash(static_cast<std::uint64_t>(k.find.value()) << 32 ^
                          static_cast<std::uint32_t>(k.clust.value()));
  }
};

/// Figure 2's rows for every Tracker of one world: one table per target,
/// keyed by cluster, and one table of find rows, keyed by (cluster, find).
/// Owned by the TrackingNetwork; trackers reach it through TrackerEnv.
class TrackerRows {
 public:
  using TargetTable = RowTable<TargetRow, ClusterHash>;
  using FindTable = RowTable<FindRow, FindKeyHash>;

  explicit TrackerRows(std::size_t num_clusters)
      : find_mark_(num_clusters, 0) {}

  /// `t`'s rows (nullptr if `t` never held one).
  [[nodiscard]] TargetTable* targets(TargetId t) {
    const auto i = static_cast<std::size_t>(t.value());
    return i < by_target_.size() ? &by_target_[i] : nullptr;
  }
  [[nodiscard]] const TargetTable* targets(TargetId t) const {
    const auto i = static_cast<std::size_t>(t.value());
    return i < by_target_.size() ? &by_target_[i] : nullptr;
  }
  /// `t`'s rows, added empty if absent.
  TargetTable& add_targets(TargetId t);
  /// One past the highest target id with a table: targets(TargetId{i})
  /// is non-null for every i below it.
  [[nodiscard]] std::size_t target_bound() const { return by_target_.size(); }

  [[nodiscard]] FindTable& finds() { return finds_; }
  [[nodiscard]] const FindTable& finds() const { return finds_; }
  /// False only if cluster `c` holds no find row. Set when one is added;
  /// cleared by a scan of `c`'s finds that meets none, so a pointer change
  /// at a cluster no find visited since skips the scan.
  [[nodiscard]] bool may_hold_finds(ClusterId c) const {
    return find_mark_[static_cast<std::size_t>(c.value())] != 0;
  }
  void mark_finds(ClusterId c, bool held) {
    find_mark_[static_cast<std::size_t>(c.value())] = held ? 1 : 0;
  }

 private:
  std::vector<TargetTable> by_target_;  // by target id
  FindTable finds_;
  std::vector<std::uint8_t> find_mark_;  // by cluster id
};

/// The world-wide context of every Tracker in one world, owned by the
/// TrackingNetwork. Observers attach here once rather than per tracker.
struct TrackerEnv {
  /// Notification that some target's pointer state changed at a tracker
  /// (used by invariant monitors).
  using StateChangeHook = std::function<void(ClusterId, TargetId)>;

  sim::Scheduler* sched = nullptr;
  const hier::ClusterHierarchy* hier = nullptr;
  vsa::CGcast* cgcast = nullptr;
  const TrackerConfig* config = nullptr;
  /// The world's trace recorder (nullptr: none); not owned. Trackers record
  /// the local, non-message actions — timer expiries and find timeouts —
  /// that message records alone cannot reconstruct.
  obs::TraceRecorder* trace = nullptr;
  /// The world's wall-clock profiler (nullptr: none); not owned. Handlers
  /// run under per-family scopes (grow/shrink/find/timer) nested inside
  /// C-gcast's kDeliver, so the flamegraph splits delivery time by the
  /// Figure 2 handler that consumed it.
  obs::Profiler* prof = nullptr;
  /// The world's row tables; not owned.
  TrackerRows* rows = nullptr;
  StateChangeHook state_hook;
};

class Tracker {
 public:
  /// `env` must outlive the tracker. Armed timer actions capture `this`,
  /// so a tracker never moves.
  Tracker(const TrackerEnv& env, ClusterId clust);

  Tracker(const Tracker&) = delete;
  Tracker& operator=(const Tracker&) = delete;

  /// cTOBrcv: dispatches on message type.
  void on_message(const vsa::Message& m);

  /// VSA failure: wipe all state back to the initial state (pointers ⊥,
  /// timers ∞, no finds).
  void reset();

  /// Fault injection for self-stabilization experiments: overwrite the
  /// pointer state for `target` with arbitrary values and disarm the
  /// timer (an "adversarial start" in the self-stabilization sense).
  /// Never used by the protocol itself.
  void corrupt_state(TargetId target, const TrackerSnapshot& forced);

  [[nodiscard]] ClusterId cluster() const { return clust_; }
  [[nodiscard]] Level level() const { return lvl_; }

  /// Pointer state for a target (⊥-initialised view if never touched).
  [[nodiscard]] TrackerSnapshot state(TargetId target) const;
  /// True if the shared grow/shrink timer is armed for `target`.
  [[nodiscard]] bool timer_armed(TargetId target) const;
  /// Heartbeat repair hook (ext::Stabilizer): re-evaluates the timer-expiry
  /// outputs when the timer was lost to a VSA reset. No-op while the timer
  /// is armed — firing a pending shrink early would break inequality (1).
  /// `op` charges the repair traffic to the stabilizer's repair operation.
  void nudge_timer(TargetId target, obs::OpId op = obs::kBackgroundOp);
  /// Targets with any non-⊥ pointer or an armed timer.
  [[nodiscard]] std::vector<TargetId> active_targets() const;
  /// True if the tracker currently holds `find` in its search phase.
  [[nodiscard]] bool finding(FindId find) const;
  /// Rows this cluster currently holds in the target and find tables
  /// (state bounds for soak tests). Between handlers every target row is
  /// an active target.
  [[nodiscard]] std::size_t target_rows() const;
  [[nodiscard]] std::size_t find_rows() const;

 private:
  /// Re-query attempts at a root with no pointers before the find goes
  /// quiet (it resumes via try_advance_find when state changes).
  static constexpr int kMaxRootRetries = 8;

  /// This cluster's row for `t`, inserted (⊥, timer ∞) if absent.
  /// Inserting or erasing a row may move others in its table: callers
  /// hold at most the returned reference.
  TargetRow& target_state(TargetId t);
  FindRow& find_state(FindId f);
  /// Row lookups that never insert (nullptr if absent).
  [[nodiscard]] TargetRow* target_row(TargetId t);
  [[nodiscard]] const TargetRow* target_row(TargetId t) const;
  [[nodiscard]] FindRow* find_row(FindId f);
  [[nodiscard]] const FindRow* find_row(FindId f) const;
  /// Read-only view of `t`'s state: its row, or an all-⊥ row if absent.
  [[nodiscard]] const TargetRow& target_view(TargetId t) const;
  /// This cluster's find row with the lowest FindId above `after` among
  /// those `pred` accepts (nullptr if none); `held` is set if the cluster
  /// holds any find row at all.
  template <class Pred>
  FindRow* next_find_row(FindId after, Pred pred, bool& held);
  /// Erase a row that holds nothing a later action can observe.
  void retire(TargetId t, TargetRow& s);
  void retire(FindRow& pf);

  /// Timer variables: arm replaces any pending expiry (assignment to the
  /// TIOA variable), disarm resets it to ∞.
  void arm_timer(TargetId t, TargetRow& s, sim::Duration delay);
  void arm_nbrtimeout(FindRow& pf, sim::Duration delay);
  void disarm(sim::EventId& timer);
  /// Expiry actions: clear the fired timer, run its Figure 2 output, then
  /// retire the row if it fell idle.
  void on_timer_expiry(TargetId t);
  void on_nbrtimeout_expiry(FindId f);

  /// on_message body: dispatch under the incoming message's op.
  void dispatch(const vsa::Message& m);

  // Figure 2 handlers.
  void on_grow(const vsa::Message& m);
  void on_grow_par(const vsa::Message& m);
  void on_grow_nbr(const vsa::Message& m);
  void on_shrink(const vsa::Message& m);
  void on_shrink_upd(const vsa::Message& m);
  void on_find(const vsa::Message& m);
  void on_find_query(const vsa::Message& m);
  void on_find_ack(const vsa::Message& m);
  void on_found(const vsa::Message& m);

  /// The timer-expiry outputs: grow-send when c≠⊥ ∧ p=⊥, shrink-send when
  /// c=⊥ ∧ p≠⊥.
  void on_timer(TargetId t);

  /// Evaluates the enabled find outputs (trace / secondary-pointer follow /
  /// neighbour query / found) for one outstanding find.
  void try_advance_find(FindId f);
  /// Re-evaluates every outstanding find for a target after its pointer
  /// state changed.
  void advance_finds_of(TargetId t);
  void on_nbrtimeout(FindId f);
  void issue_find_query(FindId f, FindRow& pf, const TargetRow& ts);
  /// The find left this tracker: clear `finding` and retire the row.
  void stop_finding(FindRow& pf);
  void emit_found(FindId f, TargetId t);

  /// An outgoing message from this tracker, stamped with the current op.
  [[nodiscard]] vsa::Message message(vsa::MsgType type, TargetId target,
                                     FindId find = FindId{}) const;
  void send(ClusterId to, vsa::MsgType type, TargetId target,
            FindId find = FindId{}, ClusterId ack_pointer = ClusterId{});
  /// The same message to every neighbour cluster except `except`.
  void send_to_nbrs(vsa::MsgType type, TargetId target,
                    FindId find = FindId{},
                    ClusterId except = ClusterId::invalid());
  void notify_state_change(TargetId t);
  void record(obs::TraceKind kind, TargetId target, FindId find,
              std::int32_t arg);
  [[nodiscard]] bool tracing() const {
    return env_->trace != nullptr && env_->trace->enabled();
  }

  const TrackerEnv* env_;
  ClusterId clust_;
  Level lvl_;
  /// Operation the currently-executing handler is charged to; every send()
  /// stamps it onto the outgoing message. Saved/restored per handler so
  /// nesting (advance_finds_of inside a grow) keeps each action's op.
  obs::OpId current_op_ = obs::kBackgroundOp;
};
// One per cluster (66,430 on a 243×243 world): its Figure 2 rows live in
// the env's tables, so it holds no container.
static_assert(sizeof(Tracker) <= 24, "a Tracker holds no rows");

}  // namespace vs::tracking
