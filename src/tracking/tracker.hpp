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
// State layout (DESIGN.md §3): per-target and per-find state live in flat
// tables sorted by TargetId / FindId, and each timer is the EventId of its
// pending expiry, fired through an inline [this, id] action. A row exists
// only while it holds something a later action can observe: a target row
// is erased once its four pointers are ⊥ and its timer is disarmed, a find
// row once the find stopped finding, its nbrtimeout is disarmed and it
// has no root retry recorded. Everything the trackers of one world share
// (scheduler, hierarchy, C-gcast, config, observers) lives in one
// TrackerEnv they point at, so a tracker holds only its own state.

#include <cstdint>
#include <functional>
#include <vector>

#include "common/ids.hpp"
#include "obs/op.hpp"
#include "obs/profile/profiler.hpp"
#include "obs/trace.hpp"
#include "sim/scheduler.hpp"
#include "tracking/config.hpp"
#include "tracking/snapshot.hpp"
#include "vsa/cgcast.hpp"
#include "vsa/messages.hpp"

namespace vs::tracking {

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
  StateChangeHook state_hook;
};

class Tracker {
 public:
  /// `env` must outlive the tracker. Armed timer actions capture `this`,
  /// so a tracker never moves.
  Tracker(const TrackerEnv& env, ClusterId clust);

  Tracker(const Tracker&) = delete;
  Tracker& operator=(const Tracker&) = delete;
  /// Cancels every armed timer: their actions point at this tracker.
  ~Tracker();

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
  /// Rows currently held in the per-target and per-find tables (state
  /// bounds for soak tests). Between handlers every target row is an
  /// active target.
  [[nodiscard]] std::size_t target_rows() const { return targets_.size(); }
  [[nodiscard]] std::size_t find_rows() const { return finds_.size(); }

 private:
  struct PerTarget {
    TargetId target{};
    ClusterId c{};
    ClusterId p{};
    ClusterId nbrptup{};
    ClusterId nbrptdown{};
    /// Shared grow/shrink timer: its pending expiry (invalid = ∞).
    sim::EventId timer{};
    /// Operation that armed the timer: the cascade a timer expiry emits is
    /// still part of the move step whose grow/shrink armed it.
    obs::OpId op = obs::kBackgroundOp;

    /// Any pointer set or the timer armed (an active target).
    [[nodiscard]] bool active() const {
      return c.valid() || p.valid() || nbrptup.valid() || nbrptdown.valid() ||
             timer.valid();
    }
  };
  struct PerFind {
    FindId find{};
    TargetId target{};
    bool finding = false;
    bool queried = false;  // findquery performed for this find receipt
    int root_retries = 0;  // bounded re-queries at a transiently-bare root
    sim::EventId nbrtimeout{};  // pending expiry (invalid = ∞)
  };

  /// Re-query attempts at a root with no pointers before the find goes
  /// quiet (it resumes via try_advance_find when state changes).
  static constexpr int kMaxRootRetries = 8;

  /// Row for `t`, inserted (⊥, timer ∞) if absent. Inserting may move
  /// other rows: callers hold at most the returned reference.
  PerTarget& target_state(TargetId t);
  PerFind& find_state(FindId f);
  /// Row lookups that never insert (nullptr if absent).
  [[nodiscard]] PerTarget* target_row(TargetId t);
  [[nodiscard]] const PerTarget* target_row(TargetId t) const;
  [[nodiscard]] PerFind* find_row(FindId f);
  [[nodiscard]] const PerFind* find_row(FindId f) const;
  /// Read-only view of `t`'s state: its row, or an all-⊥ row if absent.
  [[nodiscard]] const PerTarget& target_view(TargetId t) const;
  /// Erase a row that holds nothing a later action can observe.
  void retire(PerTarget& s);
  void retire(PerFind& pf);

  /// Timer variables: arm replaces any pending expiry (assignment to the
  /// TIOA variable), disarm resets it to ∞.
  void arm_timer(PerTarget& s, sim::Duration delay);
  void arm_nbrtimeout(PerFind& pf, sim::Duration delay);
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
  void issue_find_query(FindId f, PerFind& pf, const PerTarget& ts);
  /// The find left this tracker: clear `finding` and retire the row.
  void stop_finding(PerFind& pf);
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

  std::vector<PerTarget> targets_;  // sorted by target
  std::vector<PerFind> finds_;      // sorted by find
};
// One per cluster (66,430 on a 243×243 world): keep the fixed part small.
static_assert(sizeof(Tracker) <= 80, "a Tracker holds only its own state");

}  // namespace vs::tracking
