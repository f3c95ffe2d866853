#include "tracking/tracker.hpp"

#include "common/error.hpp"
#include "common/log.hpp"

namespace vs::tracking {

using vsa::Message;
using vsa::MsgType;

namespace {

/// Save/restore of the tracker's current-op slot for one handler scope.
struct OpScope {
  obs::OpId* slot;
  obs::OpId prev;
  OpScope(obs::OpId* s, obs::OpId v) : slot(s), prev(*s) { *s = v; }
  ~OpScope() { *slot = prev; }
  OpScope(const OpScope&) = delete;
  OpScope& operator=(const OpScope&) = delete;
};

}  // namespace

TrackerRows::TargetTable& TrackerRows::add_targets(TargetId t) {
  VS_REQUIRE(t.valid(), "target " << t << " out of range");
  const auto i = static_cast<std::size_t>(t.value());
  if (i >= by_target_.size()) by_target_.resize(i + 1);
  return by_target_[i];
}

Tracker::Tracker(const TrackerEnv& env, ClusterId clust)
    : env_(&env), clust_(clust), lvl_(env.hier->level(clust)) {}

TargetRow& Tracker::target_state(TargetId t) {
  return env_->rows->add_targets(t).find_or_insert(TargetRow{.clust = clust_});
}

FindRow& Tracker::find_state(FindId f) {
  VS_REQUIRE(f.valid(), "find row for " << f);
  env_->rows->mark_finds(clust_, true);
  return env_->rows->finds().find_or_insert(
      FindRow{.find = f, .clust = clust_});
}

TargetRow* Tracker::target_row(TargetId t) {
  TrackerRows::TargetTable* rows = env_->rows->targets(t);
  return rows != nullptr ? rows->find(clust_) : nullptr;
}

const TargetRow* Tracker::target_row(TargetId t) const {
  const TrackerRows::TargetTable* rows = env_->rows->targets(t);
  return rows != nullptr ? rows->find(clust_) : nullptr;
}

FindRow* Tracker::find_row(FindId f) {
  return env_->rows->finds().find(FindKey{f, clust_});
}

const FindRow* Tracker::find_row(FindId f) const {
  return env_->rows->finds().find(FindKey{f, clust_});
}

const TargetRow& Tracker::target_view(TargetId t) const {
  static constexpr TargetRow kBottom{};
  const TargetRow* s = target_row(t);
  return s != nullptr ? *s : kBottom;
}

template <class Pred>
FindRow* Tracker::next_find_row(FindId after, Pred pred, bool& held) {
  FindRow* next = nullptr;
  env_->rows->finds().for_each([&](FindRow& r) {
    if (r.clust != clust_) return;
    held = true;
    if (r.find > after && (next == nullptr || r.find < next->find) && pred(r)) {
      next = &r;
    }
  });
  return next;
}

void Tracker::retire(TargetId t, TargetRow& s) {
  if (s.active()) return;
  env_->rows->targets(t)->erase(s);
}

void Tracker::retire(FindRow& pf) {
  // `target` and `queried` are rewritten by the next find receipt, so a
  // row that is not finding matters only through a pending timeout or the
  // root-retry budget (which persists across receipts).
  if (pf.finding || pf.nbrtimeout.valid() || pf.root_retries != 0) return;
  env_->rows->finds().erase(pf);
}

void Tracker::disarm(sim::EventId& timer) {
  if (timer.valid()) env_->sched->cancel(timer);
  timer = sim::EventId{};
}

void Tracker::arm_timer(TargetId t, TargetRow& s, sim::Duration delay) {
  disarm(s.timer);
  s.timer =
      env_->sched->schedule_after(delay, [this, t] { on_timer_expiry(t); });
}

void Tracker::arm_nbrtimeout(FindRow& pf, sim::Duration delay) {
  disarm(pf.nbrtimeout);
  const FindId f = pf.find;
  pf.nbrtimeout =
      env_->sched->schedule_after(delay, [this, f] { on_nbrtimeout_expiry(f); });
}

void Tracker::on_timer_expiry(TargetId t) {
  target_row(t)->timer = sim::EventId{};  // armed rows are never retired
  on_timer(t);
  if (TargetRow* s = target_row(t)) retire(t, *s);
}

void Tracker::on_nbrtimeout_expiry(FindId f) {
  find_row(f)->nbrtimeout = sim::EventId{};
  on_nbrtimeout(f);
  if (FindRow* pf = find_row(f)) retire(*pf);
}

void Tracker::reset() {
  // Timers are cancelled by target, then by find, both in id order.
  TrackerRows& rows = *env_->rows;
  for (std::size_t i = 0; i < rows.target_bound(); ++i) {
    TrackerRows::TargetTable& table =
        *rows.targets(TargetId{static_cast<TargetId::rep_type>(i)});
    if (TargetRow* s = table.find(clust_)) {
      disarm(s->timer);
      table.erase(*s);
    }
  }
  bool held = false;
  const auto any = [](const FindRow&) { return true; };
  while (FindRow* pf = next_find_row(FindId::invalid(), any, held)) {
    disarm(pf->nbrtimeout);
    rows.finds().erase(*pf);
  }
  rows.mark_finds(clust_, false);
}

void Tracker::corrupt_state(TargetId target, const TrackerSnapshot& forced) {
  TargetRow& s = target_state(target);
  s.c = forced.c;
  s.p = forced.p;
  s.nbrptup = forced.nbrptup;
  s.nbrptdown = forced.nbrptdown;
  disarm(s.timer);
  notify_state_change(target);
  retire(target, s);
}

TrackerSnapshot Tracker::state(TargetId target) const {
  const TargetRow& s = target_view(target);
  TrackerSnapshot out;
  out.clust = clust_;
  out.c = s.c;
  out.p = s.p;
  out.nbrptup = s.nbrptup;
  out.nbrptdown = s.nbrptdown;
  return out;
}

bool Tracker::timer_armed(TargetId target) const {
  return target_view(target).timer.valid();
}

void Tracker::nudge_timer(TargetId target, obs::OpId op) {
  if (timer_armed(target)) return;
  // The armed-op is gone with the lost timer; charge the re-evaluated
  // expiry (and its cascade) to the repair op driving the nudge.
  if (op != obs::kBackgroundOp) {
    target_state(target).op = op;
  }
  on_timer(target);
  if (TargetRow* s = target_row(target)) retire(target, *s);
}

std::vector<TargetId> Tracker::active_targets() const {
  std::vector<TargetId> out;
  for (std::size_t i = 0; i < env_->rows->target_bound(); ++i) {
    const TargetId t{static_cast<TargetId::rep_type>(i)};
    const TargetRow* s = target_row(t);
    if (s != nullptr && s->active()) out.push_back(t);
  }
  return out;
}

std::size_t Tracker::target_rows() const {
  std::size_t n = 0;
  for (std::size_t i = 0; i < env_->rows->target_bound(); ++i) {
    if (target_row(TargetId{static_cast<TargetId::rep_type>(i)}) != nullptr) {
      ++n;
    }
  }
  return n;
}

std::size_t Tracker::find_rows() const {
  std::size_t n = 0;
  env_->rows->finds().for_each([&](const FindRow& r) {
    if (r.clust == clust_) ++n;
  });
  return n;
}

bool Tracker::finding(FindId find) const {
  const FindRow* pf = find_row(find);
  return pf != nullptr && pf->finding;
}

Message Tracker::message(MsgType type, TargetId target, FindId find) const {
  Message m;
  m.type = type;
  m.from_cluster = clust_;
  m.target = target;
  m.find_id = find;
  m.op = current_op_;
  return m;
}

void Tracker::send(ClusterId to, MsgType type, TargetId target, FindId find,
                   ClusterId ack_pointer) {
  Message m = message(type, target, find);
  m.ack_pointer = ack_pointer;
  env_->cgcast->send(clust_, to, m);
}

void Tracker::send_to_nbrs(MsgType type, TargetId target, FindId find,
                           ClusterId except) {
  env_->cgcast->send_to_nbrs(clust_, message(type, target, find), except);
}

void Tracker::notify_state_change(TargetId t) {
  if (env_->state_hook) env_->state_hook(clust_, t);
}

void Tracker::on_message(const Message& m) {
  // Delivered work runs under the op the message carries; replies and
  // follow-on sends inherit it through send()'s stamp.
  OpScope scope(&current_op_, m.op);
  dispatch(m);
}

namespace {
/// Figure 2 handler family a message's CPU time is attributed to.
constexpr obs::ProfDomain profile_domain(MsgType t) {
  switch (t) {
    case MsgType::kGrow:
    case MsgType::kGrowPar:
    case MsgType::kGrowNbr:
      return obs::ProfDomain::kTrackerGrow;
    case MsgType::kShrink:
    case MsgType::kShrinkUpd:
      return obs::ProfDomain::kTrackerShrink;
    default:
      return obs::ProfDomain::kTrackerFind;
  }
}
}  // namespace

void Tracker::dispatch(const Message& m) {
  const obs::ProfScope prof(env_->prof, profile_domain(m.type));
  switch (m.type) {
    case MsgType::kGrow: on_grow(m); return;
    case MsgType::kGrowPar: on_grow_par(m); return;
    case MsgType::kGrowNbr: on_grow_nbr(m); return;
    case MsgType::kShrink: on_shrink(m); return;
    case MsgType::kShrinkUpd: on_shrink_upd(m); return;
    case MsgType::kFind: on_find(m); return;
    case MsgType::kFindQuery: on_find_query(m); return;
    case MsgType::kFindAck: on_find_ack(m); return;
    case MsgType::kFound: on_found(m); return;
    default:
      VS_REQUIRE(false, "tracker received unexpected message " << m);
  }
}

// --- Move-related actions -------------------------------------------------

// Input cTOBrcv(⟨grow, cid⟩): arm the grow timer if the process was idle
// (c = p = ⊥, below MAX), then point c at the sender unconditionally.
void Tracker::on_grow(const Message& m) {
  TargetRow& s = target_state(m.target);
  if (!s.c.valid() && !s.p.valid() && lvl_ != env_->hier->max_level()) {
    arm_timer(m.target, s, env_->config->timers.grow(lvl_));
    s.op = current_op_;
  }
  s.c = m.from_cluster;
  notify_state_change(m.target);
  advance_finds_of(m.target);
}

// Input cTOBrcv(⟨growPar, cid⟩): the neighbour cid joined the path via its
// hierarchy parent.
void Tracker::on_grow_par(const Message& m) {
  TargetRow& s = target_state(m.target);
  s.nbrptup = m.from_cluster;
  notify_state_change(m.target);
  advance_finds_of(m.target);
}

// Input cTOBrcv(⟨growNbr, cid⟩): the neighbour cid joined via a lateral
// link.
void Tracker::on_grow_nbr(const Message& m) {
  TargetRow& s = target_state(m.target);
  s.nbrptdown = m.from_cluster;
  notify_state_change(m.target);
  advance_finds_of(m.target);
}

// Input cTOBrcv(⟨shrink, cid⟩): clean only deadwood — ignore unless c still
// points at the sender.
void Tracker::on_shrink(const Message& m) {
  TargetRow* s = target_row(m.target);
  if (s == nullptr || s->c != m.from_cluster) return;
  s->c = ClusterId::invalid();
  if (lvl_ != env_->hier->max_level()) {
    arm_timer(m.target, *s, env_->config->timers.shrink(lvl_));
    s->op = current_op_;
  }
  notify_state_change(m.target);
  retire(m.target, *s);
}

// Input cTOBrcv(⟨shrinkUpd, cid⟩): drop secondary pointers to the departed
// neighbour.
void Tracker::on_shrink_upd(const Message& m) {
  TargetRow* s = target_row(m.target);
  if (s == nullptr) return;
  bool changed = false;
  if (s->nbrptup == m.from_cluster) {
    s->nbrptup = ClusterId::invalid();
    changed = true;
  }
  if (s->nbrptdown == m.from_cluster) {
    s->nbrptdown = ClusterId::invalid();
    changed = true;
  }
  if (changed) {
    notify_state_change(m.target);
    advance_finds_of(m.target);
    retire(m.target, *s);
  }
}

// Timer expiry: the two timer-gated outputs of Figure 2.
void Tracker::record(obs::TraceKind kind, TargetId target, FindId find,
                     std::int32_t arg) {
  env_->trace->append(obs::TraceEvent{
      .time_us = env_->sched->now().count(),
      .seq = env_->sched->current_seq(),
      .cause = env_->sched->current_cause(),
      .find = find.valid() ? find.value() : -1,
      .a = clust_.value(),
      .b = -1,
      .target = target.valid() ? target.value() : -1,
      .arg = arg,
      .level = static_cast<std::int16_t>(lvl_),
      .kind = static_cast<std::uint8_t>(kind),
      .msg = obs::kNoMsg,
      .extra = 0,
      .op = current_op_,
      .pad0 = 0,
  });
}

void Tracker::on_timer(TargetId t) {
  const obs::ProfScope prof(env_->prof, obs::ProfDomain::kTrackerTimer);
  TargetRow& s = target_state(t);
  // The expiry's cascade belongs to the operation that armed the timer.
  OpScope scope(&current_op_, s.op);
  if (tracing()) {
    const std::int32_t branch =
        s.c.valid() && !s.p.valid() && lvl_ != env_->hier->max_level() ? 1
        : !s.c.valid() && s.p.valid()                             ? 2
                                                                  : 0;
    record(obs::TraceKind::kTimerFire, t, FindId{}, branch);
  }
  if (s.c.valid() && !s.p.valid() && lvl_ != env_->hier->max_level()) {
    // Output cTOBsend(⟨grow, clust⟩, par): extend the tracking path. Use a
    // lateral link if a neighbour advertises a parent-connected position.
    ClusterId par;
    const bool lateral = env_->config->lateral_links && s.nbrptup.valid();
    par = lateral ? s.nbrptup : env_->hier->parent(clust_);
    s.p = par;
    send(par, MsgType::kGrow, t);
    send_to_nbrs(lateral ? MsgType::kGrowNbr : MsgType::kGrowPar, t);
    notify_state_change(t);
    advance_finds_of(t);
  } else if (!s.c.valid() && s.p.valid()) {
    // Output cTOBsend(⟨shrink, clust⟩, p): retire from the deserted branch.
    send(s.p, MsgType::kShrink, t);
    s.p = ClusterId::invalid();
    send_to_nbrs(MsgType::kShrinkUpd, t);
    notify_state_change(t);
    advance_finds_of(t);
  }
  // Otherwise both a grow and a shrink passed through while the timer
  // counted down; no output is enabled (the new path connected here).
}

// --- Find-related actions -------------------------------------------------

// Input cTOBrcv(⟨find, cid⟩): enter the search/trace phase.
void Tracker::on_find(const Message& m) {
  FindRow& pf = find_state(m.find_id);
  pf.finding = true;
  pf.target = m.target;
  pf.queried = false;
  disarm(pf.nbrtimeout);  // nbrtimeout ← ∞
  try_advance_find(m.find_id);
}

void Tracker::advance_finds_of(TargetId t) {
  if (!env_->rows->may_hold_finds(clust_)) return;
  // FindId order. try_advance_find only changes (or retires) the row it
  // advances, so resume above that find's id instead of collecting first.
  bool held = false;
  const auto waiting = [t](const FindRow& r) {
    return r.finding && r.target == t;
  };
  FindRow* pf = next_find_row(FindId::invalid(), waiting, held);
  while (pf != nullptr) {
    const FindId f = pf->find;
    try_advance_find(f);
    pf = next_find_row(f, waiting, held);
  }
  if (!held) env_->rows->mark_finds(clust_, false);
}

void Tracker::try_advance_find(FindId f) {
  FindRow* row = find_row(f);
  if (row == nullptr || !row->finding) return;
  FindRow& pf = *row;
  const TargetRow& ts = target_view(pf.target);

  // Phase classification by the enabled action, not by the inherited op:
  // a valid c means the find is on the tracking path (trace phase — the
  // Theorem 5.2 "descend" leg); c = ⊥ means it is still searching. The
  // find's index is its FindId, so both phases are derivable anywhere.
  const obs::OpId phase_op =
      obs::make_op(ts.c.valid() ? obs::OpClass::kFindTrace
                                : obs::OpClass::kFindSearch,
                   static_cast<std::uint64_t>(f.value()));
  OpScope scope(&current_op_, phase_op);

  if (ts.c == clust_) {
    // Output cTOBsend(⟨found, clust⟩, clust): the object is here (level-0
    // self pointer). Broadcast found locally and to neighbour clusters.
    emit_found(f, pf.target);
    stop_finding(pf);
    return;
  }
  if (ts.c.valid()) {
    // Trace: forward the find down (or across a lateral link) via c.
    send(ts.c, MsgType::kFind, pf.target, f);
    stop_finding(pf);
    return;
  }
  // Search phase: c = ⊥.
  if (ts.nbrptdown.valid()) {
    send(ts.nbrptdown, MsgType::kFind, pf.target, f);
    stop_finding(pf);
    return;
  }
  if (ts.nbrptup.valid() && ts.nbrptup != ts.p) {
    send(ts.nbrptup, MsgType::kFind, pf.target, f);
    stop_finding(pf);
    return;
  }
  // nbrptup ∈ {⊥, p}: query the neighbours once per find receipt
  // (Figure 2's internal findquery, guarded by nbrtimeout).
  if (!pf.queried) issue_find_query(f, pf, ts);
}

void Tracker::stop_finding(FindRow& pf) {
  pf.finding = false;
  retire(pf);
}

void Tracker::issue_find_query(FindId f, FindRow& pf, const TargetRow& ts) {
  pf.queried = true;
  const sim::Duration roundtrip =
      2 * env_->hier->n(lvl_) * (env_->cgcast->config().delta + env_->cgcast->config().e);
  arm_nbrtimeout(pf, roundtrip);
  send_to_nbrs(MsgType::kFindQuery, pf.target, f, ts.p);  // nbrs(clust) − {p}
}

// Input cTOBrcv(⟨findQuery, cid⟩): answer with the best pointer we hold.
void Tracker::on_find_query(const Message& m) {
  const TargetRow& s = target_view(m.target);
  ClusterId x;
  if (s.c.valid()) {
    x = s.c;
  } else if (s.nbrptdown.valid()) {
    x = s.nbrptdown;
  } else if (s.nbrptup.valid()) {
    x = s.nbrptup;
  } else {
    return;  // nothing to offer; stay silent
  }
  send(m.from_cluster, MsgType::kFindAck, m.target, m.find_id, x);
}

// Input cTOBrcv(⟨findAck, dest⟩): follow the advertised pointer if this
// find is still searching here and no better pointer appeared meanwhile.
void Tracker::on_find_ack(const Message& m) {
  FindRow* row = find_row(m.find_id);
  if (row == nullptr || !row->finding) return;
  FindRow& pf = *row;
  const TargetRow& ts = target_view(pf.target);
  const bool still_searching = !ts.c.valid() && !ts.nbrptdown.valid() &&
                               (!ts.nbrptup.valid() || ts.nbrptup == ts.p);
  if (!still_searching) return;  // a state change will route the find
  if (m.ack_pointer == clust_) return;  // dest ∉ {clust}
  disarm(pf.nbrtimeout);
  send(m.ack_pointer, MsgType::kFind, pf.target, m.find_id);
  stop_finding(pf);
}

// nbrtimeout expiry: no neighbour answered in time — escalate.
void Tracker::on_nbrtimeout(FindId f) {
  const obs::ProfScope prof(env_->prof, obs::ProfDomain::kTrackerFind);
  FindRow& pf = *find_row(f);  // an armed timeout keeps its row
  if (!pf.finding) return;
  // A timed-out query escalates — still the find's search phase.
  OpScope scope(&current_op_,
                obs::make_op(obs::OpClass::kFindSearch,
                             static_cast<std::uint64_t>(f.value())));
  if (tracing()) {
    record(obs::TraceKind::kFindTimeout, pf.target, f, 0);
  }
  const TargetRow& ts = target_view(pf.target);
  const bool still_searching = !ts.c.valid() && !ts.nbrptdown.valid() &&
                               (!ts.nbrptup.valid() || ts.nbrptup == ts.p);
  if (!still_searching) {
    try_advance_find(f);
    return;
  }
  ClusterId dest;
  if (!ts.nbrptup.valid()) {
    dest = lvl_ == env_->hier->max_level() ? ClusterId::invalid()
                                      : env_->hier->parent(clust_);
  } else {
    dest = ts.nbrptup;  // nbrptup = p case of Figure 2's timeout branch
  }
  if (!dest.valid()) {
    // Root transiently off the path mid-move: reissue the query a bounded
    // number of times (liveness completion, see header note). Beyond the
    // cap the find goes quiet, exactly as Figure 2's disabled output —
    // any later pointer change re-awakens it via try_advance_find.
    if (pf.root_retries < kMaxRootRetries) {
      ++pf.root_retries;
      pf.queried = false;
      try_advance_find(f);
    }
    return;
  }
  send(dest, MsgType::kFind, pf.target, f);
  stop_finding(pf);
}

void Tracker::emit_found(FindId f, TargetId t) {
  env_->cgcast->broadcast_to_clients(clust_, message(MsgType::kFound, t, f));
  // Figure 2 also queues ⟨j, found⟩ for every neighbour cluster; receiving
  // trackers relay to their own regions' clients so clients "in that and
  // neighboring regions" observe the found.
  send_to_nbrs(MsgType::kFound, t, f);
}

// A relayed found at a (level-0) neighbour cluster: re-broadcast locally.
void Tracker::on_found(const Message& m) {
  if (lvl_ != 0) return;  // found relays only occur at level 0
  Message out = m;
  out.from_cluster = clust_;
  env_->cgcast->broadcast_to_clients(clust_, out);
}

}  // namespace vs::tracking
