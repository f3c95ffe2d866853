#include "vsa/cgcast.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/log.hpp"

namespace vs::vsa {

CGcast::CGcast(sim::Scheduler& sched, const hier::ClusterHierarchy& hierarchy,
               CGcastConfig config, stats::WorkCounters& counters)
    : sched_(&sched),
      hier_(&hierarchy),
      config_(config),
      counters_(&counters) {
  VS_REQUIRE(config.delta > sim::Duration::zero(), "delta must be positive");
  VS_REQUIRE(config.e >= sim::Duration::zero(), "e must be non-negative");
}

CGcast::ObserverId CGcast::add_send_observer(SendObserver obs) {
  const ObserverId id = next_observer_id_++;
  observers_.emplace_back(id, std::move(obs));
  return id;
}

void CGcast::remove_send_observer(ObserverId id) {
  std::erase_if(observers_, [id](const auto& e) { return e.first == id; });
}

void CGcast::notify_observers(const Message& m, ClusterId from, ClusterId to,
                              Level level, std::int64_t hops) {
  for (const auto& [id, obs] : observers_) obs(m, from, to, level, hops);
}

void CGcast::record(obs::TraceKind kind, const Message& m, std::int32_t a,
                    std::int32_t b, Level level, std::int32_t arg) {
  trace_->append(obs::TraceEvent{
      .time_us = sched_->now().count(),
      .seq = sched_->current_seq(),
      .cause = sched_->current_cause(),
      .find = m.find_id.valid() ? m.find_id.value() : -1,
      .a = a,
      .b = b,
      .target = m.target.valid() ? m.target.value() : -1,
      .arg = arg,
      .level = static_cast<std::int16_t>(level),
      .kind = static_cast<std::uint8_t>(kind),
      .msg = static_cast<std::uint8_t>(m.type),
      .extra = m.ack_pointer.valid() ? m.ack_pointer.value() : 0,
      .op = m.op,
      .pad0 = 0,
  });
}

sim::Duration CGcast::vsa_delay(ClusterId from, ClusterId to) const {
  const auto& h = *hier_;
  const Level l = h.level(from);
  const sim::Duration de = config_.delta + config_.e;
  if (l != h.max_level() && h.parent(from) == to) {
    return de * h.p(l);  // rule (b), child → parent
  }
  if (h.level(to) != h.max_level() && h.parent(to) == from) {
    return de * h.p(h.level(to));  // rule (b), parent → child
  }
  if (h.are_cluster_neighbors(from, to)) {
    return de * h.n(l);  // rule (a)
  }
  // Rule (c): within two neighbour hops — a neighbour's neighbour or a
  // neighbour's child (the findAck-pointer chases of §V). Anything further
  // is outside C-gcast's contract and indicates an algorithm bug.
  for (const ClusterId b : h.nbrs(from)) {
    const bool reaches = h.are_cluster_neighbors(b, to) ||
                         (h.level(to) == l - 1 && h.parent(to) == b) ||
                         b == to;
    if (reaches) {
      return de * (2 * h.n(std::max(l, h.level(to))));
    }
  }
  VS_REQUIRE(false, "C-gcast send outside two-hop locality: cluster "
                        << from << " (level " << l << ") → cluster " << to
                        << " (level " << h.level(to) << ")");
  return de;  // unreachable
}

std::int64_t CGcast::work_to(ClusterId from, ClusterId to) const {
  if (!replicas_) return hier_->head_distance(from, to);
  const RegionId origin = hier_->head(from);
  std::int64_t sum = 0;
  for (const RegionId r : replicas_(to)) {
    sum += hier_->tiling().distance(origin, r);
  }
  return sum;
}

bool CGcast::process_alive(ClusterId to) const {
  if (!replicas_) return vsa_alive_at(hier_->head(to));
  for (const RegionId r : replicas_(to)) {
    if (vsa_alive_at(r)) return true;
  }
  return false;
}

std::uint32_t CGcast::book(Row r) {
  r.key = next_key_;
  next_key_ += r.left;
  std::uint32_t row = 0;
  if (free_rows_.empty()) {
    row = static_cast<std::uint32_t>(rows_.size());
    rows_.push_back(r);
  } else {
    row = free_rows_.back();
    free_rows_.pop_back();
    rows_[row] = r;
  }
  return row;
}

void CGcast::advance(Row& r) const {
  const auto nbrs = hier_->nbrs(r.from);
  do {
    ++r.nbr;
  } while (nbrs[r.nbr] == r.except);
  r.to = nbrs[r.nbr];
  ++r.key;
}

void CGcast::enqueue(ClusterId from, ClusterId to, const Message& m,
                     sim::Duration delay) {
  const std::uint32_t row = book(Row{.msg = m,
                                     .from = from,
                                     .to = to,
                                     .except = ClusterId::invalid(),
                                     .deliver_at = sched_->now() + delay,
                                     .left = 1});
  sched_->schedule_after(delay, [this, row] { deliver_row(row); });
}

bool CGcast::apply_channel_faults(const Message& m, sim::Duration& delay,
                                  bool& duplicate) {
  if (!channel_faults_) return false;
  const ChannelDecision d = channel_faults_(m);
  if (d.drop) {
    ++lost_;
    return true;
  }
  if (d.advance > sim::Duration::zero()) {
    // Early delivery only, floored at 1us — never later than the model's
    // maximum latency, never at-or-before the send instant.
    const sim::Duration floor = sim::Duration::micros(1);
    if (delay > floor) {
      delay = delay - d.advance < floor ? floor : delay - d.advance;
      counters_->note_jittered();
    }
  }
  if (d.duplicate) {
    duplicate = true;
    counters_->note_duplicated();
  }
  return false;
}

void CGcast::send(ClusterId from, ClusterId to, const Message& m) {
  if (ambient_op_ != obs::kBackgroundOp && m.op == obs::kBackgroundOp) {
    Message tagged = m;
    tagged.op = ambient_op_;
    send(from, to, tagged);
    return;
  }
  VS_REQUIRE(from.valid() && to.valid() && from != to,
             "bad VSA send " << from << " → " << to);
  transmit(from, to, hier_->level(from), m, vsa_delay(from, to));
}

void CGcast::send_to_nbrs(ClusterId from, const Message& m,
                          ClusterId except) {
  if (ambient_op_ != obs::kBackgroundOp && m.op == obs::kBackgroundOp) {
    Message tagged = m;
    tagged.op = ambient_op_;
    send_to_nbrs(from, tagged, except);
    return;
  }
  const auto& h = *hier_;
  const Level l = h.level(from);
  // Rule (a): a neighbour is never the parent or a child (they sit at
  // other levels), so vsa_delay would return this for every destination.
  const sim::Duration delay = (config_.delta + config_.e) * h.n(l);
  const auto nbrs = h.nbrs(from);
  if (channel_faults_) {
    // Each member draws its own fault verdict, so each gets its own event.
    for (const ClusterId to : nbrs) {
      if (to != except) transmit(from, to, l, m, delay);
    }
    return;
  }
  std::uint32_t first = 0;
  std::uint32_t members = 0;
  for (std::uint32_t i = 0; i < nbrs.size(); ++i) {
    if (nbrs[i] == except) continue;
    if (members++ == 0) first = i;
    account(from, nbrs[i], l, m);
  }
  if (members == 0) return;
  const std::uint32_t row = book(Row{.msg = m,
                                     .from = from,
                                     .to = nbrs[first],
                                     .except = except,
                                     .nbr = first,
                                     .deliver_at = sched_->now() + delay,
                                     .left = members});
  sched_->schedule_fan_out(delay, members, [this, row] { deliver_row(row); });
}

void CGcast::account(ClusterId from, ClusterId to, Level l,
                     const Message& m) {
  const std::int64_t hops = work_to(from, to);
  counters_->record(m.type, l, hops);
  notify_observers(m, from, to, l, hops);
  if (trace_ != nullptr && trace_->enabled()) {
    record(obs::TraceKind::kSend, m, from.value(), to.value(), l,
           static_cast<std::int32_t>(hops));
  }
}

void CGcast::transmit(ClusterId from, ClusterId to, Level l, const Message& m,
                      sim::Duration delay) {
  account(from, to, l, m);
  bool duplicate = false;
  if (apply_channel_faults(m, delay, duplicate)) {
    if (trace_ != nullptr && trace_->enabled()) {
      record(obs::TraceKind::kLost, m, from.value(), to.value(), l, 0);
    }
    return;
  }

  enqueue(from, to, m, delay);
  if (duplicate) enqueue(from, to, m, delay);
}

void CGcast::send_from_client(RegionId at, const Message& m) {
  if (ambient_op_ != obs::kBackgroundOp && m.op == obs::kBackgroundOp) {
    Message tagged = m;
    tagged.op = ambient_op_;
    send_from_client(at, tagged);
    return;
  }
  const auto& h = *hier_;
  const ClusterId dest = h.cluster_of(at, 0);
  counters_->record(m.type, 0, 1);
  notify_observers(m, ClusterId::invalid(), dest, 0, 1);
  if (trace_ != nullptr && trace_->enabled()) {
    record(obs::TraceKind::kClientSend, m, at.value(), dest.value(), 0, 1);
  }
  sim::Duration delay = config_.delta;  // rule (e)
  bool duplicate = false;
  if (apply_channel_faults(m, delay, duplicate)) {
    if (trace_ != nullptr && trace_->enabled()) {
      record(obs::TraceKind::kLost, m, at.value(), dest.value(), 0, 0);
    }
    return;
  }
  enqueue(ClusterId::invalid(), dest, m, delay);
  if (duplicate) enqueue(ClusterId::invalid(), dest, m, delay);
}

void CGcast::broadcast_to_clients(ClusterId from_level0, const Message& m) {
  if (ambient_op_ != obs::kBackgroundOp && m.op == obs::kBackgroundOp) {
    Message tagged = m;
    tagged.op = ambient_op_;
    broadcast_to_clients(from_level0, tagged);
    return;
  }
  const auto& h = *hier_;
  VS_REQUIRE(h.level(from_level0) == 0, "client broadcast from non-level-0");
  const RegionId region = h.members(from_level0).front();
  counters_->record(m.type, 0, 1);
  notify_observers(m, from_level0, ClusterId::invalid(), 0, 1);
  if (trace_ != nullptr && trace_->enabled()) {
    record(obs::TraceKind::kBroadcast, m, from_level0.value(), region.value(),
           0, 1);
  }
  sched_->schedule_after(config_.delta + config_.e, [this, region, m] {
    if (client_sink_) client_sink_(region, m);  // rule (d)
  });
}

void CGcast::deliver_row(std::uint32_t row) {
  // Copy the member out and move the row on (or release it) first: the
  // handler's own sends may grow the slab.
  Row& slot = rows_[row];
  const Row r = slot;
  if (--slot.left == 0) {
    free_rows_.push_back(row);
  } else {
    advance(slot);
  }
  if (!process_alive(r.to)) {
    ++dropped_;
    if (trace_ != nullptr && trace_->enabled()) {
      record(obs::TraceKind::kDrop, r.msg,
             r.from.valid() ? r.from.value() : -1, r.to.value(),
             hier_->level(r.to), 0);
    }
    VS_TRACE("drop " << r.msg << " → cluster " << r.to
                     << " (no alive hosting VSA)");
    return;
  }
  if (trace_ != nullptr && trace_->enabled()) {
    record(obs::TraceKind::kDeliver, r.msg,
           r.from.valid() ? r.from.value() : -1, r.to.value(),
           hier_->level(r.to), 0);
  }
  VS_REQUIRE(static_cast<bool>(tracker_sink_), "no tracker sink installed");
  if (prof_ != nullptr && prof_->enabled()) {
    // Inclusive handler time, charged to the message's kind and op — the
    // per-message bridge between CPU ns and the ledger's virtual cost.
    obs::ProfBuf& pb = prof_->buf();
    obs::Profiler::begin_scope(pb, obs::ProfDomain::kDeliver);
    tracker_sink_(r.to, r.msg);
    const std::uint64_t ns = obs::Profiler::end_scope(pb);
    obs::Profiler::charge_msg(pb, r.msg.type, r.msg.op, ns);
    return;
  }
  tracker_sink_(r.to, r.msg);
}

bool CGcast::vsa_alive_at(RegionId region) const {
  return !alive_ || alive_(region);
}

std::vector<CGcast::InTransit> CGcast::in_transit() const {
  // Each undelivered member, as its row reads while that member is next,
  // sorted by send key.
  std::vector<Row> members;
  for (const Row& r : rows_) {
    Row m = r;
    for (std::uint32_t i = 0; i < r.left; ++i) {
      if (i > 0) advance(m);
      members.push_back(m);
    }
  }
  std::sort(members.begin(), members.end(),
            [](const Row& a, const Row& b) { return a.key < b.key; });
  std::vector<InTransit> out;
  out.reserve(members.size());
  for (const Row& m : members) {
    out.push_back(InTransit{m.msg, m.from, m.to, m.deliver_at});
  }
  return out;
}

}  // namespace vs::vsa
