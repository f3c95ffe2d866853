#include "ext/stabilizer.hpp"

#include "common/log.hpp"

namespace vs::ext {

using tracking::TrackerSnapshot;
using vsa::HbClaim;
using vsa::Message;
using vsa::MsgType;

Stabilizer::Stabilizer(tracking::TrackingNetwork& net, TargetId target,
                       sim::Duration period)
    : net_(&net),
      target_(target),
      period_(period),
      anchor_miss_(net.hierarchy().num_clusters(), 0),
      downward_ok_(net.hierarchy().num_clusters(), -1) {
  hb_token_ = net_->add_heartbeat_handler(
      [this](ClusterId dest, const Message& m) { on_heartbeat(dest, m); });
}

Stabilizer::~Stabilizer() {
  stop();
  net_->remove_heartbeat_handler(hb_token_);
}

void Stabilizer::start() {
  running_ = true;
  schedule_tick();
}

void Stabilizer::stop() {
  running_ = false;
  net_->scheduler().cancel(tick_);
  net_->scheduler().cancel(retry_);
  tick_ = retry_ = sim::EventId{};
  pending_.clear();
}

void Stabilizer::schedule_tick() {
  net_->scheduler().cancel(tick_);
  tick_ = net_->scheduler().schedule_after(period_, [this] {
    tick_ = sim::EventId{};
    on_tick();
  });
}

void Stabilizer::schedule_retry() {
  net_->scheduler().cancel(retry_);
  retry_ = net_->scheduler().schedule_after(retry_delay_, [this] {
    retry_ = sim::EventId{};
    on_retry();
  });
}

void Stabilizer::on_tick() {
  if (!running_) return;
  const obs::ProfScope prof(net_->profiler(), obs::ProfDomain::kStabilizer);
  tick_once();
  if (running_) schedule_tick();
}

obs::OpId Stabilizer::tick_hb_op() const {
  return obs::make_op(obs::OpClass::kHeartbeat,
                      static_cast<std::uint64_t>(ticks_));
}

obs::OpId Stabilizer::tick_repair_op() const {
  return obs::make_op(obs::OpClass::kRepair,
                      static_cast<std::uint64_t>(ticks_));
}

obs::OpId Stabilizer::repair_op_from(obs::OpId source) const {
  if (obs::op_class(source) == obs::OpClass::kHeartbeat) {
    return obs::make_op(obs::OpClass::kRepair, obs::op_index(source));
  }
  return tick_repair_op();
}

bool Stabilizer::reattaching(ClusterId y) const {
  const TrackerSnapshot s = net_->tracker(y).state(target_);
  return !s.p.valid() &&
         (s.c.valid() || net_->tracker(y).timer_armed(target_));
}

bool Stabilizer::vertically_attached(ClusterId x,
                                     const TrackerSnapshot& s) const {
  const auto& h = net_->hierarchy();
  return s.p.valid() && h.level(x) != h.max_level() && s.p == h.parent(x);
}

int Stabilizer::tick_once() {
  ++ticks_;
  int sync = 0;
  // A fresh probe round: whatever last round never heard back about gets
  // re-examined from scratch.
  pending_.clear();
  net_->scheduler().cancel(retry_);
  retry_ = sim::EventId{};

  // Client-side re-detection (§IV-A: GPS inputs are periodic). Believing
  // clients whose level-0 cluster sent no presence query since the last
  // round conclude its marker was wiped and re-send the detection grow.
  // The first round only primes the query flags — before any query was
  // ever issued, silence carries no information.
  if (primed_) {
    const int grows =
        net_->clients().refresh_detection(target_, tick_repair_op());
    repairs_ += grows;
    sync += grows;
  }
  primed_ = true;

  const auto& h = net_->hierarchy();
  const auto n = static_cast<ClusterId::rep_type>(h.num_clusters());
  for (ClusterId::rep_type i = 0; i < n; ++i) {
    const ClusterId x{i};
    const auto idx = static_cast<std::size_t>(i);
    auto& tracker = net_->tracker(x);
    const TrackerSnapshot s = tracker.state(target_);
    if (tracker.timer_armed(target_)) {
      // Mid-transition by the protocol's own book-keeping: not damage.
      anchor_miss_[idx] = 0;
      continue;
    }
    // Lost timer: a grow front (c≠⊥, p=⊥) or shrink front (c=⊥, p≠⊥)
    // below MAX whose timer a VSA reset wiped would otherwise sit forever.
    // Purely local: re-fire the expiry outputs.
    if (h.level(x) != h.max_level() && (s.c.valid() != s.p.valid())) {
      tracker.nudge_timer(target_, tick_repair_op());
      ++repairs_;
      ++sync;
      anchor_miss_[idx] = 0;
      continue;  // state just changed; probe the new shape next round
    }
    // Anchor accounting. Roots (p=⊥) are self-anchored; everyone else
    // must keep hearing the downward pulse, or it sits in an unanchored
    // component — a p-cycle, which no local pointer rule can see — and
    // detaches itself. The synthesized shrink is a local input to x's own
    // tracker (the co-located stabilizer telling it its subtree is dead);
    // the ordinary shrink cascade then retires the fragment.
    if (s.p.valid()) {
      if (++anchor_miss_[idx] > kAnchorMissLimit) {
        anchor_miss_[idx] = 0;
        if (s.c.valid()) {
          Message m;
          m.type = MsgType::kShrink;
          m.from_cluster = s.c;
          m.target = target_;
          m.op = tick_repair_op();
          tracker.on_message(m);
          ++repairs_;
          ++sync;
          continue;
        }
      }
    } else {
      anchor_miss_[idx] = 0;
    }
    probe_cluster(x);
  }
  arm_retry();
  return sync;
}

void Stabilizer::probe_cluster(ClusterId x) {
  const auto& h = net_->hierarchy();
  const TrackerSnapshot s = net_->tracker(x).state(target_);
  const obs::OpId hb = tick_hb_op();

  // Anchor origination: every pointer-state root pulses its subtree. A
  // pulse cannot loop: forwarding requires receipt from one's own p, so a
  // circulating pulse would need the c-cycle's reversed p-cycle — which
  // has no root to originate from and no entry point from outside.
  if (!s.p.valid() && s.c.valid() && s.c != x) {
    send_probe(x, s.c, HbClaim::kAnchor, /*track=*/false, hb);
  }
  if (s.c.valid() && s.c != x) {
    send_probe(x, s.c, HbClaim::kChild, /*track=*/true, hb);
  }
  if (h.level(x) == 0 && s.c == x) {
    // Detection-marker presence query, broadcast to the region's clients.
    Message q;
    q.type = MsgType::kHeartbeat;
    q.hb_claim = HbClaim::kClientQuery;
    q.from_cluster = x;
    q.target = target_;
    q.op = hb;
    net_->cgcast().broadcast_to_clients(x, q);
    ++probes_sent_;
  }
  if (s.p.valid()) {
    send_probe(x, s.p, HbClaim::kParent, /*track=*/true, hb);
    const bool vertical = vertically_attached(x, s);
    const bool lateral = h.are_cluster_neighbors(x, s.p);
    if (vertical || lateral) {
      const HbClaim claim =
          vertical ? HbClaim::kAdvertUp : HbClaim::kAdvertDown;
      for (const ClusterId nb : h.nbrs(x)) {
        send_probe(x, nb, claim, /*track=*/true, hb);
      }
    }
  }
  if (s.nbrptup.valid()) {
    send_probe(x, s.nbrptup, HbClaim::kSecondaryUp, /*track=*/false, hb);
  }
  if (s.nbrptdown.valid()) {
    send_probe(x, s.nbrptdown, HbClaim::kSecondaryDown, /*track=*/false, hb);
  }
}

void Stabilizer::send_probe(ClusterId from, ClusterId to, HbClaim claim,
                            bool track, obs::OpId op) {
  Message m;
  m.type = MsgType::kHeartbeat;
  m.hb_claim = claim;
  m.from_cluster = from;
  m.target = target_;
  m.op = op;
  net_->cgcast().send(from, to, m);
  ++probes_sent_;
  if (track) pending_.push_back(PendingProbe{from, to, claim, 0});
}

void Stabilizer::send_ack(ClusterId from, ClusterId to, HbClaim claim,
                          bool ok, ClusterId pointer, obs::OpId op) {
  Message m;
  m.type = MsgType::kHeartbeatAck;
  m.hb_claim = claim;
  m.hb_ok = ok;
  m.from_cluster = from;
  m.ack_pointer = pointer;
  m.target = target_;
  m.op = op;
  net_->cgcast().send(from, to, m);
}

void Stabilizer::send_repair(ClusterId from, ClusterId to, MsgType type,
                             obs::OpId op) {
  Message m;
  m.type = type;
  m.from_cluster = from;
  m.target = target_;
  m.op = op;
  net_->cgcast().send(from, to, m);
  ++repairs_;
}

void Stabilizer::on_heartbeat(ClusterId dest, const Message& m) {
  if (m.target != target_) return;
  const obs::ProfScope prof(net_->profiler(), obs::ProfDomain::kStabilizer);
  if (m.type == MsgType::kHeartbeat) {
    on_probe(dest, m);
  } else {
    on_ack(dest, m);
  }
}

void Stabilizer::on_probe(ClusterId y, const Message& m) {
  const auto& h = net_->hierarchy();
  const ClusterId s = m.from_cluster;  // the prober
  const TrackerSnapshot sy = net_->tracker(y).state(target_);
  // Acks and anchor forwards stay in the probing round's heartbeat op;
  // repairs the probe uncovers move to the round's repair op.
  const obs::OpId hb = m.op;
  const obs::OpId rep = repair_op_from(m.op);
  switch (m.hb_claim) {
    case HbClaim::kChild: {
      // s claims its c is y. On a mismatch y cannot attribute to its own
      // in-progress re-attachment, the failed heartbeat manifests as the
      // shrink s's stale child link implies.
      const bool ok = sy.p == s;
      send_ack(y, s, HbClaim::kChild, ok, sy.p, hb);
      if (!ok && !reattaching(y)) send_repair(y, s, MsgType::kShrink, rep);
      break;
    }
    case HbClaim::kParent:
      // s claims its p is y; the ack carries y's own p so s can judge
      // y's verticality (Lemma 4.3 repair) without reading y's state.
      send_ack(y, s, HbClaim::kParent, sy.c == s, sy.p, hb);
      break;
    case HbClaim::kAdvertUp:
      send_ack(y, s, HbClaim::kAdvertUp, sy.nbrptup == s, sy.nbrptup, hb);
      break;
    case HbClaim::kAdvertDown:
      send_ack(y, s, HbClaim::kAdvertDown, sy.nbrptdown == s, sy.nbrptdown,
               hb);
      break;
    case HbClaim::kSecondaryUp: {
      // s holds y in nbrptup, valid only while y is vertically attached;
      // a stale claim is answered with the shrinkUpd y never sent.
      if (!vertically_attached(y, sy)) {
        send_repair(y, s, MsgType::kShrinkUpd, rep);
      }
      break;
    }
    case HbClaim::kSecondaryDown: {
      const bool lateral =
          sy.p.valid() && h.are_cluster_neighbors(y, sy.p);
      if (!lateral) send_repair(y, s, MsgType::kShrinkUpd, rep);
      break;
    }
    case HbClaim::kAnchor:
      // Accept only from own parent; forward down the child link.
      if (sy.p == s) {
        anchor_miss_[static_cast<std::size_t>(y.value())] = 0;
        if (sy.c.valid() && sy.c != y) {
          send_probe(y, sy.c, HbClaim::kAnchor, /*track=*/false, hb);
        }
      }
      break;
    case HbClaim::kClientQuery:
    case HbClaim::kNone:
      break;  // client-directed / malformed: not ours
  }
}

void Stabilizer::on_ack(ClusterId x, const Message& m) {
  const auto& h = net_->hierarchy();
  const ClusterId y = m.from_cluster;  // the responder
  std::erase_if(pending_, [&](const PendingProbe& p) {
    return p.from == x && p.to == y && p.claim == m.hb_claim;
  });
  const obs::OpId rep = repair_op_from(m.op);
  const TrackerSnapshot sx = net_->tracker(x).state(target_);
  switch (m.hb_claim) {
    case HbClaim::kChild:
      // Cache the downward-link verdict; it gates the re-grow rule.
      if (sx.c == y) {
        downward_ok_[static_cast<std::size_t>(x.value())] =
            m.hb_ok ? 1 : 0;
      }
      break;
    case HbClaim::kParent: {
      if (sx.p != y) break;  // pointer moved on since the probe
      const bool lateral = h.are_cluster_neighbors(x, y);
      const bool y_vertical = m.ack_pointer.valid() &&
                              h.level(y) != h.max_level() &&
                              m.ack_pointer == h.parent(y);
      if (lateral && !y_vertical && m.hb_ok) {
        // Chained lateral link (Lemma 4.3 broken): the confirmed target
        // is itself laterally hung. Unravel from below — it drops x.
        send_repair(x, y, MsgType::kShrink, rep);
      } else if (!m.hb_ok) {
        // Broken parent link: y lost its matching child pointer.
        // Re-attach only with an intact downward link (the detection
        // marker, or a child confirmed to point back) — dead fragments
        // must dissolve, not hijack the live path.
        const bool detection = h.level(x) == 0 && sx.c == x;
        const bool downward_intact =
            detection ||
            (sx.c.valid() && sx.c != x &&
             downward_ok_[static_cast<std::size_t>(x.value())] == 1);
        if (downward_intact && !net_->tracker(x).timer_armed(target_)) {
          send_repair(x, y, MsgType::kGrow, rep);
        }
      }
      break;
    }
    case HbClaim::kAdvertUp:
      // A restarted neighbour forgot the advertisement — re-send it, if
      // the claim is still current.
      if (!m.hb_ok && vertically_attached(x, sx)) {
        send_repair(x, y, MsgType::kGrowPar, rep);
      }
      break;
    case HbClaim::kAdvertDown:
      if (!m.hb_ok && sx.p.valid() &&
          h.are_cluster_neighbors(x, sx.p)) {
        send_repair(x, y, MsgType::kGrowNbr, rep);
      }
      break;
    default:
      break;
  }
}

void Stabilizer::arm_retry() {
  if (pending_.empty()) return;
  retry_delay_ = sim::Duration::micros(period_.count() / 4);
  schedule_retry();
}

void Stabilizer::on_retry() {
  const obs::ProfScope prof(net_->profiler(), obs::ProfDomain::kStabilizer);
  // Retransmit whatever was never acknowledged (its host VSA may have been
  // dead — or restarted meanwhile), with exponential backoff; give a probe
  // up after kMaxRetries until the next tick re-examines the pointer.
  std::vector<PendingProbe> again;
  again.reserve(pending_.size());
  for (PendingProbe& p : pending_) {
    if (p.attempts >= kMaxRetries) continue;
    Message m;
    m.type = MsgType::kHeartbeat;
    m.hb_claim = p.claim;
    m.from_cluster = p.from;
    m.target = target_;
    m.op = tick_hb_op();  // retries stay in the round that issued them
    net_->cgcast().send(p.from, p.to, m);
    ++probes_sent_;
    again.push_back(PendingProbe{p.from, p.to, p.claim, p.attempts + 1});
  }
  pending_ = std::move(again);
  if (!pending_.empty()) {
    retry_delay_ = retry_delay_ * 2;
    schedule_retry();
  }
}

}  // namespace vs::ext
