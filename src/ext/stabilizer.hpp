#pragma once
// Distributed heartbeat self-stabilization (paper §VII).
//
// The paper makes VINESTALK self-stabilizing "mainly through heartbeats",
// as in STALK. This extension implements that protocol for real: a
// stabilizer subautomaton co-located with every cluster's Tracker
// periodically probes the processes its pointers name — over C-gcast, with
// kHeartbeat/kHeartbeatAck messages — and repairs mismatches with ordinary
// protocol traffic (grow / shrink / growPar / growNbr / shrinkUpd). No
// rule reads another cluster's state: every decision uses only the local
// pointer set, the static hierarchy, and what arrived on the wire. (The
// retired global-view scan survives as ext::GlobalViewOracle, a
// differential-testing reference only.)
//
// Probe vocabulary (HbClaim), per tick and per cluster x with state:
//  * kChild → x.c: "my child is you". The receiver acks whether its p
//    points back and, on a mismatch it cannot attribute to its own
//    in-progress re-attachment, sends x the shrink a failed heartbeat
//    implies. Acks also maintain x's downward-intact knowledge, which
//    gates the re-grow rule.
//  * kParent → x.p: "my parent is you". The ack carries the receiver's
//    own p (ack_pointer) and whether its c points back; on a miss with an
//    intact downward link x re-sends its grow, and a confirmed lateral
//    target that is no longer vertically attached is unravelled with a
//    shrink (Lemma 4.3 repair).
//  * kAdvertUp / kAdvertDown → each neighbour: "you should hold me in
//    nbrptup/nbrptdown". A miss ack re-sends the growPar/growNbr.
//  * kSecondaryUp / kSecondaryDown → the held pointer: the receiver
//    answers a stale claim directly with the shrinkUpd it never sent.
//  * kAnchor: every pointer-state root (p = ⊥) pulses an anchor down its
//    c-links each tick; members forward it to their own child. A cluster
//    with a parent pointer that misses kAnchorMissLimit consecutive
//    pulses concludes it sits in an unanchored component (a p-cycle or
//    orphaned loop) and detaches itself — the distributed replacement for
//    the oracle's global cycle walk.
//  * kClientQuery: a level-0 cluster carrying the detection marker
//    broadcasts a presence query to its region's clients; clients answer
//    a false marker with the missing shrink, and believing clients whose
//    cluster went silent (a wiped marker) re-send the detection grow
//    (ClientPopulation::refresh_detection).
//
// Unanswered probes (a dead VSA drops them) are retried within the tick
// with exponential backoff, then abandoned until the next tick re-probes
// from scratch. Clusters whose grow/shrink timer is armed are mid-update
// and are not probed — transient protocol states are not damage.

#include <cstdint>
#include <vector>

#include "sim/event_queue.hpp"
#include "tracking/network.hpp"
#include "vsa/messages.hpp"

namespace vs::ext {

class Stabilizer {
 public:
  /// Probes the structure for `target` every `period`. The period should
  /// comfortably exceed the move-update time at the top level, so probe
  /// round-trips complete and in-flight updates of a healthy run are not
  /// mistaken for damage.
  Stabilizer(tracking::TrackingNetwork& net, TargetId target,
             sim::Duration period);
  /// Stops ticking and detaches the heartbeat handler. The network must
  /// outlive this.
  ~Stabilizer();

  Stabilizer(const Stabilizer&) = delete;
  Stabilizer& operator=(const Stabilizer&) = delete;

  /// Starts the periodic tick.
  void start();
  /// Stops ticking (lets the scheduler drain).
  void stop();

  /// One probe round; exposed for deterministic tests. Returns the number
  /// of repair actions applied synchronously (local timer nudges,
  /// anchor-timeout detachments, client re-detections); repairs triggered
  /// by probe responses land asynchronously and show up in repairs() once
  /// the scheduler drains.
  int tick_once();

  /// Repair actions so far: repair messages sent plus local nudges and
  /// detachments. Heartbeat/ack traffic is not counted here (see
  /// stats::WorkCounters::heartbeats()).
  [[nodiscard]] std::int64_t repairs() const { return repairs_; }
  [[nodiscard]] std::int64_t ticks() const { return ticks_; }
  /// Heartbeat probes sent by this stabilizer (anchors + claims; acks are
  /// the receivers').
  [[nodiscard]] std::int64_t probes_sent() const { return probes_sent_; }

  /// Missed-anchor ticks after which a parented cluster self-detaches.
  static constexpr int kAnchorMissLimit = 3;
  /// Probe retransmissions before giving up until the next tick.
  static constexpr int kMaxRetries = 2;

 private:
  struct PendingProbe {
    ClusterId from{};
    ClusterId to{};
    vsa::HbClaim claim{vsa::HbClaim::kNone};
    int attempts = 0;
  };

  void on_tick();
  void on_heartbeat(ClusterId dest, const vsa::Message& m);
  void on_probe(ClusterId dest, const vsa::Message& m);
  void on_ack(ClusterId dest, const vsa::Message& m);
  void probe_cluster(ClusterId x);
  /// Cost attribution: probe/ack traffic is charged to the heartbeat op of
  /// the probing tick (acks/forwards inherit the probe's op); repairs are
  /// charged to the matching repair op — same tick index, kRepair class —
  /// so a round's probing and the damage it uncovers stay distinguishable.
  void send_probe(ClusterId from, ClusterId to, vsa::HbClaim claim,
                  bool track, obs::OpId op);
  void send_ack(ClusterId from, ClusterId to, vsa::HbClaim claim, bool ok,
                ClusterId pointer, obs::OpId op);
  void send_repair(ClusterId from, ClusterId to, vsa::MsgType type,
                   obs::OpId op);
  /// Heartbeat op of the current tick / repair op derived from a received
  /// probe-or-ack's op (falling back to the current tick's repair op).
  [[nodiscard]] obs::OpId tick_hb_op() const;
  [[nodiscard]] obs::OpId tick_repair_op() const;
  [[nodiscard]] obs::OpId repair_op_from(obs::OpId source) const;
  void on_retry();
  void arm_retry();
  /// Arm the tick (period_ from now) / the retry (retry_delay_ from now),
  /// replacing a pending one.
  void schedule_tick();
  void schedule_retry();
  /// Local predicate: is `y` a reset process mid-re-attachment (subtree or
  /// armed timer but no parent yet)?
  [[nodiscard]] bool reattaching(ClusterId y) const;
  [[nodiscard]] bool vertically_attached(ClusterId x,
                                         const tracking::TrackerSnapshot& s)
      const;

  tracking::TrackingNetwork* net_;
  TargetId target_;
  sim::Duration period_;
  sim::EventId tick_{};   // pending tick (invalid = none)
  sim::EventId retry_{};  // pending probe retry (invalid = none)
  bool running_ = false;
  std::int64_t repairs_{0};
  std::int64_t ticks_{0};
  std::int64_t probes_sent_{0};
  /// Ticks since each cluster last heard an anchor pulse (index: cluster).
  std::vector<int> anchor_miss_;
  /// Last kChild-ack verdict per cluster: -1 unknown, 0 broken, 1 intact.
  std::vector<std::int8_t> downward_ok_;
  std::vector<PendingProbe> pending_;
  sim::Duration retry_delay_ = sim::Duration::zero();
  int hb_token_ = 0;     // heartbeat-handler registration, removed in dtor
  bool primed_ = false;  // one query round done (gates refresh_detection)
};

}  // namespace vs::ext
