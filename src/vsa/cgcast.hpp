#pragma once
// Cluster geocast service C-gcast (paper §II-C.3).
//
// Connects cluster processes (Tracker subautomata hosted on VSAs) to each
// other and to clients, with the paper's deterministic latencies:
//   (a) level-l cluster → neighbouring cluster:            (δ+e)·n(l)
//   (b) level-l cluster → parent, or parent → child:       (δ+e)·p(child l)
//   (c) level-l cluster → neighbour-of-neighbour:          (δ+e)·2n(l)
//   (d) level-0 cluster → own/neighbour region clients:    δ+e
//   (e) client → own region's level-0 cluster:             δ
// δ is the physical broadcast delay; e bounds how far a VSA emulation may
// lag real time. Work is accounted per message as the hop distance between
// the communicating cluster heads (1 for client↔VSA messages).
//
// A message addressed to a cluster whose head-region VSA is failed at
// delivery time is dropped, matching the emulation semantics (a failed VSA
// performs no steps). In-transit messages are introspectable so the spec
// module can evaluate Figure 3's lookAhead on live snapshots.
//
// Hot-path layout: each in-flight message occupies one row of a slab
// (a vector plus a free list), and its delivery event captures only the
// service pointer and the row index, so the closure fits EventAction's
// inline buffer and a send allocates nothing once the slab has grown to
// the peak number of messages in flight.

#include <cstdint>
#include <functional>
#include <vector>

#include "hier/hierarchy.hpp"
#include "obs/profile/profiler.hpp"
#include "obs/trace.hpp"
#include "sim/scheduler.hpp"
#include "stats/counters.hpp"
#include "vsa/messages.hpp"

namespace vs::vsa {

struct CGcastConfig {
  /// Max physical broadcast delay δ.
  sim::Duration delta = sim::Duration::millis(1);
  /// Max VSA emulation lag e.
  sim::Duration e = sim::Duration::millis(1);
};

class CGcast {
 public:
  CGcast(sim::Scheduler& sched, const hier::ClusterHierarchy& hierarchy,
         CGcastConfig config, stats::WorkCounters& counters);

  /// Delivery of a message to the Tracker process for cluster `dest`.
  using TrackerSink = std::function<void(ClusterId dest, const Message&)>;
  /// Delivery of a level-0 broadcast to the clients in `region`.
  using ClientSink = std::function<void(RegionId region, const Message&)>;
  /// Liveness oracle for the VSA hosted at a region (default: always alive).
  using AliveFn = std::function<bool(RegionId)>;
  /// Replica oracle (§VII "multiple heads per cluster"): the regions
  /// jointly hosting a cluster's process. When set, a message costs the
  /// sum of hop distances to every replica (the quorum-contact overhead)
  /// and is dropped only if *no* replica's VSA is alive.
  using ReplicaFn = std::function<std::span<const RegionId>(ClusterId)>;
  /// Observes every accepted send (for per-find accounting and monitors).
  using SendObserver = std::function<void(const Message&, ClusterId from,
                                          ClusterId to, Level level,
                                          std::int64_t hops)>;
  /// Handle for remove_send_observer (0 is never issued).
  using ObserverId = std::uint64_t;

  /// Per-message channel-fault verdict (src/fault FaultInjector). `drop`
  /// loses the message at send time; `duplicate` delivers it twice;
  /// `advance` delivers it that much *earlier* (clamped to a 1us floor) —
  /// early delivery stays within the δ+e envelope, since the paper's
  /// latencies are maxima.
  struct ChannelDecision {
    bool drop = false;
    bool duplicate = false;
    sim::Duration advance = sim::Duration::zero();
  };
  /// Channel-fault oracle, consulted once per VSA→VSA or client→VSA send
  /// while installed (broadcasts to clients are physical-layer local and
  /// exempt). The oracle owns its randomness; CGcast consumes none for it.
  using ChannelFaults = std::function<ChannelDecision(const Message&)>;

  void set_tracker_sink(TrackerSink sink) { tracker_sink_ = std::move(sink); }
  void set_client_sink(ClientSink sink) { client_sink_ = std::move(sink); }
  void set_vsa_alive(AliveFn alive) { alive_ = std::move(alive); }
  void set_replicas(ReplicaFn replicas) { replicas_ = std::move(replicas); }
  /// Installs (or, with an empty function, removes) the channel-fault
  /// oracle. At most one is active; the fault engine owns the slot.
  void set_channel_faults(ChannelFaults faults) {
    channel_faults_ = std::move(faults);
  }

  ObserverId add_send_observer(SendObserver obs);
  /// Detaches a previously added observer. Observers whose owner may die
  /// before the service (spec monitors, watchdogs) must call this from
  /// their destructor or every later send dangles. Unknown ids are a
  /// no-op, so teardown paths may call it unconditionally.
  void remove_send_observer(ObserverId id);
  /// Observers currently attached (tests pin detach-on-destruction).
  [[nodiscard]] std::size_t send_observer_count() const {
    return observers_.size();
  }

  /// Attach the world's trace recorder (nullptr detaches). The recorder
  /// must outlive the service; CGcast never owns it.
  void set_trace_recorder(obs::TraceRecorder* trace) { trace_ = trace; }

  /// Attach the world's wall-clock profiler (nullptr detaches). The
  /// deliver path wraps the tracker-sink handoff in a kDeliver scope and
  /// charges the inclusive handling time to the message's kind and op —
  /// the bridge from CPU ns to the ledger's virtual-cost rows.
  void set_profiler(obs::Profiler* prof) { prof_ = prof; }

  /// Ambient operation for cost attribution: while set (non-zero), every
  /// message sent without an explicit op is stamped with it before
  /// counters, observers, and trace records see the send. Drivers bracket
  /// operation roots (a move's grow/shrink injection, a find injection)
  /// with set/clear; everything deeper inherits the op through message
  /// propagation in the Tracker.
  void set_ambient_op(obs::OpId op) { ambient_op_ = op; }
  [[nodiscard]] obs::OpId ambient_op() const { return ambient_op_; }

  /// cTOBsend from the process of cluster `from` to the process of cluster
  /// `to`. `to` must be the parent, a child, a neighbour, or within two
  /// neighbour hops (neighbour-of-neighbour / child-of-neighbour) of
  /// `from` — anything else is a protocol error and throws.
  void send(ClusterId from, ClusterId to, const Message& m);

  /// The same message from `from` to every cluster of nbrs(from) except
  /// `except` (invalid = none), in nbrs() order: exactly a loop of send()
  /// over those destinations, with rule (a)'s delay (δ+e)·n(l) computed
  /// once instead of searched per destination.
  void send_to_nbrs(ClusterId from, const Message& m,
                    ClusterId except = ClusterId::invalid());

  /// cTOBsend from a client at region `at` to its region's level-0 cluster
  /// (rule (e), delay δ).
  void send_from_client(RegionId at, const Message& m);

  /// Broadcast from a level-0 cluster process to the clients of its own
  /// region (rule (d), delay δ+e). Neighbour regions' clients are reached
  /// by the tracker relaying `found` to neighbour clusters (Figure 2's
  /// sendq entries), which re-broadcast locally.
  void broadcast_to_clients(ClusterId from_level0, const Message& m);

  /// Latency the service would assign to a VSA→VSA message (exposed for
  /// tests of the delay model).
  [[nodiscard]] sim::Duration vsa_delay(ClusterId from, ClusterId to) const;

  struct InTransit {
    Message msg;
    ClusterId from;  // invalid for client-originated messages
    ClusterId to;    // destination cluster (invalid for client broadcasts)
    sim::TimePoint deliver_at;
  };
  /// All VSA→VSA and client→VSA messages currently in flight, in
  /// deterministic (send order) sequence.
  [[nodiscard]] std::vector<InTransit> in_transit() const;

  /// Messages dropped because the destination VSA was failed at delivery.
  [[nodiscard]] std::int64_t dropped() const { return dropped_; }
  /// Messages lost to injected channel faults (set_channel_faults).
  [[nodiscard]] std::int64_t lost() const { return lost_; }

  [[nodiscard]] const CGcastConfig& config() const { return config_; }
  [[nodiscard]] const hier::ClusterHierarchy& hierarchy() const {
    return *hier_;
  }

 private:
  /// One in-flight message. `key` is the send sequence number (0 marks a
  /// free row); it orders in_transit().
  struct Row {
    Message msg;
    ClusterId from;
    ClusterId to;
    sim::TimePoint deliver_at;
    std::uint64_t key = 0;
  };

  /// Books a slab row for a message and returns its index.
  std::uint32_t book(ClusterId from, ClusterId to, const Message& m,
                     sim::TimePoint deliver_at);
  void release(std::uint32_t row);
  /// Delivers the message booked in `row`: liveness check, trace records,
  /// and the tracker-sink handoff.
  void deliver_row(std::uint32_t row);
  /// Books one in-flight row and schedules its delivery.
  void enqueue(ClusterId from, ClusterId to, const Message& m,
               sim::Duration delay);
  /// One VSA→VSA send after its delay is known: counters, observers, the
  /// send record, channel faults, then the slab row. `m` already
  /// carries its op.
  void transmit(ClusterId from, ClusterId to, Level l, const Message& m,
                sim::Duration delay);
  /// Applies the channel-fault oracle to an outgoing message: updates
  /// `delay`/`duplicate` and returns true if the message is dropped.
  [[nodiscard]] bool apply_channel_faults(const Message& m,
                                          sim::Duration& delay,
                                          bool& duplicate);
  [[nodiscard]] bool vsa_alive_at(RegionId region) const;
  /// Hop-work of a message to `to`'s process (summed over replicas).
  [[nodiscard]] std::int64_t work_to(ClusterId from, ClusterId to) const;
  /// True iff some host of `to`'s process is alive.
  [[nodiscard]] bool process_alive(ClusterId to) const;
  void notify_observers(const Message& m, ClusterId from, ClusterId to,
                        Level level, std::int64_t hops);
  /// Append one message-shaped trace record. Callers gate on
  /// trace_ && trace_->enabled() so the disabled path stays a pointer
  /// test.
  void record(obs::TraceKind kind, const Message& m, std::int32_t a,
              std::int32_t b, Level level, std::int32_t arg);

  sim::Scheduler* sched_;
  const hier::ClusterHierarchy* hier_;
  CGcastConfig config_;
  stats::WorkCounters* counters_;
  TrackerSink tracker_sink_;
  ClientSink client_sink_;
  AliveFn alive_;
  ReplicaFn replicas_;
  ChannelFaults channel_faults_;
  std::vector<std::pair<ObserverId, SendObserver>> observers_;
  ObserverId next_observer_id_{1};
  obs::TraceRecorder* trace_ = nullptr;
  obs::Profiler* prof_ = nullptr;
  obs::OpId ambient_op_ = obs::kBackgroundOp;

  std::vector<Row> rows_;
  std::vector<std::uint32_t> free_rows_;
  std::uint64_t next_key_{1};
  std::int64_t dropped_{0};
  std::int64_t lost_{0};
};

}  // namespace vs::vsa
