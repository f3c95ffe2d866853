#pragma once
// Structured event tracing — the deterministic observability layer.
//
// Producers append compact binary TraceEvent records to a per-world
// TraceRecorder (append-only segment buffers; the amortised cost is one
// 64-byte store per record, never a per-event allocation). Readers — the
// vinestalk_trace tool and the obs::trace_query helpers — reconstruct
// causal spans offline. The split follows varnish's trackrdrd shape:
// recording is deliberately dumb and cheap, all interpretation happens
// after the run, so tracing never perturbs the simulation it observes.
//
// Causality: the scheduler stamps every scheduled event with the sequence
// number of the event that scheduled it (sim::Scheduler::current_seq /
// current_cause). Every record carries both, so the events recorded while
// one scheduler event fires form a "context", and contexts chain: a find
// is replayable from its client injection through findQuery/findAck
// deliveries to the found output, and grow/shrink propagation depth is
// directly measurable against the Lemma 4.1–4.4 update bounds.
//
// Cost model, in two runtime states:
//  * disabled (the default): a record point is a pointer test plus a bool
//    load, no stores, no allocation;
//  * enabled: one TraceEvent store per record, segment-granular growth.

#include <cstdint>
#include <memory>
#include <string_view>
#include <type_traits>
#include <vector>

namespace vs::obs {

/// What happened. Field semantics per kind are documented inline; unused
/// fields are -1 (ids) or 0 (arg/extra) so traces are byte-deterministic.
enum class TraceKind : std::uint8_t {
  kSend = 1,     // VSA→VSA cTOBsend: a=from cluster, b=to cluster, arg=hops
  kClientSend,   // client → level-0 cluster: a=region, b=cluster
  kBroadcast,    // level-0 cluster → region clients: a=cluster, b=region
  kDeliver,      // message handed to a Tracker: a=from cluster, b=cluster
  kDrop,         // delivery dropped (no alive hosting VSA): a/b as kDeliver
  kLost,         // channel-fault loss at send time: a/b as kSend
  kTimerFire,    // grow/shrink timer expiry: a=cluster, arg=0 none/1 grow/2 shrink
  kFindTimeout,  // nbrtimeout expiry for a find: a=cluster
  kFindIssued,   // find injected: a=origin region, arg=distance to evader
  kFoundOutput,  // believing client performed the found output: a=region
  kMoveIssued,   // evader placed/moved: a=from region (-1 on placement),
                 // b=to region, arg=walk distance (0 on placement)
};
/// The highest TraceKind: recorded kinds are 1..kLastTraceKind.
inline constexpr TraceKind kLastTraceKind = TraceKind::kMoveIssued;

[[nodiscard]] std::string_view to_string(TraceKind kind);

/// One fixed-size binary record. Every field is explicit (no implicit
/// padding) so the on-disk image of a trace is byte-identical whenever the
/// recorded values are — the property the --jobs determinism tests pin.
struct TraceEvent {
  std::int64_t time_us;   // virtual time of the record
  std::uint64_t seq;      // scheduler event being fired (0 = external code)
  std::uint64_t cause;    // event that scheduled `seq` (0 = external)
  std::int64_t find;      // FindId value, -1 when not find-related
  std::int32_t a;         // kind-specific, see TraceKind
  std::int32_t b;         // kind-specific, see TraceKind
  std::int32_t target;    // TargetId value, -1 when not target-related
  std::int32_t arg;       // kind-specific payload (hops, timer branch)
  std::int16_t level;     // hierarchy level, -1 when not applicable
  std::uint8_t kind;      // TraceKind
  std::uint8_t msg;       // stats::MsgKind for message records, 0xff else
  std::int32_t extra;     // findAck pointer x, else 0
  std::uint32_t op;       // obs::OpId this event is charged to (0 = background)
  std::uint32_t pad0;     // explicit padding, always 0
};
static_assert(sizeof(TraceEvent) == 64, "no implicit padding allowed");
static_assert(std::is_trivially_copyable_v<TraceEvent>);

inline constexpr std::uint8_t kNoMsg = 0xff;

/// Append-only per-world event log. Single-threaded like the world that
/// owns it; the trial pool keeps one recorder per trial and merges the
/// extracted event vectors in trial-index order.
///
/// Two storage modes:
///  * unbounded (default): append-only segment buffers, the full-trace
///    artifact path;
///  * ring (set_ring_capacity(K)): a fixed K-event circular buffer holding
///    the most recent records — the watchdog's always-on flight recorder.
///    The ring is allocated once, up front; append never allocates again,
///    so monitoring runs at fixed memory on arbitrarily long executions.
class TraceRecorder {
 public:
  /// Events per segment: 8192 × 64 B = 512 KiB growth granule.
  static constexpr std::size_t kSegmentEvents = 8192;

  [[nodiscard]] bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  /// Switch to ring mode with room for the last `k` events (k > 0), or
  /// back to unbounded mode (k = 0). Allocates the whole ring immediately
  /// and discards anything recorded so far.
  void set_ring_capacity(std::size_t k);
  [[nodiscard]] std::size_t ring_capacity() const { return ring_.size(); }

  /// Record one event. Callers gate on enabled() (see the record points in
  /// vsa::CGcast); append itself never checks, never fails, and allocates
  /// only when an unbounded recorder's current segment is full (a ring
  /// recorder never allocates here — old events are overwritten).
  void append(const TraceEvent& e) {
    if (!ring_.empty()) {
      ring_[ring_next_] = e;
      ring_next_ = ring_next_ + 1 == ring_.size() ? 0 : ring_next_ + 1;
      if (ring_fill_ < ring_.size()) ++ring_fill_;
      return;
    }
    if (seg_fill_ == kSegmentEvents || segments_.empty()) new_segment();
    segments_.back()->events[seg_fill_++] = e;
  }

  [[nodiscard]] std::size_t size() const {
    if (!ring_.empty()) return ring_fill_;
    return segments_.empty()
               ? 0
               : (segments_.size() - 1) * kSegmentEvents + seg_fill_;
  }
  [[nodiscard]] bool empty() const { return size() == 0; }
  /// Number of segment allocations so far (0 until the first record — the
  /// disabled-mode zero-overhead tests pin this).
  [[nodiscard]] std::size_t segments_allocated() const {
    return segments_.size();
  }

  /// Copy out all events in record order, oldest first (the offline-reader
  /// handoff; in ring mode, the surviving suffix of the run).
  [[nodiscard]] std::vector<TraceEvent> events() const;

  void clear();

 private:
  struct Segment {
    TraceEvent events[kSegmentEvents];
  };
  void new_segment();

  bool enabled_ = false;
  std::size_t seg_fill_ = 0;  // fill of segments_.back()
  std::vector<std::unique_ptr<Segment>> segments_;
  std::vector<TraceEvent> ring_;  // non-empty selects ring mode
  std::size_t ring_next_ = 0;     // next write slot
  std::size_t ring_fill_ = 0;     // events held (≤ ring_.size())
};

}  // namespace vs::obs
