#pragma once
// IngestServer — the robustness core of the streaming ingest/query daemon
// (tools/vinestalk_served.cpp).
//
// Threading model (trackrdrd-style reader/worker split): one reader
// thread parses VSINGEST1 frames and offer()s them into region-keyed
// bounded SPSC rings; the driver thread drains every ring at each
// scheduler-round boundary, runs the degradation ladder over the drained
// batch, applies the surviving updates to the TrackingNetwork, and
// advances virtual time one round. All world mutation happens on the
// driver thread — the reader never touches the simulator.
//
// Backpressure and the graceful-degradation ladder, driven by queue-depth
// watermarks (deepest per-queue drained batch vs fixed fractions of the
// ring capacity). The ladder has two actions and a readmit band between
// them:
//
//   tier 1  coalesce    (>= 25%) only the last update per object in the
//                       round is applied; the rest are `suppressed`
//   tier 2  readmit     (>= 50%) coalescing continues; a closed admission
//           band        gate stays closed until the depth falls below it
//   tier 3  admission   (>= 87.5%) offer() rejects new updates (`dropped`)
//                       with a retry-after hint until pressure falls below
//                       the readmit band
//
// A full ring likewise drops at offer(). Every valid update frame is
// accounted exactly once — the conservation identity the tests pin:
//
//   ingested == applied + suppressed + dropped
//
// Determinism and capture/replay: each round appends its drained frames
// (in drain order, pre-ladder) plus one round marker to the VSINGEST1
// capture — empty rounds still write their marker, so every boundary in
// the round clock is in the file. Ladder decisions are pure functions of
// the drained batch, so replaying a capture re-executes the same world
// mutations (and find RPCs) at the same virtual times — the world trace
// is byte-identical to the live run. Reader-side drops
// never enter the capture (they never reached the world), so a replay has
// dropped == 0 and the identity still holds.

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/ids.hpp"
#include "hier/grid_hierarchy.hpp"
#include "serve/ingest_io.hpp"
#include "serve/spsc.hpp"
#include "sim/time.hpp"
#include "tracking/network.hpp"

namespace vs::obs {
class SloMonitor;
}

namespace vs::serve {

struct ServeConfig {
  /// Most ring slots a server allocates, queues × (queue_capacity + 1)
  /// (a ring keeps one slot empty): 4,194,304 slots of 32 bytes, 128 MiB.
  /// IngestServer rejects a larger budget instead of allocating it.
  static constexpr std::size_t kMaxRingSlots = std::size_t{1} << 22;

  /// Region-keyed SPSC rings (key: region id mod queues).
  std::uint32_t queues = 4;
  /// Slots per ring; bounds ingest memory and anchors the ladder's fixed
  /// watermarks (25%, 50% and 87.5% of it; at 8 slots: 2, 4 and 7).
  std::size_t queue_capacity = 256;
  /// Virtual time per drain round.
  sim::Duration round = sim::Duration::millis(1);
  /// Deadline-bounded find RPC: total attempts and the first retry backoff
  /// (doubles per retry).
  int find_attempts = 4;
  sim::Duration find_backoff = sim::Duration::millis(1);
  /// VSINGEST1 capture of drained frames + round markers ("" = off).
  std::string capture_path;
};

/// Outcome of one drain round (telemetry for the daemon's log line).
struct RoundReport {
  int tier = 0;
  std::int64_t drained = 0;
  std::int64_t applied = 0;
  std::int64_t suppressed = 0;
};

/// Outcome of a deadline-bounded find (the daemon's query RPC and the
/// CLI's `find ... --deadline-us` run the identical path).
struct FindOutcome {
  bool done = false;
  FindId id{};
  int attempts = 0;
  /// Client retry hint when the deadline was missed on every attempt.
  sim::Duration retry_after = sim::Duration::zero();
};

class IngestServer {
 public:
  /// The network must outlive the server; `hier` is the world geometry
  /// updates are resolved against. Objects are registered up front with
  /// add_object — wire frames address them by dense index.
  IngestServer(tracking::TrackingNetwork& net,
               const hier::GridHierarchy& hier, ServeConfig cfg);
  ~IngestServer();
  IngestServer(const IngestServer&) = delete;
  IngestServer& operator=(const IngestServer&) = delete;

  /// Register one tracked object starting at `start`; returns its wire
  /// index. Driver thread, before ingestion starts.
  std::uint64_t add_object(RegionId start);
  [[nodiscard]] std::size_t num_objects() const { return objects_.size(); }

  // ---- producer side (one reader thread) ----

  enum class Admit : std::uint8_t {
    kQueued,        // accepted into a ring
    kRejectedShed,  // tier-3 admission control; retry after retry_after()
    kRejectedFull,  // ring full (hard backpressure)
    kRejectedBad,   // unknown object / out-of-bounds fix (wire_errors)
  };

  /// Offer one update off the wire. Thread-safe against the driver.
  Admit offer(const UpdateFrame& update);

  /// Note a terminal wire-format error from the reader's parser.
  void note_wire_error() { wire_errors_.fetch_add(1, std::memory_order_relaxed); }

  /// The client retry-after hint handed out with kRejectedShed.
  [[nodiscard]] sim::Duration retry_after() const { return cfg_.round * 2; }

  // ---- driver side (owns the world) ----

  /// Drain every ring, run the ladder, apply, advance one round.
  RoundReport run_round();

  /// The find RPC: issue a deadline-bounded query for object `object` from
  /// region `from`, with the config's attempt/backoff policy. Runs between
  /// rounds on the driver thread; the frame is captured so query traffic —
  /// which advances virtual time — replays byte-identically too.
  FindOutcome find(RegionId from, std::uint64_t object,
                   sim::Duration deadline);

  /// Final drain + capture trailer + counter fold. Idempotent; also run
  /// by the destructor. After this, offers are rejected as shed.
  void finish();

  /// Deterministically re-execute a capture: batches and round boundaries
  /// come from the file, ladder decisions are recomputed (identically, by
  /// construction). The server must be freshly constructed with the same
  /// config and object registrations as the captured run. Returns the
  /// rounds replayed: one per round marker, the final drain's included.
  std::int64_t replay_file(const std::string& path);

  [[nodiscard]] const ServeConfig& config() const { return cfg_; }
  /// Ladder tier of the most recent round.
  [[nodiscard]] int current_tier() const { return tier_; }

  /// Attach request-level SLO monitoring (null = off, the default). Spans
  /// open at offer()-admission / find issue and close at round resolution
  /// / RPC return; the monitor's data stays in its VSSLO1 sidecar, so
  /// every deterministic artifact is byte-identical with or without one.
  /// The monitor must outlive the server; attach before ingestion starts.
  void set_slo(obs::SloMonitor* slo);

 private:
  struct Pending {
    UpdateFrame update;  // the wire frame, verbatim (capture re-emits it)
    RegionId region{};   // resolved target region
    /// Wall clock at offer()-admission (SLO update span open); 0 when no
    /// monitor is attached or the frame came from a replayed capture.
    /// Never serialized — captures hold only the wire frame.
    std::uint64_t admit_ns = 0;
    [[nodiscard]] std::uint64_t object() const { return update.object; }
  };

  [[nodiscard]] std::size_t queue_of(RegionId r) const {
    return static_cast<std::size_t>(r.value()) % queues_.size();
  }
  [[nodiscard]] std::int64_t watermark_slots(std::int64_t permille) const {
    return (static_cast<std::int64_t>(cfg_.queue_capacity) * permille) / 1000;
  }
  /// Apply one round batch (ladder + capture + world mutation) and account
  /// it; shared verbatim between the live path and replay. `depth_peak` is
  /// the deepest per-queue share of the batch, `upto` the round boundary
  /// the caller advances to afterwards (recorded in the capture marker).
  RoundReport process_batch(const std::vector<Pending>& batch,
                            std::int64_t depth_peak, sim::TimePoint upto);
  /// Fold reader-side atomics into the world's WorkCounters (driver only).
  void fold_reader_counters();
  void apply_update(const Pending& p);
  /// The shared find body (live + replay): deadline RPC, deterministic
  /// rpc_* counter accounting, SLO find span.
  FindOutcome run_find(RegionId from, std::uint64_t object,
                       sim::Duration deadline);

  tracking::TrackingNetwork* net_;
  const hier::GridHierarchy* hier_;
  ServeConfig cfg_;
  obs::SloMonitor* slo_ = nullptr;
  std::vector<std::unique_ptr<SpscQueue<Pending>>> queues_;
  std::vector<TargetId> objects_;
  std::optional<IngestWriter> capture_;
  int tier_ = 0;
  bool finished_ = false;
  std::vector<Pending> batch_;  // reused per-round drain scratch
  // Tier-1 coalescing scratch, reused across rounds: keep_[i] says whether
  // batch entry i survives, last_[o] is object o's last index in the batch.
  std::vector<char> keep_;
  std::vector<std::size_t> last_;

  // Reader-side accounting (folded into WorkCounters at round boundaries).
  std::atomic<std::int64_t> ingested_{0};
  std::atomic<std::int64_t> dropped_{0};
  std::atomic<std::int64_t> wire_errors_{0};
  std::atomic<bool> shedding_{false};  // tier-3 admission gate
  std::int64_t folded_ingested_ = 0;
  std::int64_t folded_dropped_ = 0;
  std::int64_t folded_wire_errors_ = 0;
};

/// Issue a find from `from` and run the world until it completes or
/// `deadline` of virtual time elapses; on a miss, back off exponentially
/// (backoff, 2*backoff, ...) and retry, `attempts` times in all. The
/// daemon's find RPC and `vinestalk_cli find --deadline-us` both call
/// this, so interactive queries exercise the exact RPC path.
[[nodiscard]] FindOutcome find_with_deadline(tracking::TrackingNetwork& net,
                                             RegionId from, TargetId target,
                                             sim::Duration deadline,
                                             int attempts,
                                             sim::Duration backoff);

}  // namespace vs::serve
