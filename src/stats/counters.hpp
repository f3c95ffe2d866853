#pragma once
// Work accounting for the tracking service.
//
// The paper measures cost in *work* — communication, where a message
// between two processes costs the distance it travels — and *time* —
// virtual latency. Counters are kept per message kind and per hierarchy
// level so benches can decompose the Theorem 4.9 / 5.2 sums.

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string_view>
#include <vector>

#include "common/ids.hpp"

namespace vs::stats {

/// Message kinds of the Tracker signature (Figure 2) plus client traffic.
enum class MsgKind : std::uint8_t {
  kGrow = 0,
  kGrowNbr,
  kGrowPar,
  kShrink,
  kShrinkUpd,
  kFind,
  kFindQuery,
  kFindAck,
  kFound,
  kClient,        // client <-> level-0 VSA traffic
  kHeartbeat,     // §VII stabilizer probe (ext::Stabilizer)
  kHeartbeatAck,  // probe acknowledgement
  kCount,
};

[[nodiscard]] std::string_view to_string(MsgKind kind);

/// True for kinds that belong to tracking-structure maintenance (the
/// "move work" of Theorem 4.9), false for find-phase kinds (Theorem 5.2).
[[nodiscard]] bool is_move_kind(MsgKind kind);

/// True for the §VII stabilizer's probe traffic — overlay messages outside
/// both the Theorem 4.9 move sums and the Theorem 5.2 find sums.
[[nodiscard]] bool is_heartbeat_kind(MsgKind kind);

/// Accounting of the streaming-ingest daemon (src/serve): wire frames in,
/// world mutations out, and the shed-ladder bookkeeping in between. The
/// conservation identity the daemon pins at shutdown — every valid update
/// frame read off the wire is accounted exactly once:
///
///   ingested == applied + suppressed + dropped
///
/// `suppressed` is semantic shedding (tier-1 coalesce, tier-2 dead-band);
/// `dropped` is lossy shedding (queue overflow, tier-3 admission reject).
/// `wire_errors` counts malformed frames the strict reader refused — those
/// never become ingested, so they sit outside the identity. Zero unless
/// the serve path ran. `queue_depth_peak` is the high-water mark over all
/// region queues; in live mode it depends on reader/driver thread timing
/// (so it is exempt from the byte-identity doctrine), in replay mode it
/// is deterministic.
struct IngestCounters {
  std::int64_t ingested = 0;     // valid update frames accepted off the wire
  std::int64_t applied = 0;      // updates that mutated the world
  std::int64_t suppressed = 0;   // shed semantically (coalesce / dead-band)
  std::int64_t dropped = 0;      // shed lossily (queue full, tier-3 reject)
  std::int64_t wire_errors = 0;  // malformed frames the strict reader refused
  /// Rounds in which the degradation ladder ran at tier >= 1/2/3.
  std::array<std::int64_t, 3> shed_tier_entries{};
  std::int64_t queue_depth_peak = 0;  // high-water mark across region queues

  // Find-RPC accounting (IngestServer::find and its replay twin). All four
  // derive from virtual time only — deadline misses are deterministic — so
  // they are safe for byte-identity artifacts like VSTELEM1.
  std::int64_t rpc_finds_issued = 0;
  std::int64_t rpc_finds_done = 0;
  std::int64_t rpc_deadline_misses = 0;
  std::int64_t rpc_find_attempts = 0;
  /// The tier-3 retry-after hint in microseconds — a config-derived gauge
  /// (2× the round), set when an IngestServer attaches.
  std::int64_t retry_after_us = 0;
};

class WorkCounters {
 public:
  explicit WorkCounters(Level max_level);

  /// Record one message of `kind` sent at hierarchy level `level` that
  /// travels `hops` region-hops.
  void record(MsgKind kind, Level level, std::int64_t hops);

  [[nodiscard]] std::int64_t messages(MsgKind kind) const;
  [[nodiscard]] std::int64_t work(MsgKind kind) const;
  [[nodiscard]] std::int64_t messages_at_level(Level level) const;
  [[nodiscard]] std::int64_t work_at_level(Level level) const;
  /// Per-level totals restricted to move-maintenance / find kinds — the
  /// per-level terms of the Theorem 4.9 / 5.2 sums, so a bench artifact
  /// alone suffices to recompute audit ratios level by level.
  [[nodiscard]] std::int64_t move_messages_at_level(Level level) const;
  [[nodiscard]] std::int64_t move_work_at_level(Level level) const;
  [[nodiscard]] std::int64_t find_messages_at_level(Level level) const;
  [[nodiscard]] std::int64_t find_work_at_level(Level level) const;

  /// Totals across kinds.
  [[nodiscard]] std::int64_t total_messages() const;
  [[nodiscard]] std::int64_t total_work() const;
  /// Totals restricted to move-maintenance / find kinds.
  [[nodiscard]] std::int64_t move_work() const;
  [[nodiscard]] std::int64_t find_work() const;
  [[nodiscard]] std::int64_t move_messages() const;
  [[nodiscard]] std::int64_t find_messages() const;
  /// Stabilizer probe traffic (heartbeat + heartbeatAck messages).
  [[nodiscard]] std::int64_t heartbeats() const;

  /// Channel-fault accounting (src/fault): a message delivered twice /
  /// delivered early. Recorded by CGcast when a fault plan's duplication
  /// or jitter window fires.
  void note_duplicated() { ++duplicated_; }
  void note_jittered() { ++jittered_; }
  [[nodiscard]] std::int64_t duplicated() const { return duplicated_; }
  [[nodiscard]] std::int64_t jittered() const { return jittered_; }

  [[nodiscard]] Level max_level() const { return max_level_; }

  /// Ingest-daemon accounting (see IngestCounters). Mutated directly by
  /// serve::IngestServer at round boundaries (driver thread only).
  [[nodiscard]] IngestCounters& ingest() { return ingest_; }
  [[nodiscard]] const IngestCounters& ingest() const { return ingest_; }

  /// JSON emitter — the single artifact schema every bench and tool uses
  /// (no hand-formatted counter dumps). Shape:
  ///   {"total": {"messages": N, "work": N, "move_work": N, "find_work": N,
  ///              "heartbeats": N, "duplicated": N, "jittered": N},
  ///    "by_kind": {"grow": {"messages": N, "work": N}, ...},  // non-zero only
  ///    "by_level": [{"level": 0, "messages": N, "work": N,
  ///                  "move_messages": N, "move_work": N,
  ///                  "find_messages": N, "find_work": N}, ...]}
  void to_json(std::ostream& os, int indent = 0) const;

 private:
  static constexpr std::size_t kKinds =
      static_cast<std::size_t>(MsgKind::kCount);
  struct Cell {
    std::int64_t msgs = 0;
    std::int64_t work = 0;
  };
  /// Σ `field` over levels [lo, hi] and the kinds `pred` accepts — every
  /// reader above is one such fold of the matrix.
  template <class Pred>
  std::int64_t sum(std::int64_t Cell::*field, Level lo, Level hi,
                   Pred&& pred) const;

  Level max_level_;
  /// The level × kind matrix: record() updates one cell.
  std::vector<std::array<Cell, kKinds>> cells_;
  std::int64_t duplicated_{0};
  std::int64_t jittered_{0};
  IngestCounters ingest_{};
};

}  // namespace vs::stats
