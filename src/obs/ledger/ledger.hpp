#pragma once
// OpLedger — the per-operation cost ledger.
//
// The ledger assigns every C-gcast message to exactly one logical
// operation (see obs/op.hpp) and accumulates its cost there: message
// count, hop-work, per-level breakdowns, and the first/last virtual time
// any cost landed. Operation *metadata* — a move step's walk distance, a
// find's issue/completion instants and measured distance — arrives
// through the begin/complete calls the TrackingNetwork makes at operation
// boundaries. The BoundAuditor (obs/ledger/auditor.hpp) layers the
// Theorem 4.9 / 5.2 judgements on top; the ledger itself is pure
// accounting with no spec dependency, so it can live next to the trace
// recorder at the bottom of the library stack.
//
// Cost model mirrors TraceRecorder's three states:
//  * compiled out (-DVINESTALK_TRACE=OFF): every mutator is a constant
//    no-op (kTraceCompiled is false and the early return folds away);
//  * compiled in, disabled (the default): one bool test per call, no
//    stores, no allocation — entries() stays 0, which the zero-overhead
//    tests pin;
//  * enabled: one map upsert per noted send.
//
// Determinism: all state is keyed by std::map over ids derived from
// world-local values, so ledgers — and their to_json renderings — are
// byte-identical for every --jobs value.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/ids.hpp"
#include "obs/op.hpp"
#include "obs/trace.hpp"  // kTraceCompiled

namespace vs::obs {

/// Accumulated cost of one operation.
struct OpCost {
  std::int64_t msgs = 0;
  std::int64_t work = 0;
  std::int64_t first_us = -1;  // first / last virtual time a send was
  std::int64_t last_us = -1;   // charged here (-1 = no cost yet)
  /// Indexed by hierarchy level; grown on demand. Client/broadcast
  /// traffic lands at level 0 like the WorkCounters convention.
  std::vector<std::int64_t> msgs_by_level;
  std::vector<std::int64_t> work_by_level;
};

/// Metadata of one move step (class kMove, index = move counter).
struct MoveMeta {
  std::int64_t distance = 0;  // walk distance of the step (0 = placement)
  std::int64_t issued_us = 0;
};

/// Metadata of one find (shared by its search and trace phase ops;
/// index = FindId value).
struct FindMeta {
  std::int64_t issued_us = 0;
  std::int64_t completed_us = -1;  // -1 = never completed
  std::int64_t distance = -1;      // origin→target distance, -1 unknown
};

class OpLedger {
 public:
  [[nodiscard]] bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = kTraceCompiled && on; }

  /// Charge one accepted send to `op`. `level` is the sender's hierarchy
  /// level (0 for client traffic), `hops` its hop-work.
  void note_send(OpId op, Level level, std::int64_t hops,
                 std::int64_t time_us) {
    if (!kTraceCompiled || !enabled_) return;
    OpCost& c = ops_[op];
    ++c.msgs;
    c.work += hops;
    if (c.first_us < 0) c.first_us = time_us;
    c.last_us = time_us;
    const auto l = static_cast<std::size_t>(level < 0 ? 0 : level);
    if (c.msgs_by_level.size() <= l) {
      c.msgs_by_level.resize(l + 1, 0);
      c.work_by_level.resize(l + 1, 0);
    }
    ++c.msgs_by_level[l];
    c.work_by_level[l] += hops;
  }

  /// Operation boundaries (TrackingNetwork). Placement is a move of
  /// distance 0 — attributed, but excluded from the Theorem 4.9 sums.
  void begin_move(std::uint32_t move_index, std::int64_t distance,
                  std::int64_t time_us) {
    if (!kTraceCompiled || !enabled_) return;
    moves_[move_index] = MoveMeta{distance, time_us};
  }
  void begin_find(std::uint32_t find_index, std::int64_t time_us) {
    if (!kTraceCompiled || !enabled_) return;
    finds_[find_index] = FindMeta{time_us, -1, -1};
  }
  void complete_find(std::uint32_t find_index, std::int64_t distance,
                     std::int64_t time_us) {
    if (!kTraceCompiled || !enabled_) return;
    const auto it = finds_.find(find_index);
    if (it == finds_.end()) return;
    if (it->second.completed_us >= 0) return;  // first completion wins
    it->second.completed_us = time_us;
    it->second.distance = distance;
  }

  [[nodiscard]] const std::map<OpId, OpCost>& ops() const { return ops_; }
  [[nodiscard]] const std::map<std::uint32_t, MoveMeta>& moves() const {
    return moves_;
  }
  [[nodiscard]] const std::map<std::uint32_t, FindMeta>& finds() const {
    return finds_;
  }
  /// Ledger rows held (0 while disabled — the zero-overhead pin).
  [[nodiscard]] std::size_t entries() const {
    return ops_.size() + moves_.size() + finds_.size();
  }

  /// Aggregate cost of every op of one class.
  [[nodiscard]] OpCost class_total(OpClass cls) const;
  /// Total messages/work across every op (conservation side).
  [[nodiscard]] std::int64_t total_msgs() const;
  [[nodiscard]] std::int64_t total_work() const;

  void clear();

  /// Deterministic JSON rendering: per-op rows (sorted by op id) plus
  /// per-class totals with per-level matrices. Byte-identical whenever
  /// the recorded values are.
  [[nodiscard]] std::string to_json() const;

 private:
  bool enabled_ = false;
  std::map<OpId, OpCost> ops_;
  std::map<std::uint32_t, MoveMeta> moves_;
  std::map<std::uint32_t, FindMeta> finds_;
};

}  // namespace vs::obs
