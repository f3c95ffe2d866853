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
// Cost model mirrors TraceRecorder's two runtime states:
//  * disabled (the default): one bool test per call, no stores, no
//    allocation — entries() stays 0, which the zero-overhead tests pin;
//  * enabled: one map upsert per noted send, plus the send's class total
//    (an array slot), so class_total() never walks the ops.
//
// Determinism: all state is keyed by std::map over ids derived from
// world-local values, so ledgers — and their to_json renderings — are
// byte-identical for every --jobs value.

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/ids.hpp"
#include "obs/op.hpp"

namespace vs::obs {

/// Accumulated cost of one operation.
struct OpCost {
  std::int64_t msgs = 0;
  std::int64_t work = 0;
  std::int64_t first_us = -1;  // earliest / latest virtual time a send
  std::int64_t last_us = -1;   // was charged here (-1 = no cost yet)
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
  void set_enabled(bool on) { enabled_ = on; }

  /// Charge one accepted send to `op` and to its class total. `level` is
  /// the sender's hierarchy level (0 for client traffic), `hops` its
  /// hop-work.
  void note_send(OpId op, Level level, std::int64_t hops,
                 std::int64_t time_us) {
    if (!enabled_) return;
    const auto l = static_cast<std::size_t>(level < 0 ? 0 : level);
    charge(ops_[op], l, hops, time_us);
    charge(classes_[static_cast<std::size_t>(op_class(op))], l, hops,
           time_us);
  }

  /// Operation boundaries (TrackingNetwork). Placement is a move of
  /// distance 0 — attributed, but excluded from the Theorem 4.9 sums.
  void begin_move(std::uint32_t move_index, std::int64_t distance,
                  std::int64_t time_us) {
    if (!enabled_) return;
    moves_[move_index] = MoveMeta{distance, time_us};
  }
  void begin_find(std::uint32_t find_index, std::int64_t time_us) {
    if (!enabled_) return;
    finds_[find_index] = FindMeta{time_us, -1, -1};
  }
  void complete_find(std::uint32_t find_index, std::int64_t distance,
                     std::int64_t time_us) {
    if (!enabled_) return;
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

  /// Aggregate cost of every op of one class: msgs, work and per-level
  /// sums, the earliest first_us and the latest last_us. note_send keeps
  /// it up to date, so reading it walks nothing.
  [[nodiscard]] const OpCost& class_total(OpClass cls) const {
    return classes_[static_cast<std::size_t>(cls)];
  }
  /// Total messages/work across every op (conservation side).
  [[nodiscard]] std::int64_t total_msgs() const;
  [[nodiscard]] std::int64_t total_work() const;

  void clear();

  /// Deterministic JSON rendering: per-op rows (sorted by op id) plus
  /// per-class totals with per-level matrices. Byte-identical whenever
  /// the recorded values are.
  [[nodiscard]] std::string to_json() const;

 private:
  static void charge(OpCost& c, std::size_t level, std::int64_t hops,
                     std::int64_t time_us) {
    ++c.msgs;
    c.work += hops;
    if (c.first_us < 0 || time_us < c.first_us) c.first_us = time_us;
    if (time_us > c.last_us) c.last_us = time_us;
    if (c.msgs_by_level.size() <= level) {
      c.msgs_by_level.resize(level + 1, 0);
      c.work_by_level.resize(level + 1, 0);
    }
    ++c.msgs_by_level[level];
    c.work_by_level[level] += hops;
  }

  bool enabled_ = false;
  std::map<OpId, OpCost> ops_;
  /// One running total per class value op_class() can return (a crafted
  /// trace may carry the two unnamed ones, which nothing reads).
  std::array<OpCost, std::size_t{1} << kOpClassBits> classes_{};
  std::map<std::uint32_t, MoveMeta> moves_;
  std::map<std::uint32_t, FindMeta> finds_;
};

}  // namespace vs::obs
