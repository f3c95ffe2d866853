#include "stats/counters.hpp"

#include <algorithm>
#include <numeric>
#include <ostream>
#include <string>

#include "common/error.hpp"

namespace vs::stats {

std::string_view to_string(MsgKind kind) {
  switch (kind) {
    case MsgKind::kGrow: return "grow";
    case MsgKind::kGrowNbr: return "growNbr";
    case MsgKind::kGrowPar: return "growPar";
    case MsgKind::kShrink: return "shrink";
    case MsgKind::kShrinkUpd: return "shrinkUpd";
    case MsgKind::kFind: return "find";
    case MsgKind::kFindQuery: return "findQuery";
    case MsgKind::kFindAck: return "findAck";
    case MsgKind::kFound: return "found";
    case MsgKind::kClient: return "client";
    case MsgKind::kHeartbeat: return "heartbeat";
    case MsgKind::kHeartbeatAck: return "heartbeatAck";
    case MsgKind::kCount: break;
  }
  return "?";
}

bool is_move_kind(MsgKind kind) {
  switch (kind) {
    case MsgKind::kGrow:
    case MsgKind::kGrowNbr:
    case MsgKind::kGrowPar:
    case MsgKind::kShrink:
    case MsgKind::kShrinkUpd:
      return true;
    default:
      return false;
  }
}

bool is_heartbeat_kind(MsgKind kind) {
  return kind == MsgKind::kHeartbeat || kind == MsgKind::kHeartbeatAck;
}

WorkCounters::WorkCounters(Level max_level)
    : max_level_(max_level),
      msgs_by_level_(static_cast<std::size_t>(max_level) + 1, 0),
      work_by_level_(static_cast<std::size_t>(max_level) + 1, 0),
      msgs_by_level_kind_(static_cast<std::size_t>(max_level) + 1),
      work_by_level_kind_(static_cast<std::size_t>(max_level) + 1) {
  VS_REQUIRE(max_level >= 0, "negative max level");
}

void WorkCounters::record(MsgKind kind, Level level, std::int64_t hops) {
  VS_REQUIRE(kind != MsgKind::kCount, "bad kind");
  VS_REQUIRE(level >= 0 && level <= max_level_, "level out of range");
  VS_REQUIRE(hops >= 0, "negative hop count");
  const auto k = static_cast<std::size_t>(kind);
  ++msgs_by_kind_[k];
  work_by_kind_[k] += hops;
  ++msgs_by_level_[static_cast<std::size_t>(level)];
  work_by_level_[static_cast<std::size_t>(level)] += hops;
  ++msgs_by_level_kind_[static_cast<std::size_t>(level)][k];
  work_by_level_kind_[static_cast<std::size_t>(level)][k] += hops;
}

namespace {

// Shared shape of the four per-level class accessors: fold one level's
// kind row through a kind predicate.
template <class Pred>
std::int64_t level_class_sum(const std::array<std::int64_t,
                                              static_cast<std::size_t>(
                                                  MsgKind::kCount)>& row,
                             Pred&& pred) {
  std::int64_t sum = 0;
  for (std::size_t k = 0; k < row.size(); ++k) {
    if (pred(static_cast<MsgKind>(k))) sum += row[k];
  }
  return sum;
}

bool is_find_kind(MsgKind kind) {
  return !is_move_kind(kind) && !is_heartbeat_kind(kind) &&
         kind != MsgKind::kClient;
}

}  // namespace

std::int64_t WorkCounters::move_messages_at_level(Level level) const {
  VS_REQUIRE(level >= 0 && level <= max_level_, "level out of range");
  return level_class_sum(msgs_by_level_kind_[static_cast<std::size_t>(level)],
                         is_move_kind);
}
std::int64_t WorkCounters::move_work_at_level(Level level) const {
  VS_REQUIRE(level >= 0 && level <= max_level_, "level out of range");
  return level_class_sum(work_by_level_kind_[static_cast<std::size_t>(level)],
                         is_move_kind);
}
std::int64_t WorkCounters::find_messages_at_level(Level level) const {
  VS_REQUIRE(level >= 0 && level <= max_level_, "level out of range");
  return level_class_sum(msgs_by_level_kind_[static_cast<std::size_t>(level)],
                         is_find_kind);
}
std::int64_t WorkCounters::find_work_at_level(Level level) const {
  VS_REQUIRE(level >= 0 && level <= max_level_, "level out of range");
  return level_class_sum(work_by_level_kind_[static_cast<std::size_t>(level)],
                         is_find_kind);
}

std::int64_t WorkCounters::messages(MsgKind kind) const {
  return msgs_by_kind_[static_cast<std::size_t>(kind)];
}
std::int64_t WorkCounters::work(MsgKind kind) const {
  return work_by_kind_[static_cast<std::size_t>(kind)];
}
std::int64_t WorkCounters::messages_at_level(Level level) const {
  VS_REQUIRE(level >= 0 && level <= max_level_, "level out of range");
  return msgs_by_level_[static_cast<std::size_t>(level)];
}
std::int64_t WorkCounters::work_at_level(Level level) const {
  VS_REQUIRE(level >= 0 && level <= max_level_, "level out of range");
  return work_by_level_[static_cast<std::size_t>(level)];
}

std::int64_t WorkCounters::total_messages() const {
  return std::accumulate(msgs_by_kind_.begin(), msgs_by_kind_.end(),
                         std::int64_t{0});
}
std::int64_t WorkCounters::total_work() const {
  return std::accumulate(work_by_kind_.begin(), work_by_kind_.end(),
                         std::int64_t{0});
}

std::int64_t WorkCounters::move_work() const {
  std::int64_t sum = 0;
  for (std::size_t k = 0; k < kKinds; ++k) {
    if (is_move_kind(static_cast<MsgKind>(k))) sum += work_by_kind_[k];
  }
  return sum;
}
std::int64_t WorkCounters::find_work() const {
  std::int64_t sum = 0;
  for (std::size_t k = 0; k < kKinds; ++k) {
    const auto kind = static_cast<MsgKind>(k);
    if (!is_move_kind(kind) && !is_heartbeat_kind(kind) &&
        kind != MsgKind::kClient) {
      sum += work_by_kind_[k];
    }
  }
  return sum;
}
std::int64_t WorkCounters::move_messages() const {
  std::int64_t sum = 0;
  for (std::size_t k = 0; k < kKinds; ++k) {
    if (is_move_kind(static_cast<MsgKind>(k))) sum += msgs_by_kind_[k];
  }
  return sum;
}
std::int64_t WorkCounters::find_messages() const {
  std::int64_t sum = 0;
  for (std::size_t k = 0; k < kKinds; ++k) {
    const auto kind = static_cast<MsgKind>(k);
    if (!is_move_kind(kind) && !is_heartbeat_kind(kind) &&
        kind != MsgKind::kClient) {
      sum += msgs_by_kind_[k];
    }
  }
  return sum;
}

std::int64_t WorkCounters::heartbeats() const {
  return messages(MsgKind::kHeartbeat) + messages(MsgKind::kHeartbeatAck);
}

void WorkCounters::reset() {
  msgs_by_kind_.fill(0);
  work_by_kind_.fill(0);
  std::fill(msgs_by_level_.begin(), msgs_by_level_.end(), 0);
  std::fill(work_by_level_.begin(), work_by_level_.end(), 0);
  for (auto& row : msgs_by_level_kind_) row.fill(0);
  for (auto& row : work_by_level_kind_) row.fill(0);
  duplicated_ = 0;
  jittered_ = 0;
  ingest_ = IngestCounters{};
}

WorkCounters WorkCounters::delta_since(const WorkCounters& earlier) const {
  VS_REQUIRE(max_level_ == earlier.max_level_, "mismatched counter shapes");
  WorkCounters d(max_level_);
  for (std::size_t k = 0; k < kKinds; ++k) {
    d.msgs_by_kind_[k] = msgs_by_kind_[k] - earlier.msgs_by_kind_[k];
    d.work_by_kind_[k] = work_by_kind_[k] - earlier.work_by_kind_[k];
  }
  for (std::size_t l = 0; l < msgs_by_level_.size(); ++l) {
    d.msgs_by_level_[l] = msgs_by_level_[l] - earlier.msgs_by_level_[l];
    d.work_by_level_[l] = work_by_level_[l] - earlier.work_by_level_[l];
    for (std::size_t k = 0; k < kKinds; ++k) {
      d.msgs_by_level_kind_[l][k] =
          msgs_by_level_kind_[l][k] - earlier.msgs_by_level_kind_[l][k];
      d.work_by_level_kind_[l][k] =
          work_by_level_kind_[l][k] - earlier.work_by_level_kind_[l][k];
    }
  }
  d.duplicated_ = duplicated_ - earlier.duplicated_;
  d.jittered_ = jittered_ - earlier.jittered_;
  d.ingest_.ingested = ingest_.ingested - earlier.ingest_.ingested;
  d.ingest_.applied = ingest_.applied - earlier.ingest_.applied;
  d.ingest_.suppressed = ingest_.suppressed - earlier.ingest_.suppressed;
  d.ingest_.dropped = ingest_.dropped - earlier.ingest_.dropped;
  d.ingest_.wire_errors = ingest_.wire_errors - earlier.ingest_.wire_errors;
  for (std::size_t i = 0; i < 3; ++i) {
    d.ingest_.shed_tier_entries[i] =
        ingest_.shed_tier_entries[i] - earlier.ingest_.shed_tier_entries[i];
  }
  d.ingest_.rpc_finds_issued =
      ingest_.rpc_finds_issued - earlier.ingest_.rpc_finds_issued;
  d.ingest_.rpc_finds_done =
      ingest_.rpc_finds_done - earlier.ingest_.rpc_finds_done;
  d.ingest_.rpc_deadline_misses =
      ingest_.rpc_deadline_misses - earlier.ingest_.rpc_deadline_misses;
  d.ingest_.rpc_find_attempts =
      ingest_.rpc_find_attempts - earlier.ingest_.rpc_find_attempts;
  // The peak is a gauge, not a counter: a window's high-water mark is the
  // later instant's, never a difference. Likewise the retry-after hint is
  // a config constant, not a rate.
  d.ingest_.queue_depth_peak = ingest_.queue_depth_peak;
  d.ingest_.retry_after_us = ingest_.retry_after_us;
  return d;
}

void WorkCounters::to_json(std::ostream& os, int indent) const {
  const std::string pad(static_cast<std::size_t>(indent), ' ');
  const std::string in(static_cast<std::size_t>(indent) + 2, ' ');
  const std::string in2(static_cast<std::size_t>(indent) + 4, ' ');
  os << "{\n";
  os << in << "\"total\": {\"messages\": " << total_messages()
     << ", \"work\": " << total_work() << ", \"move_work\": " << move_work()
     << ", \"find_work\": " << find_work()
     << ", \"heartbeats\": " << heartbeats()
     << ", \"duplicated\": " << duplicated_
     << ", \"jittered\": " << jittered_ << "},\n";
  os << in << "\"by_kind\": {";
  bool first = true;
  for (std::size_t k = 0; k < kKinds; ++k) {
    if (msgs_by_kind_[k] == 0 && work_by_kind_[k] == 0) continue;
    if (!first) os << ",";
    first = false;
    os << "\n"
       << in2 << "\"" << to_string(static_cast<MsgKind>(k))
       << "\": {\"messages\": " << msgs_by_kind_[k]
       << ", \"work\": " << work_by_kind_[k] << "}";
  }
  os << (first ? "" : "\n" + in) << "},\n";
  os << in << "\"by_level\": [";
  for (std::size_t l = 0; l < msgs_by_level_.size(); ++l) {
    const auto level = static_cast<Level>(l);
    if (l != 0) os << ",";
    os << "\n"
       << in2 << "{\"level\": " << l << ", \"messages\": " << msgs_by_level_[l]
       << ", \"work\": " << work_by_level_[l]
       << ", \"move_messages\": " << move_messages_at_level(level)
       << ", \"move_work\": " << move_work_at_level(level)
       << ", \"find_messages\": " << find_messages_at_level(level)
       << ", \"find_work\": " << find_work_at_level(level) << "}";
  }
  os << "\n" << in << "]";
  if (ingest_.any()) {
    os << ",\n"
       << in << "\"ingest\": {\"ingested\": " << ingest_.ingested
       << ", \"applied\": " << ingest_.applied
       << ", \"suppressed\": " << ingest_.suppressed
       << ", \"dropped\": " << ingest_.dropped
       << ", \"wire_errors\": " << ingest_.wire_errors
       << ", \"shed_tier_entries\": [" << ingest_.shed_tier_entries[0] << ", "
       << ingest_.shed_tier_entries[1] << ", " << ingest_.shed_tier_entries[2]
       << "], \"queue_depth_peak\": " << ingest_.queue_depth_peak
       << ", \"rpc_finds_issued\": " << ingest_.rpc_finds_issued
       << ", \"rpc_finds_done\": " << ingest_.rpc_finds_done
       << ", \"rpc_deadline_misses\": " << ingest_.rpc_deadline_misses
       << ", \"rpc_find_attempts\": " << ingest_.rpc_find_attempts
       << ", \"retry_after_us\": " << ingest_.retry_after_us << "}";
  }
  os << "\n" << pad << "}";
}

void WorkCounters::accumulate(const WorkCounters& other) {
  VS_REQUIRE(max_level_ == other.max_level_, "mismatched counter shapes");
  for (std::size_t k = 0; k < kKinds; ++k) {
    msgs_by_kind_[k] += other.msgs_by_kind_[k];
    work_by_kind_[k] += other.work_by_kind_[k];
  }
  for (std::size_t l = 0; l < msgs_by_level_.size(); ++l) {
    msgs_by_level_[l] += other.msgs_by_level_[l];
    work_by_level_[l] += other.work_by_level_[l];
    for (std::size_t k = 0; k < kKinds; ++k) {
      msgs_by_level_kind_[l][k] += other.msgs_by_level_kind_[l][k];
      work_by_level_kind_[l][k] += other.work_by_level_kind_[l][k];
    }
  }
  duplicated_ += other.duplicated_;
  jittered_ += other.jittered_;
  ingest_.ingested += other.ingest_.ingested;
  ingest_.applied += other.ingest_.applied;
  ingest_.suppressed += other.ingest_.suppressed;
  ingest_.dropped += other.ingest_.dropped;
  ingest_.wire_errors += other.ingest_.wire_errors;
  for (std::size_t i = 0; i < 3; ++i) {
    ingest_.shed_tier_entries[i] += other.ingest_.shed_tier_entries[i];
  }
  ingest_.rpc_finds_issued += other.ingest_.rpc_finds_issued;
  ingest_.rpc_finds_done += other.ingest_.rpc_finds_done;
  ingest_.rpc_deadline_misses += other.ingest_.rpc_deadline_misses;
  ingest_.rpc_find_attempts += other.ingest_.rpc_find_attempts;
  ingest_.queue_depth_peak =
      std::max(ingest_.queue_depth_peak, other.ingest_.queue_depth_peak);
  ingest_.retry_after_us =
      std::max(ingest_.retry_after_us, other.ingest_.retry_after_us);
}

}  // namespace vs::stats
