#include "stats/counters.hpp"

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
      cells_(static_cast<std::size_t>(max_level) + 1) {
  VS_REQUIRE(max_level >= 0, "negative max level");
}

void WorkCounters::record(MsgKind kind, Level level, std::int64_t hops) {
  VS_REQUIRE(kind != MsgKind::kCount, "bad kind");
  VS_REQUIRE(level >= 0 && level <= max_level_, "level out of range");
  VS_REQUIRE(hops >= 0, "negative hop count");
  Cell& c = cells_[static_cast<std::size_t>(level)]
                  [static_cast<std::size_t>(kind)];
  ++c.msgs;
  c.work += hops;
}

template <class Pred>
std::int64_t WorkCounters::sum(std::int64_t Cell::*field, Level lo, Level hi,
                               Pred&& pred) const {
  VS_REQUIRE(lo >= 0 && hi <= max_level_, "level out of range");
  std::int64_t total = 0;
  // Kinds outermost: the predicate runs once per kind, not once per cell.
  for (std::size_t k = 0; k < kKinds; ++k) {
    if (!pred(static_cast<MsgKind>(k))) continue;
    for (Level l = lo; l <= hi; ++l) {
      total += cells_[static_cast<std::size_t>(l)][k].*field;
    }
  }
  return total;
}

namespace {

bool any_kind(MsgKind /*kind*/) { return true; }

bool is_find_kind(MsgKind kind) {
  return !is_move_kind(kind) && !is_heartbeat_kind(kind) &&
         kind != MsgKind::kClient;
}

}  // namespace

std::int64_t WorkCounters::messages(MsgKind kind) const {
  return sum(&Cell::msgs, 0, max_level_,
             [kind](MsgKind k) { return k == kind; });
}
std::int64_t WorkCounters::work(MsgKind kind) const {
  return sum(&Cell::work, 0, max_level_,
             [kind](MsgKind k) { return k == kind; });
}
std::int64_t WorkCounters::messages_at_level(Level level) const {
  return sum(&Cell::msgs, level, level, any_kind);
}
std::int64_t WorkCounters::work_at_level(Level level) const {
  return sum(&Cell::work, level, level, any_kind);
}
std::int64_t WorkCounters::move_messages_at_level(Level level) const {
  return sum(&Cell::msgs, level, level, is_move_kind);
}
std::int64_t WorkCounters::move_work_at_level(Level level) const {
  return sum(&Cell::work, level, level, is_move_kind);
}
std::int64_t WorkCounters::find_messages_at_level(Level level) const {
  return sum(&Cell::msgs, level, level, is_find_kind);
}
std::int64_t WorkCounters::find_work_at_level(Level level) const {
  return sum(&Cell::work, level, level, is_find_kind);
}

std::int64_t WorkCounters::total_messages() const {
  return sum(&Cell::msgs, 0, max_level_, any_kind);
}
std::int64_t WorkCounters::total_work() const {
  return sum(&Cell::work, 0, max_level_, any_kind);
}
std::int64_t WorkCounters::move_work() const {
  return sum(&Cell::work, 0, max_level_, is_move_kind);
}
std::int64_t WorkCounters::find_work() const {
  return sum(&Cell::work, 0, max_level_, is_find_kind);
}
std::int64_t WorkCounters::move_messages() const {
  return sum(&Cell::msgs, 0, max_level_, is_move_kind);
}
std::int64_t WorkCounters::find_messages() const {
  return sum(&Cell::msgs, 0, max_level_, is_find_kind);
}
std::int64_t WorkCounters::heartbeats() const {
  return sum(&Cell::msgs, 0, max_level_, is_heartbeat_kind);
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
    const auto kind = static_cast<MsgKind>(k);
    const std::int64_t msgs = messages(kind);
    const std::int64_t w = work(kind);
    if (msgs == 0 && w == 0) continue;
    if (!first) os << ",";
    first = false;
    os << "\n"
       << in2 << "\"" << to_string(kind) << "\": {\"messages\": " << msgs
       << ", \"work\": " << w << "}";
  }
  os << (first ? "" : "\n" + in) << "},\n";
  os << in << "\"by_level\": [";
  for (Level l = 0; l <= max_level_; ++l) {
    if (l != 0) os << ",";
    os << "\n"
       << in2 << "{\"level\": " << l
       << ", \"messages\": " << messages_at_level(l)
       << ", \"work\": " << work_at_level(l)
       << ", \"move_messages\": " << move_messages_at_level(l)
       << ", \"move_work\": " << move_work_at_level(l)
       << ", \"find_messages\": " << find_messages_at_level(l)
       << ", \"find_work\": " << find_work_at_level(l) << "}";
  }
  os << "\n" << in << "]";
  os << "\n" << pad << "}";
}

}  // namespace vs::stats
