#include "obs/ledger/ledger.hpp"

#include <sstream>

namespace vs::obs {

namespace {

void emit_levels(std::ostream& os, const OpCost& c) {
  os << "[";
  bool first = true;
  for (std::size_t l = 0; l < c.msgs_by_level.size(); ++l) {
    if (c.msgs_by_level[l] == 0 && c.work_by_level[l] == 0) continue;
    if (!first) os << ",";
    first = false;
    os << "{\"level\":" << l << ",\"msgs\":" << c.msgs_by_level[l]
       << ",\"work\":" << c.work_by_level[l] << "}";
  }
  os << "]";
}

}  // namespace

std::int64_t OpLedger::total_msgs() const {
  std::int64_t sum = 0;
  for (const OpCost& c : classes_) sum += c.msgs;
  return sum;
}

std::int64_t OpLedger::total_work() const {
  std::int64_t sum = 0;
  for (const OpCost& c : classes_) sum += c.work;
  return sum;
}

void OpLedger::clear() {
  ops_.clear();
  moves_.clear();
  finds_.clear();
  classes_.fill(OpCost{});
}

std::string OpLedger::to_json() const {
  std::ostringstream os;
  os << "{\"ops\":[";
  bool first = true;
  for (const auto& [op, c] : ops_) {
    if (!first) os << ",";
    first = false;
    os << "{\"op\":" << op << ",\"name\":\"" << op_name(op)
       << "\",\"msgs\":" << c.msgs << ",\"work\":" << c.work
       << ",\"first_us\":" << c.first_us << ",\"last_us\":" << c.last_us
       << ",\"by_level\":";
    emit_levels(os, c);
    os << "}";
  }
  os << "],\"classes\":[";
  static constexpr OpClass kClasses[] = {
      OpClass::kBackground, OpClass::kMove,      OpClass::kFindSearch,
      OpClass::kFindTrace,  OpClass::kHeartbeat, OpClass::kRepair};
  first = true;
  for (const OpClass cls : kClasses) {
    const OpCost& acc = class_total(cls);
    if (acc.msgs == 0 && acc.work == 0) continue;
    if (!first) os << ",";
    first = false;
    os << "{\"class\":\"" << op_class_name(cls) << "\",\"msgs\":" << acc.msgs
       << ",\"work\":" << acc.work << ",\"by_level\":";
    emit_levels(os, acc);
    os << "}";
  }
  os << "],\"moves\":[";
  first = true;
  for (const auto& [i, m] : moves_) {
    if (!first) os << ",";
    first = false;
    os << "{\"move\":" << i << ",\"distance\":" << m.distance
       << ",\"issued_us\":" << m.issued_us << "}";
  }
  os << "],\"finds\":[";
  first = true;
  for (const auto& [i, f] : finds_) {
    if (!first) os << ",";
    first = false;
    os << "{\"find\":" << i << ",\"issued_us\":" << f.issued_us
       << ",\"completed_us\":" << f.completed_us
       << ",\"distance\":" << f.distance << "}";
  }
  os << "]}";
  return os.str();
}

}  // namespace vs::obs
