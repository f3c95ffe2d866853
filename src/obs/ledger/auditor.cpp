#include "obs/ledger/auditor.hpp"

#include <algorithm>
#include <iomanip>
#include <limits>
#include <map>
#include <ostream>
#include <sstream>

#include "spec/bounds.hpp"

namespace vs::obs {

namespace {

double ratio_of(double measured, double bound) {
  return bound > 0.0 ? measured / bound : 0.0;
}

}  // namespace

BoundAuditor::BoundAuditor(const hier::ClusterHierarchy& hierarchy,
                           AuditConfig config)
    : hier_(&hierarchy),
      cfg_(std::move(config)),
      move_work_per_step_(spec::move_work_bound_per_step(hierarchy)),
      move_time_per_step_us_(spec::move_time_bound_per_step(
          hierarchy, cfg_.timers, cfg_.delta_plus_e)),
      // The theorem's sum covers search + trace; delivery adds an O(1)
      // term it omits: the client injection hop and the found broadcast
      // to the ω(0) neighbouring regions (same allowance as test_bounds).
      find_delivery_(2.0 + 2.0 * static_cast<double>(hierarchy.omega(0))) {}

AuditReport BoundAuditor::audit(const OpLedger& ledger) const {
  return audit_window(ledger, std::numeric_limits<std::int64_t>::max(),
                      sim::Duration::zero());
}

AuditReport BoundAuditor::audit_window(const OpLedger& ledger,
                                       std::int64_t now_us,
                                       sim::Duration window) const {
  // Half-open trailing window (lo, hi]; the degenerate window covers the
  // whole ledger and reproduces the legacy audit() exactly.
  const bool windowed = window > sim::Duration::zero();
  const std::int64_t lo =
      windowed ? now_us - window.count()
               : std::numeric_limits<std::int64_t>::min();
  const std::int64_t hi =
      windowed ? now_us : std::numeric_limits<std::int64_t>::max();
  AuditReport r;
  r.total_msgs = ledger.total_msgs();
  r.total_work = ledger.total_work();
  const OpCost& bg = ledger.class_total(OpClass::kBackground);
  r.background_msgs = bg.msgs;
  r.background_work = bg.work;

  // --- Theorem 4.9: amortise over every positive-distance move op. ---
  r.move.work_bound_per_step = move_work_per_step_;
  r.move.time_bound_per_step_us = move_time_per_step_us_;
  for (const auto& [index, meta] : ledger.moves()) {
    if (meta.distance <= 0) continue;  // placement: attributed, not judged
    if (meta.issued_us <= lo || meta.issued_us > hi) continue;
    ++r.move.steps;
    r.move.distance += meta.distance;
    const auto it = ledger.ops().find(make_op(OpClass::kMove, index));
    if (it == ledger.ops().end()) continue;  // move reached a stable path
    r.move.msgs += it->second.msgs;
    r.move.work += it->second.work;
    if (it->second.first_us >= 0) {
      r.move.busy_us += it->second.last_us - it->second.first_us;
    }
  }
  if (r.move.distance > 0) {
    const double d = static_cast<double>(r.move.distance);
    const double work_per = static_cast<double>(r.move.work) / d;
    const double time_per = static_cast<double>(r.move.busy_us) / d;
    r.move.work_ratio = ratio_of(work_per, move_work_per_step_);
    r.move.time_ratio = ratio_of(time_per, move_time_per_step_us_);
    if (work_per > cfg_.slack * move_work_per_step_) {
      std::ostringstream os;
      os << "amortised move work " << work_per << "/step over " << r.move.steps
         << " steps (distance " << r.move.distance << ") exceeds "
         << cfg_.slack << " x Theorem 4.9 bound " << move_work_per_step_;
      r.violations.push_back({"theorem-4.9-move-work", os.str(), -1, work_per,
                              move_work_per_step_, r.move.work_ratio});
    }
    if (time_per > cfg_.slack * move_time_per_step_us_) {
      std::ostringstream os;
      os << "amortised move time " << time_per << "us/step over "
         << r.move.steps << " steps (distance " << r.move.distance
         << ") exceeds " << cfg_.slack << " x Theorem 4.9 bound "
         << move_time_per_step_us_ << "us";
      r.violations.push_back({"theorem-4.9-move-time", os.str(), -1, time_per,
                              move_time_per_step_us_, r.move.time_ratio});
    }
  }

  // --- Theorem 5.2: judge each completed find at its measured d. ---
  for (const auto& [index, meta] : ledger.finds()) {
    if (windowed &&
        (meta.completed_us < 0 || meta.completed_us <= lo ||
         meta.completed_us > hi)) {
      continue;
    }
    FindAudit f;
    f.find = index;
    f.distance = meta.distance;
    for (const OpClass phase : {OpClass::kFindSearch, OpClass::kFindTrace}) {
      const auto it = ledger.ops().find(make_op(phase, index));
      if (it == ledger.ops().end()) continue;
      f.msgs += it->second.msgs;
      f.work += it->second.work;
    }
    if (meta.completed_us >= 0) {
      f.latency_us = meta.completed_us - meta.issued_us;
      const int d = static_cast<int>(std::max<std::int64_t>(f.distance, 0));
      f.work_bound = spec::find_work_bound(*hier_, d) + find_delivery_;
      f.time_bound_us =
          spec::find_time_bound(*hier_, d, cfg_.delta_plus_e);
      f.work_ratio = ratio_of(static_cast<double>(f.work), f.work_bound);
      f.time_ratio =
          ratio_of(static_cast<double>(f.latency_us), f.time_bound_us);
      if (static_cast<double>(f.work) > cfg_.slack * f.work_bound) {
        std::ostringstream os;
        os << "find#" << index << " (d=" << d << ") work " << f.work
           << " exceeds " << cfg_.slack << " x Theorem 5.2 bound "
           << f.work_bound;
        r.violations.push_back({"theorem-5.2-find-work", os.str(), index,
                                static_cast<double>(f.work), f.work_bound,
                                f.work_ratio});
      }
      if (f.time_bound_us > 0.0 &&
          static_cast<double>(f.latency_us) > cfg_.slack * f.time_bound_us) {
        std::ostringstream os;
        os << "find#" << index << " (d=" << d << ") latency " << f.latency_us
           << "us exceeds " << cfg_.slack << " x Theorem 5.2 bound "
           << f.time_bound_us << "us";
        r.violations.push_back({"theorem-5.2-find-time", os.str(), index,
                                static_cast<double>(f.latency_us),
                                f.time_bound_us, f.time_ratio});
      }
    }
    r.finds.push_back(f);
  }
  return r;
}

std::string AuditReport::to_json() const {
  std::ostringstream os;
  os << "{\"total_msgs\":" << total_msgs << ",\"total_work\":" << total_work
     << ",\"background_msgs\":" << background_msgs
     << ",\"background_work\":" << background_work
     << ",\"attributed_fraction\":" << attributed_fraction() << ",\"move\":{"
     << "\"steps\":" << move.steps << ",\"distance\":" << move.distance
     << ",\"msgs\":" << move.msgs << ",\"work\":" << move.work
     << ",\"busy_us\":" << move.busy_us
     << ",\"work_bound_per_step\":" << move.work_bound_per_step
     << ",\"time_bound_per_step_us\":" << move.time_bound_per_step_us
     << ",\"work_ratio\":" << move.work_ratio
     << ",\"time_ratio\":" << move.time_ratio << "},\"finds\":[";
  bool first = true;
  for (const FindAudit& f : finds) {
    if (!first) os << ",";
    first = false;
    os << "{\"find\":" << f.find << ",\"distance\":" << f.distance
       << ",\"msgs\":" << f.msgs << ",\"work\":" << f.work
       << ",\"latency_us\":" << f.latency_us
       << ",\"work_bound\":" << f.work_bound
       << ",\"time_bound_us\":" << f.time_bound_us
       << ",\"work_ratio\":" << f.work_ratio
       << ",\"time_ratio\":" << f.time_ratio << "}";
  }
  os << "],\"violations\":[";
  first = true;
  for (const AuditViolation& v : violations) {
    if (!first) os << ",";
    first = false;
    os << "{\"predicate\":\"" << v.predicate << "\",\"index\":" << v.index
       << ",\"measured\":" << v.measured << ",\"bound\":" << v.bound
       << ",\"ratio\":" << v.ratio << "}";
  }
  os << "]}";
  return os.str();
}

TraceAttribution attribute_trace(const WorldTrace& world) {
  TraceAttribution out;
  out.ledger.set_enabled(true);
  // Causal context: scheduler event seq → the op last resolved there. Any
  // event fired by seq S inherits S's op when its own stamp is empty, and
  // events scheduled *by* S (cause = S) inherit transitively.
  std::map<std::uint64_t, OpId> ctx;
  // Issue-time distance per find (kFindIssued.arg), applied at completion
  // exactly like the live complete_find call.
  std::map<std::int64_t, std::int64_t> find_distance;
  for (const TraceEvent& e : world.events) {
    OpId op = e.op;
    bool causal = false;
    if (op == kBackgroundOp && e.seq != 0) {
      if (const auto it = ctx.find(e.seq); it != ctx.end()) {
        op = it->second;
        causal = true;
      }
    }
    if (op == kBackgroundOp && e.cause != 0) {
      if (const auto it = ctx.find(e.cause); it != ctx.end()) {
        op = it->second;
        causal = true;
      }
    }
    if (op != kBackgroundOp && e.seq != 0) ctx.try_emplace(e.seq, op);

    const auto kind = static_cast<TraceKind>(e.kind);
    switch (kind) {
      case TraceKind::kSend:
      case TraceKind::kClientSend:
      case TraceKind::kBroadcast:
        // The cost events — mirror the live observer exactly: kSend
        // charges (level, hops=arg); client/broadcast charge (0, 1).
        out.ledger.note_send(op, e.level, e.arg, e.time_us);
        ++out.cost_events;
        if (e.op != kBackgroundOp) {
          ++out.direct;
        } else if (causal) {
          ++out.via_cause;
        } else {
          ++out.background;
        }
        break;
      case TraceKind::kMoveIssued:
        out.ledger.begin_move(op_index(e.op), e.arg, e.time_us);
        break;
      case TraceKind::kFindIssued:
        if (e.find >= 0) {
          find_distance[e.find] = e.arg;
          out.ledger.begin_find(static_cast<std::uint32_t>(e.find),
                                e.time_us);
        }
        break;
      case TraceKind::kFoundOutput:
        if (e.find >= 0) {
          const auto it = find_distance.find(e.find);
          out.ledger.complete_find(
              static_cast<std::uint32_t>(e.find),
              it != find_distance.end() ? it->second : -1, e.time_us);
        }
        break;
      default:
        break;
    }
  }
  return out;
}

void print_audit(std::ostream& os, const TraceAttribution& attribution,
                 const AuditReport& report) {
  const auto flags = os.flags();
  os << std::fixed << std::setprecision(3);
  os << "attribution:\n"
     << "  cost events   " << attribution.cost_events << "\n"
     << "  direct        " << attribution.direct << "\n"
     << "  via cause     " << attribution.via_cause << "\n"
     << "  background    " << attribution.background << "\n"
     << "  attributed    " << 100.0 * report.attributed_fraction() << "%\n";
  const std::int64_t assigned =
      attribution.direct + attribution.via_cause + attribution.background;
  os << "conservation:   "
     << (assigned == attribution.cost_events &&
                 attribution.cost_events == report.total_msgs
             ? "OK"
             : "VIOLATED")
     << " (" << report.total_msgs << " msgs, " << report.total_work
     << " work)\n";
  os << "per-class cost:\n";
  for (const OpClass cls :
       {OpClass::kBackground, OpClass::kMove, OpClass::kFindSearch,
        OpClass::kFindTrace, OpClass::kHeartbeat, OpClass::kRepair}) {
    const OpCost& c = attribution.ledger.class_total(cls);
    if (c.msgs == 0 && c.work == 0) continue;
    os << "  " << std::left << std::setw(12) << op_class_name(cls)
       << std::right << std::setw(8) << c.msgs << " msgs" << std::setw(10)
       << c.work << " work  levels[";
    for (std::size_t l = 0; l < c.msgs_by_level.size(); ++l) {
      if (l != 0) os << " ";
      os << c.msgs_by_level[l];
    }
    os << "]\n";
  }
  if (report.move.distance > 0) {
    os << "moves (Theorem 4.9, amortised over " << report.move.steps
       << " steps, distance " << report.move.distance << "):\n"
       << "  work/step  " << static_cast<double>(report.move.work) /
                                 static_cast<double>(report.move.distance)
       << " vs bound " << report.move.work_bound_per_step << "  (ratio "
       << report.move.work_ratio << ")\n"
       << "  time/step  " << static_cast<double>(report.move.busy_us) /
                                 static_cast<double>(report.move.distance)
       << "us vs bound " << report.move.time_bound_per_step_us
       << "us  (ratio " << report.move.time_ratio << ")\n";
  }
  if (!report.finds.empty()) {
    // Worst offenders first (by max of the two ratios), capped at 10.
    std::vector<FindAudit> sorted = report.finds;
    std::sort(sorted.begin(), sorted.end(),
              [](const FindAudit& a, const FindAudit& b) {
                const double ra = std::max(a.work_ratio, a.time_ratio);
                const double rb = std::max(b.work_ratio, b.time_ratio);
                if (ra != rb) return ra > rb;
                return a.find < b.find;
              });
    os << "finds (Theorem 5.2, worst offenders):\n";
    std::size_t shown = 0;
    for (const FindAudit& f : sorted) {
      if (shown++ == 10) break;
      os << "  find#" << f.find << " d=" << f.distance << " work " << f.work
         << "/" << f.work_bound << " (ratio " << f.work_ratio << ")";
      if (f.latency_us >= 0) {
        os << " latency " << f.latency_us << "us/" << f.time_bound_us
           << "us (ratio " << f.time_ratio << ")";
      } else {
        os << " [incomplete]";
      }
      os << "\n";
    }
  }
  if (report.violations.empty()) {
    os << "bounds: all operations within slack\n";
  } else {
    os << "bounds: " << report.violations.size() << " violation(s)\n";
    for (const AuditViolation& v : report.violations) {
      os << "  " << v.predicate << ": " << v.detail << "\n";
    }
  }
  os.flags(flags);
}

}  // namespace vs::obs
