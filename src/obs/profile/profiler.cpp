#include "obs/profile/profiler.hpp"

#include <algorithm>

#include "obs/ledger/ledger.hpp"
#include "sim/profile_probe.hpp"

namespace vs::obs {

std::string_view to_string(ProfDomain d) {
  switch (d) {
    case ProfDomain::kFire: return "fire";
    case ProfDomain::kQueue: return "queue";
    case ProfDomain::kDeliver: return "deliver";
    case ProfDomain::kTrackerGrow: return "tracker_grow";
    case ProfDomain::kTrackerShrink: return "tracker_shrink";
    case ProfDomain::kTrackerFind: return "tracker_find";
    case ProfDomain::kTrackerTimer: return "tracker_timer";
    case ProfDomain::kStabilizer: return "stabilizer";
    case ProfDomain::kFault: return "fault";
    case ProfDomain::kTelemetry: return "telemetry";
    case ProfDomain::kCount: break;
  }
  return "?";
}

std::vector<ProfDomain> prof_path_domains(ProfPath path) {
  std::vector<ProfDomain> out;
  for (int i = 0; i < kProfPathDepth; ++i) {
    const auto byte = static_cast<std::uint8_t>(path >> (8 * i));
    if (byte == 0) break;
    out.push_back(static_cast<ProfDomain>(byte - 1));
  }
  return out;
}

void ProfBuf::clear() {
  stack.clear();
  paths.clear();
  domain_self_ns.fill(0);
  msgs.fill(Cell{});
  ops.clear();
  root_ns = 0;
  scopes = 0;
}

void Profiler::enable() {
  if (!kProfileCompiled) return;
  main_.clear();
  snapshots_.clear();
  fires_since_snapshot_ = 0;
  wall_start_ns_ = now_ns();
  enabled_ = true;
}

void Profiler::disable() { enabled_ = false; }

std::uint64_t Profiler::end_scope(ProfBuf& b) {
  if (b.stack.empty()) return 0;
  const std::uint64_t t = now_ns();
  const ProfBuf::Frame f = b.stack.back();
  b.stack.pop_back();
  const std::uint64_t elapsed = t >= f.start_ns ? t - f.start_ns : 0;
  const std::uint64_t self = elapsed >= f.child_ns ? elapsed - f.child_ns : 0;
  auto& cell = b.paths[f.path];
  cell.ns += self;
  ++cell.count;
  b.domain_self_ns[static_cast<std::size_t>(f.domain)] += self;
  if (b.stack.empty()) {
    b.root_ns += elapsed;
  } else {
    b.stack.back().child_ns += elapsed;
  }
  ++b.scopes;
  return elapsed;
}

void Profiler::probe_thunk(void* ctx, int phase, std::int64_t t_us) {
  auto* self = static_cast<Profiler*>(ctx);
  ProfBuf& b = self->buf();
  switch (phase) {
    case sim::kProbeQueuePopBegin:
      begin_scope(b, ProfDomain::kQueue);
      break;
    case sim::kProbeFireBegin:
      begin_scope(b, ProfDomain::kFire);
      break;
    case sim::kProbeQueuePopEnd:
      end_scope(b);
      break;
    case sim::kProbeFireEnd:
      end_scope(b);
      if (++self->fires_since_snapshot_ >= kSnapshotEvery) {
        self->snapshot_now(t_us);
      }
      break;
    default:
      break;
  }
}

void Profiler::snapshot_now(std::int64_t t_us) {
  if (!enabled()) return;
  fires_since_snapshot_ = 0;
  // Collapse a run of snapshots at one virtual instant into the latest
  // one.
  if (!snapshots_.empty() && snapshots_.back().t_us == t_us) {
    snapshots_.back().domain_self_ns = main_.domain_self_ns;
    return;
  }
  ProfileSnapshotRow row;
  row.t_us = t_us;
  row.domain_self_ns = main_.domain_self_ns;
  snapshots_.push_back(row);
}

ProfileReport Profiler::report(std::int64_t total_work,
                               std::int64_t total_msgs,
                               const OpLedger* ledger) const {
  ProfileReport r;
  r.total_ns = main_.root_ns;
  r.wall_ns = wall_start_ns_ != 0 ? now_ns() - wall_start_ns_ : 0;
  r.scopes = main_.scopes;
  r.domain_self_ns = main_.domain_self_ns;
  r.paths.reserve(main_.paths.size());
  for (const auto& [path, cell] : main_.paths) {
    r.paths.push_back(ProfilePathStat{path, cell.ns, cell.count});
  }
  std::sort(r.paths.begin(), r.paths.end(),
            [](const ProfilePathStat& a, const ProfilePathStat& b) {
              return a.path < b.path;
            });
  for (std::size_t k = 0; k < kProfMsgKinds; ++k) {
    r.msgs[k].ns = main_.msgs[k].ns;
    r.msgs[k].count = main_.msgs[k].count;
  }
  r.ops.reserve(main_.ops.size());
  for (const auto& [op, cell] : main_.ops) {
    ProfileOpStat s;
    s.op = op;
    s.ns = cell.ns;
    s.count = cell.count;
    if (ledger != nullptr) {
      const auto it = ledger->ops().find(op);
      if (it != ledger->ops().end()) {
        s.work = it->second.work;
        s.msgs = it->second.msgs;
      }
    }
    r.ops.push_back(s);
  }
  std::sort(r.ops.begin(), r.ops.end(),
            [](const ProfileOpStat& a, const ProfileOpStat& b) {
              return a.op < b.op;
            });
  for (const ProfileOpStat& s : r.ops) {
    auto& c = r.classes[static_cast<std::size_t>(op_class(s.op))];
    c.ns += s.ns;
    c.count += s.count;
    c.work += s.work;
    c.msgs += s.msgs;
  }
  r.snapshots = snapshots_;
  r.total_work = total_work;
  r.total_msgs = total_msgs;
  return r;
}

}  // namespace vs::obs
