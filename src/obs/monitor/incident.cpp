#include "obs/monitor/incident.hpp"

#include <fstream>
#include <ostream>

#include "common/codec.hpp"
#include "common/error.hpp"
#include "obs/op.hpp"
#include "obs/trace_io.hpp"
#include "obs/trace_query.hpp"

namespace vs::obs {

namespace {

constexpr std::string_view kMagic = "VSINCID1";
constexpr std::string_view kEndMagic = "VSINCEND";
/// Minimum on-wire sizes of the counted records.
constexpr std::size_t kCorruptionBytes = 5 * 4;
constexpr std::size_t kExemplarBytes = 1 + 4 + 3 * 8;

}  // namespace

const char* to_string(WatchMode mode) {
  switch (mode) {
    case WatchMode::kOff: return "off";
    case WatchMode::kCadence: return "cadence";
    case WatchMode::kEveryChange: return "every-change";
  }
  return "?";
}

void write_incident(std::ostream& os, const IncidentBundle& b) {
  std::string buf;
  codec::Writer w(buf);
  w.bytes(kMagic);
  w.put(kIncidentFormatVersion);
  w.str(b.source);
  w.put(b.target);
  w.str(b.violation.predicate);
  w.str(b.violation.detail);
  w.put(b.violation.time_us);
  w.put(b.violation.cluster);
  w.put(b.violation.level);
  w.put(static_cast<std::uint8_t>(b.mode));
  w.put(b.cadence_us);
  w.put(b.ring_capacity);
  const ScenarioSpec& s = b.scenario;
  w.put(s.side);
  w.put(s.base);
  w.put<std::uint8_t>(s.lateral_links ? 1 : 0);
  w.put<std::uint8_t>(s.model_vsa_failures ? 1 : 0);
  w.put<std::uint8_t>(s.replayable_flag ? 1 : 0);
  w.put(s.clients_per_region);
  w.put(s.start_region);
  w.put(s.seed);
  w.put(s.steps);
  w.put(static_cast<std::uint32_t>(s.corruptions.size()));
  for (const auto& c : s.corruptions) {
    w.put(c.cluster);
    w.put(c.c);
    w.put(c.p);
    w.put(c.nbrptup);
    w.put(c.nbrptdown);
  }
  w.str(s.fault_plan);
  w.put(s.step_every_us);
  w.put(s.settle_us);
  w.put(s.heartbeat_period_us);
  w.put(s.t_restart_us);
  w.put(s.timer_scale);
  w.put<std::uint8_t>(b.audit ? 1 : 0);
  w.put(b.audit_slack);
  w.put(b.audit_window_us);
  w.str(s.slo_spec);
  w.str(b.slo_state_json);
  w.put(static_cast<std::uint32_t>(b.slo_exemplars.size()));
  for (const SloExemplar& e : b.slo_exemplars) {
    w.put(e.cls);
    w.put(e.op);
    w.put(e.t_us);
    w.put(e.latency_ns);
    w.put(e.distance);
  }
  w.str(b.config_json);
  w.str(b.metrics_json);
  w.put(static_cast<std::uint64_t>(b.ring.size()));
  w.records(b.ring);
  w.bytes(kEndMagic);
  os.write(buf.data(), static_cast<std::streamsize>(buf.size()));
}

void write_incident_file(const std::string& path, const IncidentBundle& b) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  VS_REQUIRE(os.good(), "cannot open incident file for writing: " << path);
  write_incident(os, b);
  VS_REQUIRE(os.good(), "write failed for incident file: " << path);
}

IncidentBundle read_incident(std::string_view bytes) {
  codec::Reader r(bytes, "incident");
  r.magic(kMagic);
  r.version(kIncidentFormatVersion);
  IncidentBundle b;
  b.source = r.str();
  b.target = r.get<std::int32_t>();
  b.violation.predicate = r.str();
  b.violation.detail = r.str();
  b.violation.time_us = r.get<std::int64_t>();
  b.violation.cluster = r.get<std::int32_t>();
  b.violation.level = r.get<std::int32_t>();
  b.mode = static_cast<WatchMode>(r.get<std::uint8_t>());
  b.cadence_us = r.get<std::int64_t>();
  b.ring_capacity = r.get<std::uint64_t>();
  ScenarioSpec& s = b.scenario;
  s.side = r.get<std::int32_t>();
  s.base = r.get<std::int32_t>();
  s.lateral_links = r.get<std::uint8_t>() != 0;
  s.model_vsa_failures = r.get<std::uint8_t>() != 0;
  s.replayable_flag = r.get<std::uint8_t>() != 0;
  s.clients_per_region = r.get<std::int32_t>();
  s.start_region = r.get<std::int32_t>();
  s.seed = r.get<std::uint64_t>();
  s.steps = r.get<std::int32_t>();
  s.corruptions.resize(r.count(r.get<std::uint32_t>(), kCorruptionBytes));
  for (auto& c : s.corruptions) {
    c.cluster = r.get<std::int32_t>();
    c.c = r.get<std::int32_t>();
    c.p = r.get<std::int32_t>();
    c.nbrptup = r.get<std::int32_t>();
    c.nbrptdown = r.get<std::int32_t>();
  }
  s.fault_plan = r.str();
  s.step_every_us = r.get<std::int64_t>();
  s.settle_us = r.get<std::int64_t>();
  s.heartbeat_period_us = r.get<std::int64_t>();
  s.t_restart_us = r.get<std::int64_t>();
  s.timer_scale = r.get<double>();
  b.audit = r.get<std::uint8_t>() != 0;
  b.audit_slack = r.get<double>();
  b.audit_window_us = r.get<std::int64_t>();
  s.slo_spec = r.str();
  b.slo_state_json = r.str();
  b.slo_exemplars.resize(r.count(r.get<std::uint32_t>(), kExemplarBytes));
  for (SloExemplar& e : b.slo_exemplars) {
    e.cls = r.get<std::uint8_t>();
    e.op = r.get<std::uint32_t>();
    e.t_us = r.get<std::int64_t>();
    e.latency_ns = r.get<std::int64_t>();
    e.distance = r.get<std::int64_t>();
  }
  b.config_json = r.str();
  b.metrics_json = r.str();
  b.ring = r.records<TraceEvent>(r.get<std::uint64_t>());
  check_trace_records(b.ring);
  r.end(kEndMagic);
  return b;
}

IncidentBundle read_incident_file(const std::string& path) {
  return read_incident(codec::read_file(path));
}

void print_incident(std::ostream& os, const IncidentBundle& b,
                    std::size_t ring_tail) {
  os << "incident: " << b.violation.predicate << "\n"
     << "  source       " << b.source << "\n"
     << "  target       " << b.target << "\n"
     << "  at           " << b.violation.time_us << "us\n";
  if (b.violation.cluster >= 0) {
    os << "  cluster      " << b.violation.cluster << " (level "
       << b.violation.level << ")\n";
  }
  os << "  watch mode   " << to_string(b.mode);
  if (b.mode == WatchMode::kCadence) os << " every " << b.cadence_us << "us";
  os << "\n  detail:\n";
  // Indent the (possibly multi-line) diagnostic.
  std::size_t pos = 0;
  while (pos < b.violation.detail.size()) {
    auto nl = b.violation.detail.find('\n', pos);
    if (nl == std::string::npos) nl = b.violation.detail.size();
    os << "    " << b.violation.detail.substr(pos, nl - pos) << "\n";
    pos = nl + 1;
  }
  const ScenarioSpec& s = b.scenario;
  os << "  scenario     ";
  if (s.side > 0) {
    os << s.side << "x" << s.side << " base " << s.base
       << (s.lateral_links ? "" : " no-lateral")
       << (s.model_vsa_failures ? " vsa-failures" : "") << ", start region "
       << s.start_region << ", " << s.steps << " walk steps (seed " << s.seed
       << "), " << s.corruptions.size() << " corruption(s)";
  } else {
    os << "(unknown world)";
  }
  os << (s.replayable() ? " [replayable]" : " [not replayable]") << "\n";
  if (s.step_every_us > 0 || s.settle_us > 0 || s.heartbeat_period_us > 0) {
    os << "    pacing: step " << s.step_every_us << "us, settle "
       << s.settle_us << "us, heartbeat period " << s.heartbeat_period_us
       << "us";
    if (s.t_restart_us > 0) os << ", t_restart " << s.t_restart_us << "us";
    os << "\n";
  }
  if (s.timer_scale != 1.0) {
    os << "    timer scale: " << s.timer_scale << "x paper-default\n";
  }
  if (b.audit) {
    os << "    auditor: on (slack " << b.audit_slack << "x";
    if (b.audit_window_us > 0) {
      os << ", sliding window " << b.audit_window_us << "us";
    }
    os << ")\n";
  }
  if (!s.fault_plan.empty()) {
    os << "    fault plan:\n";
    std::size_t fp = 0;
    while (fp < s.fault_plan.size()) {
      auto nl = s.fault_plan.find('\n', fp);
      if (nl == std::string::npos) nl = s.fault_plan.size();
      os << "      " << s.fault_plan.substr(fp, nl - fp) << "\n";
      fp = nl + 1;
    }
  }
  for (const auto& c : s.corruptions) {
    os << "    corrupt cluster " << c.cluster << ": c=" << c.c
       << " p=" << c.p << " nbrptup=" << c.nbrptup
       << " nbrptdown=" << c.nbrptdown << "\n";
  }
  if (!s.slo_spec.empty()) {
    os << "  slo spec:\n";
    std::size_t sp = 0;
    while (sp < s.slo_spec.size()) {
      auto nl = s.slo_spec.find('\n', sp);
      if (nl == std::string::npos) nl = s.slo_spec.size();
      os << "    " << s.slo_spec.substr(sp, nl - sp) << "\n";
      sp = nl + 1;
    }
  }
  if (!b.slo_state_json.empty()) {
    os << "  slo windows  " << b.slo_state_json << "\n";
  }
  if (!b.slo_exemplars.empty()) {
    os << "  slo exemplars (slowest first):\n";
    for (const SloExemplar& e : b.slo_exemplars) {
      os << "    t=" << e.t_us << "us " << e.latency_ns << "ns";
      if (e.op != 0) {
        os << " " << op_name(e.op) << " d=" << e.distance;
      }
      os << "\n";
    }
  }
  if (!b.config_json.empty()) os << "  config       " << b.config_json << "\n";
  os << "  flight recorder: " << b.ring.size() << " event(s) (capacity "
     << b.ring_capacity << ")\n";
  const std::size_t start =
      b.ring.size() > ring_tail ? b.ring.size() - ring_tail : 0;
  if (start > 0) os << "    ... " << start << " earlier event(s)\n";
  for (std::size_t i = start; i < b.ring.size(); ++i) {
    os << "    " << format_event(b.ring[i]) << "\n";
  }
}

}  // namespace vs::obs
