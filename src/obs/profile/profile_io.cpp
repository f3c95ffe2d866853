#include "obs/profile/profile_io.hpp"

#include <fstream>
#include <iomanip>
#include <ostream>

#include "common/codec.hpp"
#include "common/error.hpp"
#include "obs/telemetry/prometheus.hpp"

namespace vs::obs {

namespace {

constexpr std::string_view kMagic{"VSPROF1\0", 8};
constexpr std::string_view kEndMagic = "VSPRFEND";
/// Minimum on-wire sizes of the counted rows.
constexpr std::size_t kPathBytes = 3 * 8;
constexpr std::size_t kOpBytes = 4 + 4 * 8;
constexpr std::size_t kSnapshotBytes = 8 + kProfDomains * 8;

std::string domain_label(std::size_t d) {
  return std::string(to_string(static_cast<ProfDomain>(d)));
}

}  // namespace

void write_profile_file(const std::string& path,
                        const ProfileReport& report) {
  std::string buf;
  codec::Writer w(buf);
  w.bytes(kMagic);
  w.put(kProfileFormatVersion);
  w.put(static_cast<std::uint32_t>(kProfDomains));
  w.put(static_cast<std::uint32_t>(kProfMsgKinds));
  w.put(static_cast<std::uint32_t>(kProfOpClasses));
  w.put(report.total_ns);
  w.put(report.wall_ns);
  w.put(report.scopes);
  w.put(report.total_work);
  w.put(report.total_msgs);
  w.put(report.domain_self_ns);
  w.put(static_cast<std::uint32_t>(report.paths.size()));
  for (const ProfilePathStat& s : report.paths) {
    w.put(s.path);
    w.put(s.self_ns);
    w.put(s.count);
  }
  for (const ProfileMsgStat& m : report.msgs) {
    w.put(m.ns);
    w.put(m.count);
  }
  w.put(static_cast<std::uint32_t>(report.ops.size()));
  for (const ProfileOpStat& s : report.ops) {
    w.put(s.op);
    w.put(s.ns);
    w.put(s.count);
    w.put(s.work);
    w.put(s.msgs);
  }
  w.put(static_cast<std::uint32_t>(report.snapshots.size()));
  for (const ProfileSnapshotRow& row : report.snapshots) {
    w.put(row.t_us);
    w.put(row.domain_self_ns);
  }
  w.bytes(kEndMagic);

  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  VS_REQUIRE(os.good(), "cannot write profile sidecar " << path);
  os.write(buf.data(), static_cast<std::streamsize>(buf.size()));
  VS_REQUIRE(os.good(), "short write on profile sidecar " << path);
}

ProfileReport read_profile(std::string_view bytes) {
  codec::Reader r(bytes, "profile");
  r.magic(kMagic);
  r.version(kProfileFormatVersion);
  const auto domains = r.get<std::uint32_t>();
  const auto kinds = r.get<std::uint32_t>();
  const auto classes = r.get<std::uint32_t>();
  VS_REQUIRE(domains == kProfDomains && kinds == kProfMsgKinds &&
                 classes == kProfOpClasses,
             "profile sidecar was written by an incompatible build");
  ProfileReport rep;
  rep.total_ns = r.get<std::uint64_t>();
  rep.wall_ns = r.get<std::uint64_t>();
  rep.scopes = r.get<std::uint64_t>();
  rep.total_work = r.get<std::int64_t>();
  rep.total_msgs = r.get<std::int64_t>();
  rep.domain_self_ns = r.get<decltype(rep.domain_self_ns)>();
  rep.paths.resize(r.count(r.get<std::uint32_t>(), kPathBytes));
  for (ProfilePathStat& s : rep.paths) {
    s.path = r.get<ProfPath>();
    s.self_ns = r.get<std::uint64_t>();
    s.count = r.get<std::uint64_t>();
  }
  for (ProfileMsgStat& m : rep.msgs) {
    m.ns = r.get<std::uint64_t>();
    m.count = r.get<std::uint64_t>();
  }
  rep.ops.resize(r.count(r.get<std::uint32_t>(), kOpBytes));
  for (ProfileOpStat& s : rep.ops) {
    s.op = r.get<OpId>();
    s.ns = r.get<std::uint64_t>();
    s.count = r.get<std::uint64_t>();
    s.work = r.get<std::int64_t>();
    s.msgs = r.get<std::int64_t>();
    const auto cls = static_cast<std::size_t>(op_class(s.op));
    VS_REQUIRE(cls < kProfOpClasses,
               "profile op 0x" << std::hex << s.op << " has no op class");
    ProfileClassStat& c = rep.classes[cls];
    c.ns += s.ns;
    c.count += s.count;
    c.work = codec::wrapping_add(c.work, s.work);
    c.msgs = codec::wrapping_add(c.msgs, s.msgs);
  }
  rep.snapshots.resize(r.count(r.get<std::uint32_t>(), kSnapshotBytes));
  for (ProfileSnapshotRow& row : rep.snapshots) {
    row.t_us = r.get<std::int64_t>();
    row.domain_self_ns = r.get<decltype(row.domain_self_ns)>();
  }
  r.end(kEndMagic);
  return rep;
}

ProfileReport read_profile_file(const std::string& path) {
  return read_profile(codec::read_file(path));
}

void profile_to_json(std::ostream& os, const ProfileReport& r) {
  os << "{\n";
  os << "  \"format\": \"VSPROF1\",\n";
  os << "  \"total_ns\": " << r.total_ns << ",\n";
  os << "  \"wall_ns\": " << r.wall_ns << ",\n";
  os << "  \"scopes\": " << r.scopes << ",\n";
  os << "  \"total_work\": " << r.total_work << ",\n";
  os << "  \"total_msgs\": " << r.total_msgs << ",\n";
  os << "  \"ns_per_work\": " << std::fixed << std::setprecision(2)
     << r.ns_per_work() << ",\n";
  os << "  \"domains\": {";
  for (std::size_t d = 0; d < kProfDomains; ++d) {
    os << (d == 0 ? "" : ", ") << "\"" << domain_label(d)
       << "\": " << r.domain_self_ns[d];
  }
  os << "},\n";
  os << "  \"paths\": [";
  for (std::size_t i = 0; i < r.paths.size(); ++i) {
    const ProfilePathStat& s = r.paths[i];
    os << (i == 0 ? "\n" : ",\n") << "    {\"stack\": \"";
    const auto doms = prof_path_domains(s.path);
    for (std::size_t j = 0; j < doms.size(); ++j) {
      os << (j == 0 ? "" : ";") << to_string(doms[j]);
    }
    os << "\", \"self_ns\": " << s.self_ns << ", \"count\": " << s.count
       << "}";
  }
  os << (r.paths.empty() ? "" : "\n  ") << "],\n";
  os << "  \"msg_kinds\": {";
  bool first = true;
  for (std::size_t k = 0; k < kProfMsgKinds; ++k) {
    if (r.msgs[k].count == 0) continue;
    os << (first ? "" : ", ") << "\""
       << stats::to_string(static_cast<stats::MsgKind>(k))
       << "\": {\"ns\": " << r.msgs[k].ns << ", \"count\": " << r.msgs[k].count
       << "}";
    first = false;
  }
  os << "},\n";
  os << "  \"op_classes\": {";
  first = true;
  for (std::size_t c = 0; c < kProfOpClasses; ++c) {
    const ProfileClassStat& s = r.classes[c];
    if (s.count == 0) continue;
    os << (first ? "" : ", ") << "\""
       << op_class_name(static_cast<OpClass>(c)) << "\": {\"ns\": " << s.ns
       << ", \"count\": " << s.count << ", \"work\": " << s.work
       << ", \"msgs\": " << s.msgs << "}";
    first = false;
  }
  os << "},\n";
  os << "  \"ops\": [";
  for (std::size_t i = 0; i < r.ops.size(); ++i) {
    const ProfileOpStat& s = r.ops[i];
    os << (i == 0 ? "\n" : ",\n") << "    {\"op\": \"" << op_name(s.op)
       << "\", \"ns\": " << s.ns << ", \"count\": " << s.count
       << ", \"work\": " << s.work << ", \"msgs\": " << s.msgs << "}";
  }
  os << (r.ops.empty() ? "" : "\n  ") << "],\n";
  os << "  \"snapshots\": [";
  for (std::size_t i = 0; i < r.snapshots.size(); ++i) {
    const ProfileSnapshotRow& row = r.snapshots[i];
    os << (i == 0 ? "\n" : ",\n") << "    {\"t_us\": " << row.t_us;
    for (std::size_t d = 0; d < kProfDomains; ++d) {
      if (row.domain_self_ns[d] == 0) continue;
      os << ", \"" << domain_label(d) << "\": " << row.domain_self_ns[d];
    }
    os << "}";
  }
  os << (r.snapshots.empty() ? "" : "\n  ") << "]\n";
  os << "}\n";
  os.unsetf(std::ios::fixed);
}

void profile_to_folded(std::ostream& os, const ProfileReport& r) {
  for (const ProfilePathStat& s : r.paths) {
    if (s.count == 0) continue;
    const auto doms = prof_path_domains(s.path);
    for (std::size_t j = 0; j < doms.size(); ++j) {
      os << (j == 0 ? "" : ";") << to_string(doms[j]);
    }
    os << " " << s.self_ns << "\n";
  }
}

void profile_to_prometheus(std::ostream& os, const ProfileReport& r) {
  constexpr std::string_view prefix = kPrometheusPrefix;
  os << "# TYPE " << prefix << "_profile_self_ns gauge\n";
  for (std::size_t d = 0; d < kProfDomains; ++d) {
    os << prefix << "_profile_self_ns{domain=\"" << domain_label(d)
       << "\"} " << r.domain_self_ns[d] << "\n";
  }
  os << "# TYPE " << prefix << "_profile_total_ns gauge\n";
  os << prefix << "_profile_total_ns " << r.total_ns << "\n";
  os << "# TYPE " << prefix << "_profile_ns_per_work gauge\n";
  os << prefix << "_profile_ns_per_work " << std::fixed
     << std::setprecision(2) << r.ns_per_work() << "\n";
  os.unsetf(std::ios::fixed);
  os << "# TYPE " << prefix << "_profile_op_class_ns gauge\n";
  for (std::size_t c = 0; c < kProfOpClasses; ++c) {
    const ProfileClassStat& s = r.classes[c];
    if (s.count == 0) continue;
    std::string label(op_class_name(static_cast<OpClass>(c)));
    for (char& ch : label) {
      if (ch == '/') ch = '_';
    }
    os << prefix << "_profile_op_class_ns{class=\"" << label << "\"} "
       << s.ns << "\n";
  }
}

}  // namespace vs::obs
