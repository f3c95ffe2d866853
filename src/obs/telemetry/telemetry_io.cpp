#include "obs/telemetry/telemetry_io.hpp"

#include <ostream>

#include "common/codec.hpp"
#include "common/error.hpp"
#include "obs/op.hpp"

namespace vs::obs {

namespace {

constexpr std::string_view kMagic = "VSTELEM1";
constexpr std::string_view kEndMagic = "VSTELEND";
constexpr std::uint8_t kSampleMarker = 0xA5;
constexpr std::uint8_t kTrailerMarker = 0x5A;

}  // namespace

std::vector<std::string> telemetry_series_names(
    const TelemetryHeader& header) {
  std::vector<std::string> names = {
      "events_fired",    "msgs_total",      "work_total",
      "move_msgs",       "move_work",       "find_msgs",
      "find_work",       "heartbeats",      "duplicated",
      "jittered",        "finds_issued",    "finds_completed",
      "find_latency_p50_us", "find_latency_p90_us", "find_latency_p99_us",
      "trace_events",
  };
  for (std::uint32_t c = 0; c < 6; ++c) {
    const char* cls = op_class_name(static_cast<OpClass>(c));
    std::string base = cls;
    for (char& ch : base) {
      if (ch == '/') ch = '_';
    }
    names.push_back("ledger_" + base + "_msgs");
    names.push_back("ledger_" + base + "_work");
  }
  names.push_back("audit_move_work_ratio_milli");
  names.push_back("audit_move_time_ratio_milli");
  names.push_back("audit_find_work_ratio_milli");
  names.push_back("audit_find_time_ratio_milli");
  names.emplace_back("ingest_ingested");
  names.emplace_back("ingest_applied");
  names.emplace_back("ingest_suppressed");
  names.emplace_back("ingest_dropped");
  names.emplace_back("ingest_shed_tier1_entries");
  names.emplace_back("ingest_shed_tier2_entries");
  names.emplace_back("ingest_shed_tier3_entries");
  names.emplace_back("ingest_queue_depth_peak");
  names.emplace_back("ingest_wire_errors");
  names.emplace_back("ingest_retry_after_us");
  names.emplace_back("ingest_rpc_finds_issued");
  names.emplace_back("ingest_rpc_finds_done");
  names.emplace_back("ingest_rpc_deadline_misses");
  names.emplace_back("ingest_rpc_find_attempts");
  for (std::uint32_t l = 0; l <= header.max_level; ++l) {
    const std::string lvl = "level" + std::to_string(l);
    names.push_back(lvl + "_move_msgs");
    names.push_back(lvl + "_move_work");
    names.push_back(lvl + "_find_msgs");
    names.push_back(lvl + "_find_work");
  }
  VS_REQUIRE(names.size() == header.expected_series(),
             "telemetry series name table out of sync with layout");
  return names;
}

TelemetryWriter::TelemetryWriter(const std::string& path,
                                 const TelemetryHeader& header)
    : path_(path), header_(header) {
  VS_REQUIRE(header_.series == header_.expected_series(),
             "telemetry header series count " << header_.series
                                              << " does not match layout "
                                              << header_.expected_series());
  out_.open(path_, std::ios::binary | std::ios::trunc);
  VS_REQUIRE(out_.good(), "cannot open telemetry stream " << path_);
  std::string buf;
  codec::Writer w(buf);
  w.bytes(kMagic);
  w.put(kTelemetryFormatVersion);
  w.put(std::uint32_t{0});  // flags
  w.put(header_.cadence_us);
  w.put(std::uint32_t{0});  // reserved
  w.put(header_.max_level);
  w.put(header_.series);
  out_.write(buf.data(), static_cast<std::streamsize>(buf.size()));
  out_.flush();
  prev_.assign(header_.series, 0);
}

TelemetryWriter::~TelemetryWriter() { finish(); }

void TelemetryWriter::append(const TelemetrySample& sample) {
  VS_REQUIRE(!finished_, "telemetry stream already finished");
  VS_REQUIRE(sample.values.size() == prev_.size(),
             "telemetry sample has " << sample.values.size()
                                     << " values, layout wants "
                                     << prev_.size());
  buf_.clear();
  codec::Writer w(buf_);
  w.put(kSampleMarker);
  w.varint(sample.t_us - prev_t_);
  for (std::size_t i = 0; i < prev_.size(); ++i) {
    w.varint(sample.values[i] - prev_[i]);
  }
  prev_t_ = sample.t_us;
  prev_ = sample.values;
  ++count_;
  // Records always enter the stream whole, so any flushed prefix is a
  // valid tailable file; flushing is the caller's per-boundary decision.
  out_.write(buf_.data(), static_cast<std::streamsize>(buf_.size()));
}

void TelemetryWriter::flush() { out_.flush(); }

void TelemetryWriter::finish() {
  if (finished_) return;
  finished_ = true;
  std::string buf;
  codec::Writer w(buf);
  w.put(kTrailerMarker);
  w.put(count_);
  w.bytes(kEndMagic);
  out_.write(buf.data(), static_cast<std::streamsize>(buf.size()));
  out_.flush();
  out_.close();
}

TelemetryFile read_telemetry(std::string_view bytes, bool strict) {
  codec::Reader r(bytes, "telemetry");
  r.magic(kMagic);
  r.version(kTelemetryFormatVersion);
  TelemetryFile f;
  TelemetryHeader& h = f.header;
  const auto flags = r.get<std::uint32_t>();
  VS_REQUIRE(flags == 0,
             "unsupported telemetry flags 0x" << std::hex << flags);
  h.cadence_us = r.get<std::int64_t>();
  (void)r.get<std::uint32_t>();  // reserved
  h.max_level = r.get<std::uint32_t>();
  h.series = r.get<std::uint32_t>();
  VS_REQUIRE(h.series == h.expected_series(),
             "telemetry header series count " << h.series
                                              << " inconsistent with layout");

  // Tail mode stops quietly at the first partial record; strict mode
  // requires every record whole and the trailer last.
  while (r.remaining() > 0) {
    const auto marker = r.get<std::uint8_t>();
    if (marker == kTrailerMarker) {
      if (!strict && r.remaining() < sizeof(std::uint64_t) + kEndMagic.size()) {
        break;
      }
      const auto n = r.get<std::uint64_t>();
      VS_REQUIRE(n == f.samples.size(),
                 "telemetry trailer count " << n << " != " << f.samples.size()
                                            << " decoded samples");
      r.end(kEndMagic);
      f.complete = true;
      break;
    }
    VS_REQUIRE(marker == kSampleMarker,
               "bad telemetry record marker 0x" << std::hex
                                                << static_cast<int>(marker));
    // Each value takes at least one varint byte: a sample whose values
    // cannot fit in the bytes left is partial, and nothing is allocated
    // for it.
    TelemetrySample s;
    std::int64_t dt = 0;
    bool whole = r.fits(h.series, 1) && r.try_varint(dt);
    if (whole) s.values.resize(h.series);
    const TelemetrySample* last =
        f.samples.empty() ? nullptr : &f.samples.back();
    for (std::uint32_t i = 0; whole && i < h.series; ++i) {
      std::int64_t dv = 0;
      whole = r.try_varint(dv);
      s.values[i] = codec::wrapping_add(last ? last->values[i] : 0, dv);
    }
    if (!whole) {
      // Truncated final record — fine while the producer is mid-append.
      VS_REQUIRE(!strict, "truncated telemetry sample");
      break;
    }
    s.t_us = codec::wrapping_add(last ? last->t_us : 0, dt);
    f.samples.push_back(std::move(s));
  }
  VS_REQUIRE(f.complete || !strict,
             "telemetry stream has no trailer (stream not finished?)");
  return f;
}

TelemetryFile read_telemetry_file(const std::string& path, bool strict) {
  return read_telemetry(codec::read_file(path), strict);
}

void telemetry_to_csv(std::ostream& os, const TelemetryFile& file) {
  const std::vector<std::string> names =
      telemetry_series_names(file.header);
  os << "t_us";
  for (const std::string& n : names) os << "," << n;
  os << "\n";
  for (const TelemetrySample& s : file.samples) {
    os << s.t_us;
    for (const std::int64_t v : s.values) os << "," << v;
    os << "\n";
  }
}

}  // namespace vs::obs
