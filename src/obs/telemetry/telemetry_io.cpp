#include "obs/telemetry/telemetry_io.hpp"

#include <cstring>
#include <iterator>
#include <ostream>
#include <type_traits>

#include "common/error.hpp"
#include "obs/op.hpp"

namespace vs::obs {

namespace {

constexpr char kMagic[8] = {'V', 'S', 'T', 'E', 'L', 'E', 'M', '1'};
constexpr char kEndMagic[8] = {'V', 'S', 'T', 'E', 'L', 'E', 'N', 'D'};
constexpr std::uint8_t kSampleMarker = 0xA5;
constexpr std::uint8_t kTrailerMarker = 0x5A;
// A sample record never legitimately exceeds this (series are capped by
// level depth, which is small); guards tail reads of garbage.
constexpr std::uint32_t kMaxSeries = 1u << 16;

template <class T>
void put(std::string& buf, T v) {
  static_assert(std::is_trivially_copyable_v<T>);
  const auto* p = reinterpret_cast<const char*>(&v);
  buf.append(p, sizeof(T));
}

template <class T>
bool get(const char*& p, const char* end, T& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  if (static_cast<std::size_t>(end - p) < sizeof(T)) return false;
  std::memcpy(&v, p, sizeof(T));
  p += sizeof(T);
  return true;
}

// ZigZag + LEB128: small signed deltas of either sign encode in one byte.
void put_varint(std::string& buf, std::int64_t v) {
  auto u = (static_cast<std::uint64_t>(v) << 1) ^
           static_cast<std::uint64_t>(v >> 63);
  while (u >= 0x80) {
    buf.push_back(static_cast<char>((u & 0x7F) | 0x80));
    u >>= 7;
  }
  buf.push_back(static_cast<char>(u));
}

bool get_varint(const char*& p, const char* end, std::int64_t& v) {
  std::uint64_t u = 0;
  int shift = 0;
  while (p < end && shift < 64) {
    const auto byte = static_cast<std::uint8_t>(*p++);
    u |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) {
      v = static_cast<std::int64_t>((u >> 1) ^ (~(u & 1) + 1));
      return true;
    }
    shift += 7;
  }
  return false;
}

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
  if (header.version >= 2) {
    names.emplace_back("ingest_ingested");
    names.emplace_back("ingest_applied");
    names.emplace_back("ingest_suppressed");
    names.emplace_back("ingest_dropped");
    names.emplace_back("ingest_shed_tier1_entries");
    names.emplace_back("ingest_shed_tier2_entries");
    names.emplace_back("ingest_shed_tier3_entries");
    names.emplace_back("ingest_queue_depth_peak");
  }
  if (header.version >= 3) {
    names.emplace_back("ingest_wire_errors");
    names.emplace_back("ingest_retry_after_us");
    names.emplace_back("ingest_rpc_finds_issued");
    names.emplace_back("ingest_rpc_finds_done");
    names.emplace_back("ingest_rpc_deadline_misses");
    names.emplace_back("ingest_rpc_find_attempts");
  }
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
  buf.append(kMagic, sizeof(kMagic));
  put(buf, header_.version);
  put(buf, std::uint32_t{0});  // flags
  put(buf, header_.cadence_us);
  put(buf, std::uint32_t{0});  // reserved
  put(buf, header_.max_level);
  put(buf, header_.series);
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
  buf_.push_back(static_cast<char>(kSampleMarker));
  put_varint(buf_, sample.t_us - prev_t_);
  for (std::size_t i = 0; i < prev_.size(); ++i) {
    put_varint(buf_, sample.values[i] - prev_[i]);
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
  buf.push_back(static_cast<char>(kTrailerMarker));
  put(buf, count_);
  buf.append(kEndMagic, sizeof(kEndMagic));
  out_.write(buf.data(), static_cast<std::streamsize>(buf.size()));
  out_.flush();
  out_.close();
}

TelemetryFile read_telemetry_file(const std::string& path, bool strict) {
  std::ifstream in(path, std::ios::binary);
  VS_REQUIRE(in.good(), "cannot open telemetry file " << path);
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  const char* p = data.data();
  const char* end = p + data.size();

  TelemetryFile f;
  VS_REQUIRE(static_cast<std::size_t>(end - p) >= sizeof(kMagic) &&
                 std::memcmp(p, kMagic, sizeof(kMagic)) == 0,
             "not a VSTELEM1 telemetry file: " << path);
  p += sizeof(kMagic);
  TelemetryHeader& h = f.header;
  std::uint32_t flags = 0;
  std::uint32_t reserved = 0;
  VS_REQUIRE(get(p, end, h.version) && get(p, end, flags) &&
                 get(p, end, h.cadence_us) && get(p, end, reserved) &&
                 get(p, end, h.max_level) && get(p, end, h.series),
             "truncated telemetry header in " << path);
  VS_REQUIRE(h.version >= 1 && h.version <= kTelemetryFormatVersion,
             "unsupported telemetry format version " << h.version);
  VS_REQUIRE(flags == 0, "unsupported telemetry flags 0x"
                             << std::hex << flags << " in " << path);
  VS_REQUIRE(h.series == h.expected_series() && h.series <= kMaxSeries,
             "telemetry header series count " << h.series
                                              << " inconsistent with layout");

  std::vector<std::int64_t> prev(h.series, 0);
  std::int64_t prev_t = 0;
  bool saw_trailer = false;
  while (p < end) {
    const auto marker = static_cast<std::uint8_t>(*p);
    if (marker == kTrailerMarker) {
      const char* q = p + 1;
      std::uint64_t n = 0;
      if (get(q, end, n) &&
          static_cast<std::size_t>(end - q) >= sizeof(kEndMagic) &&
          std::memcmp(q, kEndMagic, sizeof(kEndMagic)) == 0) {
        VS_REQUIRE(n == f.samples.size(),
                   "telemetry trailer count " << n << " != "
                                              << f.samples.size()
                                              << " decoded samples");
        saw_trailer = true;
        p = q + sizeof(kEndMagic);
        break;
      }
      VS_REQUIRE(!strict, "truncated telemetry trailer in " << path);
      break;
    }
    VS_REQUIRE(marker == kSampleMarker,
               "bad telemetry record marker 0x"
                   << std::hex << static_cast<int>(marker) << " in " << path);
    const char* q = p + 1;
    TelemetrySample s;
    std::int64_t dt = 0;
    bool ok = get_varint(q, end, dt);
    s.values.resize(h.series);
    for (std::uint32_t i = 0; ok && i < h.series; ++i) {
      std::int64_t dv = 0;
      ok = get_varint(q, end, dv);
      if (ok) s.values[i] = prev[i] + dv;
    }
    if (!ok) {
      // Truncated final record — fine while the producer is mid-append.
      VS_REQUIRE(!strict, "truncated telemetry sample in " << path);
      break;
    }
    s.t_us = prev_t + dt;
    prev_t = s.t_us;
    prev = s.values;
    f.samples.push_back(std::move(s));
    p = q;
  }
  if (strict) {
    VS_REQUIRE(saw_trailer, "telemetry file " << path
                                              << " has no trailer (stream "
                                                 "not finished?)");
    VS_REQUIRE(p == end, "trailing garbage after telemetry trailer in "
                             << path);
  }
  f.complete = saw_trailer;
  if (h.version < kTelemetryFormatVersion) {
    // Older stream: widen every sample with zeros where newer versions
    // added blocks, and re-label the header, so callers only ever see the
    // current layout (the trace v2→v3 reader idiom). The serve block sits
    // directly after the ingest block, so inserting at kTsServeBase first
    // keeps the earlier offsets valid for the second insert.
    std::uint32_t widened = 0;
    for (TelemetrySample& s : f.samples) {
      if (h.version < 3) {
        const std::size_t serve_at =
            h.version < 2 ? kTsServeBase - kTsIngestSeriesCount : kTsServeBase;
        s.values.insert(
            s.values.begin() + static_cast<std::ptrdiff_t>(serve_at),
            kTsServeSeriesCount, 0);
      }
      if (h.version < 2) {
        s.values.insert(
            s.values.begin() + static_cast<std::ptrdiff_t>(kTsIngestBase),
            kTsIngestSeriesCount, 0);
      }
    }
    if (h.version < 3) widened += kTsServeSeriesCount;
    if (h.version < 2) widened += kTsIngestSeriesCount;
    h.version = kTelemetryFormatVersion;
    h.series += widened;
  }
  return f;
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
