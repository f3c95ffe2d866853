#include "obs/telemetry/telemetry_io.hpp"

#include <cmath>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "common/codec.hpp"
#include "common/error.hpp"

namespace vs::obs {

namespace {

constexpr std::string_view kMagic = "VSTELEM1";
constexpr std::string_view kEndMagic = "VSTELEND";
constexpr std::uint8_t kSampleMarker = 0xA5;
constexpr std::uint8_t kTrailerMarker = 0x5A;

}  // namespace

std::optional<std::size_t> TelemetryHeader::index_of(
    std::string_view name) const {
  for (std::size_t i = 0; i < series.size(); ++i) {
    if (series[i].name == name) return i;
  }
  return std::nullopt;
}

TelemetryWriter::TelemetryWriter(const std::string& path,
                                 const TelemetryHeader& header)
    : path_(path) {
  out_.open(path_, std::ios::binary | std::ios::trunc);
  VS_REQUIRE(out_.good(), "cannot open telemetry stream " << path_);
  std::string buf;
  codec::Writer w(buf);
  w.bytes(kMagic);
  w.put(kTelemetryFormatVersion);
  w.put(std::uint32_t{0});  // flags
  w.put(header.cadence_us);
  w.put(static_cast<std::uint32_t>(header.series.size()));
  for (const tracking::SeriesDef& d : header.series) {
    w.str(d.name);
    w.put(d.kind);
  }
  out_.write(buf.data(), static_cast<std::streamsize>(buf.size()));
  out_.flush();
  prev_.assign(header.series.size(), 0);
}

TelemetryWriter::~TelemetryWriter() { finish(); }

void TelemetryWriter::append(const TelemetrySample& sample) {
  VS_REQUIRE(!finished_, "telemetry stream already finished");
  VS_REQUIRE(sample.values.size() == prev_.size(),
             "telemetry sample has " << sample.values.size()
                                     << " values, the header declares "
                                     << prev_.size() << " series");
  buf_.clear();
  codec::Writer w(buf_);
  w.put(kSampleMarker);
  w.varint(codec::wrapping_sub(sample.t_us, prev_t_));
  for (std::size_t i = 0; i < prev_.size(); ++i) {
    w.varint(codec::wrapping_sub(sample.values[i], prev_[i]));
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
  // A series takes at least its name's length word and its kind byte.
  const auto declared = r.get<std::uint32_t>();
  h.series.resize(r.count(declared, sizeof(std::uint32_t) + 1));
  for (tracking::SeriesDef& d : h.series) {
    d.name = r.str();
    const auto kind = r.get<std::uint8_t>();
    VS_REQUIRE(
        kind <= static_cast<std::uint8_t>(tracking::SeriesKind::kGauge),
        "bad telemetry series kind " << static_cast<int>(kind) << " for "
                                     << d.name);
    d.kind = static_cast<tracking::SeriesKind>(kind);
  }
  const std::size_t width = h.series.size();  // values per sample

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
    bool whole = r.fits(width, 1) && r.try_varint(dt);
    if (whole) s.values.resize(width);
    const TelemetrySample* last =
        f.samples.empty() ? nullptr : &f.samples.back();
    for (std::size_t i = 0; whole && i < width; ++i) {
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
  os << "t_us";
  for (const tracking::SeriesDef& d : file.header.series) {
    os << "," << d.name;
  }
  os << "\n";
  for (const TelemetrySample& s : file.samples) {
    os << s.t_us;
    for (const std::int64_t v : s.values) os << "," << v;
    os << "\n";
  }
}

std::string format_rate(double per_s) {
  std::ostringstream os;
  // + 0.0 turns a truncated -0 into 0.
  os << std::fixed << std::setprecision(0) << std::trunc(per_s) + 0.0;
  return os.str();
}

}  // namespace vs::obs
