#pragma once
// VSTELEM1 — the compact binary time-series telemetry stream.
//
// A telemetry file is a header, a run of delta-encoded samples, and a
// trailer:
//
//   "VSTELEM1"            8-byte magic
//   u32 version           kTelemetryFormatVersion
//   u32 flags             0 (readers reject any other value)
//   i64 cadence_us        virtual-time sampling cadence
//   u32 series            values per sample
//   --- per series, in values order ---
//   str name              u32 length, then the bytes
//   u8  kind              SeriesKind: 0 counter, 1 gauge
//   --- per sample ---
//   u8  0xA5              sample marker
//   varint t_us           boundary time, delta vs the previous sample
//   varint × series       values, each delta vs the previous sample
//   --- trailer ---
//   u8  0x5A              trailer marker
//   u64 sample count
//   "VSTELEND"            8-byte end magic
//
// The header names its own series, so readers look a series up by name
// and a new series needs no format change. Varints are ZigZag + LEB128
// (protobuf-style), so near-constant series cost one byte per sample.
// Integers are native-endian like every other vinestalk artifact
// (same-machine write/read; common/codec.hpp). The reader accepts v4
// only; re-record older streams.
//
// Records enter the stream whole and the sampler flush()es once per
// boundary crossing, which is what makes the file *tailable*:
// vinestalk_top re-reads it while the producing run is still going and
// renders whatever prefix has landed. (append() itself leaves the bytes
// in the stream buffer — flushing per sample made the flush syscall the
// dominant enabled-path cost.) Two read modes match:
// strict (trailer required — artifact verification) and tail (tolerant
// of a truncated final record — live dashboards).
//
// Determinism doctrine: every series derives from virtual time and
// world-local state sampled at cadence boundaries (see
// Scheduler::set_boundary_hook), so a stream is byte-identical at any
// --jobs.

#include <cstdint>
#include <fstream>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace vs::obs {

inline constexpr std::uint32_t kTelemetryFormatVersion = 4;

/// A counter only accumulates, so a rate over it is meaningful; a gauge
/// is a level (a percentile, a ratio, a high-water mark, a setting).
enum class SeriesKind : std::uint8_t { kCounter = 0, kGauge = 1 };

struct SeriesDef {
  std::string name;
  SeriesKind kind = SeriesKind::kCounter;
};

struct TelemetryHeader {
  std::int64_t cadence_us = 0;
  /// One entry per sample value, in values order.
  std::vector<SeriesDef> series;

  /// Position of the series called `name` in every sample's values, or
  /// nullopt when the stream does not carry it.
  [[nodiscard]] std::optional<std::size_t> index_of(
      std::string_view name) const;
};

/// One decoded sample: cumulative values as of boundary time t_us.
struct TelemetrySample {
  std::int64_t t_us = 0;
  std::vector<std::int64_t> values;
};

/// Streaming writer: header on construction, one whole record per
/// append (call flush() to make the prefix visible to tail readers),
/// trailer on finish(). Append order is sample order; each sample has one
/// value per header series.
class TelemetryWriter {
 public:
  TelemetryWriter(const std::string& path, const TelemetryHeader& header);
  ~TelemetryWriter();
  TelemetryWriter(const TelemetryWriter&) = delete;
  TelemetryWriter& operator=(const TelemetryWriter&) = delete;

  void append(const TelemetrySample& sample);
  /// Flush buffered records to disk, leaving the file a valid tailable
  /// prefix. The sampler calls this once per boundary crossing rather
  /// than per sample — the flush syscall dominated the enabled-path cost.
  void flush();
  /// Write the trailer and close (idempotent).
  void finish();

  [[nodiscard]] std::uint64_t samples_written() const { return count_; }

 private:
  std::string path_;
  std::ofstream out_;
  std::vector<std::int64_t> prev_;
  std::string buf_;  // reused per-append encode scratch
  std::int64_t prev_t_ = 0;
  std::uint64_t count_ = 0;
  bool finished_ = false;
};

struct TelemetryFile {
  TelemetryHeader header;
  std::vector<TelemetrySample> samples;
  /// True when the trailer was present and consistent.
  bool complete = false;
};

/// Decode a VSTELEM1 stream. strict=true (artifact verification) throws
/// on any malformation including a missing trailer; strict=false (tail
/// mode) returns every fully decoded sample and stops quietly at a
/// truncated record — the live-dashboard read.
[[nodiscard]] TelemetryFile read_telemetry(std::string_view bytes,
                                           bool strict = true);
[[nodiscard]] TelemetryFile read_telemetry_file(const std::string& path,
                                                bool strict = true);

/// Render the decoded stream as CSV (t_us + one column per series, named
/// by the header).
void telemetry_to_csv(std::ostream& os, const TelemetryFile& file);

}  // namespace vs::obs
