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
//   u32 reserved          0
//   u32 max_level         hierarchy depth of the per-level section
//   u32 series            values per sample (consistency check; the
//                         layout itself is fixed by the version)
//   --- per sample ---
//   u8  0xA5              sample marker
//   varint t_us           boundary time, delta vs the previous sample
//   varint × series       values, each delta vs the previous sample
//   --- trailer ---
//   u8  0x5A              trailer marker
//   u64 sample count
//   "VSTELEND"            8-byte end magic
//
// Varints are ZigZag + LEB128 (protobuf-style), so near-constant series
// cost one byte per sample. Integers are native-endian like every other
// vinestalk artifact (same-machine write/read; common/codec.hpp). The
// reader accepts v3 only; re-record older streams.
//
// Records enter the stream whole and the sampler flush()es at every
// cadence boundary, which is what makes the file *tailable*:
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
#include <string>
#include <string_view>
#include <vector>

namespace vs::obs {

inline constexpr std::uint32_t kTelemetryFormatVersion = 3;
/// Series count of the v2 ingest block (kTsIngestBase..kTsServeBase).
inline constexpr std::uint32_t kTsIngestSeriesCount = 8;
/// Series count of the v3 serve-RPC block (kTsServeBase..kTsFixedCount).
inline constexpr std::uint32_t kTsServeSeriesCount = 6;

/// Offsets of the fixed scalar series inside TelemetrySample::values.
/// After the fixed block: 4 per-level series ((max_level+1) ×
/// {move_msgs, move_work, find_msgs, find_work}).
enum TelemetrySeries : std::size_t {
  kTsEventsFired = 0,
  kTsMsgsTotal,
  kTsWorkTotal,
  kTsMoveMsgs,
  kTsMoveWork,
  kTsFindMsgs,
  kTsFindWork,
  kTsHeartbeats,
  kTsDuplicated,
  kTsJittered,
  kTsFindsIssued,
  kTsFindsCompleted,
  kTsFindLatencyP50,
  kTsFindLatencyP90,
  kTsFindLatencyP99,
  kTsTraceEvents,
  /// 6 op classes (obs::OpClass order) × {msgs, work}; zero when no
  /// ledger is attached.
  kTsLedgerBase,
  /// Trailing-window audit ratios ×1000 (move work, move time, max find
  /// work, max find time); zero when no auditor is attached.
  kTsAuditBase = kTsLedgerBase + 12,
  /// Ingest-daemon block (kTsIngestSeriesCount series): ingested,
  /// applied, suppressed, dropped, shed_tier1/2/3_entries,
  /// queue_depth_peak — stats::IngestCounters order. Zero outside
  /// vinestalk_served runs.
  kTsIngestBase = kTsAuditBase + 4,
  /// Serve-RPC block (kTsServeSeriesCount series): wire_errors,
  /// retry_after_us (gauge), rpc_finds_issued, rpc_finds_done,
  /// rpc_deadline_misses, rpc_find_attempts — the rest of
  /// stats::IngestCounters. Zero outside vinestalk_served runs.
  kTsServeBase = kTsIngestBase + kTsIngestSeriesCount,
  kTsFixedCount = kTsServeBase + kTsServeSeriesCount,
};

struct TelemetryHeader {
  std::int64_t cadence_us = 0;
  std::uint32_t max_level = 0;
  std::uint32_t series = 0;

  /// Values per sample implied by the layout (must equal `series`).
  [[nodiscard]] std::uint64_t expected_series() const {
    return kTsFixedCount + 4 * (std::uint64_t{max_level} + 1);
  }
};

/// One decoded sample: cumulative values as of boundary time t_us.
struct TelemetrySample {
  std::int64_t t_us = 0;
  std::vector<std::int64_t> values;
};

/// Stable column names for the header's layout, in values order — the
/// CSV header row and the Prometheus metric names derive from these.
[[nodiscard]] std::vector<std::string> telemetry_series_names(
    const TelemetryHeader& header);

/// Streaming writer: header on construction, one whole record per
/// append (call flush() to make the prefix visible to tail readers),
/// trailer on finish(). Append order is sample order; values must
/// match header.series.
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
  TelemetryHeader header_;
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

/// Render the decoded stream as CSV (t_us + one column per series).
void telemetry_to_csv(std::ostream& os, const TelemetryFile& file);

}  // namespace vs::obs
