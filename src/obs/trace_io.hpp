#pragma once
// Trace file format: the bench/CLI artifact the vinestalk_trace tool reads.
//
// Layout (all integers little-endian native, the build's own byte order —
// traces are run artifacts like BENCH_*.json, not an interchange format):
//
//   bytes 0..7   magic "VSTRACE1"
//   u32          format version (kTraceFormatVersion)
//   u32          world count
//   per world:   u32 world index, u32 reserved(0), u64 event count,
//                count × TraceEvent (raw 64-byte records)
//   trailer:     u64 total event count (sum over worlds), bytes "VSTREND1"
//
// Version history: v2 recorded 56-byte events (no op field); v3 appends
// the 32-bit OpId plus explicit padding. The reader accepts v3 only.
//
// The trailer makes truncation and header corruption detectable: a reader
// that consumed every declared world must land exactly on a trailer whose
// count matches what it read, so a short or bit-flipped file fails loudly
// instead of yielding a silently short trace. The reader sizes its
// buffers by the bytes it holds, never by a declared count alone
// (common/codec.hpp). vinestalk_trace surfaces these as diagnostics with
// exit 1.
//
// A multi-trial sweep writes one world section per trial, in trial-index
// order; because every TraceEvent derives from world-local state only, the
// file is byte-identical for every --jobs value (pinned by tests).

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace.hpp"

namespace vs::obs {

inline constexpr std::uint32_t kTraceFormatVersion = 3;

/// One world's (trial's) events, tagged with its trial index.
struct WorldTrace {
  std::uint32_t world = 0;
  std::vector<TraceEvent> events;
};

void write_trace(std::ostream& os, const std::vector<WorldTrace>& worlds);
void write_trace_file(const std::string& path,
                      const std::vector<WorldTrace>& worlds);
/// Single-world convenience (quickstart, the CLI's `trace` command).
void write_trace_file(const std::string& path, const TraceRecorder& recorder);

/// Decodes a whole VSTRACE1 file. Throws vs::Error on bad
/// magic/version/truncation.
[[nodiscard]] std::vector<WorldTrace> read_trace(std::string_view bytes);
[[nodiscard]] std::vector<WorldTrace> read_trace_file(const std::string& path);

}  // namespace vs::obs
