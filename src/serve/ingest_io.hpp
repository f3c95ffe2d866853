#pragma once
// VSINGEST1 — the compact binary GPS-update wire format of the streaming
// ingest daemon (src/serve/server.hpp).
//
// A stream is a header, a run of framed records, and a trailer:
//
//   "VSINGEST"            8-byte magic
//   u32 version           kIngestFormatVersion
//   --- per frame ---
//   u8  0xB7              frame marker
//   u8  type              1 = update, 2 = round, 3 = find
//   u16 len               payload length (fixed per type; anything else
//                         is an over-length/under-length frame → error)
//   payload               type-specific, below
//   u8  checksum          XOR of type, both len bytes, and every payload
//                         byte — one flipped bit anywhere in the frame is
//                         detected
//   --- trailer ---
//   u8  0x7B              trailer marker
//   u64 frame count
//   "VSINGEND"            8-byte end magic
//
// Payloads (native-endian, same-machine write/read like every other
// vinestalk artifact):
//
//   update:  u64 object, i32 x, i32 y        (16 bytes)
//            a GPS fix: tracked object `object` observed at grid cell
//            (x, y)
//   find:    u64 object, i32 x, i32 y, i64 deadline_us   (24 bytes)
//            a deadline-bounded query RPC issued from grid cell (x, y);
//            captured so query traffic replays byte-identically too
//   round:   i64 upto_us                      (8 bytes)
//            a scheduler-round boundary: "every frame before me was
//            drained in one batch; advance virtual time to upto_us".
//            Live captures write one per drain round — including empty
//            (idle or fully shed) rounds — which is what makes a capture
//            *deterministically replayable*: the replay re-batches frames
//            exactly as the live daemon drained them and advances the
//            world through the same boundaries, so later frames (finds in
//            particular) re-execute at the same virtual times and the
//            world trace comes out byte-identical.
//
// Reading is strict and mirrors obs/trace_io: unknown version, bad
// marker, wrong per-type length, checksum mismatch, or a missing/short
// trailer all throw (file reader) or park the parser in a terminal error
// state (incremental reader) — a binary stream cannot be resynchronized
// after desync, so the first malformed byte ends ingestion with exit-1
// error accounting rather than risking a partially applied frame.

#include <cstdint>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

namespace vs::serve {

inline constexpr std::uint32_t kIngestFormatVersion = 1;

/// One GPS fix off the wire.
struct UpdateFrame {
  std::uint64_t object = 0;  // dense daemon-assigned object index
  std::int32_t x = 0;
  std::int32_t y = 0;

  friend constexpr bool operator==(const UpdateFrame&,
                                   const UpdateFrame&) = default;
};

/// One drain-round boundary (capture/replay only).
struct RoundFrame {
  std::int64_t upto_us = 0;

  friend constexpr bool operator==(const RoundFrame&,
                                   const RoundFrame&) = default;
};

/// One deadline-bounded find RPC.
struct FindFrame {
  std::uint64_t object = 0;
  std::int32_t x = 0;  // query origin cell
  std::int32_t y = 0;
  std::int64_t deadline_us = 0;

  friend constexpr bool operator==(const FindFrame&,
                                   const FindFrame&) = default;
};

struct IngestFrame {
  enum class Type : std::uint8_t { kUpdate = 1, kRound = 2, kFind = 3 };
  Type type = Type::kUpdate;
  UpdateFrame update;  // meaningful when type == kUpdate
  RoundFrame round;    // meaningful when type == kRound
  FindFrame find;      // meaningful when type == kFind

  friend constexpr bool operator==(const IngestFrame&,
                                   const IngestFrame&) = default;
};

/// Encode helpers — producers (the load generator, tests, the capture
/// writer) all share one byte layout.
void encode_ingest_header(std::string& out);
void encode_frame(std::string& out, const IngestFrame& frame);
void encode_ingest_trailer(std::string& out, std::uint64_t frames);

/// Incremental strict parser for live byte streams (stdin, sockets).
/// feed() appends raw bytes; next() consumes at most one whole frame per
/// call. The first malformation is terminal: next() returns kError from
/// then on and error() describes it. kEnd means the trailer was seen and
/// consistent; bytes after it are an error.
class IngestParser {
 public:
  enum class Status : std::uint8_t {
    kNeedMore,  // no whole frame buffered yet
    kFrame,     // `out` holds the next frame
    kEnd,       // trailer consumed, stream complete
    kError,     // malformed stream; terminal
  };

  void feed(const char* data, std::size_t n);
  Status next(IngestFrame& out);

  [[nodiscard]] const std::string& error() const { return error_; }
  [[nodiscard]] std::uint64_t frames_parsed() const { return frames_; }
  [[nodiscard]] bool complete() const { return state_ == State::kDone; }

 private:
  enum class State : std::uint8_t { kHeader, kFrames, kDone, kError };
  Status fail(const std::string& why);

  std::string buf_;
  std::size_t pos_ = 0;  // consumed prefix of buf_
  State state_ = State::kHeader;
  std::string error_;
  std::uint64_t frames_ = 0;
};

/// Streaming writer for capture files: header on construction, frames via
/// append, trailer on finish() (idempotent; also run by the destructor).
class IngestWriter {
 public:
  explicit IngestWriter(const std::string& path);
  ~IngestWriter();
  IngestWriter(const IngestWriter&) = delete;
  IngestWriter& operator=(const IngestWriter&) = delete;

  void append(const IngestFrame& frame);
  void finish();

  [[nodiscard]] std::uint64_t frames_written() const { return count_; }

 private:
  std::string path_;
  std::ofstream out_;
  std::string buf_;
  std::uint64_t count_ = 0;
  bool finished_ = false;
};

struct IngestFile {
  std::vector<IngestFrame> frames;
};

/// Strict whole-stream read (replay / artifact verification): any
/// malformation including a missing trailer throws vs::Error.
[[nodiscard]] IngestFile read_ingest(std::string_view bytes);
[[nodiscard]] IngestFile read_ingest_file(const std::string& path);

}  // namespace vs::serve
