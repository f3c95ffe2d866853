#include "serve/ingest_io.hpp"

#include "common/codec.hpp"
#include "common/error.hpp"

namespace vs::serve {

namespace {

constexpr std::string_view kMagic = "VSINGEST";
constexpr std::string_view kEndMagic = "VSINGEND";
constexpr std::uint8_t kFrameMarker = 0xB7;
constexpr std::uint8_t kTrailerMarker = 0x7B;
constexpr std::uint16_t kUpdateLen = 16;
constexpr std::uint16_t kRoundLen = 8;
constexpr std::uint16_t kFindLen = 24;
constexpr std::size_t kHeaderBytes = 8 + 4;
/// After the trailer marker: u64 frame count, end magic.
constexpr std::size_t kTrailerBytes = 8 + 8;
/// After the frame marker: u8 type, u16 payload length.
constexpr std::size_t kFramePrefixBytes = 1 + 2;

std::uint16_t payload_len(IngestFrame::Type type) {
  switch (type) {
    case IngestFrame::Type::kUpdate: return kUpdateLen;
    case IngestFrame::Type::kRound: return kRoundLen;
    case IngestFrame::Type::kFind: return kFindLen;
  }
  return 0;
}

void encode_payload(codec::Writer& w, const IngestFrame& frame) {
  switch (frame.type) {
    case IngestFrame::Type::kUpdate:
      w.put(frame.update.object);
      w.put(frame.update.x);
      w.put(frame.update.y);
      break;
    case IngestFrame::Type::kRound:
      w.put(frame.round.upto_us);
      break;
    case IngestFrame::Type::kFind:
      w.put(frame.find.object);
      w.put(frame.find.x);
      w.put(frame.find.y);
      w.put(frame.find.deadline_us);
      break;
  }
}

std::uint8_t checksum(IngestFrame::Type type, std::uint16_t len,
                      std::string_view payload) {
  std::uint8_t sum = static_cast<std::uint8_t>(type);
  sum = static_cast<std::uint8_t>(sum ^ (len & 0xFF));
  sum = static_cast<std::uint8_t>(sum ^ (len >> 8));
  for (const char c : payload) {
    sum = static_cast<std::uint8_t>(sum ^ static_cast<std::uint8_t>(c));
  }
  return sum;
}

}  // namespace

void encode_ingest_header(std::string& out) {
  codec::Writer w(out);
  w.bytes(kMagic);
  w.put(kIngestFormatVersion);
}

void encode_frame(std::string& out, const IngestFrame& frame) {
  const std::uint16_t len = payload_len(frame.type);
  codec::Writer w(out);
  w.put(kFrameMarker);
  w.put(frame.type);
  w.put(len);
  const std::size_t payload_at = out.size();
  encode_payload(w, frame);
  w.put(checksum(frame.type, len, std::string_view(out).substr(payload_at)));
}

void encode_ingest_trailer(std::string& out, std::uint64_t frames) {
  codec::Writer w(out);
  w.put(kTrailerMarker);
  w.put(frames);
  w.bytes(kEndMagic);
}

void IngestParser::feed(const char* data, std::size_t n) {
  // Discard the consumed prefix before growing — the live buffer stays
  // bounded by one feed() chunk plus a partial frame.
  if (pos_ > 0) {
    buf_.erase(0, pos_);
    pos_ = 0;
  }
  buf_.append(data, n);
}

IngestParser::Status IngestParser::fail(const std::string& why) {
  state_ = State::kError;
  error_ = why;
  return Status::kError;
}

IngestParser::Status IngestParser::next(IngestFrame& out) {
  if (state_ == State::kError) return Status::kError;
  // Each read below follows a check that its bytes are buffered, so the
  // reader never throws here: a short buffer is kNeedMore, and pos_
  // advances only past whole records.
  codec::Reader r(std::string_view(buf_).substr(pos_), "ingest");
  const auto consumed = [&] { pos_ = buf_.size() - r.remaining(); };
  if (state_ == State::kHeader) {
    if (r.remaining() < kHeaderBytes) return Status::kNeedMore;
    if (r.take(kMagic.size()) != kMagic) {
      return fail("not a VSINGEST1 stream (bad magic)");
    }
    const auto version = r.get<std::uint32_t>();
    if (version != kIngestFormatVersion) {
      return fail("unsupported VSINGEST version " + std::to_string(version));
    }
    consumed();
    state_ = State::kFrames;
  }
  if (state_ == State::kDone) {
    if (r.remaining() != 0) return fail("bytes after VSINGEST trailer");
    return Status::kEnd;
  }
  if (r.remaining() == 0) return Status::kNeedMore;
  const auto marker = r.get<std::uint8_t>();
  if (marker == kTrailerMarker) {
    if (r.remaining() < kTrailerBytes) return Status::kNeedMore;
    const auto n = r.get<std::uint64_t>();
    if (r.take(kEndMagic.size()) != kEndMagic) {
      return fail("corrupt VSINGEST trailer end magic");
    }
    if (n != frames_) {
      return fail("VSINGEST trailer count " + std::to_string(n) + " != " +
                  std::to_string(frames_) + " frames parsed");
    }
    consumed();
    state_ = State::kDone;
    if (r.remaining() != 0) return fail("bytes after VSINGEST trailer");
    return Status::kEnd;
  }
  if (marker != kFrameMarker) {
    return fail("bad VSINGEST frame marker");
  }
  if (r.remaining() < kFramePrefixBytes) return Status::kNeedMore;
  const auto type_byte = r.get<std::uint8_t>();
  if (type_byte != static_cast<std::uint8_t>(IngestFrame::Type::kUpdate) &&
      type_byte != static_cast<std::uint8_t>(IngestFrame::Type::kRound) &&
      type_byte != static_cast<std::uint8_t>(IngestFrame::Type::kFind)) {
    return fail("unknown VSINGEST frame type " + std::to_string(type_byte));
  }
  const auto type = static_cast<IngestFrame::Type>(type_byte);
  const auto len = r.get<std::uint16_t>();
  if (len != payload_len(type)) {
    return fail("VSINGEST frame length " + std::to_string(len) +
                " does not match type (want " +
                std::to_string(payload_len(type)) + ")");
  }
  if (r.remaining() < std::size_t{len} + 1) return Status::kNeedMore;
  const std::string_view payload = r.take(len);
  if (r.get<std::uint8_t>() != checksum(type, len, payload)) {
    return fail("VSINGEST frame checksum mismatch");
  }
  codec::Reader p(payload, "ingest");
  out = IngestFrame{};
  out.type = type;
  switch (type) {
    case IngestFrame::Type::kUpdate:
      out.update.object = p.get<std::uint64_t>();
      out.update.x = p.get<std::int32_t>();
      out.update.y = p.get<std::int32_t>();
      break;
    case IngestFrame::Type::kRound:
      out.round.upto_us = p.get<std::int64_t>();
      break;
    case IngestFrame::Type::kFind:
      out.find.object = p.get<std::uint64_t>();
      out.find.x = p.get<std::int32_t>();
      out.find.y = p.get<std::int32_t>();
      out.find.deadline_us = p.get<std::int64_t>();
      break;
  }
  consumed();
  ++frames_;
  return Status::kFrame;
}

IngestWriter::IngestWriter(const std::string& path) : path_(path) {
  out_.open(path_, std::ios::binary | std::ios::trunc);
  VS_REQUIRE(out_.good(), "cannot open ingest capture " << path_);
  buf_.clear();
  encode_ingest_header(buf_);
  out_.write(buf_.data(), static_cast<std::streamsize>(buf_.size()));
}

IngestWriter::~IngestWriter() { finish(); }

void IngestWriter::append(const IngestFrame& frame) {
  VS_REQUIRE(!finished_, "ingest capture already finished");
  buf_.clear();
  encode_frame(buf_, frame);
  out_.write(buf_.data(), static_cast<std::streamsize>(buf_.size()));
  ++count_;
}

void IngestWriter::finish() {
  if (finished_) return;
  finished_ = true;
  buf_.clear();
  encode_ingest_trailer(buf_, count_);
  out_.write(buf_.data(), static_cast<std::streamsize>(buf_.size()));
  out_.flush();
  out_.close();
}

IngestFile read_ingest(std::string_view bytes) {
  IngestParser parser;
  parser.feed(bytes.data(), bytes.size());
  IngestFile f;
  for (;;) {
    IngestFrame frame;
    switch (parser.next(frame)) {
      case IngestParser::Status::kFrame:
        f.frames.push_back(frame);
        break;
      case IngestParser::Status::kEnd:
        return f;
      case IngestParser::Status::kNeedMore:
        VS_REQUIRE(false, "truncated VSINGEST stream (no trailer)");
        break;
      case IngestParser::Status::kError:
        VS_REQUIRE(false, "malformed VSINGEST stream: " << parser.error());
        break;
    }
  }
}

IngestFile read_ingest_file(const std::string& path) {
  return read_ingest(codec::read_file(path));
}

}  // namespace vs::serve
