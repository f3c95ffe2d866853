#include "obs/trace_io.hpp"

#include <fstream>
#include <ostream>

#include "common/codec.hpp"
#include "common/error.hpp"
#include "stats/counters.hpp"

namespace vs::obs {

namespace {

constexpr std::string_view kMagic = "VSTRACE1";
constexpr std::string_view kEndMagic = "VSTREND1";
/// u32 world index, u32 reserved, u64 event count.
constexpr std::size_t kWorldHeaderBytes = 16;

}  // namespace

void write_trace(std::ostream& os, const std::vector<WorldTrace>& worlds) {
  std::string buf;
  codec::Writer w(buf);
  w.bytes(kMagic);
  w.put(kTraceFormatVersion);
  w.put(static_cast<std::uint32_t>(worlds.size()));
  std::uint64_t total = 0;
  for (const WorldTrace& t : worlds) {
    w.put(t.world);
    w.put(std::uint32_t{0});  // reserved
    w.put(static_cast<std::uint64_t>(t.events.size()));
    w.records(t.events);
    total += t.events.size();
  }
  w.put(total);
  w.bytes(kEndMagic);
  os.write(buf.data(), static_cast<std::streamsize>(buf.size()));
}

void write_trace_file(const std::string& path,
                      const std::vector<WorldTrace>& worlds) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  VS_REQUIRE(os.good(), "cannot open trace file for writing: " << path);
  write_trace(os, worlds);
  VS_REQUIRE(os.good(), "write failed for trace file: " << path);
}

void write_trace_file(const std::string& path, const TraceRecorder& recorder) {
  write_trace_file(path, {WorldTrace{0, recorder.events()}});
}

std::vector<WorldTrace> read_trace(std::string_view bytes) {
  codec::Reader r(bytes, "trace");
  r.magic(kMagic);
  r.version(kTraceFormatVersion);
  std::vector<WorldTrace> worlds(
      r.count(r.get<std::uint32_t>(), kWorldHeaderBytes));
  std::uint64_t total = 0;
  for (WorldTrace& t : worlds) {
    t.world = r.get<std::uint32_t>();
    (void)r.get<std::uint32_t>();  // reserved
    t.events = r.records<TraceEvent>(r.get<std::uint64_t>());
    check_trace_records(t.events);
    total += t.events.size();
  }
  const auto declared_total = r.get<std::uint64_t>();
  VS_REQUIRE(declared_total == total,
             "corrupt trace: trailer declares " << declared_total
                                                << " events, sections hold "
                                                << total);
  r.end(kEndMagic);
  return worlds;
}

void check_trace_records(std::span<const TraceEvent> events) {
  constexpr auto kFirst = static_cast<std::uint8_t>(TraceKind::kSend);
  constexpr auto kLast = static_cast<std::uint8_t>(kLastTraceKind);
  constexpr auto kMsgKinds = static_cast<std::uint8_t>(stats::MsgKind::kCount);
  for (std::size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    VS_REQUIRE(e.kind >= kFirst && e.kind <= kLast,
               "corrupt trace: record " << i << " has kind "
                                        << static_cast<int>(e.kind));
    VS_REQUIRE(e.msg == kNoMsg || e.msg < kMsgKinds,
               "corrupt trace: record " << i << " has message kind "
                                        << static_cast<int>(e.msg));
  }
}

std::vector<WorldTrace> read_trace_file(const std::string& path) {
  return read_trace(codec::read_file(path));
}

}  // namespace vs::obs
