#include "obs/trace_io.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>

#include "common/error.hpp"

namespace vs::obs {

namespace {

constexpr char kMagic[8] = {'V', 'S', 'T', 'R', 'A', 'C', 'E', '1'};
constexpr char kEndMagic[8] = {'V', 'S', 'T', 'R', 'E', 'N', 'D', '1'};

/// Worlds reserved up front: the header's world count is not trusted
/// with an allocation.
constexpr std::uint32_t kReserveWorlds = 64;
/// Events read per chunk (256 KiB), so a world's buffer grows with the
/// bytes actually present rather than with its declared count.
constexpr std::uint64_t kChunkEvents = 4096;

template <class T>
void put(std::ostream& os, T v) {
  static_assert(std::is_trivially_copyable_v<T>);
  os.write(reinterpret_cast<const char*>(&v), sizeof v);
}

template <class T>
T get(std::istream& is) {
  T v{};
  is.read(reinterpret_cast<char*>(&v), sizeof v);
  VS_REQUIRE(is.good(), "truncated trace stream");
  return v;
}

}  // namespace

void write_trace(std::ostream& os, const std::vector<WorldTrace>& worlds) {
  os.write(kMagic, sizeof kMagic);
  put<std::uint32_t>(os, kTraceFormatVersion);
  put<std::uint32_t>(os, static_cast<std::uint32_t>(worlds.size()));
  std::uint64_t total = 0;
  for (const WorldTrace& w : worlds) {
    put<std::uint32_t>(os, w.world);
    put<std::uint32_t>(os, 0);  // reserved
    put<std::uint64_t>(os, static_cast<std::uint64_t>(w.events.size()));
    os.write(reinterpret_cast<const char*>(w.events.data()),
             static_cast<std::streamsize>(w.events.size() *
                                          sizeof(TraceEvent)));
    total += w.events.size();
  }
  put<std::uint64_t>(os, total);
  os.write(kEndMagic, sizeof kEndMagic);
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

std::vector<WorldTrace> read_trace(std::istream& is) {
  char magic[8];
  is.read(magic, sizeof magic);
  VS_REQUIRE(is.good() && std::memcmp(magic, kMagic, sizeof magic) == 0,
             "not a VSTRACE1 trace file");
  const auto version = get<std::uint32_t>(is);
  VS_REQUIRE(version == kTraceFormatVersion,
             "unsupported trace format version "
                 << version << " (this build reads v" << kTraceFormatVersion
                 << "; re-record the trace)");
  const auto world_count = get<std::uint32_t>(is);
  std::vector<WorldTrace> worlds;
  worlds.reserve(std::min(world_count, kReserveWorlds));
  std::uint64_t total = 0;
  for (std::uint32_t i = 0; i < world_count; ++i) {
    WorldTrace w;
    w.world = get<std::uint32_t>(is);
    (void)get<std::uint32_t>(is);  // reserved
    const auto count = get<std::uint64_t>(is);
    // An implausible count is header corruption, not a real section.
    VS_REQUIRE(count <= (std::uint64_t{1} << 32),
               "corrupt trace stream: world " << w.world << " claims "
                                              << count << " events");
    while (w.events.size() < count) {
      const std::size_t at = w.events.size();
      const auto n = static_cast<std::size_t>(
          std::min<std::uint64_t>(count - at, kChunkEvents));
      w.events.resize(at + n);
      const auto bytes = static_cast<std::streamsize>(n * sizeof(TraceEvent));
      is.read(reinterpret_cast<char*>(w.events.data() + at), bytes);
      VS_REQUIRE(is.good() && is.gcount() == bytes,
                 "truncated trace stream: world "
                     << w.world << " declares " << count
                     << " events but the file ends early");
    }
    total += count;
    worlds.push_back(std::move(w));
  }
  const auto declared_total = get<std::uint64_t>(is);
  char end_magic[8];
  is.read(end_magic, sizeof end_magic);
  VS_REQUIRE(is.good() && is.gcount() == sizeof end_magic &&
                 std::memcmp(end_magic, kEndMagic, sizeof end_magic) == 0,
             "truncated trace stream: missing VSTREND1 trailer (file cut "
             "short or not fully written)");
  VS_REQUIRE(declared_total == total,
             "corrupt trace stream: trailer declares "
                 << declared_total << " events, sections hold " << total);
  return worlds;
}

std::vector<WorldTrace> read_trace_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  VS_REQUIRE(is.good(), "cannot open trace file: " << path);
  return read_trace(is);
}

}  // namespace vs::obs
