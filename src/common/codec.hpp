#pragma once
// The binary codec of every vinestalk artifact: VSTRACE1, VSINCID1,
// VSTELEM1, VSPROF1, VSSLO1 and VSINGEST1 are all written with Writer and
// read with Reader.
//
// Fields are native-endian: the artifacts are run outputs read back on
// the machine that wrote them, not an interchange format. Reading follows
// one rule: every read checks the bytes left before it copies or
// allocates, and a declared count is accepted only if the count times its
// minimum on-wire record size fits in the bytes left. A decoder's memory
// is therefore bounded by the input it holds, never by what a header
// claims, and any malformed input throws vs::Error.
//
// Each format reads exactly one version; a file from an older writer is
// re-recorded, not widened.

#include <cstdint>
#include <cstring>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/error.hpp"

namespace vs::codec {

/// Appends fields to a byte string.
class Writer {
 public:
  explicit Writer(std::string& out) : out_(out) {}

  template <class T>
  void put(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    out_.append(reinterpret_cast<const char*>(&v), sizeof v);
  }

  void bytes(std::string_view b) { out_.append(b); }

  /// Trivially copyable records stored back to back (TraceEvent rings).
  template <class T>
  void records(const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    out_.append(reinterpret_cast<const char*>(v.data()), v.size() * sizeof(T));
  }

  /// u32 length, then the bytes (no terminator).
  void str(std::string_view s) {
    put(static_cast<std::uint32_t>(s.size()));
    out_.append(s);
  }

  /// ZigZag + LEB128: small signed values of either sign take one byte.
  void varint(std::int64_t v) {
    auto u = (static_cast<std::uint64_t>(v) << 1) ^
             static_cast<std::uint64_t>(v >> 63);
    while (u >= 0x80) {
      out_.push_back(static_cast<char>((u & 0x7F) | 0x80));
      u >>= 7;
    }
    out_.push_back(static_cast<char>(u));
  }

 private:
  std::string& out_;
};

/// A cursor over encoded bytes. `noun` names the format in messages
/// ("trace" → "unsupported trace format version 2").
class Reader {
 public:
  Reader(std::string_view bytes, const char* noun)
      : rest_(bytes), noun_(noun) {}

  [[nodiscard]] std::size_t remaining() const { return rest_.size(); }

  /// The next `n` raw bytes.
  std::string_view take(std::size_t n) {
    if (n > rest_.size()) truncated(n);
    const std::string_view out(rest_.data(), n);
    rest_.remove_prefix(n);
    return out;
  }

  template <class T>
  T get() {
    static_assert(std::is_trivially_copyable_v<T>);
    T v;
    std::memcpy(&v, take(sizeof v).data(), sizeof v);
    return v;
  }

  /// u32 length, then the bytes; the length is checked before the string
  /// is allocated.
  std::string str() {
    const auto n = get<std::uint32_t>();
    return std::string(take(n));
  }

  /// Non-throwing varint probe for readers that stop quietly at a partial
  /// record: false (nothing consumed) when the bytes end mid-varint or
  /// the varint runs past ten bytes.
  bool try_varint(std::int64_t& v) {
    std::uint64_t u = 0;
    for (std::size_t i = 0; i < rest_.size() && i < 10; ++i) {
      const auto byte = static_cast<std::uint8_t>(rest_[i]);
      u |= static_cast<std::uint64_t>(byte & 0x7F) << (7 * i);
      if ((byte & 0x80) == 0) {
        rest_.remove_prefix(i + 1);
        v = static_cast<std::int64_t>((u >> 1) ^ (~(u & 1) + 1));
        return true;
      }
    }
    return false;
  }

  std::int64_t varint() {
    std::int64_t v = 0;
    VS_REQUIRE(try_varint(v), "truncated " << noun_ << ": varint cut short");
    return v;
  }

  /// Whether `n` records of at least `min_wire_bytes` each fit in the
  /// bytes left (the non-throwing form of count()).
  [[nodiscard]] bool fits(std::uint64_t n, std::size_t min_wire_bytes) const {
    return n <= rest_.size() / min_wire_bytes;
  }

  /// A declared count, accepted only if that many records fit in the
  /// bytes left. The only size check in front of a resize, reserve or
  /// string construction.
  std::size_t count(std::uint64_t n, std::size_t min_wire_bytes) {
    VS_REQUIRE(fits(n, min_wire_bytes),
               "truncated " << noun_ << ": " << n << " record(s) of at least "
                            << min_wire_bytes << " byte(s) declared, "
                            << rest_.size() << " byte(s) left");
    return static_cast<std::size_t>(n);
  }

  /// `n` trivially copyable records stored back to back.
  template <class T>
  std::vector<T> records(std::uint64_t n) {
    static_assert(std::is_trivially_copyable_v<T>);
    std::vector<T> out(count(n, sizeof(T)));
    if (!out.empty()) {
      std::memcpy(out.data(), take(out.size() * sizeof(T)).data(),
                  out.size() * sizeof(T));
    }
    return out;
  }

  void magic(std::string_view m) {
    VS_REQUIRE(rest_.substr(0, m.size()) == m,
               "not a " << noun_ << " file (bad magic)");
    rest_.remove_prefix(m.size());
  }

  void version(std::uint32_t want) {
    const auto v = get<std::uint32_t>();
    VS_REQUIRE(v == want, "unsupported " << noun_ << " format version " << v
                                         << " (this build reads v" << want
                                         << "; re-record the file)");
  }

  /// The end magic, which must be the last bytes of the input.
  void end(std::string_view m) {
    VS_REQUIRE(rest_ == m, "truncated or corrupt " << noun_
                               << ": the input does not end with its end "
                                  "marker");
    rest_ = {};
  }

 private:
  /// Out of line and cold, so take() and get() stay small enough to
  /// inline into the ingest parser's per-frame path.
  [[noreturn, gnu::cold, gnu::noinline]] void truncated(std::size_t n) const {
    std::ostringstream os;
    os << "truncated " << noun_ << ": " << n << " byte(s) needed, "
       << rest_.size() << " left";
    throw Error(os.str());
  }

  std::string_view rest_;
  const char* noun_;
};

/// Sum of two decoded values, wrapping instead of overflowing: outside
/// bytes may hold any value, and signed overflow is undefined.
[[nodiscard]] inline std::int64_t wrapping_add(std::int64_t a,
                                               std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) +
                                   static_cast<std::uint64_t>(b));
}

/// Difference of two values, wrapping like wrapping_add: a delta encoded
/// with it decodes exactly with wrapping_add, whatever the values.
[[nodiscard]] inline std::int64_t wrapping_sub(std::int64_t a,
                                               std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) -
                                   static_cast<std::uint64_t>(b));
}

/// The whole file, for the decoders above. Throws vs::Error when the file
/// cannot be opened.
[[nodiscard]] inline std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  VS_REQUIRE(in.good(), "cannot open " << path);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

}  // namespace vs::codec
