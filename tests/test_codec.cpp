// The shared binary codec (common/codec.hpp) and the six formats built on
// it: varint and count units, crafted inputs whose declared counts exceed
// their bytes, retired format versions, and a seeded mutation fuzzer per
// format. The fuzzer's oracle: every mutated input either decodes or
// throws vs::Error, and no single allocation during a decode exceeds
// 16 × input + 64 KiB (16× covers VSTELEM1's one-byte varint to 8-byte
// value expansion and IngestFile vector growth). The bound is enforced by
// the counting operator new below, which refuses a larger request instead
// of passing it to malloc.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <new>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/codec.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "obs/monitor/incident.hpp"
#include "obs/op.hpp"
#include "obs/profile/profile_io.hpp"
#include "obs/slo/slo.hpp"
#include "obs/slo/slo_io.hpp"
#include "obs/telemetry/telemetry.hpp"
#include "obs/telemetry/telemetry_io.hpp"
#include "obs/trace_io.hpp"
#include "serve/ingest_io.hpp"
#include "util.hpp"

namespace {

/// Largest single allocation allowed while a guard is armed (0 = off).
std::size_t g_alloc_limit = 0;
/// The first request a guard refused.
std::size_t g_alloc_refused = 0;

}  // namespace

void* operator new(std::size_t n) {
  if (g_alloc_limit != 0 && n > g_alloc_limit) {
    if (g_alloc_refused == 0) g_alloc_refused = n;
    throw std::bad_alloc();
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
// Not inlined: GCC would otherwise pair the free() with the new-expression
// at each call site and warn about a mismatched deallocation.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace vstest {
namespace {

using namespace vs;

constexpr int kCasesPerFormat = 100'000;

/// Arms the allocation bound for one decode of `input_bytes`.
class AllocGuard {
 public:
  explicit AllocGuard(std::size_t input_bytes) {
    g_alloc_refused = 0;
    g_alloc_limit = 16 * input_bytes + 64 * 1024;
  }
  ~AllocGuard() { g_alloc_limit = 0; }
  AllocGuard(const AllocGuard&) = delete;
  AllocGuard& operator=(const AllocGuard&) = delete;
};

enum class Outcome { kDecoded, kRejected, kBroken };

/// Runs `decode(bytes)` under the allocation bound. kBroken (with `why`
/// set) for any escape other than vs::Error, including a refused
/// allocation.
template <class Decode>
Outcome run_decode(const std::string& bytes, Decode&& decode,
                   std::string* why) {
  std::string failure;
  Outcome out = Outcome::kDecoded;
  {
    const AllocGuard guard(bytes.size());
    try {
      decode(bytes);
    } catch (const Error&) {
      out = Outcome::kRejected;
    } catch (const std::bad_alloc&) {
      out = Outcome::kBroken;
    } catch (const std::exception& e) {
      out = Outcome::kBroken;
      g_alloc_refused = 0;
      failure = e.what();  // small; the guard allows it
    }
  }
  if (out == Outcome::kBroken) {
    *why = g_alloc_refused != 0
               ? "allocation of " + std::to_string(g_alloc_refused) +
                     " bytes for a " + std::to_string(bytes.size()) +
                     "-byte input"
               : "non-vs::Error exception: " + failure;
  }
  return out;
}

/// Expects `decode` to reject `bytes` with vs::Error inside the bound.
template <class Decode>
void expect_rejected(const std::string& bytes, Decode&& decode) {
  std::string why;
  const Outcome out = run_decode(bytes, decode, &why);
  EXPECT_EQ(out, Outcome::kRejected) << why;
}

// ------------------------------------------------------------- mutations

template <class T>
void poke(std::string& b, std::size_t at, T v) {
  std::memcpy(b.data() + at, &v, sizeof v);
}

/// One to three stacked mutations of `seed`: bit flip, byte overwrite,
/// truncation, splice, or an inflated length/count field (a u32/u64,
/// aligned half the time, overwritten with 2^k - 1).
std::string mutate(const std::string& seed, Rng& rng) {
  std::string b = seed;
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  };
  const int mutations = static_cast<int>(rng.uniform_int(1, 3));
  for (int m = 0; m < mutations && !b.empty(); ++m) {
    switch (rng.uniform_int(0, 4)) {
      case 0: {  // bit flip
        const std::size_t at = pick(b.size());
        b[at] = static_cast<char>(b[at] ^ (1 << pick(8)));
        break;
      }
      case 1:  // byte overwrite
        b[pick(b.size())] = static_cast<char>(rng.next());
        break;
      case 2:  // truncation
        b.resize(pick(b.size()));
        break;
      case 3: {  // splice: a prefix of the input, then a suffix of the seed
        const std::size_t at = pick(b.size());
        b = b.substr(0, at) + seed.substr(pick(seed.size()));
        break;
      }
      default: {  // inflated length or count field
        const std::size_t width = rng.chance(0.5) ? 4 : 8;
        if (b.size() < width) break;
        std::size_t at = pick(b.size() - width + 1);
        if (rng.chance(0.5)) at -= at % width;
        const auto k = static_cast<unsigned>(1 + pick(width * 8));
        if (width == 4) {
          poke<std::uint32_t>(b, at, static_cast<std::uint32_t>(
                                         (std::uint64_t{1} << k) - 1));
        } else {
          poke<std::uint64_t>(b, at,
                              k == 64 ? ~std::uint64_t{0}
                                      : (std::uint64_t{1} << k) - 1);
        }
        break;
      }
    }
  }
  return b;
}

/// The fuzz loop: case i mutates `seed` with Rng(i), so a failure names
/// a reproducible case. Stops at the first broken case.
template <class Decode>
void fuzz(const std::string& seed, Decode&& decode) {
  ASSERT_FALSE(seed.empty());
  {
    std::string why;
    ASSERT_EQ(run_decode(seed, decode, &why), Outcome::kDecoded)
        << "the unmutated seed must decode: " << why;
  }
  int decoded = 0;
  for (int i = 0; i < kCasesPerFormat; ++i) {
    Rng rng(static_cast<std::uint64_t>(i));
    const std::string bytes = mutate(seed, rng);
    std::string why;
    const Outcome out = run_decode(bytes, decode, &why);
    ASSERT_NE(out, Outcome::kBroken) << "case " << i << ": " << why;
    if (out == Outcome::kDecoded) ++decoded;
  }
  // Both outcomes occur: the mutations reach past the header checks.
  EXPECT_GT(decoded, 0);
  EXPECT_LT(decoded, kCasesPerFormat);
  ::testing::Test::RecordProperty("seed_bytes", static_cast<int>(seed.size()));
  ::testing::Test::RecordProperty("decoded", decoded);
}

// ----------------------------------------------------------------- seeds

obs::TraceEvent event(int i) {
  obs::TraceEvent e{};
  e.time_us = 100 * i;
  e.seq = static_cast<std::uint64_t>(i);
  e.cause = static_cast<std::uint64_t>(i / 2);
  e.find = i % 3 == 0 ? i / 3 : -1;
  e.a = i;
  e.b = i + 1;
  e.target = 7;
  e.arg = i % 5;
  e.level = static_cast<std::int16_t>(i % 4);
  e.kind = static_cast<std::uint8_t>(i % 9);
  e.msg = i % 2 == 0 ? static_cast<std::uint8_t>(i % 7) : obs::kNoMsg;
  e.op = obs::make_op(obs::OpClass::kMove, static_cast<std::uint64_t>(i));
  return e;
}

std::vector<obs::TraceEvent> events(int n) {
  std::vector<obs::TraceEvent> out;
  for (int i = 0; i < n; ++i) out.push_back(event(i));
  return out;
}

std::string trace_seed() {
  std::ostringstream os;
  obs::write_trace(os, {{0, events(24)}, {1, events(16)}});
  return os.str();
}

obs::IncidentBundle incident_bundle() {
  obs::IncidentBundle b;
  b.source = "watchdog";
  b.target = 0;
  b.violation = {"lemma-4.1-grow", "cluster 40 grows twice", 1234, 40, 1};
  b.mode = obs::WatchMode::kCadence;
  b.cadence_us = 5000;
  b.ring_capacity = 32;
  b.audit = true;
  b.audit_window_us = 400'000;
  b.scenario.side = 27;
  b.scenario.start_region = 364;
  b.scenario.steps = 5;
  b.scenario.corruptions = {{40, 40, -1, -1, -1}, {41, 3, 2, 1, 0}};
  b.scenario.fault_plan = "fault v1\ndrop 0.1 from 0us to 100us\nend\n";
  b.scenario.slo_spec = "slo v1\nobjective find p99 <= 1ns\nend\n";
  b.slo_state_json = "{\"t_us\": 1234}";
  b.slo_exemplars = {{1, obs::make_op(obs::OpClass::kFindSearch, 2), 1000,
                      55'555, 4}};
  b.config_json = "{\"regions\": 729}";
  b.metrics_json = "{\"moves\": 5}";
  b.ring = events(24);
  return b;
}

std::string incident_bytes(const obs::IncidentBundle& b) {
  std::ostringstream os;
  obs::write_incident(os, b);
  return os.str();
}

/// A v4 header declaring one series, "x", and no samples.
std::string one_series_telemetry() {
  const std::string path = testing::TempDir() + "codec_one_series.vst";
  obs::TelemetryHeader h;
  h.cadence_us = 1000;
  h.series = {{"x", obs::SeriesKind::kCounter}};
  obs::TelemetryWriter(path, h).finish();
  return codec::read_file(path);
}

std::string telemetry_seed() {
  // The sampler's own layout on a three-level world.
  const GridNet g = make_grid(9, 3);
  obs::TelemetryHeader h =
      obs::TelemetrySampler(*g.net, obs::TelemetryConfig{}).header();
  h.cadence_us = 1000;
  const std::size_t p99 = h.index_of("find_latency_p99_us").value();
  const std::string path = testing::TempDir() + "codec_seed.vst";
  {
    obs::TelemetryWriter w(path, h);
    obs::TelemetrySample s;
    s.values.assign(h.series.size(), 0);
    for (int i = 1; i <= 24; ++i) {
      s.t_us = 1000 * i;
      for (std::size_t v = 0; v < s.values.size(); ++v) {
        s.values[v] += (static_cast<std::int64_t>(v) * 37 + 11 * i) % 300;
      }
      s.values[p99] = 5000 - 100 * i;  // gauge, falls
      w.append(s);
    }
  }
  return codec::read_file(path);
}

std::string profile_seed() {
  obs::ProfileReport r;
  r.total_ns = 900'000;
  r.wall_ns = 1'500'000;
  r.scopes = 4000;
  r.total_work = 700;
  r.total_msgs = 200;
  r.domain_self_ns[0] = 500'000;
  r.domain_self_ns[2] = 400'000;
  for (std::uint64_t p = 1; p <= 6; ++p) {
    r.paths.push_back({p | (p + 1) << 8, 100 * p, p});
  }
  r.msgs[0] = {1000, 10};
  r.msgs[3] = {2000, 5};
  for (std::uint32_t c = 0; c < obs::kProfOpClasses; ++c) {
    r.ops.push_back({obs::make_op(static_cast<obs::OpClass>(c), c + 1),
                     1000 + c, 2 + c, 30 + c, 10 + c});
  }
  for (std::int64_t t = 0; t < 4; ++t) {
    obs::ProfileSnapshotRow row;
    row.t_us = 1000 * t;
    row.domain_self_ns[0] = static_cast<std::uint64_t>(100 * t);
    r.snapshots.push_back(row);
  }
  const std::string path = testing::TempDir() + "codec_seed.vsprof";
  obs::write_profile_file(path, r);
  return codec::read_file(path);
}

obs::SloReport slo_report() {
  obs::SloMonitor mon(obs::SloSpec::parse(
      "slo v1\n"
      "objective find p99 <= 2000000ns\n"
      "availability >= 99.900\n"
      "window short 1000us long 10000us\n"
      "burn fast 14.40 slow 6.00\n"
      "clock virtual\n"
      "end\n"));
  for (std::int64_t i = 1; i <= 6; ++i) {
    mon.close_update(obs::SloMonitor::now_ns(), 100 * i);
    mon.close_find(obs::SloMonitor::now_ns(), 100 * i + 50,
                   obs::make_op(obs::OpClass::kFindSearch,
                                static_cast<std::uint64_t>(i)),
                   1 << i, false);
  }
  mon.close_round(obs::SloMonitor::now_ns(), 700);
  mon.note_errors(obs::SloClass::kUpdate, 700, 2);
  return mon.report();
}

std::string slo_bytes(const obs::SloReport& rep) {
  const std::string path = testing::TempDir() + "codec_seed.vsslo";
  obs::write_slo_file(path, rep);
  return codec::read_file(path);
}

std::string ingest_seed() {
  std::string out;
  serve::encode_ingest_header(out);
  std::uint64_t frames = 0;
  for (int i = 0; i < 40; ++i) {
    serve::IngestFrame f;
    if (i % 10 == 9) {
      f.type = serve::IngestFrame::Type::kRound;
      f.round.upto_us = 1000 * i;
    } else if (i % 7 == 3) {
      f.type = serve::IngestFrame::Type::kFind;
      f.find = {static_cast<std::uint64_t>(i % 4), i % 27, 26 - i % 27,
                250'000};
    } else {
      f.type = serve::IngestFrame::Type::kUpdate;
      f.update = {static_cast<std::uint64_t>(i % 4), i % 27, (3 * i) % 27};
    }
    serve::encode_frame(out, f);
    ++frames;
  }
  serve::encode_ingest_trailer(out, frames);
  return out;
}

// ------------------------------------------------------------ codec units

TEST(Codec, VarintRoundTripsExtremes) {
  const std::vector<std::int64_t> values = {
      0, 1, -1, std::numeric_limits<std::int64_t>::min(),
      std::numeric_limits<std::int64_t>::max()};
  std::string bytes;
  codec::Writer w(bytes);
  for (const std::int64_t v : values) w.varint(v);
  // ZigZag keeps 0 and ±1 in one byte; the extremes take all ten.
  EXPECT_EQ(bytes.size(), 1u + 1u + 1u + 10u + 10u);
  codec::Reader r(bytes, "test");
  for (const std::int64_t v : values) EXPECT_EQ(r.varint(), v);
  EXPECT_EQ(r.remaining(), 0u);

  // A varint cut short is a partial record: the probe consumes nothing.
  codec::Reader cut(std::string_view(bytes).substr(3, 5), "test");
  std::int64_t v = 0;
  EXPECT_FALSE(cut.try_varint(v));
  EXPECT_EQ(cut.remaining(), 5u);
  EXPECT_THROW((void)cut.varint(), Error);
}

TEST(Codec, CountRejectsMoreRecordsThanBytesLeft) {
  const std::string bytes(100, '\0');
  codec::Reader r(bytes, "test");
  EXPECT_EQ(r.count(10, 10), 10u);
  EXPECT_THROW((void)r.count(11, 10), Error);
  // n × min would overflow; the check must not.
  EXPECT_THROW((void)r.count(std::numeric_limits<std::uint64_t>::max(), 8),
               Error);
  EXPECT_THROW((void)r.records<obs::TraceEvent>(2), Error);
}

TEST(Codec, StrThrowsBeforeItAllocates) {
  std::string bytes;
  codec::Writer(bytes).put<std::uint32_t>((1u << 24) - 1);
  bytes += "abc";
  expect_rejected(bytes, [](const std::string& b) {
    codec::Reader r(b, "test");
    (void)r.str();
  });
}

// ---------------------------------------------------------- crafted input

TEST(CodecCrafted, IncidentRingCountIsBoundedByBytes) {
  obs::IncidentBundle b;
  std::string bytes = incident_bytes(b);
  // The ring count is the u64 in front of the 8-byte end magic.
  poke<std::uint64_t>(bytes, bytes.size() - 16, std::uint64_t{1} << 28);
  expect_rejected(bytes, [](const std::string& in) {
    (void)obs::read_incident(in);
  });
}

TEST(CodecCrafted, IncidentStringLengthIsCheckedBeforeAllocating) {
  std::string bytes = incident_bytes(obs::IncidentBundle{});
  // The source string's u32 length follows the magic and the version.
  poke<std::uint32_t>(bytes, 12, (1u << 24) - 1);
  expect_rejected(bytes, [](const std::string& in) {
    (void)obs::read_incident(in);
  });
}

// The one-series header's fields: the series count at byte 24 (after the
// magic, version, flags and cadence), then the name's u32 length at 28,
// the name "x" at 32 and its kind byte at 33.

TEST(CodecCrafted, TelemetryHeaderCountIsBoundedByBytes) {
  std::string bytes = one_series_telemetry();
  poke<std::uint32_t>(bytes, 24, 1u << 30);
  for (const bool strict : {true, false}) {
    expect_rejected(bytes, [strict](const std::string& in) {
      (void)obs::read_telemetry(in, strict);
    });
  }
}

TEST(CodecCrafted, TelemetryNameLengthIsCheckedBeforeAllocating) {
  std::string bytes = one_series_telemetry();
  poke<std::uint32_t>(bytes, 28,
                      static_cast<std::uint32_t>(bytes.size() - 32 + 1));
  for (const bool strict : {true, false}) {
    expect_rejected(bytes, [strict](const std::string& in) {
      (void)obs::read_telemetry(in, strict);
    });
  }
}

TEST(CodecCrafted, TelemetryKindMustBeCounterOrGauge) {
  std::string bytes = one_series_telemetry();
  ASSERT_EQ(bytes[32], 'x');
  ASSERT_EQ(bytes[33], 0);
  EXPECT_EQ(obs::read_telemetry(bytes).header.series.at(0).name, "x");
  bytes[33] = 2;
  for (const bool strict : {true, false}) {
    expect_rejected(bytes, [strict](const std::string& in) {
      (void)obs::read_telemetry(in, strict);
    });
  }
}

TEST(CodecCrafted, SloFindBandCountIsBoundedByBytes) {
  obs::SloReport rep = slo_report();
  rep.find_bands.clear();
  rep.objectives.clear();
  rep.exemplars.clear();
  std::string bytes = slo_bytes(rep);
  // Band, objective and exemplar counts (u32 each), then the end magic.
  poke<std::uint32_t>(bytes, bytes.size() - 20, 65'536u);
  expect_rejected(bytes,
                  [](const std::string& in) { (void)obs::read_slo(in); });
}

// ------------------------------------------------------- retired versions

/// A hand-built VSTELEM1 stream of one sample in a retired positional
/// layout: the header gave a max level instead of series names, and the
/// values were a fixed block (32 series in v1, 40 in v2 with the ingest
/// block, 46 in v3 with the serve-RPC block) plus 4 per level.
std::string old_telemetry_stream(std::uint32_t version) {
  std::string bytes = "VSTELEM1";
  const auto put32 = [&](std::uint32_t v) {
    bytes.append(reinterpret_cast<const char*>(&v), 4);
  };
  const auto put64 = [&](std::uint64_t v) {
    bytes.append(reinterpret_cast<const char*>(&v), 8);
  };
  const auto varint = [&](std::int64_t v) {
    auto u = static_cast<std::uint64_t>((v << 1) ^ (v >> 63));  // zigzag
    do {
      std::uint8_t b = u & 0x7F;
      u >>= 7;
      if (u != 0) b |= 0x80;
      bytes.push_back(static_cast<char>(b));
    } while (u != 0);
  };
  const std::uint32_t max_level = 1;
  const std::uint32_t fixed = version == 1 ? 32 : version == 2 ? 40 : 46;
  const std::uint32_t series = fixed + 4 * (max_level + 1);
  put32(version);
  put32(0);  // flags
  put64(10'000);  // cadence_us
  put32(0);  // reserved
  put32(max_level);
  put32(series);
  bytes.push_back(static_cast<char>(0xA5));
  varint(10'000);  // t_us delta
  for (std::uint32_t i = 0; i < series; ++i) {
    varint(static_cast<std::int64_t>(i));
  }
  bytes.push_back(static_cast<char>(0x5A));
  put64(1);  // sample count
  bytes += "VSTELEND";
  return bytes;
}

TEST(Codec, RetiredFormatVersionsAreRejected) {
  const auto rejects = [](const auto& decode, const std::string& bytes,
                          const std::string& expect) {
    try {
      decode(bytes);
      ADD_FAILURE() << "accepted: " << expect;
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(expect), std::string::npos)
          << e.what();
    }
  };
  const auto telemetry = [](const std::string& b) {
    (void)obs::read_telemetry(b, /*strict=*/true);
  };
  rejects(telemetry, old_telemetry_stream(1),
          "unsupported telemetry format version 1");
  rejects(telemetry, old_telemetry_stream(2),
          "unsupported telemetry format version 2");
  rejects(telemetry, old_telemetry_stream(3),
          "unsupported telemetry format version 3");

  std::string v4 = incident_bytes(incident_bundle());
  poke<std::uint32_t>(v4, 8, 4u);
  rejects([](const std::string& b) { (void)obs::read_incident(b); }, v4,
          "unsupported incident format version 4");
}

// ------------------------------------------------------------------- fuzz

TEST(CodecFuzz, Trace) {
  fuzz(trace_seed(), [](const std::string& b) { (void)obs::read_trace(b); });
}

TEST(CodecFuzz, Incident) {
  fuzz(incident_bytes(incident_bundle()),
       [](const std::string& b) { (void)obs::read_incident(b); });
}

TEST(CodecFuzz, Telemetry) {
  // Strict and tail reads of every case.
  fuzz(telemetry_seed(), [](const std::string& b) {
    try {
      (void)obs::read_telemetry(b, /*strict=*/true);
    } catch (const Error&) {
    }
    (void)obs::read_telemetry(b, /*strict=*/false);
  });
}

TEST(CodecFuzz, Profile) {
  fuzz(profile_seed(),
       [](const std::string& b) { (void)obs::read_profile(b); });
}

TEST(CodecFuzz, Slo) {
  fuzz(slo_bytes(slo_report()),
       [](const std::string& b) { (void)obs::read_slo(b); });
}

TEST(CodecFuzz, Ingest) {
  // The strict whole-stream read, then the incremental parser fed in
  // uneven chunks. The parser never throws; it ends in kEnd exactly when
  // the strict read succeeds, with the same frames, and a kError carries
  // a message. Breaking any of these is not a vs::Error, so it fails the
  // case.
  fuzz(ingest_seed(), [](const std::string& b) {
    bool strict_ok = true;
    serve::IngestFile whole;
    try {
      whole = serve::read_ingest(b);
    } catch (const Error&) {
      strict_ok = false;
    }
    using Status = serve::IngestParser::Status;
    serve::IngestParser p;
    std::vector<serve::IngestFrame> frames;
    Status st = Status::kNeedMore;
    try {
      for (std::size_t at = 0, chunk = 1; at < b.size(); at += chunk) {
        chunk = 1 + (at * 7 + b.size()) % 61;
        p.feed(b.data() + at, std::min(chunk, b.size() - at));
        serve::IngestFrame f;
        while ((st = p.next(f)) == Status::kFrame) frames.push_back(f);
        if (st == Status::kError) break;
      }
    } catch (const Error& e) {
      throw std::logic_error(std::string("IngestParser threw: ") + e.what());
    }
    if (st == Status::kError && p.error().empty()) {
      throw std::logic_error("IngestParser kError without a message");
    }
    if (strict_ok != (st == Status::kEnd) ||
        (strict_ok && frames != whole.frames)) {
      throw std::logic_error("incremental and whole-stream reads disagree");
    }
    if (!strict_ok) throw Error("rejected");
  });
}

}  // namespace
}  // namespace vstest
