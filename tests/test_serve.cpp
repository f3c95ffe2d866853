// The streaming ingest/query daemon (src/serve): VSINGEST1 wire format
// strictness, bounded SPSC backpressure, the degradation ladder
// (coalesce, readmit band, admission control), the exact conservation
// identity (ingested == applied + suppressed + dropped), deterministic
// capture/replay, the deadline/backoff find RPC, the VSTELEM1 ingest
// series, and the vinestalk_served binary end to end.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include <sys/wait.h>

#include "common/error.hpp"
#include "obs/telemetry/telemetry.hpp"
#include "obs/telemetry/telemetry_io.hpp"
#include "obs/trace.hpp"
#include "serve/ingest_io.hpp"
#include "serve/server.hpp"
#include "serve/spsc.hpp"
#include "stats/counters.hpp"
#include "util.hpp"

namespace vstest {
namespace {

#ifndef VS_SERVED_PATH
#error "VS_SERVED_PATH must be defined by the build"
#endif

std::string tmp_path(const std::string& stem) {
  return testing::TempDir() + stem;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void spit(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// ---------------------------------------------------------------- wire io

serve::IngestFrame update_frame(std::uint64_t obj, int x, int y) {
  serve::IngestFrame f;
  f.type = serve::IngestFrame::Type::kUpdate;
  f.update = {obj, x, y};
  return f;
}

serve::IngestFrame round_frame(std::int64_t upto_us) {
  serve::IngestFrame f;
  f.type = serve::IngestFrame::Type::kRound;
  f.round.upto_us = upto_us;
  return f;
}

serve::IngestFrame find_frame(std::uint64_t obj, int x, int y,
                              std::int64_t deadline_us) {
  serve::IngestFrame f;
  f.type = serve::IngestFrame::Type::kFind;
  f.find = {obj, x, y, deadline_us};
  return f;
}

std::string encode_stream(const std::vector<serve::IngestFrame>& frames) {
  std::string out;
  serve::encode_ingest_header(out);
  for (const serve::IngestFrame& f : frames) serve::encode_frame(out, f);
  serve::encode_ingest_trailer(out, frames.size());
  return out;
}

TEST(IngestIo, RoundTripsAllFrameTypes) {
  const std::vector<serve::IngestFrame> frames = {
      update_frame(3, 10, -2), round_frame(5000),
      find_frame(1, 0, 26, 250'000), update_frame(0, 0, 0)};
  const std::string bytes = encode_stream(frames);

  serve::IngestParser p;
  p.feed(bytes.data(), bytes.size());
  std::vector<serve::IngestFrame> got;
  for (;;) {
    serve::IngestFrame f;
    const auto st = p.next(f);
    if (st == serve::IngestParser::Status::kEnd) break;
    ASSERT_EQ(st, serve::IngestParser::Status::kFrame);
    got.push_back(f);
  }
  EXPECT_TRUE(p.complete());
  EXPECT_EQ(p.frames_parsed(), frames.size());
  ASSERT_EQ(got.size(), frames.size());
  for (std::size_t i = 0; i < frames.size(); ++i) {
    EXPECT_EQ(got[i], frames[i]) << "frame " << i;
  }
}

TEST(IngestIo, ParsesByteAtATime) {
  const std::string bytes =
      encode_stream({update_frame(1, 2, 3), round_frame(1000)});
  serve::IngestParser p;
  std::size_t frames = 0;
  bool end = false;
  std::size_t off = 0;
  while (!end) {
    serve::IngestFrame f;
    switch (p.next(f)) {
      case serve::IngestParser::Status::kFrame:
        ++frames;
        break;
      case serve::IngestParser::Status::kEnd:
        end = true;
        break;
      case serve::IngestParser::Status::kNeedMore:
        ASSERT_LT(off, bytes.size()) << "parser starved at EOF";
        p.feed(bytes.data() + off, 1);
        ++off;
        break;
      case serve::IngestParser::Status::kError:
        FAIL() << p.error();
    }
  }
  EXPECT_EQ(frames, 2u);
}

TEST(IngestIo, WriterRoundTripsThroughFileReader) {
  const std::string path = tmp_path("ingest_writer.vsingest");
  {
    serve::IngestWriter w(path);
    w.append(update_frame(7, 1, 1));
    w.append(round_frame(2000));
    w.append(find_frame(7, 3, 3, 9000));
    w.finish();
    EXPECT_EQ(w.frames_written(), 3u);
  }
  const serve::IngestFile f = serve::read_ingest_file(path);
  ASSERT_EQ(f.frames.size(), 3u);
  EXPECT_EQ(f.frames[0], update_frame(7, 1, 1));
  EXPECT_EQ(f.frames[2], find_frame(7, 3, 3, 9000));
}

// Wire-format hostility: every malformation is terminal and yields no
// partially decoded frame — mirrors the obs/trace_io strict reader.

serve::IngestParser::Status drain(serve::IngestParser& p,
                                  std::size_t* frames_out = nullptr) {
  std::size_t frames = 0;
  for (;;) {
    serve::IngestFrame f;
    const auto st = p.next(f);
    if (st == serve::IngestParser::Status::kFrame) {
      ++frames;
      continue;
    }
    if (frames_out != nullptr) *frames_out = frames;
    return st;
  }
}

TEST(IngestIoHostility, RejectsWrongVersion) {
  std::string bytes = encode_stream({update_frame(0, 1, 1)});
  bytes[8] = 99;  // version u32 little end lives right after the magic
  serve::IngestParser p;
  p.feed(bytes.data(), bytes.size());
  EXPECT_EQ(drain(p), serve::IngestParser::Status::kError);
  EXPECT_NE(p.error().find("version"), std::string::npos) << p.error();
}

TEST(IngestIoHostility, RejectsBadMagic) {
  std::string bytes = encode_stream({});
  bytes[0] = 'X';
  serve::IngestParser p;
  p.feed(bytes.data(), bytes.size());
  EXPECT_EQ(drain(p), serve::IngestParser::Status::kError);
}

TEST(IngestIoHostility, CorruptPayloadFailsChecksumAndIsTerminal) {
  std::string bytes = encode_stream({update_frame(0, 1, 1),
                                     update_frame(0, 2, 2)});
  // Flip one payload bit of the first frame: header is 12 bytes, then
  // marker/type/len (4) precede the payload.
  bytes[16] = static_cast<char>(bytes[16] ^ 0x01);
  serve::IngestParser p;
  p.feed(bytes.data(), bytes.size());
  std::size_t frames = 0;
  EXPECT_EQ(drain(p, &frames), serve::IngestParser::Status::kError);
  EXPECT_EQ(frames, 0u) << "a corrupt frame must never be emitted";
  EXPECT_NE(p.error().find("checksum"), std::string::npos) << p.error();
  // Terminal: the intact second frame is unreachable by design.
  serve::IngestFrame f;
  EXPECT_EQ(p.next(f), serve::IngestParser::Status::kError);
}

TEST(IngestIoHostility, RejectsOverLengthFrame) {
  std::string bytes = encode_stream({update_frame(0, 1, 1)});
  bytes[14] = 32;  // len u16 low byte: claim 32 payload bytes, not 16
  serve::IngestParser p;
  p.feed(bytes.data(), bytes.size());
  EXPECT_EQ(drain(p), serve::IngestParser::Status::kError);
  EXPECT_NE(p.error().find("length"), std::string::npos) << p.error();
}

TEST(IngestIoHostility, RejectsUnknownFrameType) {
  std::string bytes = encode_stream({update_frame(0, 1, 1)});
  bytes[13] = 9;  // type byte
  serve::IngestParser p;
  p.feed(bytes.data(), bytes.size());
  EXPECT_EQ(drain(p), serve::IngestParser::Status::kError);
  EXPECT_NE(p.error().find("type"), std::string::npos) << p.error();
}

TEST(IngestIoHostility, TruncatedStreamThrowsOnFileRead) {
  const std::string bytes = encode_stream({update_frame(0, 1, 1)});
  const std::string path = tmp_path("ingest_truncated.vsingest");
  spit(path, bytes.substr(0, bytes.size() - 10));
  EXPECT_THROW((void)serve::read_ingest_file(path), Error);
}

TEST(IngestIoHostility, RejectsTrailerCountMismatch) {
  std::string bytes = encode_stream({update_frame(0, 1, 1)});
  bytes[bytes.size() - 9] = 5;  // u64 count low byte (before end magic)
  serve::IngestParser p;
  p.feed(bytes.data(), bytes.size());
  EXPECT_EQ(drain(p), serve::IngestParser::Status::kError);
  EXPECT_NE(p.error().find("count"), std::string::npos) << p.error();
}

TEST(IngestIoHostility, RejectsBytesAfterTrailer) {
  std::string bytes = encode_stream({});
  bytes += "junk";
  serve::IngestParser p;
  p.feed(bytes.data(), bytes.size());
  EXPECT_EQ(drain(p), serve::IngestParser::Status::kError);
}

// ------------------------------------------------------------------ spsc

TEST(Spsc, BoundedFifoRefusesWhenFull) {
  serve::SpscQueue<int> q(3);
  EXPECT_EQ(q.capacity(), 3u);
  EXPECT_TRUE(q.push(1));
  EXPECT_TRUE(q.push(2));
  EXPECT_TRUE(q.push(3));
  EXPECT_FALSE(q.push(4)) << "a full ring must refuse, not grow";
  int v = 0;
  EXPECT_TRUE(q.pop(v));
  EXPECT_EQ(v, 1);
  EXPECT_TRUE(q.push(4));
  for (const int want : {2, 3, 4}) {
    ASSERT_TRUE(q.pop(v));
    EXPECT_EQ(v, want);
  }
  EXPECT_FALSE(q.pop(v));
}

// ---------------------------------------------------------------- server

struct ServeWorld {
  GridNet g;
  std::unique_ptr<serve::IngestServer> srv;
};

ServeWorld make_serve_world(serve::ServeConfig cfg, int objects = 2,
                            int side = 9) {
  ServeWorld w;
  tracking::NetworkConfig net_cfg;
  net_cfg.model_vsa_failures = true;
  w.g = make_grid(side, 3, net_cfg);
  w.srv = std::make_unique<serve::IngestServer>(*w.g.net, *w.g.hierarchy,
                                                cfg);
  for (int i = 0; i < objects; ++i) {
    w.srv->add_object(w.g.at(side / 2, side / 2));
  }
  return w;
}

void expect_conserved(const stats::IngestCounters& ing) {
  EXPECT_EQ(ing.ingested, ing.applied + ing.suppressed + ing.dropped)
      << "ingested " << ing.ingested << " applied " << ing.applied
      << " suppressed " << ing.suppressed << " dropped " << ing.dropped;
}

TEST(IngestServer, AppliesUpdatesBelowTheWatermarks) {
  serve::ServeConfig cfg;
  cfg.queues = 1;
  cfg.queue_capacity = 64;
  ServeWorld w = make_serve_world(cfg);
  EXPECT_EQ(w.srv->offer({0, 1, 1}), serve::IngestServer::Admit::kQueued);
  EXPECT_EQ(w.srv->offer({1, 7, 7}), serve::IngestServer::Admit::kQueued);
  const serve::RoundReport rep = w.srv->run_round();
  EXPECT_EQ(rep.tier, 0);
  EXPECT_EQ(rep.drained, 2);
  EXPECT_EQ(rep.applied, 2);
  EXPECT_EQ(w.g.net->evaders().region_of(TargetId{0}), w.g.at(1, 1));
  EXPECT_EQ(w.g.net->evaders().region_of(TargetId{1}), w.g.at(7, 7));
  expect_conserved(w.g.net->counters().ingest());
}

TEST(IngestServer, RejectsUnknownObjectAndOutOfBoundsAsWireErrors) {
  serve::ServeConfig cfg;
  ServeWorld w = make_serve_world(cfg);
  EXPECT_EQ(w.srv->offer({9, 1, 1}),
            serve::IngestServer::Admit::kRejectedBad);
  EXPECT_EQ(w.srv->offer({0, -1, 4}),
            serve::IngestServer::Admit::kRejectedBad);
  EXPECT_EQ(w.srv->offer({0, 4, 99}),
            serve::IngestServer::Admit::kRejectedBad);
  w.srv->run_round();
  const stats::IngestCounters& ing = w.g.net->counters().ingest();
  EXPECT_EQ(ing.wire_errors, 3);
  EXPECT_EQ(ing.ingested, 0) << "invalid frames stay outside the identity";
  expect_conserved(ing);
}

TEST(IngestServer, FullRingDropsWithExactAccounting) {
  serve::ServeConfig cfg;
  cfg.queues = 1;
  cfg.queue_capacity = 4;
  ServeWorld w = make_serve_world(cfg, /*objects=*/1);
  int queued = 0, dropped = 0;
  for (int i = 0; i < 10; ++i) {
    const auto a = w.srv->offer({0, 1 + i % 3, 1});
    if (a == serve::IngestServer::Admit::kQueued) ++queued;
    if (a == serve::IngestServer::Admit::kRejectedFull) ++dropped;
  }
  EXPECT_EQ(queued, 4);
  EXPECT_EQ(dropped, 6);
  w.srv->run_round();
  const stats::IngestCounters& ing = w.g.net->counters().ingest();
  EXPECT_EQ(ing.ingested, 10);
  EXPECT_EQ(ing.dropped, 6);
  EXPECT_EQ(ing.queue_depth_peak, 4);
  expect_conserved(ing);
}

// The ladder's watermarks are fixed fractions of the ring: with 8 slots,
// tier 1 starts at 2 drained, the readmit band (tier 2) at 4 and tier 3 at
// 7.

TEST(IngestServer, LadderTier1CoalescesToLastFixPerObject) {
  serve::ServeConfig cfg;
  cfg.queues = 1;
  cfg.queue_capacity = 8;
  ServeWorld w = make_serve_world(cfg, /*objects=*/1);
  for (const int x : {1, 2, 3}) {  // 3 drained: tier 1 only
    ASSERT_EQ(w.srv->offer({0, x, 4}), serve::IngestServer::Admit::kQueued);
  }
  const serve::RoundReport rep = w.srv->run_round();
  EXPECT_EQ(rep.tier, 1);
  EXPECT_EQ(rep.applied, 1) << "only the last fix per object survives";
  EXPECT_EQ(rep.suppressed, 2);
  EXPECT_EQ(w.g.net->evaders().region_of(TargetId{0}), w.g.at(3, 4));
  const stats::IngestCounters& ing = w.g.net->counters().ingest();
  EXPECT_EQ(ing.shed_tier_entries[0], 1);
  EXPECT_EQ(ing.shed_tier_entries[1], 0);
  expect_conserved(ing);
}

TEST(IngestServer, LadderTier2AppliesOneHopFixesAndLeavesTheGateOpen) {
  serve::ServeConfig cfg;
  cfg.queues = 1;
  cfg.queue_capacity = 8;
  ServeWorld w = make_serve_world(cfg, /*objects=*/4);  // starts at (4,4)
  ASSERT_EQ(w.srv->offer({0, 5, 5}), serve::IngestServer::Admit::kQueued);
  ASSERT_EQ(w.srv->offer({1, 4, 3}), serve::IngestServer::Admit::kQueued);
  ASSERT_EQ(w.srv->offer({2, 8, 8}), serve::IngestServer::Admit::kQueued);
  ASSERT_EQ(w.srv->offer({3, 0, 0}), serve::IngestServer::Admit::kQueued);
  const serve::RoundReport rep = w.srv->run_round();
  EXPECT_EQ(rep.tier, 2);
  // The readmit band adds no action of its own: every object's last fix,
  // the one-hop jitters of objects 0 and 1 included, is applied.
  EXPECT_EQ(rep.suppressed, 0);
  EXPECT_EQ(rep.applied, 4);
  EXPECT_EQ(w.g.net->evaders().region_of(TargetId{0}), w.g.at(5, 5));
  EXPECT_EQ(w.g.net->evaders().region_of(TargetId{1}), w.g.at(4, 3));
  EXPECT_EQ(w.g.net->evaders().region_of(TargetId{2}), w.g.at(8, 8));
  const stats::IngestCounters& ing = w.g.net->counters().ingest();
  EXPECT_EQ(ing.shed_tier_entries[0], 1);
  EXPECT_EQ(ing.shed_tier_entries[1], 1);
  EXPECT_EQ(ing.shed_tier_entries[2], 0);
  // Only tier 3 closes the admission gate.
  EXPECT_EQ(w.srv->offer({0, 4, 4}), serve::IngestServer::Admit::kQueued);
  expect_conserved(ing);
}

TEST(IngestServer, LadderTier3ShedsAdmissionWithHysteresis) {
  serve::ServeConfig cfg;
  cfg.queues = 1;
  cfg.queue_capacity = 8;  // tier 3 at 7 drained
  ServeWorld w = make_serve_world(cfg, /*objects=*/1);
  for (int i = 0; i < 7; ++i) {
    ASSERT_EQ(w.srv->offer({0, 1 + i % 5, 1}),
              serve::IngestServer::Admit::kQueued);
  }
  EXPECT_EQ(w.srv->run_round().tier, 3);
  EXPECT_EQ(w.srv->current_tier(), 3);
  // The gate is now closed: new offers shed with a retry-after hint.
  EXPECT_EQ(w.srv->offer({0, 2, 2}),
            serve::IngestServer::Admit::kRejectedShed);
  EXPECT_GT(w.srv->retry_after().count(), 0);
  // Hysteresis: a shed (empty) round falls below the readmit band (tier 2)
  // and reopens the gate.
  EXPECT_EQ(w.srv->run_round().tier, 0);
  EXPECT_EQ(w.srv->offer({0, 3, 3}), serve::IngestServer::Admit::kQueued);
  w.srv->run_round();
  const stats::IngestCounters& ing = w.g.net->counters().ingest();
  EXPECT_EQ(ing.shed_tier_entries[2], 1);
  EXPECT_EQ(ing.dropped, 1);
  expect_conserved(ing);
}

TEST(IngestServer, ConservationHoldsAtEveryRoundBoundaryUnderChurn) {
  serve::ServeConfig cfg;
  cfg.queues = 2;
  cfg.queue_capacity = 8;
  ServeWorld w = make_serve_world(cfg, /*objects=*/3);
  std::uint64_t s = 99;
  const auto rnd = [&] {
    s = s * 6364136223846793005ULL + 1442695040888963407ULL;
    return s >> 33;
  };
  for (int round = 0; round < 20; ++round) {
    const int burst = static_cast<int>(rnd() % 24);
    for (int i = 0; i < burst; ++i) {
      (void)w.srv->offer({rnd() % 3, static_cast<int>(rnd() % 9),
                          static_cast<int>(rnd() % 9)});
    }
    w.srv->run_round();
    expect_conserved(w.g.net->counters().ingest());
  }
  w.srv->finish();
  const stats::IngestCounters& ing = w.g.net->counters().ingest();
  expect_conserved(ing);
  EXPECT_GT(ing.ingested, 0);
  EXPECT_GT(ing.suppressed + ing.dropped, 0)
      << "churn above the watermarks must have shed something";
}

TEST(IngestServer, CaptureReplayReproducesWorldAndCounters) {
  const std::string cap = tmp_path("serve_capture.vsingest");
  serve::ServeConfig cfg;
  cfg.queues = 2;
  cfg.queue_capacity = 8;

  const auto drive = [](serve::IngestServer& srv, RegionId find_from) {
    std::uint64_t s = 7;
    const auto rnd = [&] {
      s = s * 6364136223846793005ULL + 1442695040888963407ULL;
      return s >> 33;
    };
    for (int round = 0; round < 12; ++round) {
      const int burst = static_cast<int>(rnd() % 20);
      for (int i = 0; i < burst; ++i) {
        (void)srv.offer({rnd() % 2, static_cast<int>(rnd() % 9),
                         static_cast<int>(rnd() % 9)});
      }
      srv.run_round();
      if (round == 5) {
        (void)srv.find(find_from, 0, sim::Duration::millis(400));
      }
    }
    srv.finish();
  };

  serve::ServeConfig live_cfg = cfg;
  live_cfg.capture_path = cap;
  ServeWorld live = make_serve_world(live_cfg);
  drive(*live.srv, live.g.at(0, 0));
  live.g.net->run_to_quiescence();
  const stats::IngestCounters live_ing = live.g.net->counters().ingest();

  ServeWorld replay = make_serve_world(cfg);
  replay.srv->replay_file(cap);
  replay.g.net->run_to_quiescence();
  const stats::IngestCounters& rep_ing = replay.g.net->counters().ingest();

  EXPECT_EQ(replay.g.net->now(), live.g.net->now());
  for (const TargetId t : {TargetId{0}, TargetId{1}}) {
    EXPECT_EQ(replay.g.net->evaders().region_of(t),
              live.g.net->evaders().region_of(t));
  }
  EXPECT_EQ(rep_ing.applied, live_ing.applied);
  EXPECT_EQ(rep_ing.suppressed, live_ing.suppressed);
  EXPECT_EQ(rep_ing.shed_tier_entries, live_ing.shed_tier_entries);
  EXPECT_EQ(rep_ing.dropped, 0)
      << "reader-side drops never reached the world, so a replay has none";
  expect_conserved(rep_ing);
}

TEST(IngestServer, FindMeetsDeadlineAndMissesReportRetryAfter) {
  ServeWorld w = make_serve_world(serve::ServeConfig{}, /*objects=*/1);
  const serve::FindOutcome hit = serve::find_with_deadline(
      *w.g.net, w.g.at(0, 0), TargetId{0}, sim::Duration::millis(400),
      /*attempts=*/3, sim::Duration::millis(1));
  EXPECT_TRUE(hit.done);
  EXPECT_EQ(hit.attempts, 1);
  EXPECT_TRUE(w.g.net->find_result(hit.id).done);

  const serve::FindOutcome miss = serve::find_with_deadline(
      *w.g.net, w.g.at(0, 0), TargetId{0}, sim::Duration::micros(200),
      /*attempts=*/3, sim::Duration::millis(1));
  EXPECT_FALSE(miss.done);
  EXPECT_EQ(miss.attempts, 3) << "every attempt must be spent before a miss";
  EXPECT_GT(miss.retry_after.count(), 0);
}

// ------------------------------------------------------- telemetry series

TEST(ServeTelemetry, IngestSeriesReflectTheCounters) {
  serve::ServeConfig cfg;
  cfg.queues = 1;
  cfg.queue_capacity = 4;
  ServeWorld w = make_serve_world(cfg, /*objects=*/1);
  obs::TelemetryConfig tcfg;
  tcfg.cadence = sim::Duration::millis(1);  // one sample per drain round
  obs::TelemetrySampler sampler(*w.g.net, tcfg);
  sampler.enable();
  for (int i = 0; i < 8; ++i) {
    (void)w.srv->offer({0, 1 + i % 4, 1});
  }
  w.srv->run_round();
  w.srv->run_round();
  w.srv->finish();
  ASSERT_FALSE(sampler.ring().empty());
  const obs::TelemetrySample& s = sampler.ring().back();
  const auto value = [&](std::string_view name) {
    const std::optional<std::size_t> i = sampler.header().index_of(name);
    EXPECT_TRUE(i.has_value()) << name;
    return i.has_value() ? s.values[*i] : -1;
  };
  const stats::IngestCounters& ing = w.g.net->counters().ingest();
  EXPECT_EQ(value("ingest_ingested"), ing.ingested);
  EXPECT_EQ(value("ingest_applied"), ing.applied);
  EXPECT_EQ(value("ingest_suppressed"), ing.suppressed);
  EXPECT_EQ(value("ingest_dropped"), ing.dropped);
  EXPECT_EQ(value("ingest_queue_depth_peak"), ing.queue_depth_peak);
  EXPECT_EQ(value("ingest_ingested"), value("ingest_applied") +
                                          value("ingest_suppressed") +
                                          value("ingest_dropped"))
      << "the stream must carry the conservation identity";
}

TEST(ServeTelemetry, SeriesNamesIncludeIngestBlock) {
  ServeWorld w = make_serve_world(serve::ServeConfig{}, /*objects=*/1);
  const obs::TelemetrySampler sampler(*w.g.net, obs::TelemetryConfig{});
  const obs::TelemetryHeader& h = sampler.header();
  // The ingest block sits in IngestCounters order after the audit block;
  // only the queue-depth high-water mark is a gauge.
  const std::optional<std::size_t> first = h.index_of("ingest_ingested");
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(h.index_of("audit_find_time_ratio_milli"), *first - 1);
  const std::vector<std::string> block = {
      "ingest_ingested",           "ingest_applied",
      "ingest_suppressed",         "ingest_dropped",
      "ingest_shed_tier1_entries", "ingest_shed_tier2_entries",
      "ingest_shed_tier3_entries", "ingest_queue_depth_peak"};
  ASSERT_LE(*first + block.size(), h.series.size());
  for (std::size_t i = 0; i < block.size(); ++i) {
    const tracking::SeriesDef& d = h.series[*first + i];
    EXPECT_EQ(d.name, block[i]);
    EXPECT_EQ(d.kind, block[i] == "ingest_queue_depth_peak"
                          ? tracking::SeriesKind::kGauge
                          : tracking::SeriesKind::kCounter)
        << d.name;
  }
}

// ------------------------------------------------- the daemon end to end

std::string run_served(const std::string& args) {
  const std::string cmd = std::string(VS_SERVED_PATH) + " " + args + " 2>&1";
  std::unique_ptr<FILE, int (*)(FILE*)> pipe(popen(cmd.c_str(), "r"),
                                             pclose);
  EXPECT_NE(pipe, nullptr);
  std::string out;
  std::array<char, 256> buf{};
  while (fgets(buf.data(), buf.size(), pipe.get()) != nullptr) {
    out += buf.data();
  }
  return out;
}

TEST(ServedBinary, OpenLoopLoadClimbsTheLadderIncidentFree) {
  const std::string out = run_served(
      "--side 9 --base 3 --objects 2 --queues 2 --queue-capacity 16 "
      "--load 16 --overdrive 2 --seed 7 --monitor");
  EXPECT_NE(out.find("max tier 3"), std::string::npos) << out;
  EXPECT_NE(out.find("conservation OK"), std::string::npos) << out;
  EXPECT_NE(out.find("watchdog: 0 violation(s)"), std::string::npos) << out;
}

TEST(ServedBinary, CaptureReplaysToByteIdenticalWorldTrace) {
  const std::string cap = tmp_path("served_cap.vsingest");
  const std::string live = tmp_path("served_live.vst");
  const std::string common =
      "--side 9 --base 3 --objects 2 --queues 2 --queue-capacity 16 ";
  const std::string out1 = run_served(
      common + "--load 12 --overdrive 2 --seed 7 --find-every 6 "
      "--deadline-us 400000 --capture " + cap + " --trace " + live);
  EXPECT_NE(out1.find("conservation OK"), std::string::npos) << out1;
  const std::string live_bytes = slurp(live);
  ASSERT_FALSE(live_bytes.empty());
  const std::string replay = tmp_path("served_replay.vst");
  const std::string out2 =
      run_served(common + "--replay " + cap + " --trace " + replay);
  EXPECT_NE(out2.find("dropped"), std::string::npos) << out2;
  EXPECT_EQ(slurp(replay), live_bytes) << "world trace diverged in replay";

  // The replay's summary reports the live session: the same max tier, tier
  // entries, applied/suppressed split and finds (a replay has no drops, so
  // its ingested count differs).
  const auto line = [](const std::string& out, const std::string& key) {
    const std::size_t at = out.find(key);
    return at == std::string::npos ? "<missing " + key + ">"
                                   : out.substr(at, out.find('\n', at) - at);
  };
  const auto applied_suppressed = [&](const std::string& out) {
    const std::string l = line(out, "ingest:");
    const std::size_t from = l.find(" = ");
    const std::size_t to = l.find(" suppressed");
    return from == std::string::npos || to == std::string::npos
               ? l
               : l.substr(from + 3, to - from - 3);
  };
  EXPECT_EQ(line(out2, "(max tier"), line(out1, "(max tier")) << out1 << out2;
  EXPECT_EQ(line(out2, "shed tier entries:"), line(out1, "shed tier entries:"));
  EXPECT_EQ(applied_suppressed(out2), applied_suppressed(out1));
  EXPECT_EQ(line(out2, "finds:"), line(out1, "finds:"));
  EXPECT_EQ(line(out1, "finds:").rfind("finds: 2 issued", 0), 0u) << out1;
  // Replay counts the final drain's round marker; the live run counts
  // only its ticks.
  const auto rounds = [&](const std::string& out) {
    return std::atoll(line(out, "rounds: ").c_str() + 8);
  };
  EXPECT_EQ(rounds(out1), 12) << out1;
  EXPECT_EQ(rounds(out2), rounds(out1) + 1) << out2;
}

TEST(ServedBinary, MalformedNumberPrintsUsageAndExitsTwo) {
  const std::string out = tmp_path("served_badnum.out");
  for (const std::string bad :
       {"--side abc", "--load 99999999999999999999", "--seed x1",
        "--queue-capacity -1", "--queues 4294967296"}) {
    SCOPED_TRACE(bad);
    const std::string cmd = std::string(VS_SERVED_PATH) + " --load 4 " +
                            bad + " > " + out + " 2>&1";
    const int rc = std::system(cmd.c_str());
    ASSERT_NE(rc, -1);
    ASSERT_TRUE(WIFEXITED(rc)) << "the daemon must not die on a signal";
    EXPECT_EQ(WEXITSTATUS(rc), 2);
    EXPECT_NE(slurp(out).find("usage: vinestalk_served"), std::string::npos)
        << slurp(out);
  }
}

TEST(ServedBinary, OversizedRingsExitWithAMessage) {
  // A ring budget past ServeConfig::kMaxRingSlots is refused before any
  // ring is allocated (exit 1), and a --load burst of overdrive x capacity
  // x queues frames that overflows 64 bits is a usage error (exit 2); in
  // neither case may the daemon die on a signal.
  const std::string out = tmp_path("served_huge.out");
  const std::string payload = tmp_path("served_huge.vsingest");
  spit(payload, encode_stream({update_frame(0, 1, 1)}));
  const std::string served =
      std::string(VS_SERVED_PATH) + " --side 9 --base 3 --objects 1 ";
  for (const auto& [args, status, says] :
       {std::tuple<std::string, int, std::string>{
            "--stdin --queue-capacity 9223372036854775807 < " + payload, 1,
            "ingest rings too large"},
        {"--stdin --queues 4096 --queue-capacity 1024 < " + payload, 1,
         "ingest rings too large"},
        {"--load 4 --queue-capacity 9223372036854775807", 2,
         "usage: vinestalk_served"},
        {"--load 4 --overdrive 4611686018427387904 --queue-capacity 2", 2,
         "usage: vinestalk_served"}}) {
    SCOPED_TRACE(args);
    const int rc = std::system((served + args + " > " + out + " 2>&1").c_str());
    ASSERT_NE(rc, -1);
    ASSERT_TRUE(WIFEXITED(rc)) << "the daemon must not die on a signal";
    EXPECT_EQ(WEXITSTATUS(rc), status);
    EXPECT_NE(slurp(out).find(says), std::string::npos) << slurp(out);
  }
}

TEST(ServedBinary, MalformedStdinExitsNonZeroWithoutPartialApply) {
  const std::string script = tmp_path("served_bad.sh");
  // A valid header and one valid update, then garbage: the strict reader
  // must stop at the first malformed byte and the daemon must exit 1.
  std::string bytes = encode_stream({update_frame(0, 1, 1)});
  bytes = bytes.substr(0, bytes.size() - 17);  // drop the trailer
  bytes += "GARBAGE-NOT-A-FRAME";
  const std::string payload = tmp_path("served_bad.vsingest");
  spit(payload, bytes);
  const std::string cmd = std::string(VS_SERVED_PATH) +
                          " --side 9 --base 3 --objects 1 --stdin < " +
                          payload + " > /dev/null 2>&1";
  const int rc = std::system(cmd.c_str());
  ASSERT_NE(rc, -1);
  EXPECT_NE(WEXITSTATUS(rc), 0) << "malformed stdin must exit non-zero";
}

}  // namespace
}  // namespace vstest
