#include "obs/telemetry/telemetry.hpp"

#include <algorithm>
#include <fstream>
#include <span>

#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "obs/profile/profile_io.hpp"
#include "obs/profile/profiler.hpp"
#include "obs/slo/slo.hpp"
#include "obs/slo/slo_io.hpp"
#include "obs/telemetry/prometheus.hpp"
#include "obs/trace.hpp"
#include "stats/counters.hpp"
#include "tracking/network.hpp"

namespace vs::obs {

namespace {

// Same bucket layout as TrackingNetwork::export_metrics so the stream's
// percentiles and the Prometheus histogram describe one distribution.
constexpr std::int64_t kLatencyBounds[] = {
    1'000,   2'000,   4'000,   8'000,    16'000, 32'000,
    64'000,  128'000, 256'000, 512'000,  1'024'000};

std::int64_t milli_ratio(double r) {
  return static_cast<std::int64_t>(r * 1000.0);
}

}  // namespace

TelemetrySampler::TelemetrySampler(tracking::TrackingNetwork& net,
                                   TelemetryConfig config)
    : net_(&net),
      cfg_(std::move(config)),
      latency_(std::span<const std::int64_t>(kLatencyBounds)) {
  VS_REQUIRE(cfg_.cadence > sim::Duration::zero(),
             "telemetry cadence must be positive, got " << cfg_.cadence);
  header_.cadence_us = cfg_.cadence.count();
  header_.max_level =
      static_cast<std::uint32_t>(net_->counters().max_level());
  header_.series = static_cast<std::uint32_t>(header_.expected_series());
}

TelemetrySampler::~TelemetrySampler() { finish(); }

void TelemetrySampler::enable() {
  if (!kTraceCompiled) return;  // compiled out: stays fully dead
  if (enabled_) return;
  enabled_ = true;
  // First boundary: the next cadence multiple strictly after now — sample
  // k covers the state after every event with when < k × cadence.
  const std::int64_t c = cfg_.cadence.count();
  const std::int64_t k = net_->now().count() / c + 1;
  next_due_ = sim::TimePoint(k * c);
  if (!cfg_.stream_path.empty()) {
    writer_.emplace(cfg_.stream_path, header_);
  }
  net_->scheduler().set_boundary_hook(&TelemetrySampler::hook_thunk, this,
                                      next_due_);
}

void TelemetrySampler::finish() {
  if (!enabled_) return;
  enabled_ = false;
  net_->scheduler().set_boundary_hook(nullptr, nullptr,
                                      sim::TimePoint::never());
  if (writer_.has_value()) {
    writer_->finish();
    writer_.reset();
  }
}

sim::TimePoint TelemetrySampler::hook_thunk(void* ctx, sim::TimePoint upto) {
  return static_cast<TelemetrySampler*>(ctx)->on_boundary(upto);
}

sim::TimePoint TelemetrySampler::on_boundary(sim::TimePoint upto) {
  const ProfScope prof(net_->profiler(), ProfDomain::kTelemetry);
  bool sampled = false;
  while (next_due_ <= upto) {
    take_sample(next_due_.count());
    next_due_ = next_due_ + cfg_.cadence;
    sampled = true;
  }
  if (sampled) {
    // Per-crossing I/O: one stream flush (every buffered record is whole,
    // so the tailed file stays a valid prefix) and one Prometheus rewrite
    // from the newest sample — a 1ms cadence no longer pays a flush
    // syscall and a full registry export per sample.
    if (writer_.has_value()) writer_->flush();
    if (!cfg_.prometheus_path.empty() && !ring_.empty()) {
      std::ofstream os(cfg_.prometheus_path, std::ios::trunc);
      VS_REQUIRE(os.good(),
                 "cannot write prometheus snapshot " << cfg_.prometheus_path);
      MetricsRegistry reg = net_->export_metrics();
      registry_to_prometheus(os, reg, "vinestalk");
      sample_to_prometheus(os, header_, ring_.back(), "vinestalk");
      if (Profiler* p = net_->profiler(); p != nullptr && p->enabled()) {
        // Live CPU gauges ride along when a profiler is attached. They
        // are nondeterministic — which is fine here: the Prometheus
        // snapshot is a live-scrape surface, not one of the
        // byte-identity-guaranteed artifacts.
        profile_to_prometheus(
            os,
            p->report(net_->counters().total_work(),
                      net_->counters().total_messages()),
            "vinestalk");
      }
      if (slo_ != nullptr) {
        // SLO gauges ride along the same way: the Prometheus snapshot is
        // a live-scrape surface, exempt from the byte-identity doctrine
        // the VSSLO1 sidecar's quarantine protects.
        slo_to_prometheus(os, slo_->report(), "vinestalk");
      }
    }
  }
  return next_due_;
}

void TelemetrySampler::take_sample(std::int64_t t_us) {
  const stats::WorkCounters& wc = net_->counters();
  // Recycle the oldest ring slot once the ring is full: assigning into a
  // right-sized values vector allocates nothing, so steady-state sampling
  // is allocation-free.
  TelemetrySample s;
  if (ring_.size() >= cfg_.ring_capacity && !ring_.empty()) {
    s = std::move(ring_.front());
    ring_.pop_front();
  }
  s.t_us = t_us;
  s.values.assign(header_.series, 0);

  s.values[kTsEventsFired] =
      static_cast<std::int64_t>(net_->scheduler().events_fired());
  s.values[kTsMsgsTotal] = wc.total_messages();
  s.values[kTsWorkTotal] = wc.total_work();
  s.values[kTsMoveMsgs] = wc.move_messages();
  s.values[kTsMoveWork] = wc.move_work();
  s.values[kTsFindMsgs] = wc.find_messages();
  s.values[kTsFindWork] = wc.find_work();
  s.values[kTsHeartbeats] = wc.heartbeats();
  s.values[kTsDuplicated] = wc.duplicated();
  s.values[kTsJittered] = wc.jittered();

  latency_.reset();
  for (const auto& [id, fr] : net_->finds()) {
    ++s.values[kTsFindsIssued];
    if (!fr.done) continue;
    ++s.values[kTsFindsCompleted];
    latency_.record(fr.latency().count());
  }
  s.values[kTsFindLatencyP50] = latency_.percentile(0.50);
  s.values[kTsFindLatencyP90] = latency_.percentile(0.90);
  s.values[kTsFindLatencyP99] = latency_.percentile(0.99);
  s.values[kTsTraceEvents] = static_cast<std::int64_t>(net_->trace().size());

  if (const OpLedger* ledger = net_->op_ledger(); ledger != nullptr) {
    for (std::uint32_t c = 0; c < 6; ++c) {
      const OpCost total = ledger->class_total(static_cast<OpClass>(c));
      s.values[kTsLedgerBase + 2 * c] = total.msgs;
      s.values[kTsLedgerBase + 2 * c + 1] = total.work;
    }
  }

  if (auditor_ != nullptr && audit_ledger_ != nullptr &&
      cfg_.audit_window > sim::Duration::zero()) {
    const AuditReport r =
        auditor_->audit_window(*audit_ledger_, t_us, cfg_.audit_window);
    double fw = 0.0, ft = 0.0;
    for (const FindAudit& f : r.finds) {
      fw = std::max(fw, f.work_ratio);
      ft = std::max(ft, f.time_ratio);
    }
    s.values[kTsAuditBase + 0] = milli_ratio(r.move.work_ratio);
    s.values[kTsAuditBase + 1] = milli_ratio(r.move.time_ratio);
    s.values[kTsAuditBase + 2] = milli_ratio(fw);
    s.values[kTsAuditBase + 3] = milli_ratio(ft);
  }

  const stats::IngestCounters& ing = wc.ingest();
  s.values[kTsIngestBase + 0] = ing.ingested;
  s.values[kTsIngestBase + 1] = ing.applied;
  s.values[kTsIngestBase + 2] = ing.suppressed;
  s.values[kTsIngestBase + 3] = ing.dropped;
  s.values[kTsIngestBase + 4] = ing.shed_tier_entries[0];
  s.values[kTsIngestBase + 5] = ing.shed_tier_entries[1];
  s.values[kTsIngestBase + 6] = ing.shed_tier_entries[2];
  s.values[kTsIngestBase + 7] = ing.queue_depth_peak;
  s.values[kTsServeBase + 0] = ing.wire_errors;
  s.values[kTsServeBase + 1] = ing.retry_after_us;
  s.values[kTsServeBase + 2] = ing.rpc_finds_issued;
  s.values[kTsServeBase + 3] = ing.rpc_finds_done;
  s.values[kTsServeBase + 4] = ing.rpc_deadline_misses;
  s.values[kTsServeBase + 5] = ing.rpc_find_attempts;

  std::size_t at = kTsFixedCount;
  for (Level l = 0; l <= wc.max_level(); ++l) {
    s.values[at++] = wc.move_messages_at_level(l);
    s.values[at++] = wc.move_work_at_level(l);
    s.values[at++] = wc.find_messages_at_level(l);
    s.values[at++] = wc.find_work_at_level(l);
  }
  VS_DCHECK(at == s.values.size(), "telemetry layout mismatch");

  if (writer_.has_value()) writer_->append(s);
  ring_.push_back(std::move(s));
  while (ring_.size() > cfg_.ring_capacity) ring_.pop_front();
  ++samples_;
}

}  // namespace vs::obs
