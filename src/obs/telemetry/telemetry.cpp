#include "obs/telemetry/telemetry.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>

#include "common/error.hpp"
#include "obs/profile/profile_io.hpp"
#include "obs/profile/profiler.hpp"
#include "obs/slo/slo.hpp"
#include "obs/slo/slo_io.hpp"
#include "obs/telemetry/prometheus.hpp"
#include "tracking/network.hpp"
#include "tracking/series.hpp"

namespace vs::obs {

namespace {

std::int64_t milli_ratio(double r) {
  return static_cast<std::int64_t>(r * 1000.0);
}

}  // namespace

TelemetrySampler::TelemetrySampler(tracking::TrackingNetwork& net,
                                   TelemetryConfig config)
    : net_(&net), cfg_(std::move(config)) {
  VS_REQUIRE(cfg_.cadence > sim::Duration::zero(),
             "telemetry cadence must be positive, got " << cfg_.cadence);
  header_.cadence_us = cfg_.cadence.count();
  header_.series = tracking::series_defs(net_->counters().max_level());
}

TelemetrySampler::~TelemetrySampler() { finish(); }

void TelemetrySampler::enable() {
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
    // from the newest sample, so a 1ms cadence pays neither per sample.
    if (writer_.has_value()) writer_->flush();
    if (!cfg_.prometheus_path.empty() && !ring_.empty()) {
      write_prometheus();
    }
  }
  return next_due_;
}

void TelemetrySampler::write_prometheus() {
  // Written beside the snapshot and renamed over it, so a scraper reads
  // either the previous snapshot or this one, never a partial file.
  const std::string tmp = cfg_.prometheus_path + ".tmp";
  {
    std::ofstream os(tmp, std::ios::trunc);
    VS_REQUIRE(os.good(), "cannot write prometheus snapshot " << tmp);
    sample_to_prometheus(os, header_, ring_.back());
    histogram_to_prometheus(os, tracking::kFindLatencySeries,
                            net_->find_census().latency_us);
    if (Profiler* p = net_->profiler(); p != nullptr && p->enabled()) {
      // Live CPU gauges ride along when a profiler is attached. They
      // are nondeterministic — which is fine here: the Prometheus
      // snapshot is a live-scrape surface, not one of the
      // byte-identity-guaranteed artifacts.
      profile_to_prometheus(os, p->report(net_->counters().total_work(),
                                          net_->counters().total_messages()));
    }
    if (slo_ != nullptr) {
      // SLO gauges ride along the same way: the Prometheus snapshot is
      // a live-scrape surface, exempt from the byte-identity doctrine
      // the VSSLO1 sidecar's quarantine protects.
      slo_to_prometheus(os, slo_->report());
    }
    os.close();
    VS_REQUIRE(!os.fail(), "cannot write prometheus snapshot " << tmp);
  }
  VS_REQUIRE(std::rename(tmp.c_str(), cfg_.prometheus_path.c_str()) == 0,
             "cannot replace prometheus snapshot " << cfg_.prometheus_path);
}

void TelemetrySampler::take_sample(std::int64_t t_us) {
  // Recycle the oldest ring slot once the ring is full: refilling a
  // right-sized values vector allocates nothing, so steady-state sampling
  // is allocation-free.
  TelemetrySample s;
  if (ring_.size() >= cfg_.ring_capacity && !ring_.empty()) {
    s = std::move(ring_.front());
    ring_.pop_front();
  }
  s.t_us = t_us;
  tracking::AuditMilli audit{};
  if (auditor_ != nullptr && audit_ledger_ != nullptr &&
      cfg_.audit_window > sim::Duration::zero()) {
    const AuditReport r =
        auditor_->audit_window(*audit_ledger_, t_us, cfg_.audit_window);
    double fw = 0.0, ft = 0.0;
    for (const FindAudit& f : r.finds) {
      fw = std::max(fw, f.work_ratio);
      ft = std::max(ft, f.time_ratio);
    }
    audit = {milli_ratio(r.move.work_ratio), milli_ratio(r.move.time_ratio),
             milli_ratio(fw), milli_ratio(ft)};
  }
  s.values.reserve(header_.series.size());
  tracking::read_series(*net_, audit, s.values);

  if (writer_.has_value()) writer_->append(s);
  ring_.push_back(std::move(s));
  while (ring_.size() > cfg_.ring_capacity) ring_.pop_front();
  ++samples_;
}

}  // namespace vs::obs
