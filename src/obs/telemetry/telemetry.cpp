#include "obs/telemetry/telemetry.hpp"

#include <algorithm>
#include <array>
#include <fstream>
#include <string>

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

using stats::IngestCounters;
using stats::WorkCounters;

/// What one sample reads, gathered once per sample. The ledger and audit
/// entries walk history, so each is computed once, not once per row.
struct SampleInputs {
  tracking::TrackingNetwork& net;
  const WorkCounters& wc;
  /// Per-class ledger totals in OpClass order; zero with no ledger.
  std::array<OpCost, 6> ledger{};
  /// Trailing-window audit ratios ×1000 — move work, move time, max find
  /// work, max find time; zero with no auditor.
  std::array<std::int64_t, 4> audit{};
};

using In = SampleInputs;

template <std::int64_t (WorkCounters::*F)() const>
std::int64_t total(const In& in, Level) {
  return (in.wc.*F)();
}
template <std::int64_t (WorkCounters::*F)(Level) const>
std::int64_t at_level(const In& in, Level l) {
  return (in.wc.*F)(l);
}
template <std::int64_t IngestCounters::*F>
std::int64_t ingest(const In& in, Level) {
  return in.wc.ingest().*F;
}
template <std::size_t Tier>
std::int64_t shed_tier(const In& in, Level) {
  return in.wc.ingest().shed_tier_entries[Tier];
}
template <OpClass C, std::int64_t OpCost::*F>
std::int64_t ledger_cost(const In& in, Level) {
  return in.ledger[static_cast<std::size_t>(C)].*F;
}
template <std::size_t I>
std::int64_t audit_milli(const In& in, Level) {
  return in.audit[I];
}
template <int Permille>
std::int64_t find_latency(const In& in, Level) {
  return in.net.find_census().latency_us.percentile(Permille / 1000.0);
}

enum Scope : std::uint8_t { kWorld, kLevel };
constexpr SeriesKind kCounter = SeriesKind::kCounter;
constexpr SeriesKind kGauge = SeriesKind::kGauge;

struct SeriesRow {
  const char* name;
  SeriesKind kind;
  std::int64_t (*read)(const In&, Level);
  /// kLevel: one series per hierarchy level, named level<l>_<name>.
  Scope scope = kWorld;
};

/// The telemetry layout: every VSTELEM1 series, its kind, and how a
/// sample reads it. A stream carries the kWorld rows in table order, then
/// the kLevel rows for level 0, level 1, ... up to the max level. The
/// sampler builds its header from this table, so a new series is one row.
constexpr SeriesRow kSeries[] = {
    {"events_fired", kCounter,
     [](const In& in, Level) {
       return static_cast<std::int64_t>(in.net.scheduler().events_fired());
     }},
    {"msgs_total", kCounter, total<&WorkCounters::total_messages>},
    {"work_total", kCounter, total<&WorkCounters::total_work>},
    {"move_msgs", kCounter, total<&WorkCounters::move_messages>},
    {"move_work", kCounter, total<&WorkCounters::move_work>},
    {"find_msgs", kCounter, total<&WorkCounters::find_messages>},
    {"find_work", kCounter, total<&WorkCounters::find_work>},
    {"heartbeats", kCounter, total<&WorkCounters::heartbeats>},
    {"duplicated", kCounter, total<&WorkCounters::duplicated>},
    {"jittered", kCounter, total<&WorkCounters::jittered>},
    {"finds_issued", kCounter,
     [](const In& in, Level) { return in.net.find_census().issued; }},
    {"finds_completed", kCounter,
     [](const In& in, Level) { return in.net.find_census().completed; }},
    {"find_latency_p50_us", kGauge, find_latency<500>},
    {"find_latency_p90_us", kGauge, find_latency<900>},
    {"find_latency_p99_us", kGauge, find_latency<990>},
    {"trace_events", kCounter,
     [](const In& in, Level) {
       return static_cast<std::int64_t>(in.net.trace().size());
     }},
    {"ledger_background_msgs", kCounter,
     ledger_cost<OpClass::kBackground, &OpCost::msgs>},
    {"ledger_background_work", kCounter,
     ledger_cost<OpClass::kBackground, &OpCost::work>},
    {"ledger_move_msgs", kCounter, ledger_cost<OpClass::kMove, &OpCost::msgs>},
    {"ledger_move_work", kCounter, ledger_cost<OpClass::kMove, &OpCost::work>},
    {"ledger_find_search_msgs", kCounter,
     ledger_cost<OpClass::kFindSearch, &OpCost::msgs>},
    {"ledger_find_search_work", kCounter,
     ledger_cost<OpClass::kFindSearch, &OpCost::work>},
    {"ledger_find_trace_msgs", kCounter,
     ledger_cost<OpClass::kFindTrace, &OpCost::msgs>},
    {"ledger_find_trace_work", kCounter,
     ledger_cost<OpClass::kFindTrace, &OpCost::work>},
    {"ledger_hb_msgs", kCounter,
     ledger_cost<OpClass::kHeartbeat, &OpCost::msgs>},
    {"ledger_hb_work", kCounter,
     ledger_cost<OpClass::kHeartbeat, &OpCost::work>},
    {"ledger_repair_msgs", kCounter,
     ledger_cost<OpClass::kRepair, &OpCost::msgs>},
    {"ledger_repair_work", kCounter,
     ledger_cost<OpClass::kRepair, &OpCost::work>},
    {"audit_move_work_ratio_milli", kGauge, audit_milli<0>},
    {"audit_move_time_ratio_milli", kGauge, audit_milli<1>},
    {"audit_find_work_ratio_milli", kGauge, audit_milli<2>},
    {"audit_find_time_ratio_milli", kGauge, audit_milli<3>},
    {"ingest_ingested", kCounter, ingest<&IngestCounters::ingested>},
    {"ingest_applied", kCounter, ingest<&IngestCounters::applied>},
    {"ingest_suppressed", kCounter, ingest<&IngestCounters::suppressed>},
    {"ingest_dropped", kCounter, ingest<&IngestCounters::dropped>},
    {"ingest_shed_tier1_entries", kCounter, shed_tier<0>},
    {"ingest_shed_tier2_entries", kCounter, shed_tier<1>},
    {"ingest_shed_tier3_entries", kCounter, shed_tier<2>},
    {"ingest_queue_depth_peak", kGauge,
     ingest<&IngestCounters::queue_depth_peak>},
    {"ingest_wire_errors", kCounter, ingest<&IngestCounters::wire_errors>},
    {"ingest_retry_after_us", kGauge,
     ingest<&IngestCounters::retry_after_us>},
    {"ingest_rpc_finds_issued", kCounter,
     ingest<&IngestCounters::rpc_finds_issued>},
    {"ingest_rpc_finds_done", kCounter,
     ingest<&IngestCounters::rpc_finds_done>},
    {"ingest_rpc_deadline_misses", kCounter,
     ingest<&IngestCounters::rpc_deadline_misses>},
    {"ingest_rpc_find_attempts", kCounter,
     ingest<&IngestCounters::rpc_find_attempts>},
    {"move_msgs", kCounter, at_level<&WorkCounters::move_messages_at_level>,
     kLevel},
    {"move_work", kCounter, at_level<&WorkCounters::move_work_at_level>,
     kLevel},
    {"find_msgs", kCounter, at_level<&WorkCounters::find_messages_at_level>,
     kLevel},
    {"find_work", kCounter, at_level<&WorkCounters::find_work_at_level>,
     kLevel},
};

/// Calls f(row, level) once per series, in values order.
template <class F>
void for_each_series(Level max_level, F&& f) {
  for (const SeriesRow& row : kSeries) {
    if (row.scope == kWorld) f(row, Level{0});
  }
  for (Level l = 0; l <= max_level; ++l) {
    for (const SeriesRow& row : kSeries) {
      if (row.scope == kLevel) f(row, l);
    }
  }
}

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
  for_each_series(net_->counters().max_level(),
                  [this](const SeriesRow& row, Level l) {
                    header_.series.push_back(
                        {row.scope == kLevel
                             ? "level" + std::to_string(l) + "_" + row.name
                             : std::string(row.name),
                         row.kind});
                  });
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
  // Recycle the oldest ring slot once the ring is full: resizing a
  // right-sized values vector allocates nothing, so steady-state sampling
  // is allocation-free.
  TelemetrySample s;
  if (ring_.size() >= cfg_.ring_capacity && !ring_.empty()) {
    s = std::move(ring_.front());
    ring_.pop_front();
  }
  s.t_us = t_us;
  s.values.resize(header_.series.size());

  SampleInputs in{*net_, net_->counters()};
  if (const OpLedger* ledger = net_->op_ledger(); ledger != nullptr) {
    for (std::size_t c = 0; c < in.ledger.size(); ++c) {
      in.ledger[c] = ledger->class_total(static_cast<OpClass>(c));
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
    in.audit = {milli_ratio(r.move.work_ratio),
                milli_ratio(r.move.time_ratio), milli_ratio(fw),
                milli_ratio(ft)};
  }
  std::size_t at = 0;
  for_each_series(in.wc.max_level(), [&](const SeriesRow& row, Level l) {
    s.values[at++] = row.read(in, l);
  });

  if (writer_.has_value()) writer_->append(s);
  ring_.push_back(std::move(s));
  while (ring_.size() > cfg_.ring_capacity) ring_.pop_front();
  ++samples_;
}

}  // namespace vs::obs
