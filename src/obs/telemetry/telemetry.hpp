#pragma once
// TelemetrySampler — cadence-driven time-series snapshots of a running
// world.
//
// The sampler arms the scheduler's *boundary hook* (see
// sim/scheduler.hpp): at every virtual-time boundary B = k × cadence it
// observes the world in the state "every event with when < B has fired,
// nothing at or past B has", so the resulting VSTELEM1 stream is
// byte-identical at any --jobs. The sampler schedules
// no events of its own: quiescence (Theorem 4.5) is never perturbed, and
// boundaries beyond the final event simply wait for the next run_until
// deadline flush.
//
// Cost model mirrors tracing's two runtime states:
//  * constructed but not enabled: nothing armed — the scheduler hot path
//    pays its usual single compare against a never() boundary, the
//    sampler holds no samples and writes no file;
//  * enabled: one hook call per crossed boundary; events between
//    boundaries cost one compare.
//
// Each sample reads every series of the metrics table
// (tracking/series.hpp): scheduler event count; WorkCounters totals and
// per-level move/find splits; C-gcast drops and losses; the network's
// find census (issued, completed, latency percentiles); trace event
// count; OpLedger per-class totals (when a ledger is attached);
// sliding-window BoundAuditor ratios (when an auditor is bound); and the
// serve daemon's IngestCounters. The header is built from the table once.
//
// Samples land in a bounded in-memory ring (exactly the last
// ring_capacity samples — live introspection) and, when stream_path is
// set, in a VSTELEM1 file flushed once per boundary crossing so
// `vinestalk_top` can tail it mid-run. When prometheus_path is set, each
// boundary crossing also replaces a Prometheus text-exposition snapshot
// (obs/telemetry/prometheus.hpp) rendered from its latest sample and the
// find latency histogram. Per-sample
// allocations are recycled (ring slots, the writer's encode scratch): the
// enabled path's cost is dominated by reading the counters, not by memory
// or I/O churn.

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>

#include "obs/ledger/auditor.hpp"
#include "obs/telemetry/telemetry_io.hpp"
#include "sim/time.hpp"

namespace vs::tracking {
class TrackingNetwork;
}  // namespace vs::tracking

namespace vs::obs {

class SloMonitor;

struct TelemetryConfig {
  /// Virtual-time sampling cadence (boundaries at k × cadence).
  sim::Duration cadence = sim::Duration::millis(10);
  /// Decoded samples kept in memory — exactly the last `ring_capacity`.
  std::size_t ring_capacity = 256;
  /// VSTELEM1 stream destination ("" = ring only).
  std::string stream_path;
  /// Prometheus text-exposition snapshot, replaced at each boundary
  /// crossing ("" = off).
  std::string prometheus_path;
  /// Trailing window for the sliding-window bound audit series
  /// (zero = audit series stay 0 even when an auditor is bound).
  sim::Duration audit_window = sim::Duration::zero();
};

class TelemetrySampler {
 public:
  /// Constructing is free; nothing is armed until enable().
  TelemetrySampler(tracking::TrackingNetwork& net, TelemetryConfig config);
  /// Detaches the hook and finishes the stream (trailer) if enabled.
  ~TelemetrySampler();
  TelemetrySampler(const TelemetrySampler&) = delete;
  TelemetrySampler& operator=(const TelemetrySampler&) = delete;

  /// Arm the scheduler boundary hook; first boundary is the next cadence
  /// multiple strictly after now().
  void enable();
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Bind the sliding-window bound audit: ratios of the trailing
  /// `config.audit_window` are emitted as milli-ratio series at each
  /// sample. Both pointers must outlive the sampler (or disable first).
  void bind_audit(const OpLedger* ledger, const BoundAuditor* auditor) {
    audit_ledger_ = ledger;
    auditor_ = auditor;
  }

  /// Ride the SLO monitor's gauges along in the Prometheus snapshot
  /// (vinestalk_slo_* families). Like the profiler ride-along, this is a
  /// live-scrape surface only — the deterministic VSTELEM1 stream never
  /// sees SLO data. The monitor must outlive the sampler (or disable
  /// first); null unbinds.
  void bind_slo(const SloMonitor* slo) { slo_ = slo; }

  /// Write the stream trailer and disarm the hook (idempotent). Call
  /// before tearing the network down if the sampler outlives it.
  void finish();

  [[nodiscard]] const TelemetryConfig& config() const { return cfg_; }
  [[nodiscard]] const TelemetryHeader& header() const { return header_; }
  /// Last ring_capacity samples, oldest first.
  [[nodiscard]] const std::deque<TelemetrySample>& ring() const {
    return ring_;
  }
  /// Samples taken over the sampler's lifetime (ring may hold fewer).
  [[nodiscard]] std::uint64_t samples_taken() const { return samples_; }

 private:
  static sim::TimePoint hook_thunk(void* ctx, sim::TimePoint upto);
  sim::TimePoint on_boundary(sim::TimePoint upto);
  /// Replace the Prometheus snapshot (via <path>.tmp and a rename).
  void write_prometheus();
  void take_sample(std::int64_t t_us);

  tracking::TrackingNetwork* net_;
  TelemetryConfig cfg_;
  TelemetryHeader header_;
  bool enabled_ = false;
  sim::TimePoint next_due_ = sim::TimePoint::never();
  std::deque<TelemetrySample> ring_;
  std::uint64_t samples_ = 0;
  std::optional<TelemetryWriter> writer_;
  const OpLedger* audit_ledger_ = nullptr;
  const BoundAuditor* auditor_ = nullptr;
  const SloMonitor* slo_ = nullptr;
};

}  // namespace vs::obs
