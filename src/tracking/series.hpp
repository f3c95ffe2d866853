#pragma once
// The metrics schema of a running world: one ordered table of named
// series (series.cpp), each a counter or a gauge read from the network's
// state, plus the find census's latency histogram as the one non-scalar
// entry. Every surface renders this table: the telemetry sampler's
// VSTELEM1 header and samples, the Prometheus snapshot, an incident
// bundle's metrics_json and the benches' --obs-json. A new counter is one
// row of the table.
//
// The table sits next to TrackingNetwork, whose state every row reads,
// so the layers above it (the watchdog, the SLO monitor, the telemetry
// sampler, the benches) all reach it. The four audit_* rows are the one
// input a network cannot supply itself: the BoundAuditor sits above
// tracking, so its caller computes them (zero without a bound auditor).

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "common/ids.hpp"

namespace vs::tracking {

class TrackingNetwork;

/// A counter only accumulates, so a rate over it is meaningful; a gauge
/// is a level (a percentile, a ratio, a high-water mark, a setting).
enum class SeriesKind : std::uint8_t { kCounter = 0, kGauge = 1 };

struct SeriesDef {
  std::string name;
  SeriesKind kind = SeriesKind::kCounter;
};

/// Trailing-window audit ratios ×1000 — move work, move time, max find
/// work, max find time — for the audit_* rows.
using AuditMilli = std::array<std::int64_t, 4>;

/// Name of the find census's latency histogram (µs), the table's one
/// non-scalar entry.
inline constexpr std::string_view kFindLatencySeries = "find_latency_us";

/// Every series of a world whose hierarchy tops out at `max_level`, in
/// values order: the world rows in table order, then the per-level rows
/// for level 0, 1, ... max_level, named level<l>_<row>.
[[nodiscard]] std::vector<SeriesDef> series_defs(Level max_level);

/// Read every series of `net` into `values`, one per series_defs entry.
/// Reuses `values`' storage, so a caller that recycles one vector reads
/// without allocating.
void read_series(TrackingNetwork& net, const AuditMilli& audit,
                 std::vector<std::int64_t>& values);

/// The world's metrics as one JSON object, read now with the audit rows
/// at 0: {"t_us", "counters", "gauges", "find_latency_us"}. Every line
/// after the first is indented by `indent` spaces.
void series_to_json(std::ostream& os, TrackingNetwork& net, int indent = 0);

}  // namespace vs::tracking
