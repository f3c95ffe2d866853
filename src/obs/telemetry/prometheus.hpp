#pragma once
// Prometheus text-exposition rendering (satellite of the telemetry
// subsystem).
//
// Two renderers share one snapshot file:
//  * registry_to_prometheus — a MetricsRegistry (counters, gauges,
//    histograms) in exposition format. Histograms emit the full series a
//    scraper expects: cumulative `_bucket{le="..."}` counts ending at
//    le="+Inf", plus `_sum` and `_count`.
//  * sample_to_prometheus — one decoded telemetry sample, one metric per
//    header series named `<prefix>_telemetry_<series>` and typed by the
//    series' kind (counter or gauge), stamped with the sample's virtual
//    time (a `_t_us` gauge) so a scrape corresponds to a definite cadence
//    boundary.
//
// Metric names mangle '.', '/' and '-' to '_' (Prometheus identifier
// rules) and carry the given prefix ("vinestalk" everywhere in-tree).
// Output order is sorted-by-name / series order, so snapshots diff
// cleanly across runs.

#include <iosfwd>
#include <string_view>

#include "obs/telemetry/telemetry_io.hpp"

namespace vs::obs {

class MetricsRegistry;

void registry_to_prometheus(std::ostream& os, const MetricsRegistry& reg,
                            std::string_view prefix);

void sample_to_prometheus(std::ostream& os, const TelemetryHeader& header,
                          const TelemetrySample& sample,
                          std::string_view prefix);

}  // namespace vs::obs
