#pragma once
// Prometheus text-exposition rendering (satellite of the telemetry
// subsystem). The telemetry sampler rewrites one snapshot file from two
// renderers, plus the profiler and SLO ride-alongs (profile_io.hpp,
// slo_io.hpp):
//  * sample_to_prometheus — one decoded telemetry sample, one metric per
//    header series named `vinestalk_telemetry_<series>` and typed by the
//    series' kind (counter or gauge), stamped with the sample's virtual
//    time (a `_t_us` gauge) so a scrape corresponds to a definite cadence
//    boundary.
//  * histogram_to_prometheus — a histogram as the full series a scraper
//    expects: cumulative `_bucket{le="..."}` counts ending at le="+Inf",
//    plus `_sum` and `_count`.
//
// Every family name starts with kPrometheusPrefix. Series names come from
// the metrics table, whose names are identifiers already, so they are
// written as they are. Output follows series order, so snapshots diff
// cleanly across runs.

#include <iosfwd>
#include <string_view>

namespace vs::obs {

class Histogram;
struct TelemetryHeader;
struct TelemetrySample;

inline constexpr std::string_view kPrometheusPrefix = "vinestalk";

void sample_to_prometheus(std::ostream& os, const TelemetryHeader& header,
                          const TelemetrySample& sample);

/// `<prefix>_<name>` as a Prometheus histogram.
void histogram_to_prometheus(std::ostream& os, std::string_view name,
                             const Histogram& h);

}  // namespace vs::obs
