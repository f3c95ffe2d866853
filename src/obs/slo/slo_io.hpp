#pragma once
// VSSLO1 — the SLO report sidecar, and its renderings.
//
// Span latencies are wall-clock nanoseconds, so like the VSPROF1 profile
// they are quarantined: an SLO-monitored run writes its SloReport to a
// standalone sidecar (plus a `.json` twin) next to whatever deterministic
// artifacts it also produced, and never into them. The binary form
// round-trips exactly; the renderers produce
//  * JSON (the sidecar twin, machine-readable),
//  * Prometheus gauges (vinestalk_slo_* with per-objective burn rates —
//    the live exporter appends these when a monitor is bound),
//  * a CSV of latency-histogram buckets (`vinestalk_trace slo --csv`).
// The sidecar is written atomically at run end; readers throw vs::Error
// on any malformation, and there is no tail mode.

#include <iosfwd>
#include <string>
#include <string_view>

#include "obs/slo/slo.hpp"

namespace vs::obs {

inline constexpr std::uint32_t kSloFormatVersion = 1;

void write_slo_file(const std::string& path, const SloReport& report);
[[nodiscard]] SloReport read_slo(std::string_view bytes);
[[nodiscard]] SloReport read_slo_file(const std::string& path);

/// JSON rendering (one object; stable key order) — also written as the
/// sidecar's `.json` twin.
void slo_to_json(std::ostream& os, const SloReport& report);

/// Prometheus text-exposition gauges (vinestalk_slo_requests_total{class=
/// "find"}, vinestalk_slo_burn_rate_centi{objective="...",window="short"},
/// ...; the prefix is obs/telemetry/prometheus.hpp's).
void slo_to_prometheus(std::ostream& os, const SloReport& report);

/// Latency-bucket CSV: class,le_ns,count rows (le_ns "+inf" for the
/// overflow bucket), classes then find distance bands.
void slo_to_csv(std::ostream& os, const SloReport& report);

}  // namespace vs::obs
