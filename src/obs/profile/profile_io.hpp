#pragma once
// VSPROF1 — the wall-clock profile sidecar, and its renderings.
//
// Profile data is nondeterministic (real nanoseconds), so it never shares
// a file with a deterministic artifact: a profiled run writes its report
// to a standalone sidecar next to whatever traces/streams it also
// produced. The binary form round-trips exactly; the renderers produce
//  * JSON (machine-readable, the BENCH/bench-history consumer),
//  * folded flamegraph stacks ("fire;deliver;tracker_grow 123" — feed to
//    flamegraph.pl or speedscope),
//  * Prometheus gauges (vinestalk_profile_* — the live exporter appends
//    these to its snapshot when a profiler is attached),
// and vinestalk_trace's Chrome export merges the snapshot rows as
// Perfetto counter tracks (obs/chrome_export.hpp).

#include <iosfwd>
#include <string>
#include <string_view>

#include "obs/profile/profiler.hpp"

namespace vs::obs {

inline constexpr std::uint32_t kProfileFormatVersion = 1;

/// Write/read the binary sidecar. Readers throw vs::Error on any
/// malformation (the sidecar is written atomically at run end; there is
/// no tail mode).
void write_profile_file(const std::string& path, const ProfileReport& report);
[[nodiscard]] ProfileReport read_profile(std::string_view bytes);
[[nodiscard]] ProfileReport read_profile_file(const std::string& path);

/// JSON rendering (one object; stable key order).
void profile_to_json(std::ostream& os, const ProfileReport& report);

/// Folded flamegraph stacks: one "domain;domain;... self_ns" line per
/// path with recorded scopes, path-sorted.
void profile_to_folded(std::ostream& os, const ProfileReport& report);

/// Prometheus text-exposition gauges (vinestalk_profile_self_ns{domain=
/// "fire"} etc; the prefix is obs/telemetry/prometheus.hpp's).
void profile_to_prometheus(std::ostream& os, const ProfileReport& report);

}  // namespace vs::obs
