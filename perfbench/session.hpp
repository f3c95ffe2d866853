#pragma once
// One client session driven through serve::IngestServer exactly as
// `vinestalk_served --stdin` drives it: a reader thread parses the
// session's VSINGEST1 bytes and offer()s each update; round ticks and find
// RPCs are handed to the driver (the calling thread), which runs
// run_round() / find(). The session builds its own world, so every session
// is a complete, independent run of its input.

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "measure.hpp"
#include "obs/profile/profiler.hpp"
#include "workload.hpp"

namespace perfbench {

/// Everything a session computes that depends only on its input: the same
/// bytes must give an equal Digest on every run, traced or not.
struct Digest {
  std::int64_t ingested = 0, applied = 0, suppressed = 0, dropped = 0;
  std::int64_t wire_errors = 0;
  std::array<std::int64_t, 3> tier_entries{};
  std::int64_t queue_depth_peak = 0;
  std::int64_t rpc_issued = 0, rpc_done = 0, rpc_misses = 0, rpc_attempts = 0;
  /// The world quiesced after the final drain (see run_session).
  bool quiescent = true;
  std::uint64_t events_fired = 0;  // after the final drain
  std::int64_t end_time_us = 0;
  /// WorkCounters deltas from the end of set-up to the end of the drain.
  std::int64_t move_msgs = 0, move_work = 0, find_msgs = 0, find_work = 0;
  std::int64_t moves = 0;  // evader hops applied (move_evader calls)
  std::int64_t finds_started = 0;
  std::int64_t structures_ok = 0;  // objects passing spec::check_consistent
  /// Per answered RPC: virtual latency, work / Theorem 5.2 bound (d > 0
  /// only), highest search level.
  std::vector<std::int64_t> find_vtime_us;
  std::vector<double> find_work_ratio;
  std::vector<int> find_search_level;

  friend bool operator==(const Digest&, const Digest&) = default;
};

/// Wall-clock samples of a run's sessions.
struct Samples {
  /// Latency of each admitted update and each find RPC of the measured
  /// part, in request order, appended until the caller clears them. The
  /// order is a function of the session's bytes, so entry k is the same
  /// request in every run of one session.
  std::vector<std::uint64_t> update_ns;
  std::vector<std::uint64_t> find_ns;
  // Traced runs only, one entry per round / find RPC.
  std::vector<std::uint64_t> round_busy_ns, round_wait_ns;
  std::vector<std::uint64_t> find_busy_ns, find_wait_ns;
};

/// Counts and times over the measured part of a session: every frame after
/// its warm-up rounds (all of it when the workload has none).
struct Measured {
  double ingest_s = 0;  // first measured byte parsed -> finish() returned
  std::int64_t frames = 0;
  std::int64_t updates = 0;   // valid update frames offered
  std::int64_t rejected = 0;  // offers refused (shed or ring full)
  std::int64_t rounds = 0;
  std::int64_t tier3_rounds = 0;
  std::int64_t applied = 0;
  std::int64_t suppressed = 0;
  std::int64_t moves = 0;  // evader hops applied by those rounds
  std::int64_t rpcs = 0;
  std::int64_t attempts = 0;
  // Driver-side split, traced runs only.
  std::uint64_t busy_ns = 0;
  std::uint64_t events_in_rounds = 0;
  std::uint64_t events_in_finds = 0;
};

struct SessionResult {
  std::string error;  // empty when the session passed its checks
  Digest digest;
  Measured measured;
  double setup_s = 0;
  std::array<double, 5> setup_phase_s{};  // hierarchy, network, server,
                                          // objects, obs
  std::int64_t offers = 0;         // offer() calls, warm-up included
  std::int64_t wrong_answers = 0;  // answered finds not at the object
  std::uint64_t injected_ns = 0;   // busy-wait actually spent in offer()
  // anon_rss_bytes() after the final drain, with the world still alive.
  double rss_end_bytes = 0;
  // Traced runs only.
  std::array<std::uint64_t, vs::obs::kProfDomains> prof_self_ns{};
  std::uint64_t telemetry_samples = 0;
  std::uint64_t finds_retained = 0;
};

/// The find RPC deadline every generated session carries:
/// 2 x spec::find_time_bound(h, diameter, delta + e).
[[nodiscard]] std::int64_t find_deadline_us(const Workload& w);

/// Run one session, traced when `tr` is non-null. `session` only
/// namespaces request ids. Latency samples, spans, the profiler and the
/// Measured counters cover the measured part only. `inject_offer_ns` adds a
/// busy-wait inside the harness's offer() wrapper (the attribution
/// self-test); it is 0 in every measured run.
[[nodiscard]] SessionResult run_session(const Workload& w,
                                        const SessionInput& in,
                                        std::uint64_t session,
                                        Samples& samples, SpanLog* tr,
                                        std::uint64_t inject_offer_ns = 0);

/// The `ingest:` and `finds:` lines vinestalk_served --stdin prints for a
/// session with this digest.
[[nodiscard]] std::string daemon_ingest_line(const Digest& d);
[[nodiscard]] std::string daemon_finds_line(const Digest& d);

}  // namespace perfbench
