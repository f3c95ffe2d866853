#pragma once
// Request-level SLO observability for the serving path.
//
// SloMonitor measures what a *client* experiences from the ingest/query
// daemon: wall-clock latency per request, bucketed by request class
// (update / find / round) into log-bucketed histograms, plus RED counters
// (rate / errors / duration). Find latencies are additionally recorded
// distance-normalized (ns per unit of the Theorem 5.2 distance d) and per
// distance band, bridging the BoundAuditor's logical cost currency to real
// time the same way the profiler's ns_per_work does.
//
// An SloSpec (`slo v1` strict text format, parse(to_string()) == spec)
// declares objectives — e.g. `objective find p99 <= 2000000ns`,
// `objective find ns_per_d p99 <= 1500`, `availability >= 99.900` — and a
// pair of burn-rate windows. The evaluator tracks, per objective, the
// fraction of requests violating it over a short and a long trailing
// window (5m/1h-style, keyed by virtual time so replays evaluate
// identically; `clock wall` switches to wall-derived time for live
// deployments) and fires a replayable VSINCID1 incident when the error
// budget burn rate exceeds the fast threshold in the short window AND the
// slow threshold in the long window — the multi-window multi-burn-rate
// alerting shape, which pages before the SLO is fully blown. Incidents
// carry the spec, the per-objective window state, and latency exemplars:
// each exemplar links a slow request's span to its OpId, so
// `vinestalk_trace spans <trace> <find-id>` (find id == op index)
// pretty-prints the causal chain behind the p99 outlier.
//
// Quarantine doctrine (the PR-8 profiler rule): span latencies are real
// nanoseconds and therefore nondeterministic, so they only ever leave the
// process through the VSSLO1 sidecar (+ JSON twin) and the Prometheus
// live-scrape surface. Everything the byte-identity doctrine covers —
// world trace, VSTELEM1, incidents' deterministic fields, stdout — is
// identical whether a monitor is attached or not, at any --jobs.
// The burn-rate *incidents* are the one deliberate exception: they exist
// only when a monitor is armed, live in their own files, and are judged
// on wall-clock latency by design (an alert about real time cannot be a
// pure function of virtual time).
//
// Cost model: no monitor attached = a null-pointer test per hook; spans
// read the clock only when armed.

#include <array>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/monitor/incident.hpp"
#include "obs/op.hpp"

namespace vs::obs {

/// Request classes the serving path distinguishes.
enum class SloClass : std::uint8_t {
  kUpdate = 0,  // one ingest update frame: admission -> world apply
  kFind = 1,    // one find RPC: issue -> return
  kRound = 2,   // one drain round: drain -> time advanced
};
inline constexpr std::size_t kSloClasses = 3;

[[nodiscard]] const char* to_string(SloClass cls);

/// Find-distance bands: band = bit-width of d (1, 2, 3-4, 5-8, ... hops),
/// clamped to the last band. Log-spaced like Theorem 5.2's cost growth.
inline constexpr std::size_t kSloFindBands = 8;
[[nodiscard]] std::size_t slo_find_band(std::int64_t distance);
/// Human label for a band, e.g. "d 5-8".
[[nodiscard]] std::string slo_band_label(std::size_t band);

/// One declared objective. Quantile objectives bound a latency percentile
/// of a request class; `ns_per_d` variants (find only) bound the
/// distance-normalized latency. A request violates the objective when its
/// (normalized) latency exceeds `target_ns` — the burn windows track the
/// violating fraction against the quantile's error budget.
struct SloObjective {
  SloClass cls = SloClass::kFind;
  bool ns_per_d = false;
  int permille = 990;           // quantile in permille (990 = p99)
  std::int64_t target_ns = 0;   // bound in ns (per unit d when ns_per_d)

  /// Canonical spec line body, e.g. "find p99 <= 2000000ns".
  [[nodiscard]] std::string to_string() const;
  [[nodiscard]] bool operator==(const SloObjective&) const = default;
};

/// The `slo v1` spec. Strict line format, canonical rendering:
///
///   slo v1
///   objective find p99 <= 2000000ns
///   objective find ns_per_d p99 <= 1500
///   availability >= 99.900
///   window short 300000000us long 3600000000us
///   burn fast 14.40 slow 6.00
///   clock virtual
///   end
///
/// `objective` lines repeat (0+). `availability` is optional (omitted when
/// unset). Quantiles parse as p<1-3 digits> (p5 = p500 = median, p99 =
/// p990, p999); targets accept ns/us/ms suffixes and canonicalize to ns.
/// parse(to_string()) == spec, and parse is strict: unknown lines, missing
/// header/end, or out-of-range values throw vs::Error.
struct SloSpec {
  std::vector<SloObjective> objectives;
  /// Availability floor in milli-percent (99900 = 99.9%); 0 = no
  /// availability objective.
  std::int64_t avail_milli = 0;
  std::int64_t window_short_us = 300'000'000;     // 5 virtual minutes
  std::int64_t window_long_us = 3'600'000'000;    // 1 virtual hour
  /// Burn-rate thresholds in centi (1440 = 14.40x budget burn).
  std::int64_t burn_fast_centi = 1440;
  std::int64_t burn_slow_centi = 600;
  /// false = windows keyed by virtual time (replay-exact); true = by
  /// wall-derived time (live deployments without a meaningful round clock).
  bool wall_clock = false;

  [[nodiscard]] std::string to_string() const;
  [[nodiscard]] static SloSpec parse(const std::string& text);
  [[nodiscard]] bool operator==(const SloSpec&) const = default;
};

/// Per-objective burn-window state, as exported (sidecar, incidents, top).
struct SloObjectiveState {
  std::string name;  // canonical objective line body ("find p99 <= ...")
  std::int64_t short_req = 0, short_bad = 0;
  std::int64_t long_req = 0, long_bad = 0;
  std::int64_t burn_short_centi = 0;
  std::int64_t burn_long_centi = 0;
  /// Current percentile estimate for quantile objectives (ns); 0 for
  /// availability.
  std::int64_t measured_ns = 0;
  std::int64_t target_ns = 0;
  bool fired = false;
};

/// Everything the monitor knows, snapshot for the VSSLO1 sidecar and the
/// exporters. Latencies in wall ns.
struct SloReport {
  std::string spec_text;
  bool wall_clock = false;
  std::int64_t end_t_us = 0;  // window clock at snapshot
  struct ClassStats {
    std::int64_t requests = 0;  // RED rate: all requests, served or not
    std::int64_t errors = 0;    // RED errors (wire, drops, deadline misses)
    Histogram latency;          // served requests only, log2 ns buckets
  };
  std::array<ClassStats, kSloClasses> classes;
  Histogram find_ns_per_d;  // latency / max(1, d) per find
  /// Only bands with samples; .first is the slo_find_band index.
  std::vector<std::pair<std::uint32_t, Histogram>> find_bands;
  std::vector<SloObjectiveState> objectives;
  std::vector<SloExemplar> exemplars;  // slowest first, up to 8 per class

  /// Error budget left in the long window, in milli of the budget
  /// (1000 = untouched, 0 = fully burned), for objective i.
  [[nodiscard]] std::int64_t budget_remaining_milli(std::size_t i) const;
};

class SloMonitor;

/// RAII request span. Open it when the request enters the serving path;
/// close_*() when it completes (reads the monotonic clock at both ends).
/// A span destroyed without being closed counts as an error against its
/// class — the exception-path safety net. Inert (no clock reads) when
/// constructed without a monitor.
class SloSpan {
 public:
  SloSpan() = default;
  SloSpan(SloMonitor* mon, SloClass cls);
  SloSpan(const SloSpan&) = delete;
  SloSpan& operator=(const SloSpan&) = delete;
  SloSpan(SloSpan&& other) noexcept;
  SloSpan& operator=(SloSpan&& other) noexcept;
  ~SloSpan();

  [[nodiscard]] bool armed() const { return mon_ != nullptr; }

  /// `t_us` is the window-clock time at completion (virtual time unless
  /// the spec says `clock wall`).
  void close_update(std::int64_t t_us);
  void close_find(std::int64_t t_us, OpId op, std::int64_t distance,
                  bool deadline_missed);
  void close_round(std::int64_t t_us);

 private:
  SloMonitor* mon_ = nullptr;
  SloClass cls_ = SloClass::kUpdate;
  std::uint64_t t0_ns_ = 0;
};

class SloMonitor {
 public:
  explicit SloMonitor(SloSpec spec);

  [[nodiscard]] const SloSpec& spec() const { return spec_; }

  /// Monotonic wall clock (ns) — span endpoints.
  [[nodiscard]] static std::uint64_t now_ns();

  /// Replaces the scenario embedded into fired incidents (the driver's
  /// replayable workload description). The spec text is always attached.
  void set_scenario(ScenarioSpec scenario);
  /// Incident sink for burn-rate alerts; no sink = alerts only visible in
  /// the report/exporters.
  void set_incident_sink(std::function<void(const IncidentBundle&)> sink);

  /// Raw span entry points (SloSpan wraps these).
  [[nodiscard]] std::uint64_t open_span() const { return now_ns(); }
  void close_update(std::uint64_t t0_ns, std::int64_t t_us);
  void close_find(std::uint64_t t0_ns, std::int64_t t_us, OpId op,
                  std::int64_t distance, bool deadline_missed);
  void close_round(std::uint64_t t0_ns, std::int64_t t_us);
  /// Request-shaped failures with no span (wire errors, queue drops):
  /// RED errors + availability-window bad events at `t_us`.
  void note_errors(SloClass cls, std::int64_t t_us, std::int64_t n);
  /// A span abandoned without completion (SloSpan destructor).
  void note_abort(SloClass cls);

  /// Re-evaluate every objective's burn windows at `t_us` and fire
  /// incidents for newly violated ones. Called from close_find/close_round
  /// already; drivers may call it at their own cadence too.
  void evaluate(std::int64_t t_us);

  [[nodiscard]] SloReport report() const;
  /// state JSON only (per-objective windows) — what incidents embed.
  [[nodiscard]] std::string state_json() const;
  [[nodiscard]] bool any_fired() const;

 private:
  /// Aggregated (t, requests, bad) history for one objective's windows —
  /// one bucket per evaluate() call, pruned past the long window. Keeps
  /// evaluation O(1) amortized per request.
  struct BurnWindow {
    struct Bucket {
      std::int64_t t_us = 0;
      std::int64_t req = 0;
      std::int64_t bad = 0;
    };
    std::deque<Bucket> buckets;
    std::int64_t cur_req = 0, cur_bad = 0;  // accumulating since last seal
    std::int64_t short_req = 0, short_bad = 0;
    std::int64_t long_req = 0, long_bad = 0;
    std::size_t short_begin = 0;  // buckets[short_begin..] is short window
    bool fired = false;

    void add(bool bad) {
      ++cur_req;
      if (bad) ++cur_bad;
    }
    void seal(std::int64_t t_us, std::int64_t short_us, std::int64_t long_us);
  };

  void record(SloClass cls, std::int64_t latency_ns, std::int64_t t_us,
              OpId op, std::int64_t distance, bool error);
  void consider_exemplar(SloClass cls, std::int64_t latency_ns,
                         std::int64_t t_us, OpId op, std::int64_t distance);
  /// Budget denominator in milli: 1000 - permille for quantile
  /// objectives, scaled availability budget otherwise.
  [[nodiscard]] std::int64_t burn_centi(std::size_t obj, std::int64_t bad,
                                        std::int64_t req) const;
  [[nodiscard]] SloObjectiveState objective_state(std::size_t i) const;
  void fire(std::size_t obj, std::int64_t t_us);

  SloSpec spec_;
  ScenarioSpec scenario_;
  std::function<void(const IncidentBundle&)> sink_;

  struct ClassAcc {
    std::int64_t requests = 0;
    std::int64_t errors = 0;
    Histogram latency;
  };
  std::array<ClassAcc, kSloClasses> classes_;
  Histogram ns_per_d_;
  std::array<Histogram, kSloFindBands> bands_;
  /// windows_[i] tracks spec_.objectives[i]; the optional availability
  /// objective rides behind them (index spec_.objectives.size()).
  std::vector<BurnWindow> windows_;
  std::vector<SloExemplar> exemplars_;  // slowest first, capped per class
  std::int64_t last_t_us_ = 0;
};

}  // namespace vs::obs
