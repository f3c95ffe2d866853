#pragma once
// The benchmark's workloads and the seeded VSINGEST1 client sessions they
// feed the daemon's reader path.

#include <cstdint>
#include <string>
#include <string_view>

namespace perfbench {

enum class Traffic : std::uint8_t {
  kSteady,  // a few one-hop fixes per round, far below every watermark
  kBurst,   // repeated triangular ramps up to 2x ring capacity per queue
};

struct Workload {
  std::string_view name;
  int side = 0;  // side x side grid
  int base = 3;
  int objects = 0;
  Traffic traffic = Traffic::kSteady;
  /// Observability armed the way the daemon arms it (SloMonitor with the
  /// default spec, 10 ms VSTELEM1 telemetry bound to it).
  bool observed = false;
  /// Rounds at the start of every session that run through the same path
  /// but are not measured, so the measured rounds meet a daemon that has a
  /// history (placed objects, retained finds) rather than an empty one.
  int warmup_rounds = 0;
  int rounds_per_session = 0;  // measured rounds, after the warm-up
  int find_every = 0;          // one find RPC per this many rounds
  int fixes_per_round = 0;  // kSteady
  int ramp_rounds = 0;      // kBurst: length of one triangular ramp
  /// Sessions 0..det_sessions-1 always run; the deterministic metrics are
  /// taken over exactly these, so they never depend on machine speed.
  int det_sessions = 1;
};

/// The registered workloads by name, or null.
[[nodiscard]] const Workload* find_workload(std::string_view name);

/// One pre-generated client session: VSINGEST1 bytes and what they hold.
struct SessionInput {
  std::string bytes;
  std::int64_t updates = 0;
  std::int64_t finds = 0;
};

/// Fill `in` with session `session` of workload `w` under `seed`, a pure
/// function of the arguments; `in.bytes` keeps its capacity, so a run that
/// reuses one SessionInput holds one session's bytes at a time. Objects
/// start on the diagonal exactly where vinestalk_served places them; every
/// find RPC carries `deadline_us`.
void make_session(const Workload& w, std::uint64_t seed,
                  std::uint64_t session, std::int64_t deadline_us,
                  std::int64_t queues, std::int64_t queue_capacity,
                  SessionInput& in);

/// Diagonal start cell of object `i` of `objects` (vinestalk_served's rule).
[[nodiscard]] int start_cell(int i, int objects, int side);

}  // namespace perfbench
