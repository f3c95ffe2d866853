#pragma once
// obs::Profiler — wall-clock CPU attribution for a running world.
//
// Everything else in src/obs measures *virtual* resources: messages,
// hop-work, virtual latency, Theorem 4.9/5.2 ratios. This layer measures
// the one thing the virtual auditor cannot: real CPU nanoseconds, broken
// down per subsystem (scheduler fire loop, queue pops, C-gcast delivery,
// tracker grow/shrink/find handlers, stabilizer, fault injector, telemetry
// sampling), per delivered message kind, and per obs::OpId operation
// class — so every OpLedger entry gains a paired real-cost column and
// "ns per unit of Theorem-4.9 work" becomes a reportable
// hardware-efficiency number.
//
// Cost model, in the same two runtime states as tracing (obs/trace.hpp):
//  * disabled: a scope is a pointer test plus a bool load — no clock
//    reads, no stores, no allocation;
//  * enabled: two steady_clock reads plus a small-map upsert per scope.
//
// Determinism doctrine: wall-clock values are inherently nondeterministic,
// so NOTHING here may feed back into any deterministic artifact. Profile
// data lives only in the VSPROF1 sidecar (obs/profile/profile_io.hpp),
// its JSON/flamegraph/Perfetto/Prometheus renderings, and vinestalk_top's
// optional profile panel. Trace, VSTELEM1, incidents, and stdout stay
// byte-identical with profiling enabled at any --jobs —
// tests/test_profile.cpp pins it.
//
// Attribution model: scopes nest on a stack whose packed path
// (one byte per level, root in the low byte) keys a self-time map. Self
// times are exact — a frame's children are subtracted — so the sum of
// self-ns over all paths equals the sum over root frames *by
// construction* (the conservation property the tests pin), and the folded
// paths render directly as flamegraph stacks.

#include <array>
#include <chrono>
#include <cstdint>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "obs/op.hpp"
#include "stats/counters.hpp"

namespace vs::obs {

/// Subsystem a scope attributes its self-time to.
enum class ProfDomain : std::uint8_t {
  kFire = 0,       // scheduler: a fired event's action
  kQueue,          // scheduler: event-queue pop
  kDeliver,        // C-gcast delivery into a tracker/handler
  kTrackerGrow,    // grow / growPar / growNbr handlers
  kTrackerShrink,  // shrink / shrinkUpd handlers
  kTrackerFind,    // find / findQuery / findAck / found / nbrtimeout
  kTrackerTimer,   // shared grow/shrink timer expiry
  kStabilizer,     // §VII heartbeat ticks, probes, acks, repairs
  kFault,          // fault-plan directive execution
  kTelemetry,      // telemetry boundary-hook sampling
  kCount,
};

inline constexpr std::size_t kProfDomains =
    static_cast<std::size_t>(ProfDomain::kCount);
inline constexpr std::size_t kProfMsgKinds =
    static_cast<std::size_t>(stats::MsgKind::kCount);
inline constexpr std::size_t kProfOpClasses = 6;

[[nodiscard]] std::string_view to_string(ProfDomain d);

/// Packed scope path: domain+1 per level, root in the low byte, at most
/// kProfPathDepth levels (deeper scopes fold into their ancestor — depth
/// beyond the instrumented nesting never occurs in practice).
using ProfPath = std::uint64_t;
inline constexpr int kProfPathDepth = 8;

[[nodiscard]] constexpr ProfPath prof_path_push(ProfPath path, int depth,
                                                ProfDomain d) {
  if (depth >= kProfPathDepth) return path;
  return path | (static_cast<ProfPath>(static_cast<std::uint8_t>(d) + 1)
                 << (8 * depth));
}

/// Domains of a packed path, root first.
[[nodiscard]] std::vector<ProfDomain> prof_path_domains(ProfPath path);

/// Scope accumulator: the open-scope stack and the completed tallies.
struct ProfBuf {
  struct Frame {
    ProfPath path;
    std::uint64_t start_ns;
    std::uint64_t child_ns;
    ProfDomain domain;
  };
  struct Cell {
    std::uint64_t ns = 0;
    std::uint64_t count = 0;
  };

  std::vector<Frame> stack;
  std::unordered_map<ProfPath, Cell> paths;  // self-ns per packed path
  std::array<std::uint64_t, kProfDomains> domain_self_ns{};
  std::array<Cell, kProfMsgKinds> msgs{};  // inclusive deliver ns per kind
  std::unordered_map<OpId, Cell> ops;      // inclusive deliver ns per op
  std::array<Cell, kProfOpClasses> classes{};  // the same, per op class
  std::uint64_t root_ns = 0;  // sum of elapsed over depth-0 frames
  std::uint64_t scopes = 0;

  void clear();
};

struct ProfilePathStat {
  ProfPath path;
  std::uint64_t self_ns;
  std::uint64_t count;
};
struct ProfileMsgStat {
  std::uint64_t ns = 0;
  std::uint64_t count = 0;
};
struct ProfileOpStat {
  OpId op = kBackgroundOp;
  std::uint64_t ns = 0;
  std::uint64_t count = 0;
  /// Paired virtual cost from the OpLedger entry (0/0 when no ledger was
  /// attached) — the "real cost column" next to the theorem-bound one.
  std::int64_t work = 0;
  std::int64_t msgs = 0;
};
struct ProfileClassStat {
  std::uint64_t ns = 0;
  std::uint64_t count = 0;
  std::int64_t work = 0;
  std::int64_t msgs = 0;
};
struct ProfileSnapshotRow {
  std::int64_t t_us = 0;  // virtual time of the snapshot
  std::array<std::uint64_t, kProfDomains> domain_self_ns{};
};

/// Merged, immutable result of a profiling run — what the VSPROF1 sidecar
/// serializes and every renderer consumes.
struct ProfileReport {
  std::uint64_t total_ns = 0;  // sum over root frames == sum of self-ns
  std::uint64_t wall_ns = 0;   // enable()→report() wall time
  std::uint64_t scopes = 0;
  std::array<std::uint64_t, kProfDomains> domain_self_ns{};
  std::vector<ProfilePathStat> paths;  // sorted by packed path
  std::array<ProfileMsgStat, kProfMsgKinds> msgs{};
  std::vector<ProfileOpStat> ops;  // sorted by OpId
  std::array<ProfileClassStat, kProfOpClasses> classes{};
  std::vector<ProfileSnapshotRow> snapshots;  // virtual-time ordered
  /// Paired totals of the run's virtual cost (WorkCounters/OpLedger);
  /// total_ns / total_work is the CPU-efficiency number.
  std::int64_t total_work = 0;
  std::int64_t total_msgs = 0;

  [[nodiscard]] double ns_per_work() const {
    return total_work > 0
               ? static_cast<double>(total_ns) / static_cast<double>(total_work)
               : 0.0;
  }
};

class OpLedger;

class Profiler {
 public:
  /// Start accumulating. Clears previous tallies; call outside run().
  void enable();
  /// Stop accumulating (tallies survive for report()).
  void disable();
  [[nodiscard]] bool enabled() const { return enabled_; }
  /// Stable address of the enabled flag — the scheduler's one-load gate.
  [[nodiscard]] const bool* enabled_flag() const { return &enabled_; }

  [[nodiscard]] static std::uint64_t now_ns() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }

  /// The accumulator scopes open and close on. Callers gate on enabled().
  [[nodiscard]] ProfBuf& buf() { return main_; }

  /// Open / close one scope on `b`. end_scope returns the frame's
  /// inclusive elapsed ns (0 on an unmatched end — enable() toggled
  /// mid-pair, which only external misuse can produce).
  static void begin_scope(ProfBuf& b, ProfDomain d) {
    b.stack.push_back(ProfBuf::Frame{
        prof_path_push(b.stack.empty() ? 0 : b.stack.back().path,
                       static_cast<int>(b.stack.size()), d),
        now_ns(), 0, d});
  }
  static std::uint64_t end_scope(ProfBuf& b);

  /// Charge one delivered message's inclusive handling time to its kind
  /// and operation (C-gcast's deliver site).
  static void charge_msg(ProfBuf& b, stats::MsgKind kind, OpId op,
                         std::uint64_t ns) {
    auto& mc = b.msgs[static_cast<std::size_t>(kind)];
    mc.ns += ns;
    ++mc.count;
    auto& oc = b.ops[op];
    oc.ns += ns;
    ++oc.count;
    auto& cc = b.classes[static_cast<std::size_t>(op_class(op))];
    cc.ns += ns;
    ++cc.count;
  }

  /// Scheduler probe (sim/profile_probe.hpp): the scheduler calls this
  /// through a raw pointer so sim/ keeps no obs dependency. Phases pair
  /// up: queue-pop begin/end around the heap pop, fire begin/end around
  /// the event action. Fire-end additionally drives periodic snapshots.
  static void probe_thunk(void* ctx, int phase, std::int64_t t_us);

  /// Record a snapshot row at virtual time `t_us`.
  void snapshot_now(std::int64_t t_us);

  /// Merge every tally into an immutable report. `total_work`/`total_msgs`
  /// pair the run's virtual cost (stats::WorkCounters totals); `ledger`,
  /// when given, fills each op row's paired work/msgs column.
  [[nodiscard]] ProfileReport report(std::int64_t total_work = 0,
                                     std::int64_t total_msgs = 0,
                                     const OpLedger* ledger = nullptr) const;

  /// The report's running totals alone: total, wall and scope counts, the
  /// per-domain self times and the per-kind and per-class cells, whose
  /// work/msgs stay 0; paths, ops and snapshots stay empty. Its cost does
  /// not grow with the run, so a live exporter can take it at every
  /// crossing.
  [[nodiscard]] ProfileReport totals(std::int64_t total_work = 0,
                                     std::int64_t total_msgs = 0) const;

  /// Scopes closed so far on the main buffer (0 after a disabled run —
  /// the zero-cost pin, like TraceRecorder::segments_allocated).
  [[nodiscard]] std::uint64_t scopes_recorded() const { return main_.scopes; }

  static constexpr std::uint64_t kSnapshotEvery = 4096;

 private:
  bool enabled_ = false;
  ProfBuf main_;
  std::vector<ProfileSnapshotRow> snapshots_;
  std::uint64_t wall_start_ns_ = 0;
  std::uint64_t fires_since_snapshot_ = 0;
};

/// RAII scope: no-op unless attached and enabled. The buffer pointer is
/// resolved once at entry so an enable()/disable() toggle mid-scope
/// cannot unbalance the stack.
class ProfScope {
 public:
  ProfScope(Profiler* p, ProfDomain d) {
    if (p != nullptr && p->enabled()) {
      buf_ = &p->buf();
      Profiler::begin_scope(*buf_, d);
    }
  }
  ~ProfScope() {
    if (buf_ != nullptr) Profiler::end_scope(*buf_);
  }
  ProfScope(const ProfScope&) = delete;
  ProfScope& operator=(const ProfScope&) = delete;

 private:
  ProfBuf* buf_ = nullptr;
};

}  // namespace vs::obs
