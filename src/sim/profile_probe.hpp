#pragma once
// Scheduler-side profiling probe contract.
//
// sim/ sits below obs/, so the scheduler cannot name obs::Profiler; like
// the post-step and boundary hooks it takes a raw function pointer plus
// context, and obs::Profiler::probe_thunk implements it. The phases pair
// up around the two per-event costs the fire loop owns: the event-queue
// pop and the event action itself. Everything finer-grained (delivery,
// tracker handlers, telemetry) self-scopes at its own layer.
//
// Cost: unset, one null test per phase site. Set but disabled: the null
// test plus one bool load through `enabled_flag` (the profiler's runtime
// gate lives at the profiler so enable()/disable() never re-arm the
// scheduler).

#include <cstdint>

namespace vs::sim {

inline constexpr int kProbeQueuePopBegin = 0;
inline constexpr int kProbeQueuePopEnd = 1;
inline constexpr int kProbeFireBegin = 2;
inline constexpr int kProbeFireEnd = 3;

/// `t_us` is the virtual time of the fired event on fire phases (the
/// snapshot clock), 0 on queue phases.
using ProfileProbe = void (*)(void* ctx, int phase, std::int64_t t_us);

}  // namespace vs::sim
