#pragma once
// Deterministic trial-level parallelism.
//
// Every quantitative result in the benches is a sweep over *independent*
// simulation worlds — different seeds, grid sides, evader models.
// TrialPool runs those trials on N threads with static shard-by-trial-index
// assignment (worker w owns trials w, w+N, w+2N, …; no work stealing, no
// shared mutable state) and hands results back ordered by trial index, so
// the merged output is bit-identical for every --jobs value.
//
// Determinism rule: a trial's randomness must derive from its *index*
// (trial_seed below, or Rng::split from a per-trial root) — never from
// thread identity, wall-clock, or completion order.

#include <cstdint>
#include <exception>
#include <optional>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/log.hpp"
#include "obs/trace_io.hpp"

namespace vs::runner {

/// Worker count used when the caller passes jobs = 0: the VS_JOBS
/// environment variable if set, else std::thread::hardware_concurrency()
/// (at least 1).
[[nodiscard]] int default_jobs();

/// Deterministic, trial-index-keyed seed for a sweep seeded with `base`:
/// a splitmix64 mix, so neighbouring trials get uncorrelated streams.
[[nodiscard]] std::uint64_t trial_seed(std::uint64_t base, std::size_t trial);

class TrialPool {
 public:
  /// jobs = 0 picks default_jobs(); jobs = 1 runs inline on the caller
  /// (no threads spawned — the debuggable path).
  explicit TrialPool(int jobs = 0);

  [[nodiscard]] int jobs() const { return jobs_; }

  /// Run `fn(0) … fn(n-1)` across the pool's threads and return the
  /// results in trial-index order. `fn` is invoked concurrently from
  /// several threads and must only touch state local to its trial. If any
  /// trial throws, the exception of the *lowest-indexed* failing trial is
  /// rethrown after all workers join (again independent of scheduling).
  template <class Fn>
  auto run(std::size_t n, Fn&& fn)
      -> std::vector<std::invoke_result_t<Fn&, std::size_t>> {
    using R = std::invoke_result_t<Fn&, std::size_t>;
    static_assert(!std::is_void_v<R>,
                  "a trial must return its result; merging happens at join");
    std::vector<std::optional<R>> slots(n);
    std::vector<std::exception_ptr> errors(n);
    const std::size_t workers =
        std::min(n, static_cast<std::size_t>(jobs_));
    const auto shard = [&](std::size_t w) {
      for (std::size_t i = w; i < n; i += workers) {
        set_log_trial(static_cast<int>(i));  // attribute this trial's logs
        try {
          slots[i].emplace(fn(i));
        } catch (...) {
          errors[i] = std::current_exception();
        }
      }
      set_log_trial(-1);
    };
    if (workers <= 1) {
      shard(0);
    } else {
      std::vector<std::thread> threads;
      threads.reserve(workers - 1);
      for (std::size_t w = 1; w < workers; ++w) {
        threads.emplace_back(shard, w);
      }
      shard(0);  // the calling thread takes shard 0
      for (auto& t : threads) t.join();
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (errors[i]) std::rethrow_exception(errors[i]);
    }
    std::vector<R> out;
    out.reserve(n);
    for (auto& slot : slots) out.push_back(std::move(*slot));
    return out;
  }

 private:
  int jobs_;
};

/// Join step for per-trial traces: label each trial's events with its
/// index and concatenate in trial-index order — the multi-world layout
/// obs::write_trace serialises.
[[nodiscard]] std::vector<obs::WorldTrace> merge_traces(
    std::vector<std::vector<obs::TraceEvent>> parts);

}  // namespace vs::runner
