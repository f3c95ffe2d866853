#include "runner/trial_pool.hpp"

#include <cstdlib>

#include "common/rng.hpp"

namespace vs::runner {

int default_jobs() {
  if (const char* env = std::getenv("VS_JOBS")) {
    const int parsed = std::atoi(env);
    if (parsed >= 1) return parsed > 256 ? 256 : parsed;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

std::uint64_t trial_seed(std::uint64_t base, std::size_t trial) {
  // Golden-ratio stride keeps distinct trials on distinct splitmix64
  // states even for adjacent (base, trial) pairs; +1 so trial 0 of base b
  // differs from trial of a sweep seeded with the mixed value itself.
  std::uint64_t state =
      base ^ (0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(trial) + 1));
  return splitmix64(state);
}

TrialPool::TrialPool(int jobs) : jobs_(jobs == 0 ? default_jobs() : jobs) {
  VS_REQUIRE(jobs_ >= 1, "TrialPool needs at least one worker, got " << jobs);
}

std::vector<obs::WorldTrace> merge_traces(
    std::vector<std::vector<obs::TraceEvent>> parts) {
  std::vector<obs::WorldTrace> merged;
  merged.reserve(parts.size());
  for (std::size_t i = 0; i < parts.size(); ++i) {
    merged.push_back(obs::WorldTrace{static_cast<std::uint32_t>(i),
                                     std::move(parts[i])});
  }
  return merged;
}

}  // namespace vs::runner
