#include "hier/strip_hierarchy.hpp"

#include <utility>

#include "common/error.hpp"

namespace vs::hier {

namespace {
std::int64_t ipow(std::int64_t b, Level e) {
  std::int64_t r = 1;
  for (Level i = 0; i < e; ++i) r *= b;
  return r;
}
}  // namespace

StripHierarchy::StripHierarchy(int length, int base)
    : strip_(length), base_(base) {
  VS_REQUIRE(base >= 2, "strip hierarchy base must be >= 2");
  Level max_level = 1;
  while (ipow(base, max_level) < length) ++max_level;

  std::vector<LevelAssignment> levels(static_cast<std::size_t>(max_level) + 1);
  for (Level l = 0; l <= max_level; ++l) {
    const std::int64_t block = ipow(base, l);
    auto& assign = levels[static_cast<std::size_t>(l)].cluster_index_of_region;
    assign.resize(strip_.num_regions());
    for (std::size_t u = 0; u < strip_.num_regions(); ++u) {
      assign[u] = static_cast<std::int32_t>(static_cast<std::int64_t>(u) / block);
    }
  }

  const auto pick_head = [](std::span<const RegionId> mem, Level) -> RegionId {
    return mem[mem.size() / 2];  // middle member
  };
  build(strip_, std::move(levels), pick_head);

  std::vector<std::int64_t> n, p, q, omega;
  for (Level l = 0; l <= max_level; ++l) {
    const std::int64_t rl = ipow(base, l);
    n.push_back(2 * rl - 1);
    p.push_back(rl * base - 1);
    q.push_back(rl);
    omega.push_back(2);
  }
  set_geometry(std::move(n), std::move(p), std::move(q), std::move(omega));
}

}  // namespace vs::hier
