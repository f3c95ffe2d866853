#include "workload.hpp"

#include <algorithm>
#include <array>
#include <vector>

#include "serve/ingest_io.hpp"

namespace perfbench {

namespace {

// Why each workload exists is written up in README.md next to this file.
constexpr std::array<Workload, 3> kWorkloads = {{
    {.name = "steady_mixed",
     .side = 243,
     .objects = 64,
     .traffic = Traffic::kSteady,
     .warmup_rounds = 1000,
     .rounds_per_session = 1000,
     .find_every = 4,
     .fixes_per_round = 8,
     .det_sessions = 8},
    {.name = "steady_observed",
     .side = 243,
     .objects = 64,
     .traffic = Traffic::kSteady,
     .observed = true,
     .warmup_rounds = 1000,
     .rounds_per_session = 1000,
     .find_every = 4,
     .fixes_per_round = 8,
     .det_sessions = 8},
    {.name = "burst_shed",
     .side = 27,
     .objects = 4,
     .traffic = Traffic::kBurst,
     .rounds_per_session = 256,
     .find_every = 8,
     .ramp_rounds = 64,
     .det_sessions = 128},
}};

/// splitmix64, the generator vinestalk_served's --load mode uses.
std::uint64_t next_rand(std::uint64_t& s) {
  s += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = s;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

int uniform(std::uint64_t& s, int n) {
  return static_cast<int>(next_rand(s) % static_cast<std::uint64_t>(n));
}

}  // namespace

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : kWorkloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

int start_cell(int i, int objects, int side) {
  return (i + 1) * side / (objects + 1);
}

void make_session(const Workload& w, std::uint64_t seed,
                  std::uint64_t session, std::int64_t deadline_us,
                  std::int64_t queues, std::int64_t queue_capacity,
                  SessionInput& in) {
  in.bytes.clear();
  in.updates = in.finds = 0;
  std::uint64_t rng = seed;
  std::uint64_t mix = session ^ 0x5EED5E551011ULL;
  rng ^= next_rand(mix);
  (void)next_rand(rng);

  std::vector<std::pair<int, int>> pos(static_cast<std::size_t>(w.objects));
  for (int i = 0; i < w.objects; ++i) {
    const int c = start_cell(i, w.objects, w.side);
    pos[static_cast<std::size_t>(i)] = {c, c};
  }
  const auto clamp_cell = [&](int v) { return std::clamp(v, 0, w.side - 1); };
  std::uint64_t frames = 0;
  const auto emit = [&](const vs::serve::IngestFrame& f) {
    vs::serve::encode_frame(in.bytes, f);
    ++frames;
  };
  const auto emit_update = [&](std::size_t obj) {
    vs::serve::IngestFrame f;
    f.type = vs::serve::IngestFrame::Type::kUpdate;
    f.update = {static_cast<std::uint64_t>(obj), pos[obj].first,
                pos[obj].second};
    emit(f);
    ++in.updates;
  };

  vs::serve::encode_ingest_header(in.bytes);
  const std::int64_t peak = 2 * queue_capacity;
  const int half = w.ramp_rounds / 2;
  for (int r = 0; r < w.warmup_rounds + w.rounds_per_session; ++r) {
    if (w.traffic == Traffic::kSteady) {
      // One-hop fixes: the king-graph step (dx, dy) in {-1, 0, 1}^2.
      for (int i = 0; i < w.fixes_per_round; ++i) {
        const auto obj = static_cast<std::size_t>(uniform(rng, w.objects));
        auto& [x, y] = pos[obj];
        x = clamp_cell(x + uniform(rng, 3) - 1);
        y = clamp_cell(y + uniform(rng, 3) - 1);
        emit_update(obj);
      }
    } else {
      // vinestalk_served --load --overdrive 2, one ramp per ramp_rounds:
      // +-1-cell jitter with an occasional jump of up to 4 cells.
      const int phase = r % w.ramp_rounds;
      const std::int64_t per_queue =
          phase <= half ? peak * (phase + 1) / (half + 1)
                        : peak * (w.ramp_rounds - phase) /
                              std::max(1, w.ramp_rounds - half);
      const std::int64_t burst = per_queue * queues;
      for (std::int64_t i = 0; i < burst; ++i) {
        const auto obj = static_cast<std::size_t>(uniform(rng, w.objects));
        auto& [x, y] = pos[obj];
        if (next_rand(rng) % 8 == 0) {
          x = clamp_cell(x + uniform(rng, 9) - 4);
          y = clamp_cell(y + uniform(rng, 9) - 4);
        } else {
          x = clamp_cell(x + uniform(rng, 3) - 1);
          y = clamp_cell(y + uniform(rng, 3) - 1);
        }
        emit_update(obj);
      }
    }
    vs::serve::IngestFrame tick;
    tick.type = vs::serve::IngestFrame::Type::kRound;
    emit(tick);
    if ((r + 1) % w.find_every == 0) {
      vs::serve::IngestFrame f;
      f.type = vs::serve::IngestFrame::Type::kFind;
      f.find.object = static_cast<std::uint64_t>(uniform(rng, w.objects));
      f.find.x = uniform(rng, w.side);
      f.find.y = uniform(rng, w.side);
      f.find.deadline_us = deadline_us;
      emit(f);
      ++in.finds;
    }
  }
  vs::serve::encode_ingest_trailer(in.bytes, frames);
}

}  // namespace perfbench
