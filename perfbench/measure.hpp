#pragma once
// Measurement for the benchmark: a fixed-size latency histogram for the
// untraced runs, the span store of the traced runs, and the RSS reading.
// All live in the harness; nothing here reaches into src/.

#include <array>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <vector>

namespace perfbench {

[[nodiscard]] inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// The anonymous part of the process's resident set now (heap, stacks,
/// anonymous mappings), in bytes, counted page by page from
/// /proc/self/smaps_rollup; 0 if it cannot be read. The kernel's running
/// RSS counters (statm, getrusage) are batched per CPU and can be a few
/// hundred KiB off, a tenth of a small world's footprint. The file-backed
/// part (code of the binary and its libraries) is left out: how much of it
/// is mapped depends on the page cache, and it moved by 3% between runs of
/// one seed while the anonymous part repeated exactly.
[[nodiscard]] double anon_rss_bytes();

/// Log-linear histogram of nanosecond samples: exact below 1024 ns, and
/// 1/1024 relative resolution above, up to ~2^41 ns. Its size is fixed, so
/// a run's sample memory does not grow with the run's length.
class LatencyHist {
 public:
  LatencyHist();
  void add(std::uint64_t ns);
  void reset();
  [[nodiscard]] std::uint64_t count() const { return count_; }
  /// Nearest-rank percentile (q in [0, 1]) in ns, at bucket midpoint.
  [[nodiscard]] double percentile(double q) const;

 private:
  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
};

/// The layers the traced run times, one span name each. A layer's self
/// time is its span's duration minus the part its child span covers.
enum class Layer : std::uint8_t {
  kSetup = 0,       // world construction, parent of the setup.* spans
  kSetupHierarchy,  // hier::GridHierarchy
  kSetupNetwork,    // tracking::TrackingNetwork
  kSetupServer,     // serve::IngestServer
  kSetupObjects,    // every IngestServer::add_object
  kSetupObs,        // SloMonitor + TelemetrySampler armed
  kParse,           // IngestParser::feed / next, one span per frame
  kOffer,           // IngestServer::offer
  kClientRound,     // reader: round tick posted -> driver done
  kServeRound,      // driver: IngestServer::run_round
  kClientFind,      // reader: find RPC posted -> answer back
  kServeFind,       // driver: IngestServer::find
  kClientUpdate,    // one update request: offer -> end of its round
  kCount,
};
inline constexpr std::size_t kLayers = static_cast<std::size_t>(Layer::kCount);

[[nodiscard]] const char* layer_name(Layer l);

/// Finished spans of a traced run, kept in memory and written out when the
/// run ends. Totals per layer cover every span; the stored list keeps the
/// first `capacity` spans so memory stays bounded.
class SpanLog {
 public:
  struct Span {
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  // 0 = root
    std::uint64_t req = 0;     // request id shared by a request's spans
    std::uint64_t t0_ns = 0;
    std::uint64_t t1_ns = 0;
    Layer layer = Layer::kSetup;
  };
  struct Total {
    std::uint64_t count = 0;
    std::uint64_t self_ns = 0;
  };

  explicit SpanLog(std::size_t capacity);

  /// A fresh span id, for a span whose children finish before it does.
  [[nodiscard]] std::uint64_t reserve_id() { return next_id_++; }
  /// Record a finished span; `child_ns` is the part of [t0, t1] covered by
  /// its children. Returns its id (`id` when non-zero, else a fresh one).
  std::uint64_t record(Layer layer, std::uint64_t parent, std::uint64_t req,
                       std::uint64_t t0_ns, std::uint64_t t1_ns,
                       std::uint64_t child_ns = 0, std::uint64_t id = 0);

  [[nodiscard]] const Total& total(Layer l) const {
    return totals_[static_cast<std::size_t>(l)];
  }
  /// One JSON object per stored span, then a line with the elided count.
  void write_jsonl(std::ostream& os) const;

 private:
  std::vector<Span> spans_;
  std::size_t capacity_;
  std::uint64_t elided_ = 0;
  std::uint64_t next_id_ = 1;
  std::array<Total, kLayers> totals_{};
};

}  // namespace perfbench
