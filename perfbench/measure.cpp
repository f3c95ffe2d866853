#include "measure.hpp"

#include <algorithm>
#include <bit>
#include <fstream>
#include <ostream>
#include <string>

namespace perfbench {

namespace {

constexpr int kSubBits = 10;  // 1024 sub-buckets per power of two
constexpr std::uint64_t kSub = 1ULL << kSubBits;
constexpr int kMaxExp = 41;

std::size_t bucket_of(std::uint64_t ns) {
  if (ns < kSub) return static_cast<std::size_t>(ns);
  const int e = std::min(static_cast<int>(std::bit_width(ns)) - 1, kMaxExp);
  const std::uint64_t sub = (ns >> (e - kSubBits)) & (kSub - 1);
  return static_cast<std::size_t>(
      static_cast<std::uint64_t>(e - kSubBits + 1) * kSub + sub);
}

double bucket_mid(std::size_t b) {
  if (b < kSub) return static_cast<double>(b);
  const int e = static_cast<int>(b / kSub) + kSubBits - 1;
  const std::uint64_t sub = b % kSub;
  const double width = static_cast<double>(1ULL << (e - kSubBits));
  return static_cast<double>((kSub + sub) << (e - kSubBits)) + width / 2.0;
}

}  // namespace

double anon_rss_bytes() {
  std::ifstream is("/proc/self/smaps_rollup");
  std::string key;
  double kib = 0;
  while (is >> key) {
    if (key == "Anonymous:") {
      is >> kib;
      break;
    }
    is.ignore(4096, '\n');
  }
  return kib * 1024.0;
}

LatencyHist::LatencyHist()
    : buckets_(static_cast<std::size_t>(kMaxExp - kSubBits + 2) * kSub, 0) {}

void LatencyHist::add(std::uint64_t ns) {
  ++buckets_[bucket_of(ns)];
  ++count_;
}

void LatencyHist::reset() {
  std::fill(buckets_.begin(), buckets_.end(), 0);
  count_ = 0;
}

double LatencyHist::percentile(double q) const {
  if (count_ == 0) return 0.0;
  const auto rank = static_cast<std::uint64_t>(
      q * static_cast<double>(count_ - 1) + 0.5);
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    seen += buckets_[b];
    if (seen > rank) return bucket_mid(b);
  }
  return bucket_mid(buckets_.size() - 1);
}

const char* layer_name(Layer l) {
  switch (l) {
    case Layer::kSetup: return "setup";
    case Layer::kSetupHierarchy: return "setup.hierarchy";
    case Layer::kSetupNetwork: return "setup.network";
    case Layer::kSetupServer: return "setup.server";
    case Layer::kSetupObjects: return "setup.objects";
    case Layer::kSetupObs: return "setup.obs";
    case Layer::kParse: return "serve.parse";
    case Layer::kOffer: return "serve.offer";
    case Layer::kClientRound: return "client.round";
    case Layer::kServeRound: return "serve.round";
    case Layer::kClientFind: return "client.find";
    case Layer::kServeFind: return "serve.find";
    case Layer::kClientUpdate: return "client.update";
    case Layer::kCount: break;
  }
  return "?";
}

SpanLog::SpanLog(std::size_t capacity) : capacity_(capacity) {
  spans_.reserve(capacity);
}

std::uint64_t SpanLog::record(Layer layer, std::uint64_t parent,
                              std::uint64_t req, std::uint64_t t0_ns,
                              std::uint64_t t1_ns, std::uint64_t child_ns,
                              std::uint64_t id) {
  if (id == 0) id = next_id_++;
  const std::uint64_t dur = t1_ns > t0_ns ? t1_ns - t0_ns : 0;
  Total& t = totals_[static_cast<std::size_t>(layer)];
  ++t.count;
  t.self_ns += dur > child_ns ? dur - child_ns : 0;
  if (spans_.size() < capacity_) {
    spans_.push_back(Span{id, parent, req, t0_ns, t1_ns, layer});
  } else {
    ++elided_;
  }
  return id;
}

void SpanLog::write_jsonl(std::ostream& os) const {
  for (const Span& s : spans_) {
    os << "{\"id\": " << s.id << ", \"parent\": " << s.parent
       << ", \"req\": " << s.req << ", \"name\": \"" << layer_name(s.layer)
       << "\", \"t0_ns\": " << s.t0_ns << ", \"t1_ns\": " << s.t1_ns << "}\n";
  }
  os << "{\"elided\": " << elided_ << "}\n";
}

}  // namespace perfbench
