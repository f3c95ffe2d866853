#include "obs/telemetry/prometheus.hpp"

#include <ostream>
#include <string>

#include "obs/metrics.hpp"

namespace vs::obs {

namespace {

std::string mangle(std::string_view prefix, std::string_view name) {
  std::string out(prefix);
  out.push_back('_');
  for (const char c : name) {
    out.push_back((c == '.' || c == '/' || c == '-') ? '_' : c);
  }
  return out;
}

}  // namespace

void registry_to_prometheus(std::ostream& os, const MetricsRegistry& reg,
                            std::string_view prefix) {
  for (const auto& [name, value] : reg.counters()) {
    const std::string m = mangle(prefix, name);
    os << "# TYPE " << m << " counter\n" << m << " " << value << "\n";
  }
  for (const auto& [name, value] : reg.gauges()) {
    const std::string m = mangle(prefix, name);
    os << "# TYPE " << m << " gauge\n" << m << " " << value << "\n";
  }
  for (const auto& [name, h] : reg.histograms()) {
    const std::string m = mangle(prefix, name);
    os << "# TYPE " << m << " histogram\n";
    std::int64_t cum = 0;
    for (std::size_t i = 0; i < h.bounds().size(); ++i) {
      cum += h.buckets()[i];
      os << m << "_bucket{le=\"" << h.bounds()[i] << "\"} " << cum << "\n";
    }
    os << m << "_bucket{le=\"+Inf\"} " << h.count() << "\n";
    os << m << "_sum " << h.sum() << "\n";
    os << m << "_count " << h.count() << "\n";
  }
}

void sample_to_prometheus(std::ostream& os, const TelemetryHeader& header,
                          const TelemetrySample& sample,
                          std::string_view prefix) {
  {
    const std::string m = mangle(prefix, "telemetry.t_us");
    os << "# TYPE " << m << " gauge\n" << m << " " << sample.t_us << "\n";
  }
  for (std::size_t i = 0; i < header.series.size(); ++i) {
    const SeriesDef& d = header.series[i];
    const std::string m = mangle(prefix, "telemetry." + d.name);
    os << "# TYPE " << m
       << (d.kind == SeriesKind::kCounter ? " counter\n" : " gauge\n") << m
       << " " << sample.values[i] << "\n";
  }
}

}  // namespace vs::obs
