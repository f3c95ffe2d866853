#include "obs/telemetry/prometheus.hpp"

#include <ostream>

#include "obs/metrics.hpp"
#include "obs/telemetry/telemetry_io.hpp"

namespace vs::obs {

void sample_to_prometheus(std::ostream& os, const TelemetryHeader& header,
                          const TelemetrySample& sample) {
  constexpr std::string_view p = kPrometheusPrefix;
  os << "# TYPE " << p << "_telemetry_t_us gauge\n"
     << p << "_telemetry_t_us " << sample.t_us << "\n";
  for (std::size_t i = 0; i < header.series.size(); ++i) {
    const tracking::SeriesDef& d = header.series[i];
    os << "# TYPE " << p << "_telemetry_" << d.name
       << (d.kind == tracking::SeriesKind::kCounter ? " counter\n"
                                                     : " gauge\n")
       << p << "_telemetry_" << d.name << " " << sample.values[i] << "\n";
  }
}

void histogram_to_prometheus(std::ostream& os, std::string_view name,
                             const Histogram& h) {
  constexpr std::string_view p = kPrometheusPrefix;
  os << "# TYPE " << p << "_" << name << " histogram\n";
  std::int64_t cum = 0;
  for (std::size_t i = 0; i < h.bounds().size(); ++i) {
    cum += h.buckets()[i];
    os << p << "_" << name << "_bucket{le=\"" << h.bounds()[i] << "\"} "
       << cum << "\n";
  }
  os << p << "_" << name << "_bucket{le=\"+Inf\"} " << h.count() << "\n";
  os << p << "_" << name << "_sum " << h.sum() << "\n";
  os << p << "_" << name << "_count " << h.count() << "\n";
}

}  // namespace vs::obs
