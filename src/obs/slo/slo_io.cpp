#include "obs/slo/slo_io.hpp"

#include <fstream>
#include <ostream>

#include "common/codec.hpp"
#include "common/error.hpp"
#include "obs/telemetry/prometheus.hpp"

namespace vs::obs {

namespace {

constexpr std::string_view kMagic{"VSSLO1\0\0", 8};
constexpr std::string_view kEndMagic = "VSSLOEND";
/// Minimum on-wire sizes of the counted rows: a histogram is a u32 bound
/// count, the overflow bucket and four i64 summaries, plus one bound and
/// one bucket per counted bound.
constexpr std::size_t kHistBytes = 4 + 8 + 4 * 8;
constexpr std::size_t kBoundBytes = 2 * 8;
constexpr std::size_t kBandBytes = 4 + kHistBytes;
constexpr std::size_t kObjectiveBytes = 4 + 8 * 8 + 1;
constexpr std::size_t kExemplarBytes = 1 + 4 + 3 * 8;

void put_hist(codec::Writer& w, const Histogram& h) {
  w.put(static_cast<std::uint32_t>(h.bounds().size()));
  for (std::int64_t b : h.bounds()) w.put(b);
  for (std::int64_t c : h.buckets()) w.put(c);
  w.put(h.count());
  w.put(h.sum());
  w.put(h.min());
  w.put(h.max());
}

Histogram get_hist(codec::Reader& r) {
  const std::size_t n = r.count(r.get<std::uint32_t>(), kBoundBytes);
  std::vector<std::int64_t> bounds(n);
  for (auto& b : bounds) b = r.get<std::int64_t>();
  std::vector<std::int64_t> buckets(n + 1);
  for (auto& c : buckets) c = r.get<std::int64_t>();
  const auto count = r.get<std::int64_t>();
  const auto sum = r.get<std::int64_t>();
  const auto min = r.get<std::int64_t>();
  const auto max = r.get<std::int64_t>();
  return Histogram::from_parts(std::move(bounds), std::move(buckets), count,
                               sum, min, max);
}

void json_hist(std::ostream& os, const Histogram& h) {
  os << "{\"count\": " << h.count() << ", \"sum\": " << h.sum()
     << ", \"min\": " << h.min() << ", \"max\": " << h.max()
     << ", \"p50\": " << h.percentile(0.50) << ", \"p90\": "
     << h.percentile(0.90) << ", \"p99\": " << h.percentile(0.99)
     << ", \"p999\": " << h.percentile(0.999) << "}";
}

/// The spec's objective name, quoted for a Prometheus label value.
std::string label_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out.push_back(c);
  }
  return out;
}

}  // namespace

void write_slo_file(const std::string& path, const SloReport& rep) {
  std::string buf;
  codec::Writer w(buf);
  w.bytes(kMagic);
  w.put(kSloFormatVersion);
  w.str(rep.spec_text);
  w.put<std::uint8_t>(rep.wall_clock ? 1 : 0);
  w.put(rep.end_t_us);
  for (const SloReport::ClassStats& c : rep.classes) {
    w.put(c.requests);
    w.put(c.errors);
    put_hist(w, c.latency);
  }
  put_hist(w, rep.find_ns_per_d);
  w.put(static_cast<std::uint32_t>(rep.find_bands.size()));
  for (const auto& [band, hist] : rep.find_bands) {
    w.put(band);
    put_hist(w, hist);
  }
  w.put(static_cast<std::uint32_t>(rep.objectives.size()));
  for (const SloObjectiveState& o : rep.objectives) {
    w.str(o.name);
    w.put(o.short_req);
    w.put(o.short_bad);
    w.put(o.long_req);
    w.put(o.long_bad);
    w.put(o.burn_short_centi);
    w.put(o.burn_long_centi);
    w.put(o.measured_ns);
    w.put(o.target_ns);
    w.put<std::uint8_t>(o.fired ? 1 : 0);
  }
  w.put(static_cast<std::uint32_t>(rep.exemplars.size()));
  for (const SloExemplar& e : rep.exemplars) {
    w.put(e.cls);
    w.put(e.op);
    w.put(e.t_us);
    w.put(e.latency_ns);
    w.put(e.distance);
  }
  w.bytes(kEndMagic);
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  VS_REQUIRE(os.good(), "cannot open slo sidecar for writing: " << path);
  os.write(buf.data(), static_cast<std::streamsize>(buf.size()));
  VS_REQUIRE(os.good(), "write failed for slo sidecar: " << path);
}

SloReport read_slo(std::string_view bytes) {
  codec::Reader r(bytes, "slo");
  r.magic(kMagic);
  r.version(kSloFormatVersion);
  SloReport rep;
  rep.spec_text = r.str();
  rep.wall_clock = r.get<std::uint8_t>() != 0;
  rep.end_t_us = r.get<std::int64_t>();
  for (SloReport::ClassStats& c : rep.classes) {
    c.requests = r.get<std::int64_t>();
    c.errors = r.get<std::int64_t>();
    c.latency = get_hist(r);
  }
  rep.find_ns_per_d = get_hist(r);
  rep.find_bands.resize(r.count(r.get<std::uint32_t>(), kBandBytes));
  for (auto& [band, hist] : rep.find_bands) {
    band = r.get<std::uint32_t>();
    VS_REQUIRE(band < kSloFindBands, "slo find band " << band
                                                      << " out of range");
    hist = get_hist(r);
  }
  rep.objectives.resize(r.count(r.get<std::uint32_t>(), kObjectiveBytes));
  for (SloObjectiveState& o : rep.objectives) {
    o.name = r.str();
    o.short_req = r.get<std::int64_t>();
    o.short_bad = r.get<std::int64_t>();
    o.long_req = r.get<std::int64_t>();
    o.long_bad = r.get<std::int64_t>();
    o.burn_short_centi = r.get<std::int64_t>();
    o.burn_long_centi = r.get<std::int64_t>();
    o.measured_ns = r.get<std::int64_t>();
    o.target_ns = r.get<std::int64_t>();
    o.fired = r.get<std::uint8_t>() != 0;
  }
  rep.exemplars.resize(r.count(r.get<std::uint32_t>(), kExemplarBytes));
  for (SloExemplar& e : rep.exemplars) {
    e.cls = r.get<std::uint8_t>();
    e.op = r.get<std::uint32_t>();
    e.t_us = r.get<std::int64_t>();
    e.latency_ns = r.get<std::int64_t>();
    e.distance = r.get<std::int64_t>();
  }
  r.end(kEndMagic);
  return rep;
}

SloReport read_slo_file(const std::string& path) {
  return read_slo(codec::read_file(path));
}

void slo_to_json(std::ostream& os, const SloReport& rep) {
  os << "{\n  \"spec\": \"" << label_escape(rep.spec_text) << "\",\n"
     << "  \"clock\": \"" << (rep.wall_clock ? "wall" : "virtual") << "\",\n"
     << "  \"t_us\": " << rep.end_t_us << ",\n  \"classes\": {";
  for (std::size_t c = 0; c < kSloClasses; ++c) {
    if (c > 0) os << ",";
    const SloReport::ClassStats& st = rep.classes[c];
    os << "\n    \"" << to_string(static_cast<SloClass>(c))
       << "\": {\"requests\": " << st.requests << ", \"errors\": " << st.errors
       << ", \"latency_ns\": ";
    json_hist(os, st.latency);
    os << "}";
  }
  os << "\n  },\n  \"find_ns_per_d\": ";
  json_hist(os, rep.find_ns_per_d);
  os << ",\n  \"find_bands\": [";
  for (std::size_t i = 0; i < rep.find_bands.size(); ++i) {
    if (i > 0) os << ", ";
    os << "{\"band\": \"" << slo_band_label(rep.find_bands[i].first)
       << "\", \"latency_ns\": ";
    json_hist(os, rep.find_bands[i].second);
    os << "}";
  }
  os << "],\n  \"objectives\": [";
  for (std::size_t i = 0; i < rep.objectives.size(); ++i) {
    const SloObjectiveState& o = rep.objectives[i];
    if (i > 0) os << ", ";
    os << "{\"name\": \"" << label_escape(o.name)
       << "\", \"measured_ns\": " << o.measured_ns
       << ", \"target_ns\": " << o.target_ns
       << ", \"burn_short_centi\": " << o.burn_short_centi
       << ", \"burn_long_centi\": " << o.burn_long_centi
       << ", \"budget_remaining_milli\": " << rep.budget_remaining_milli(i)
       << ", \"fired\": " << (o.fired ? "true" : "false") << "}";
  }
  os << "],\n  \"exemplars\": [";
  for (std::size_t i = 0; i < rep.exemplars.size(); ++i) {
    const SloExemplar& e = rep.exemplars[i];
    if (i > 0) os << ", ";
    os << "{\"class\": \"" << to_string(static_cast<SloClass>(e.cls))
       << "\", \"op\": \"" << op_name(e.op) << "\", \"t_us\": " << e.t_us
       << ", \"latency_ns\": " << e.latency_ns
       << ", \"distance\": " << e.distance << "}";
  }
  os << "]\n}\n";
}

void slo_to_prometheus(std::ostream& os, const SloReport& rep) {
  constexpr std::string_view prefix = kPrometheusPrefix;
  os << "# TYPE " << prefix << "_slo_requests_total counter\n";
  for (std::size_t c = 0; c < kSloClasses; ++c) {
    os << prefix << "_slo_requests_total{class=\""
       << to_string(static_cast<SloClass>(c))
       << "\"} " << rep.classes[c].requests << "\n";
  }
  os << "# TYPE " << prefix << "_slo_errors_total counter\n";
  for (std::size_t c = 0; c < kSloClasses; ++c) {
    os << prefix << "_slo_errors_total{class=\""
       << to_string(static_cast<SloClass>(c))
       << "\"} " << rep.classes[c].errors << "\n";
  }
  os << "# TYPE " << prefix << "_slo_latency_ns gauge\n";
  for (std::size_t c = 0; c < kSloClasses; ++c) {
    const Histogram& h = rep.classes[c].latency;
    if (h.count() == 0) continue;
    const char* name = to_string(static_cast<SloClass>(c));
    os << prefix << "_slo_latency_ns{class=\"" << name
       << "\",quantile=\"0.5\"} " << h.percentile(0.50) << "\n";
    os << prefix << "_slo_latency_ns{class=\"" << name
       << "\",quantile=\"0.99\"} " << h.percentile(0.99) << "\n";
  }
  if (rep.find_ns_per_d.count() > 0) {
    os << "# TYPE " << prefix << "_slo_find_ns_per_d gauge\n";
    os << prefix << "_slo_find_ns_per_d{quantile=\"0.99\"} "
       << rep.find_ns_per_d.percentile(0.99) << "\n";
  }
  if (!rep.objectives.empty()) {
    os << "# TYPE " << prefix << "_slo_burn_rate_centi gauge\n";
    for (const SloObjectiveState& o : rep.objectives) {
      os << prefix << "_slo_burn_rate_centi{objective=\""
         << label_escape(o.name) << "\",window=\"short\"} "
         << o.burn_short_centi << "\n";
      os << prefix << "_slo_burn_rate_centi{objective=\""
         << label_escape(o.name) << "\",window=\"long\"} "
         << o.burn_long_centi << "\n";
    }
    os << "# TYPE " << prefix << "_slo_error_budget_remaining_milli gauge\n";
    for (std::size_t i = 0; i < rep.objectives.size(); ++i) {
      os << prefix << "_slo_error_budget_remaining_milli{objective=\""
         << label_escape(rep.objectives[i].name) << "\"} "
         << rep.budget_remaining_milli(i) << "\n";
    }
    os << "# TYPE " << prefix << "_slo_objective_fired gauge\n";
    for (const SloObjectiveState& o : rep.objectives) {
      os << prefix << "_slo_objective_fired{objective=\""
         << label_escape(o.name) << "\"} " << (o.fired ? 1 : 0) << "\n";
    }
  }
}

void slo_to_csv(std::ostream& os, const SloReport& rep) {
  os << "series,le_ns,count\n";
  const auto rows = [&os](const std::string& series, const Histogram& h) {
    for (std::size_t i = 0; i < h.buckets().size(); ++i) {
      os << series << ",";
      if (i < h.bounds().size()) {
        os << h.bounds()[i];
      } else {
        os << "+inf";
      }
      os << "," << h.buckets()[i] << "\n";
    }
  };
  for (std::size_t c = 0; c < kSloClasses; ++c) {
    if (rep.classes[c].latency.count() == 0) continue;
    rows(to_string(static_cast<SloClass>(c)), rep.classes[c].latency);
  }
  if (rep.find_ns_per_d.count() > 0) rows("find_ns_per_d", rep.find_ns_per_d);
  for (const auto& [band, hist] : rep.find_bands) {
    rows("find:" + slo_band_label(band), hist);
  }
}

}  // namespace vs::obs
