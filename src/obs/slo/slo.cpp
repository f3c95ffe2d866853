#include "obs/slo/slo.hpp"

#include <algorithm>
#include <bit>
#include <sstream>

#include "common/error.hpp"

namespace vs::obs {

namespace {

/// Latency buckets: 1us to ~18 virtual minutes in powers of two — constant
/// relative resolution from fast-path updates to deadline-bounded finds.
std::vector<std::int64_t> latency_bounds() {
  return log2_bounds(1'000, std::int64_t{1} << 40);
}

std::vector<std::int64_t> ns_per_d_bounds() {
  return log2_bounds(1, std::int64_t{1} << 30);
}

/// Exemplars kept per request class.
constexpr std::size_t kMaxExemplars = 8;

std::int64_t parse_int(const std::string& tok, const char* what) {
  VS_REQUIRE(!tok.empty() &&
                 tok.find_first_not_of("0123456789") == std::string::npos,
             "slo spec: bad " << what << " '" << tok << "'");
  return std::stoll(tok);
}

/// "99.900" with up to `decimals` fraction digits -> value scaled by
/// 10^decimals (missing digits are zero-padded).
std::int64_t parse_fixed(const std::string& tok, int decimals,
                         const char* what) {
  const auto dot = tok.find('.');
  const std::string whole = dot == std::string::npos ? tok : tok.substr(0, dot);
  std::string frac = dot == std::string::npos ? "" : tok.substr(dot + 1);
  VS_REQUIRE(frac.size() <= static_cast<std::size_t>(decimals),
             "slo spec: too many decimals in " << what << " '" << tok << "'");
  while (frac.size() < static_cast<std::size_t>(decimals)) frac.push_back('0');
  std::int64_t v = parse_int(whole, what);
  for (int i = 0; i < decimals; ++i) v *= 10;
  return v + (frac.empty() ? 0 : parse_int(frac, what));
}

std::string render_fixed(std::int64_t scaled, int decimals) {
  std::int64_t pow = 1;
  for (int i = 0; i < decimals; ++i) pow *= 10;
  std::ostringstream os;
  os << scaled / pow << '.';
  std::string f = std::to_string(scaled % pow);
  os << std::string(static_cast<std::size_t>(decimals) - f.size(), '0') << f;
  return os.str();
}

std::vector<std::string> split_ws(const std::string& line) {
  std::vector<std::string> toks;
  std::istringstream is(line);
  std::string t;
  while (is >> t) toks.push_back(t);
  return toks;
}

SloClass parse_class(const std::string& tok) {
  if (tok == "update") return SloClass::kUpdate;
  if (tok == "find") return SloClass::kFind;
  if (tok == "round") return SloClass::kRound;
  VS_REQUIRE(false, "slo spec: unknown request class '" << tok << "'");
  return SloClass::kUpdate;  // unreachable
}

int parse_quantile(const std::string& tok) {
  VS_REQUIRE(tok.size() >= 2 && tok.size() <= 4 && tok[0] == 'p',
             "slo spec: bad quantile '" << tok << "'");
  const std::string digits = tok.substr(1);
  const std::int64_t v = parse_int(digits, "quantile");
  std::int64_t permille = v;
  if (digits.size() == 1) permille = v * 100;
  if (digits.size() == 2) permille = v * 10;
  VS_REQUIRE(permille >= 1 && permille <= 999,
             "slo spec: quantile out of range '" << tok << "'");
  return static_cast<int>(permille);
}

std::string render_quantile(int permille) {
  if (permille % 10 == 0) {
    std::string s = std::to_string(permille / 10);
    if (s.size() == 1) s.insert(0, "0");  // p05
    return "p" + s;
  }
  return "p" + std::to_string(permille);
}

/// Target with unit suffix; canonical form is ns.
std::int64_t parse_target(const std::string& tok) {
  std::size_t unit = tok.find_first_not_of("0123456789");
  VS_REQUIRE(unit != 0 && unit != std::string::npos,
             "slo spec: bad target '" << tok << "' (need ns/us/ms suffix)");
  const std::int64_t v = parse_int(tok.substr(0, unit), "target");
  const std::string suffix = tok.substr(unit);
  std::int64_t scale = 0;
  if (suffix == "ns") scale = 1;
  if (suffix == "us") scale = 1'000;
  if (suffix == "ms") scale = 1'000'000;
  VS_REQUIRE(scale != 0, "slo spec: bad target unit '" << suffix << "'");
  return v * scale;
}

}  // namespace

const char* to_string(SloClass cls) {
  switch (cls) {
    case SloClass::kUpdate: return "update";
    case SloClass::kFind: return "find";
    case SloClass::kRound: return "round";
  }
  return "?";
}

std::size_t slo_find_band(std::int64_t distance) {
  if (distance <= 1) return 0;
  const auto w = static_cast<std::size_t>(
      std::bit_width(static_cast<std::uint64_t>(distance - 1)));
  return std::min(w, kSloFindBands - 1);
}

std::string slo_band_label(std::size_t band) {
  if (band == 0) return "d<=1";
  const std::int64_t hi = std::int64_t{1} << band;
  if (band >= kSloFindBands - 1) {
    return "d>" + std::to_string(hi / 2);
  }
  return "d " + std::to_string(hi / 2 + 1) + "-" + std::to_string(hi);
}

std::string SloObjective::to_string() const {
  std::ostringstream os;
  os << vs::obs::to_string(cls);
  if (ns_per_d) os << " ns_per_d";
  os << " " << render_quantile(permille) << " <= " << target_ns;
  if (!ns_per_d) os << "ns";
  return os.str();
}

std::string SloSpec::to_string() const {
  std::ostringstream os;
  os << "slo v1\n";
  for (const SloObjective& o : objectives) {
    os << "objective " << o.to_string() << "\n";
  }
  if (avail_milli > 0) {
    os << "availability >= " << render_fixed(avail_milli, 3) << "\n";
  }
  os << "window short " << window_short_us << "us long " << window_long_us
     << "us\n";
  os << "burn fast " << render_fixed(burn_fast_centi, 2) << " slow "
     << render_fixed(burn_slow_centi, 2) << "\n";
  os << "clock " << (wall_clock ? "wall" : "virtual") << "\n";
  os << "end\n";
  return os.str();
}

SloSpec SloSpec::parse(const std::string& text) {
  SloSpec spec;
  std::istringstream is(text);
  std::string line;
  bool saw_header = false;
  bool saw_end = false;
  while (std::getline(is, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    const std::vector<std::string> toks = split_ws(line);
    if (toks.empty()) continue;
    VS_REQUIRE(!saw_end, "slo spec: content after 'end'");
    if (!saw_header) {
      VS_REQUIRE(toks.size() == 2 && toks[0] == "slo" && toks[1] == "v1",
                 "slo spec: expected 'slo v1' header, got '" << line << "'");
      saw_header = true;
      continue;
    }
    if (toks[0] == "objective") {
      SloObjective o;
      std::size_t i = 1;
      VS_REQUIRE(toks.size() > i, "slo spec: truncated objective line");
      o.cls = parse_class(toks[i++]);
      if (i < toks.size() && toks[i] == "ns_per_d") {
        VS_REQUIRE(o.cls == SloClass::kFind,
                   "slo spec: ns_per_d only applies to find");
        o.ns_per_d = true;
        ++i;
      }
      VS_REQUIRE(toks.size() == i + 3 && toks[i + 1] == "<=",
                 "slo spec: bad objective line '" << line << "'");
      o.permille = parse_quantile(toks[i]);
      o.target_ns =
          o.ns_per_d ? parse_int(toks[i + 2], "target") : parse_target(toks[i + 2]);
      VS_REQUIRE(o.target_ns > 0, "slo spec: target must be positive");
      spec.objectives.push_back(o);
    } else if (toks[0] == "availability") {
      VS_REQUIRE(toks.size() == 3 && toks[1] == ">=",
                 "slo spec: bad availability line '" << line << "'");
      spec.avail_milli = parse_fixed(toks[2], 3, "availability");
      VS_REQUIRE(spec.avail_milli >= 1 && spec.avail_milli <= 99'999,
                 "slo spec: availability must be in (0, 100)%");
    } else if (toks[0] == "window") {
      VS_REQUIRE(toks.size() == 5 && toks[1] == "short" && toks[3] == "long",
                 "slo spec: bad window line '" << line << "'");
      const auto us = [](const std::string& tok) {
        VS_REQUIRE(tok.size() > 2 && tok.substr(tok.size() - 2) == "us",
                   "slo spec: window values need a us suffix");
        return parse_int(tok.substr(0, tok.size() - 2), "window");
      };
      spec.window_short_us = us(toks[2]);
      spec.window_long_us = us(toks[4]);
      VS_REQUIRE(spec.window_short_us > 0 &&
                     spec.window_short_us <= spec.window_long_us,
                 "slo spec: need 0 < short window <= long window");
    } else if (toks[0] == "burn") {
      VS_REQUIRE(toks.size() == 5 && toks[1] == "fast" && toks[3] == "slow",
                 "slo spec: bad burn line '" << line << "'");
      spec.burn_fast_centi = parse_fixed(toks[2], 2, "burn threshold");
      spec.burn_slow_centi = parse_fixed(toks[4], 2, "burn threshold");
      VS_REQUIRE(spec.burn_fast_centi > 0 && spec.burn_slow_centi > 0,
                 "slo spec: burn thresholds must be positive");
    } else if (toks[0] == "clock") {
      VS_REQUIRE(toks.size() == 2 && (toks[1] == "virtual" || toks[1] == "wall"),
                 "slo spec: bad clock line '" << line << "'");
      spec.wall_clock = toks[1] == "wall";
    } else if (toks[0] == "end") {
      VS_REQUIRE(toks.size() == 1, "slo spec: bad end line '" << line << "'");
      saw_end = true;
    } else {
      VS_REQUIRE(false, "slo spec: unknown line '" << line << "'");
    }
  }
  VS_REQUIRE(saw_header, "slo spec: missing 'slo v1' header");
  VS_REQUIRE(saw_end, "slo spec: missing 'end' terminator");
  return spec;
}

// ----------------------------------------------------------------- span

SloSpan::SloSpan(SloMonitor* mon, SloClass cls) : mon_(mon), cls_(cls) {
  if (mon_ != nullptr) t0_ns_ = mon_->open_span();
}

SloSpan::SloSpan(SloSpan&& other) noexcept
    : mon_(other.mon_), cls_(other.cls_), t0_ns_(other.t0_ns_) {
  other.mon_ = nullptr;
}

SloSpan& SloSpan::operator=(SloSpan&& other) noexcept {
  if (this != &other) {
    if (mon_ != nullptr) mon_->note_abort(cls_);
    mon_ = other.mon_;
    cls_ = other.cls_;
    t0_ns_ = other.t0_ns_;
    other.mon_ = nullptr;
  }
  return *this;
}

SloSpan::~SloSpan() {
  if (mon_ != nullptr) mon_->note_abort(cls_);
}

void SloSpan::close_update(std::int64_t t_us) {
  if (mon_ == nullptr) return;
  mon_->close_update(t0_ns_, t_us);
  mon_ = nullptr;
}

void SloSpan::close_find(std::int64_t t_us, OpId op, std::int64_t distance,
                         bool deadline_missed) {
  if (mon_ == nullptr) return;
  mon_->close_find(t0_ns_, t_us, op, distance, deadline_missed);
  mon_ = nullptr;
}

void SloSpan::close_round(std::int64_t t_us) {
  if (mon_ == nullptr) return;
  mon_->close_round(t0_ns_, t_us);
  mon_ = nullptr;
}

// -------------------------------------------------------------- monitor

SloMonitor::SloMonitor(SloSpec spec) : spec_(std::move(spec)) {
  const std::vector<std::int64_t> lat = latency_bounds();
  for (ClassAcc& c : classes_) c.latency = Histogram(lat);
  ns_per_d_ = Histogram(ns_per_d_bounds());
  for (Histogram& h : bands_) h = Histogram(lat);
  windows_.resize(spec_.objectives.size() + (spec_.avail_milli > 0 ? 1 : 0));
  scenario_.slo_spec = spec_.to_string();
  scenario_.replayable_flag = false;  // a spec alone is not a workload
}

std::uint64_t SloMonitor::now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void SloMonitor::set_scenario(ScenarioSpec scenario) {
  scenario_ = std::move(scenario);
  scenario_.slo_spec = spec_.to_string();
}

void SloMonitor::set_incident_sink(
    std::function<void(const IncidentBundle&)> sink) {
  sink_ = std::move(sink);
}

void SloMonitor::record(SloClass cls, std::int64_t latency_ns,
                        std::int64_t t_us, OpId op, std::int64_t distance,
                        bool error) {
  ClassAcc& acc = classes_[static_cast<std::size_t>(cls)];
  ++acc.requests;
  if (error) ++acc.errors;
  acc.latency.record(latency_ns);
  std::int64_t per_d = latency_ns;
  if (cls == SloClass::kFind) {
    per_d = latency_ns / std::max<std::int64_t>(1, distance);
    ns_per_d_.record(per_d);
    bands_[slo_find_band(distance)].record(latency_ns);
  }
  for (std::size_t i = 0; i < spec_.objectives.size(); ++i) {
    const SloObjective& o = spec_.objectives[i];
    if (o.cls != cls) continue;
    const std::int64_t measured = o.ns_per_d ? per_d : latency_ns;
    windows_[i].add(error || measured > o.target_ns);
  }
  if (spec_.avail_milli > 0) windows_.back().add(error);
  consider_exemplar(cls, latency_ns, t_us, op, distance);
  last_t_us_ = std::max(last_t_us_, t_us);
}

void SloMonitor::consider_exemplar(SloClass cls, std::int64_t latency_ns,
                                   std::int64_t t_us, OpId op,
                                   std::int64_t distance) {
  SloExemplar e{.cls = static_cast<std::uint8_t>(cls),
                .op = op,
                .t_us = t_us,
                .latency_ns = latency_ns,
                .distance = distance};
  const auto pos = std::find_if(
      exemplars_.begin(), exemplars_.end(),
      [&](const SloExemplar& x) { return x.latency_ns < latency_ns; });
  exemplars_.insert(pos, e);
  // Cap per class, so wall-slow requests of one class never evict another
  // class's exemplars: drop this class's fastest once it has one too many.
  std::size_t kept = 0;
  for (auto it = exemplars_.begin(); it != exemplars_.end(); ++it) {
    if (it->cls == e.cls && ++kept > kMaxExemplars) {
      exemplars_.erase(it);
      break;
    }
  }
}

void SloMonitor::close_update(std::uint64_t t0_ns, std::int64_t t_us) {
  record(SloClass::kUpdate, static_cast<std::int64_t>(now_ns() - t0_ns), t_us,
         kBackgroundOp, 0, /*error=*/false);
}

void SloMonitor::close_find(std::uint64_t t0_ns, std::int64_t t_us, OpId op,
                            std::int64_t distance, bool deadline_missed) {
  record(SloClass::kFind, static_cast<std::int64_t>(now_ns() - t0_ns), t_us,
         op, distance, deadline_missed);
  evaluate(t_us);
}

void SloMonitor::close_round(std::uint64_t t0_ns, std::int64_t t_us) {
  record(SloClass::kRound, static_cast<std::int64_t>(now_ns() - t0_ns), t_us,
         kBackgroundOp, 0, /*error=*/false);
  evaluate(t_us);
}

void SloMonitor::note_errors(SloClass cls, std::int64_t t_us, std::int64_t n) {
  if (n <= 0) return;
  ClassAcc& acc = classes_[static_cast<std::size_t>(cls)];
  acc.requests += n;
  acc.errors += n;
  for (std::size_t i = 0; i < spec_.objectives.size(); ++i) {
    if (spec_.objectives[i].cls != cls) continue;
    windows_[i].cur_req += n;
    windows_[i].cur_bad += n;
  }
  if (spec_.avail_milli > 0) {
    windows_.back().cur_req += n;
    windows_.back().cur_bad += n;
  }
  last_t_us_ = std::max(last_t_us_, t_us);
}

void SloMonitor::note_abort(SloClass cls) {
  ClassAcc& acc = classes_[static_cast<std::size_t>(cls)];
  ++acc.requests;
  ++acc.errors;
}

void SloMonitor::BurnWindow::seal(std::int64_t t_us, std::int64_t short_us,
                                  std::int64_t long_us) {
  buckets.push_back({t_us, cur_req, cur_bad});
  short_req += cur_req;
  short_bad += cur_bad;
  long_req += cur_req;
  long_bad += cur_bad;
  cur_req = 0;
  cur_bad = 0;
  while (short_begin < buckets.size() &&
         buckets[short_begin].t_us <= t_us - short_us) {
    short_req -= buckets[short_begin].req;
    short_bad -= buckets[short_begin].bad;
    ++short_begin;
  }
  while (!buckets.empty() && buckets.front().t_us <= t_us - long_us) {
    long_req -= buckets.front().req;
    long_bad -= buckets.front().bad;
    if (short_begin > 0) {
      --short_begin;
    } else {
      // short window == long window: the bucket was still in both.
      short_req -= buckets.front().req;
      short_bad -= buckets.front().bad;
    }
    buckets.pop_front();
  }
}

std::int64_t SloMonitor::burn_centi(std::size_t obj, std::int64_t bad,
                                    std::int64_t req) const {
  if (req <= 0 || bad <= 0) return 0;
  if (obj < spec_.objectives.size()) {
    const std::int64_t budget_milli =
        1000 - spec_.objectives[obj].permille;  // parse enforces >= 1
    return bad * 100'000 / (req * budget_milli);
  }
  const std::int64_t budget = 100'000 - spec_.avail_milli;  // milli-percent
  return bad * 10'000'000 / (req * budget);
}

void SloMonitor::evaluate(std::int64_t t_us) {
  last_t_us_ = std::max(last_t_us_, t_us);
  for (std::size_t i = 0; i < windows_.size(); ++i) {
    BurnWindow& w = windows_[i];
    w.seal(t_us, spec_.window_short_us, spec_.window_long_us);
    if (w.fired) continue;
    const std::int64_t bs = burn_centi(i, w.short_bad, w.short_req);
    const std::int64_t bl = burn_centi(i, w.long_bad, w.long_req);
    if (w.short_req > 0 && w.long_req > 0 && bs >= spec_.burn_fast_centi &&
        bl >= spec_.burn_slow_centi) {
      w.fired = true;
      fire(i, t_us);
    }
  }
}

SloObjectiveState SloMonitor::objective_state(std::size_t i) const {
  const BurnWindow& w = windows_[i];
  SloObjectiveState st;
  if (i < spec_.objectives.size()) {
    const SloObjective& o = spec_.objectives[i];
    st.name = o.to_string();
    st.target_ns = o.target_ns;
    const Histogram& h =
        o.ns_per_d ? ns_per_d_
                   : classes_[static_cast<std::size_t>(o.cls)].latency;
    st.measured_ns = h.percentile(static_cast<double>(o.permille) / 1000.0);
  } else {
    st.name = "availability >= " + render_fixed(spec_.avail_milli, 3);
  }
  st.short_req = w.short_req + w.cur_req;
  st.short_bad = w.short_bad + w.cur_bad;
  st.long_req = w.long_req + w.cur_req;
  st.long_bad = w.long_bad + w.cur_bad;
  st.burn_short_centi = burn_centi(i, st.short_bad, st.short_req);
  st.burn_long_centi = burn_centi(i, st.long_bad, st.long_req);
  st.fired = w.fired;
  return st;
}

void SloMonitor::fire(std::size_t obj, std::int64_t t_us) {
  const SloObjectiveState st = objective_state(obj);
  IncidentBundle b;
  b.source = "slo";
  b.mode = WatchMode::kOff;
  b.violation.predicate = "slo-burn-rate:" + st.name;
  b.violation.time_us = t_us;
  std::ostringstream detail;
  detail << "error budget burn rate over threshold for objective '" << st.name
         << "'\n"
         << "short window (" << spec_.window_short_us << "us): " << st.short_bad
         << "/" << st.short_req << " bad, burn "
         << render_fixed(st.burn_short_centi, 2) << "x (fast threshold "
         << render_fixed(spec_.burn_fast_centi, 2) << "x)\n"
         << "long window (" << spec_.window_long_us << "us): " << st.long_bad
         << "/" << st.long_req << " bad, burn "
         << render_fixed(st.burn_long_centi, 2) << "x (slow threshold "
         << render_fixed(spec_.burn_slow_centi, 2) << "x)";
  if (st.target_ns > 0) {
    detail << "\nmeasured " << st.measured_ns << "ns vs target "
           << st.target_ns << "ns";
  }
  b.violation.detail = detail.str();
  b.scenario = scenario_;
  b.slo_state_json = state_json();
  b.slo_exemplars = exemplars_;
  if (sink_) sink_(b);
}

std::string SloMonitor::state_json() const {
  std::ostringstream os;
  os << "{\"t_us\": " << last_t_us_ << ", \"objectives\": [";
  for (std::size_t i = 0; i < windows_.size(); ++i) {
    const SloObjectiveState st = objective_state(i);
    if (i > 0) os << ", ";
    os << "{\"name\": \"" << st.name << "\", \"short\": {\"req\": "
       << st.short_req << ", \"bad\": " << st.short_bad
       << ", \"burn_centi\": " << st.burn_short_centi
       << "}, \"long\": {\"req\": " << st.long_req
       << ", \"bad\": " << st.long_bad
       << ", \"burn_centi\": " << st.burn_long_centi << "}, \"fired\": "
       << (st.fired ? "true" : "false") << "}";
  }
  os << "]}";
  return os.str();
}

bool SloMonitor::any_fired() const {
  return std::any_of(windows_.begin(), windows_.end(),
                     [](const BurnWindow& w) { return w.fired; });
}

SloReport SloMonitor::report() const {
  SloReport rep;
  rep.spec_text = spec_.to_string();
  rep.wall_clock = spec_.wall_clock;
  rep.end_t_us = last_t_us_;
  for (std::size_t c = 0; c < kSloClasses; ++c) {
    rep.classes[c].requests = classes_[c].requests;
    rep.classes[c].errors = classes_[c].errors;
    rep.classes[c].latency = classes_[c].latency;
  }
  rep.find_ns_per_d = ns_per_d_;
  for (std::size_t b = 0; b < kSloFindBands; ++b) {
    if (bands_[b].count() > 0) {
      rep.find_bands.emplace_back(static_cast<std::uint32_t>(b), bands_[b]);
    }
  }
  for (std::size_t i = 0; i < windows_.size(); ++i) {
    rep.objectives.push_back(objective_state(i));
  }
  rep.exemplars = exemplars_;
  return rep;
}

std::int64_t SloReport::budget_remaining_milli(std::size_t i) const {
  // One full long window at burn 1.00x consumes the whole budget; remaining
  // is therefore 1 - long-window burn, floored at zero.
  return std::max<std::int64_t>(0, 1000 - objectives[i].burn_long_centi * 10);
}

}  // namespace vs::obs
