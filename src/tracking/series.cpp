#include "tracking/series.hpp"

#include <ostream>

#include "obs/ledger/ledger.hpp"
#include "stats/counters.hpp"
#include "tracking/network.hpp"

namespace vs::tracking {

namespace {

using obs::OpClass;
using obs::OpCost;
using stats::IngestCounters;
using stats::WorkCounters;

/// What one reading takes from the world, gathered once per reading.
struct SeriesInputs {
  TrackingNetwork& net;
  const WorkCounters& wc;
  /// The attached ledger, whose class totals the ledger rows read; null
  /// (every ledger row 0) with none.
  const obs::OpLedger* ledger;
  const AuditMilli& audit;
};

using In = SeriesInputs;

template <std::int64_t (WorkCounters::*F)() const>
std::int64_t total(const In& in, Level) {
  return (in.wc.*F)();
}
template <std::int64_t (WorkCounters::*F)(Level) const>
std::int64_t at_level(const In& in, Level l) {
  return (in.wc.*F)(l);
}
template <std::int64_t IngestCounters::*F>
std::int64_t ingest(const In& in, Level) {
  return in.wc.ingest().*F;
}
template <std::size_t Tier>
std::int64_t shed_tier(const In& in, Level) {
  return in.wc.ingest().shed_tier_entries[Tier];
}
template <OpClass C, std::int64_t OpCost::*F>
std::int64_t ledger_cost(const In& in, Level) {
  return in.ledger != nullptr ? in.ledger->class_total(C).*F : 0;
}
template <std::size_t I>
std::int64_t audit_milli(const In& in, Level) {
  return in.audit[I];
}
template <int Permille>
std::int64_t find_latency(const In& in, Level) {
  return in.net.find_census().latency_us.percentile(Permille / 1000.0);
}

enum Scope : std::uint8_t { kWorld, kLevel };
constexpr SeriesKind kCounter = SeriesKind::kCounter;
constexpr SeriesKind kGauge = SeriesKind::kGauge;

struct SeriesRow {
  const char* name;
  SeriesKind kind;
  std::int64_t (*read)(const In&, Level);
  /// kLevel: one series per hierarchy level, named level<l>_<name>.
  Scope scope = kWorld;
};

/// The metrics layout: every series, its kind, and how a reading takes
/// it. A reading carries the kWorld rows in table order, then the kLevel
/// rows for level 0, level 1, ... up to the max level.
constexpr SeriesRow kSeries[] = {
    {"events_fired", kCounter,
     [](const In& in, Level) {
       return static_cast<std::int64_t>(in.net.scheduler().events_fired());
     }},
    {"msgs_total", kCounter, total<&WorkCounters::total_messages>},
    {"work_total", kCounter, total<&WorkCounters::total_work>},
    {"move_msgs", kCounter, total<&WorkCounters::move_messages>},
    {"move_work", kCounter, total<&WorkCounters::move_work>},
    {"find_msgs", kCounter, total<&WorkCounters::find_messages>},
    {"find_work", kCounter, total<&WorkCounters::find_work>},
    {"heartbeats", kCounter, total<&WorkCounters::heartbeats>},
    {"duplicated", kCounter, total<&WorkCounters::duplicated>},
    {"jittered", kCounter, total<&WorkCounters::jittered>},
    {"cgcast_dropped", kCounter,
     [](const In& in, Level) { return in.net.cgcast().dropped(); }},
    {"cgcast_lost", kCounter,
     [](const In& in, Level) { return in.net.cgcast().lost(); }},
    {"finds_issued", kCounter,
     [](const In& in, Level) { return in.net.find_census().issued; }},
    {"finds_completed", kCounter,
     [](const In& in, Level) { return in.net.find_census().completed; }},
    {"find_latency_p50_us", kGauge, find_latency<500>},
    {"find_latency_p90_us", kGauge, find_latency<900>},
    {"find_latency_p99_us", kGauge, find_latency<990>},
    {"trace_events", kCounter,
     [](const In& in, Level) {
       return static_cast<std::int64_t>(in.net.trace().size());
     }},
    {"ledger_background_msgs", kCounter,
     ledger_cost<OpClass::kBackground, &OpCost::msgs>},
    {"ledger_background_work", kCounter,
     ledger_cost<OpClass::kBackground, &OpCost::work>},
    {"ledger_move_msgs", kCounter, ledger_cost<OpClass::kMove, &OpCost::msgs>},
    {"ledger_move_work", kCounter, ledger_cost<OpClass::kMove, &OpCost::work>},
    {"ledger_find_search_msgs", kCounter,
     ledger_cost<OpClass::kFindSearch, &OpCost::msgs>},
    {"ledger_find_search_work", kCounter,
     ledger_cost<OpClass::kFindSearch, &OpCost::work>},
    {"ledger_find_trace_msgs", kCounter,
     ledger_cost<OpClass::kFindTrace, &OpCost::msgs>},
    {"ledger_find_trace_work", kCounter,
     ledger_cost<OpClass::kFindTrace, &OpCost::work>},
    {"ledger_hb_msgs", kCounter,
     ledger_cost<OpClass::kHeartbeat, &OpCost::msgs>},
    {"ledger_hb_work", kCounter,
     ledger_cost<OpClass::kHeartbeat, &OpCost::work>},
    {"ledger_repair_msgs", kCounter,
     ledger_cost<OpClass::kRepair, &OpCost::msgs>},
    {"ledger_repair_work", kCounter,
     ledger_cost<OpClass::kRepair, &OpCost::work>},
    {"audit_move_work_ratio_milli", kGauge, audit_milli<0>},
    {"audit_move_time_ratio_milli", kGauge, audit_milli<1>},
    {"audit_find_work_ratio_milli", kGauge, audit_milli<2>},
    {"audit_find_time_ratio_milli", kGauge, audit_milli<3>},
    {"ingest_ingested", kCounter, ingest<&IngestCounters::ingested>},
    {"ingest_applied", kCounter, ingest<&IngestCounters::applied>},
    {"ingest_suppressed", kCounter, ingest<&IngestCounters::suppressed>},
    {"ingest_dropped", kCounter, ingest<&IngestCounters::dropped>},
    {"ingest_shed_tier1_entries", kCounter, shed_tier<0>},
    {"ingest_shed_tier2_entries", kCounter, shed_tier<1>},
    {"ingest_shed_tier3_entries", kCounter, shed_tier<2>},
    {"ingest_queue_depth_peak", kGauge,
     ingest<&IngestCounters::queue_depth_peak>},
    {"ingest_wire_errors", kCounter, ingest<&IngestCounters::wire_errors>},
    {"ingest_retry_after_us", kGauge,
     ingest<&IngestCounters::retry_after_us>},
    {"ingest_rpc_finds_issued", kCounter,
     ingest<&IngestCounters::rpc_finds_issued>},
    {"ingest_rpc_finds_done", kCounter,
     ingest<&IngestCounters::rpc_finds_done>},
    {"ingest_rpc_deadline_misses", kCounter,
     ingest<&IngestCounters::rpc_deadline_misses>},
    {"ingest_rpc_find_attempts", kCounter,
     ingest<&IngestCounters::rpc_find_attempts>},
    {"move_msgs", kCounter, at_level<&WorkCounters::move_messages_at_level>,
     kLevel},
    {"move_work", kCounter, at_level<&WorkCounters::move_work_at_level>,
     kLevel},
    {"find_msgs", kCounter, at_level<&WorkCounters::find_messages_at_level>,
     kLevel},
    {"find_work", kCounter, at_level<&WorkCounters::find_work_at_level>,
     kLevel},
};

/// Calls f(row, level) once per series, in values order.
template <class F>
void for_each_series(Level max_level, F&& f) {
  for (const SeriesRow& row : kSeries) {
    if (row.scope == kWorld) f(row, Level{0});
  }
  for (Level l = 0; l <= max_level; ++l) {
    for (const SeriesRow& row : kSeries) {
      if (row.scope == kLevel) f(row, l);
    }
  }
}

}  // namespace

std::vector<SeriesDef> series_defs(Level max_level) {
  std::vector<SeriesDef> defs;
  for_each_series(max_level, [&defs](const SeriesRow& row, Level l) {
    defs.push_back({row.scope == kLevel
                        ? "level" + std::to_string(l) + "_" + row.name
                        : std::string(row.name),
                    row.kind});
  });
  return defs;
}

void read_series(TrackingNetwork& net, const AuditMilli& audit,
                 std::vector<std::int64_t>& values) {
  const In in{net, net.counters(), net.op_ledger(), audit};
  values.clear();
  for_each_series(in.wc.max_level(), [&](const SeriesRow& row, Level l) {
    values.push_back(row.read(in, l));
  });
}

void series_to_json(std::ostream& os, TrackingNetwork& net, int indent) {
  const std::vector<SeriesDef> defs = series_defs(net.counters().max_level());
  std::vector<std::int64_t> values;
  read_series(net, AuditMilli{}, values);
  const std::string pad(static_cast<std::size_t>(indent), ' ');
  const std::string pad2 = pad + "  ";
  const std::string pad4 = pad2 + "  ";
  os << "{\n" << pad2 << "\"t_us\": " << net.now().count() << ",\n";
  for (const SeriesKind kind : {kCounter, kGauge}) {
    os << pad2 << (kind == kCounter ? "\"counters\": {" : "\"gauges\": {");
    bool first = true;
    for (std::size_t i = 0; i < defs.size(); ++i) {
      if (defs[i].kind != kind) continue;
      os << (first ? "\n" : ",\n") << pad4 << "\"" << defs[i].name
         << "\": " << values[i];
      first = false;
    }
    os << "\n" << pad2 << "},\n";
  }
  os << pad2 << "\"" << kFindLatencySeries << "\": ";
  net.find_census().latency_us.to_json(os);
  os << "\n" << pad << "}";
}

}  // namespace vs::tracking
