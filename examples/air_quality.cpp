// The paper's §1 motivating scenario: explaining air pollution measured in
// European cities. The sensor table has only <timestamp, city, pm10>; to
// make sense of it we need weather, public events, and road traffic tables
// — all joinable on the *composite* key <timestamp, city>.
//
// A unary system would fetch every table sharing timestamps (all of them!)
// or cities and drown in false positives; MATE finds the aligned tables in
// one query. This example builds such a lake (with decoy tables that share
// each key column individually but never the combination) and runs both
// MATE and the naive SCR baseline to show the difference.
//
// Build & run:  ./build/examples/air_quality

#include <cstdio>
#include <string>
#include <vector>

#include "core/session.h"

using namespace mate;  // NOLINT: example brevity

namespace {

const char* kCities[] = {"berlin", "hamburg", "munich", "dresden",
                         "hannover", "leipzig"};
const char* kConditions[] = {"sunny", "rain", "fog", "snow", "windy"};
const char* kEvents[] = {"marathon", "street fair", "football match",
                         "concert", "demonstration"};

std::string Day(int d) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "2019-03-%02d", d + 1);
  return buf;
}

}  // namespace

int main() {
  Corpus corpus;

  // Weather observations: aligned on (date, city) for all 6 cities x 28
  // days — fully joinable.
  Table weather("weather_observations");
  weather.AddColumn("date");
  weather.AddColumn("city");
  weather.AddColumn("condition");
  weather.AddColumn("temp_c");
  for (int d = 0; d < 28; ++d) {
    for (int c = 0; c < 6; ++c) {
      (void)weather.AppendRow({Day(d), kCities[c], kConditions[(d + c) % 5],
                               std::to_string(5 + (d * 7 + c * 3) % 20)});
    }
  }
  TableId weather_id = corpus.AddTable(std::move(weather));

  // Public events: sparse — only some (date, city) pairs.
  Table events("public_events");
  events.AddColumn("when");
  events.AddColumn("where");
  events.AddColumn("event");
  for (int d = 0; d < 28; d += 3) {
    (void)events.AppendRow({Day(d), kCities[d % 6], kEvents[d % 5]});
  }
  TableId events_id = corpus.AddTable(std::move(events));

  // Road traffic: aligned for two cities only.
  Table traffic("road_traffic");
  traffic.AddColumn("day");
  traffic.AddColumn("municipality");
  traffic.AddColumn("congestion_pct");
  for (int d = 0; d < 28; ++d) {
    for (int c = 0; c < 2; ++c) {
      (void)traffic.AppendRow(
          {Day(d), kCities[c], std::to_string(20 + (d * 5 + c) % 60)});
    }
  }
  TableId traffic_id = corpus.AddTable(std::move(traffic));

  // Decoy 1: same dates, *different* cities (US cities): joins on the
  // timestamp alone, never on the pair.
  Table decoy_dates("us_air_quality");
  decoy_dates.AddColumn("date");
  decoy_dates.AddColumn("city");
  decoy_dates.AddColumn("aqi");
  const char* us_cities[] = {"austin", "boston", "denver"};
  for (int d = 0; d < 28; ++d) {
    (void)decoy_dates.AppendRow(
        {Day(d), us_cities[d % 3], std::to_string(40 + d)});
  }
  corpus.AddTable(std::move(decoy_dates));

  // Decoy 2: same cities, wrong dates — a deep historical census. A fetch
  // through the city column reads all 600 of its rows, and none contains a
  // 2019 date; the date column fetches fewer items and never touches it.
  Table decoy_cities("city_population_history");
  decoy_cities.AddColumn("city");
  decoy_cities.AddColumn("census_date");
  decoy_cities.AddColumn("population");
  for (int year = 1900; year < 2000; ++year) {
    for (int c = 0; c < 6; ++c) {
      (void)decoy_cities.AppendRow(
          {kCities[c], std::to_string(year) + "-05-09",
           std::to_string(200000 + year * 100 + c * 1000)});
    }
  }
  corpus.AddTable(std::move(decoy_cities));

  // ---- Open the discovery service and query ---------------------------
  SessionOptions session_options;
  session_options.corpus = std::move(corpus);
  session_options.build_index = true;
  auto session = Session::Open(std::move(session_options));
  if (!session.ok()) {
    std::fprintf(stderr, "Session::Open failed: %s\n",
                 session.status().ToString().c_str());
    return 1;
  }

  // The sensor table we want to enrich (one reading per city per day).
  Table sensors("particulate_sensors");
  sensors.AddColumn("timestamp");
  sensors.AddColumn("location");
  sensors.AddColumn("pm10");
  for (int d = 0; d < 28; ++d) {
    for (int c = 0; c < 6; ++c) {
      (void)sensors.AppendRow(
          {Day(d), kCities[c], std::to_string(10 + (d * 11 + c * 7) % 35)});
    }
  }

  QuerySpec spec;
  spec.table = &sensors;
  spec.key_columns = {0, 1};
  spec.options.k = 5;
  auto discovered = session->Discover(spec);
  if (!discovered.ok()) {
    std::fprintf(stderr, "Discover failed: %s\n",
                 discovered.status().ToString().c_str());
    return 1;
  }
  const DiscoveryResult& result = *discovered;

  std::printf("Enriching sensor data on the composite key "
              "<timestamp, location>:\n\n");
  for (const TableResult& tr : result.top_k) {
    const char* note = tr.table_id == weather_id   ? "(weather — full join)"
                       : tr.table_id == traffic_id ? "(traffic — 2 cities)"
                       : tr.table_id == events_id  ? "(events — sparse)"
                                                   : "(unexpected!)";
    std::printf("  %-22s joinability=%-4lld %s\n",
                session->corpus().table(tr.table_id).name().c_str(),
                static_cast<long long>(tr.joinability), note);
  }

  // SCR is MATE without the super-key row filter — one options knob away.
  QuerySpec scr_spec = spec;
  scr_spec.options.use_row_filter = false;
  auto scr_discovered = session->Discover(scr_spec);
  if (!scr_discovered.ok()) {
    std::fprintf(stderr, "Discover failed: %s\n",
                 scr_discovered.status().ToString().c_str());
    return 1;
  }
  const DiscoveryResult& scr_result = *scr_discovered;
  std::printf(
      "\nRow filtering at work (same results, less verification):\n"
      "  MATE: %llu candidate rows fetched, %llu reached verification\n"
      "  SCR : %llu candidate rows fetched, %llu reached verification\n",
      static_cast<unsigned long long>(result.stats.rows_checked),
      static_cast<unsigned long long>(result.stats.rows_sent_to_verification),
      static_cast<unsigned long long>(scr_result.stats.rows_checked),
      static_cast<unsigned long long>(
          scr_result.stats.rows_sent_to_verification));
  std::printf(
      "  Both systems return the same tables. Each fetches the key column "
      "whose values hold the fewest posting-list items (§6.1): 'timestamp' "
      "(%llu items) rather than 'location', whose lists would add the "
      "600-row city census. The super key then stops the US table's rows, "
      "which match a date but never a city, before exact verification.\n",
      static_cast<unsigned long long>(result.stats.pl_items_fetched));
  return 0;
}
