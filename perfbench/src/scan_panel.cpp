// scan_panel: row-bound, everything shared. One 1M-row severity panel (20
// districts x 10 villages x 20 years x 250 rows; 4,000 parallel groups at
// full depth) uploaded once as a streamed 32 MB CSV. Warm std(severity)
// complaints, rotated over year and district filters, re-scan the group
// statistics on every call while every model comes from the fit cache.
//
// A walk: create a session (time committed) -> one recommend per filter at
// depth 0 -> commit geo -> one per filter at full depth; the session is
// deleted after the walk's clock stops. Every walk is the same mix, so the
// samples do not depend on how many walks fit in a run. The recommend
// percentiles are over the full-depth recommends, as on drill_cross. Appends
// run after every measured phase, so they never invalidate a cache a timed
// recommend reads.

#include "datagen/panel_gen.h"
#include "sim/oracle.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr int kDistricts = 20;
constexpr int kVillages = 10;
constexpr int kYears = 20;
constexpr int kRowsPerGroup = 250;
constexpr int kFilters = 8;   // y0, d0, y5, d5, y10, d10, y15, d15
constexpr int kMinWalks = 3;  // per round
constexpr int kSaturationRecommendsPerClient = 6;
constexpr int kAppends = 8;  // per round
constexpr int64_t kAppendRows = 64;
constexpr double kSequentialShare = 0.85;
const char kDataset[] = "scan";

reptile::ComplaintSpec Filter(int f) {
  reptile::ComplaintSpec spec = reptile::ComplaintSpec::TooHigh("std", "severity");
  const int value = (f / 2) * 5;
  if (f % 2 == 0) {
    spec.Where("year", "y" + std::to_string(value));
  } else {
    spec.Where("district", "d" + std::to_string(value));
  }
  return spec;
}

std::string RecommendBody(const std::string& sid, int f) {
  const reptile::NamedPredicate p = Filter(f).where.front();
  return "{\"session\":\"" + sid +
         "\",\"complaint\":{\"aggregate\":\"std\",\"measure\":\"severity\","
         "\"direction\":\"too_high\",\"where\":[{\"column\":\"" +
         p.column + "\",\"value\":\"" + p.value + "\"}]},\"options\":{\"zero_timings\":true}}";
}

struct Inputs {
  std::string csv;
  std::string append_csv;
  reptile::CsvSpec spec;
  std::vector<reptile::HierarchySchema> hierarchies = {{"geo", {"district", "village"}},
                                                       {"time", {"year"}}};
  int64_t rows = 0;
};

Inputs MakeInputs(uint64_t seed) {
  Inputs in;
  reptile::PanelSpec panel;
  panel.districts = kDistricts;
  panel.villages_per_district = kVillages;
  panel.years = kYears;
  panel.rows_per_group = kRowsPerGroup;
  panel.seed = seed;
  reptile::Dataset dataset = reptile::MakeSeverityPanel(panel);
  in.rows = static_cast<int64_t>(dataset.table().num_rows());
  in.csv = reptile::RenderTableCsv(dataset.table());
  in.spec.dimension_columns = {"district", "village", "year"};
  in.spec.measure_columns = {"severity"};
  reptile::Rng rng(seed, 98);
  in.append_csv = "district,village,year,severity\n";
  for (int64_t r = 0; r < kAppendRows; ++r) {
    const std::string d = std::to_string(rng.UniformInt(0, kDistricts - 1));
    const std::string v = std::to_string(rng.UniformInt(0, kVillages - 1));
    const std::string y = std::to_string(rng.UniformInt(0, kYears - 1));
    in.append_csv += 'd';
    in.append_csv += d + ",d" + d + "_v" + v + ",y" + y + "," +
                     ExactNumber(rng.Normal(10.0, 2.0)) + "\n";
  }
  return in;
}

// Expected bodies: [0] session create, [1 + f] recommend at depth 0,
// [1 + kFilters] commit geo, [2 + kFilters + f] recommend at depth 1.
std::string ComputeBodies(const Inputs& in) {
  auto fail = [](const std::string& what) -> std::string {
    std::fprintf(stderr, "scan_panel oracle: %s\n", what.c_str());
    std::_Exit(1);
  };
  reptile::Result<reptile::Table> table = reptile::LoadCsvText(in.csv, in.spec);
  if (!table.ok()) fail(table.status().ToString());
  reptile::Result<reptile::Dataset> dataset =
      reptile::Dataset::Make(std::move(table).value(), in.hierarchies);
  if (!dataset.ok()) fail(dataset.status().ToString());
  reptile::Result<reptile::DatasetHandle> handle =
      reptile::PreparedDataset::Prepare(std::move(dataset).value());
  if (!handle.ok()) fail(handle.status().ToString());
  reptile::Result<reptile::Session> session = reptile::Session::Open(*handle);
  if (!session.ok()) fail(session.status().ToString());
  reptile::Status restored = session->RestoreCommitted({{"time", 1}});
  if (!restored.ok()) fail(restored.ToString());

  std::vector<std::string> out;
  std::string create = "{\"session\":\"@SID@\",\"dataset\":\"" + std::string(kDataset) +
                       "\",\"dataset_version\":1,\"default\":false,\"committed\":{";
  bool first = true;
  for (const auto& [name, depth] : session->CommittedDepths()) {
    create += (first ? "\"" : ",\"") + name + "\":" + std::to_string(depth);
    first = false;
  }
  out.push_back(create + "}}");
  auto recommend_all = [&] {
    for (int f = 0; f < kFilters; ++f) {
      reptile::Result<reptile::ExploreResponse> r = session->Recommend(Filter(f));
      if (!r.ok()) fail(r.status().ToString());
      for (reptile::HierarchyResponse& c : r->candidates) {
        c.train_seconds = 0.0;
        c.total_seconds = 0.0;
      }
      out.push_back(r->ToJson());
    }
  };
  recommend_all();
  reptile::Status committed = session->Commit("geo");
  if (!committed.ok()) fail(committed.ToString());
  out.push_back("{\"hierarchy\":\"geo\",\"depth\":" + std::to_string(*session->DrillDepth("geo")) +
                ",\"can_drill\":" + (*session->CanDrill("geo") ? "true" : "false") + "}");
  recommend_all();
  return EncodeStrings(out);
}

struct Oracle {
  std::string create, commit;
  std::vector<std::string> depth0, depth1;  // per filter
};

// Opens a session with time committed; returns its id ("" on failure).
std::string CreateSession(Client& c, const Oracle& o) {
  std::string body;
  if (!c.Send("session_create", "POST", "/v1/sessions",
              "{\"dataset\":\"" + std::string(kDataset) + "\",\"committed\":{\"time\":1}}", 201,
              nullptr, &body)) {
    return "";
  }
  const std::string sid = JsonStringField(body, "session");
  if (body != ReplaceAll(o.create, "@SID@", sid)) {
    c.Reject("session_create body differs from the oracle");
    return "";
  }
  return sid;
}

bool DeleteSession(Client& c, const std::string& sid) {
  const std::string expected = "{\"deleted\":\"" + sid + "\"}";
  return c.Send("session_delete", "DELETE", "/v1/sessions/" + sid, "", 200, &expected);
}

// One walk; returns its seconds (< 0 on failure).
double Walk(Client& c, const Oracle& o) {
  const int64_t start = NowNs();
  const std::string sid = CreateSession(c, o);
  bool ok = !sid.empty();
  for (int f = 0; ok && f < kFilters; ++f) {
    ok = c.Send("recommend", "POST", "/v1/recommend", RecommendBody(sid, f), 200,
                &o.depth0[static_cast<size_t>(f)]);
  }
  ok = ok && c.Send("commit", "POST", "/v1/commit",
                    "{\"session\":\"" + sid + "\",\"hierarchy\":\"geo\"}", 200, &o.commit);
  for (int f = 0; ok && f < kFilters; ++f) {
    ok = c.Send("recommend_full", "POST", "/v1/recommend", RecommendBody(sid, f), 200,
                &o.depth1[static_cast<size_t>(f)]);
  }
  const double seconds = static_cast<double>(NowNs() - start) * 1e-9;
  if (!sid.empty()) ok = DeleteSession(c, sid) && ok;
  return ok ? seconds : -1.0;
}

}  // namespace

void RunScanPanel(const RunConfig& config, Report* report) {
  const Inputs in = MakeInputs(config.seed);
  report->Note("scan_panel inputs: seed=" + std::to_string(config.seed) +
               " rows=" + std::to_string(in.rows) + " csv_bytes=" +
               std::to_string(in.csv.size()) + " csv_digest=" + Digest(in.csv) +
               " parallel_groups_full_depth=" + std::to_string(kDistricts * kVillages * kYears));
  std::string encoded, error;
  std::vector<std::string> parts;
  if (!RunInChild([&] { return ComputeBodies(in); }, &encoded, &error) ||
      !DecodeStrings(encoded, &parts) || parts.size() != 2 + 2 * kFilters) {
    report->Invalidate("scan_panel oracle: " + error);
    return;
  }
  Oracle oracle;
  oracle.create = parts[0];
  oracle.depth0.assign(parts.begin() + 1, parts.begin() + 1 + kFilters);
  oracle.commit = parts[1 + kFilters];
  oracle.depth1.assign(parts.begin() + 2 + kFilters, parts.end());
  const std::string upload_path = "/v1/datasets?name=" + std::string(kDataset) +
                                  "&dimensions=district,village,year&measures=severity"
                                  "&hierarchy=geo:district,village&hierarchy=time:year"
                                  "&commits=time";
  const std::string upload_expected = "{\"dataset\":\"" + std::string(kDataset) +
                                      "\",\"rows\":" + std::to_string(in.rows) +
                                      ",\"session\":\"default:" + kDataset + "\"}";

  std::vector<RoundSamples> rounds;
  Tally sequential;  // every round's walks (the traced run's sample)
  std::vector<double> explore_traced, explore_plain;
  CacheCounters cache;
  double queue_depth_max = 0.0;
  for (int r = 0; r < kRounds; ++r) {
    RoundSamples round;
    // Set-up: launch -> upload -> first-touch recommends at both depths.
    const int64_t start = NowNs();
    std::unique_ptr<ServerProcess> server = ServerProcess::Launch(config.server_path, &error);
    if (!server) {
      report->Invalidate(error);
      return;
    }
    {
      Client c(server->port());
      c.Send("upload", "POST", upload_path, in.csv, 201, &upload_expected, nullptr, "text/csv");
      const std::string sid = CreateSession(c, oracle);
      if (!sid.empty()) {
        c.Send("recommend", "POST", "/v1/recommend", RecommendBody(sid, 0), 200,
               &oracle.depth0[0]);
        c.Send("commit", "POST", "/v1/commit",
               "{\"session\":\"" + sid + "\",\"hierarchy\":\"geo\"}", 200, &oracle.commit);
        c.Send("recommend", "POST", "/v1/recommend", RecommendBody(sid, 0), 200,
               &oracle.depth1[0]);
        DeleteSession(c, sid);
      }
      round.setup_s = static_cast<double>(NowNs() - start) * 1e-9;
      report->Count(c.tally());
    }

    // Sequential walks. Traced runs scrape /metricsz around the phase (cache
    // deltas) and around every other walk (the tracing-overhead split).
    {
      Client c(server->port());
      CacheCounters before;
      if (config.trace) before = CacheCounters::From(c.Scrape());
      const int64_t deadline = NowNs() + static_cast<int64_t>(config.seconds / kRounds *
                                                              kSequentialShare * 1e9);
      for (int walk = 0; NowNs() < deadline || walk < kMinWalks; ++walk) {
        const bool scraped = config.trace && walk % 2 == 0;
        if (scraped) c.Scrape();
        const double seconds = Walk(c, oracle);
        if (seconds < 0) break;
        if (scraped) c.Scrape();
        round.explore_s.push_back(seconds);
        (scraped ? explore_traced : explore_plain).push_back(seconds);
      }
      if (config.trace) cache += CacheCounters::From(c.Scrape()) - before;
      round.recommend_ms = c.tally().Latencies("recommend_full");
      report->Count(c.tally());
      sequential.Merge(c.tally());
    }

    // Saturation: kClients closed-loop clients, each with its own session,
    // issuing warm depth-0 recommends back to back.
    round.saturation_rps = ClosedLoopRps(server->port(), kClients, [&](int t, Client& c) {
      const std::string sid = CreateSession(c, oracle);
      for (int i = 0; !sid.empty() && i < kSaturationRecommendsPerClient; ++i) {
        const int f = (t * 3 + i) % kFilters;
        if (!c.Send("recommend", "POST", "/v1/recommend", RecommendBody(sid, f), 200,
                    &oracle.depth0[static_cast<size_t>(f)])) {
          break;
        }
        if (config.trace && t == 0) {
          queue_depth_max = std::max(
              queue_depth_max, PromSample(c.Scrape(), "reptile_shared_pool_queue_depth"));
        }
      }
      if (!sid.empty()) DeleteSession(c, sid);
    }, report);

    // Appends, after everything that reads the caches.
    {
      Client c(server->port());
      for (int k = 1; k <= kAppends; ++k) {
        const std::string expected =
            "{\"dataset\":\"" + std::string(kDataset) + "\",\"dataset_version\":" +
            std::to_string(k + 1) + ",\"rows\":" + std::to_string(in.rows + k * kAppendRows) +
            ",\"appended\":" + std::to_string(kAppendRows) + ",\"session\":\"default:" +
            kDataset + "\"}";
        c.Send("append", "POST", "/v1/datasets/" + std::string(kDataset) + "/rows",
               in.append_csv, 201, &expected, nullptr, "text/csv");
      }
      round.append_ms = c.tally().Latencies("append");
      report->Count(c.tally());
    }

    round.peak_rss_mb = server->PeakRssMb();
    if (!server->Stop()) report->Invalidate("reptile_serve did not exit cleanly");
    rounds.push_back(std::move(round));
  }
  if (!config.trace) {
    ReportEndToEnd(rounds, report);
    return;
  }

  TracedHttp http;
  for (const Exchange& x : sequential.exchanges) {
    if (x.kind == "recommend_full") http.recommends.push_back(x);
    if (x.kind == "session_create") http.creates.push_back(x);
  }
  http.cache = cache;
  http.queue_depth_max = queue_depth_max;
  http.trace_overhead_pct =
      100.0 * (Median(explore_traced) - Median(explore_plain)) / Median(explore_plain);
  http.lateness_p90_ms = ClosedLoopLatenessP90Ms(sequential.exchanges);

  LayerShape shape;
  shape.csv = in.csv;
  shape.spec = in.spec;
  shape.hierarchies = in.hierarchies;
  shape.complaint = Filter(0);
  shape.deep_commits = {"time", "geo"};
  shape.append_csv = in.append_csv;
  shape.synth_hierarchies = 2;
  shape.synth_cardinality = 63;  // 63^2 ~ the panel's 4,000 groups
  SpanLog spans;
  AddExchangeSpans(sequential.exchanges, &spans);
  std::map<std::string, double> v = ReportLayers(config, http, shape, spans, report);
  std::vector<double> setups, recommends;
  for (const RoundSamples& round : rounds) {
    setups.push_back(round.setup_s);
    recommends.insert(recommends.end(), round.recommend_ms.begin(), round.recommend_ms.end());
  }
  Prediction(report, "on scan_panel, data.csv_parse_s is most of setup_s",
             v["data.csv_parse_s"] / Median(setups), 0.5);
  Prediction(report, "on scan_panel, core.fit + core.rank are most of recommend_p50_ms",
             (v["core.fit_ms"] + v["core.rank_ms"]) / Median(recommends), 0.5);
}

}  // namespace perfbench
