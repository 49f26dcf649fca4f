// drill_cross: the paper's Figure-10 drill-down walk, fit-bound and with
// nothing shared. Four single-attribute hierarchies of 30 values over 50k
// rows (30^4 = 810k parallel groups at full depth); every walk runs on a
// freshly uploaded copy, so every fit is a cache miss.
//
// Per copy: upload (streamed text/csv) -> walk [create session, then for
// H0..H3 a COUNT-too-high recommend and a commit] -> two appends of 5,000
// rows -> delete the dataset. explore_s is the walk; recommend percentiles
// are over the full-depth (H3) recommends, the step Figure 10 is about.

#include "datagen/synthetic.h"
#include "sim/oracle.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr int kHierarchies = 4;
constexpr int64_t kCardinality = 30;
constexpr int64_t kRows = 50000;
constexpr int64_t kAppendRows = 5000;
constexpr int kAppendsPerCopy = 2;
constexpr int kWarmupWalks = 1;
constexpr int kMinWalks = 3;  // per round
constexpr int kSaturationWalksPerClient = 1;
// Share of a round's seconds given to the sequential walks; the saturation
// phase is a fixed amount of work after it.
constexpr double kSequentialShare = 0.8;

const char kComplaint[] = "{\"aggregate\":\"count\",\"direction\":\"too_high\"}";

struct Inputs {
  std::string csv;
  std::string append_csv;
  std::string upload_query;  // the query string after "name=<dataset>"
  reptile::CsvSpec spec;
  std::vector<reptile::HierarchySchema> hierarchies;
};

Inputs MakeInputs(uint64_t seed) {
  Inputs in;
  reptile::SyntheticOptions options;
  options.num_hierarchies = kHierarchies;
  options.attrs_per_hierarchy = 1;
  options.cardinality = kCardinality;
  options.seed = seed;
  reptile::Dataset dataset = reptile::MakeChainDataset(options, kRows);
  in.csv = reptile::RenderTableCsv(dataset.table());

  std::string header, dims, hierarchy_query;
  for (int h = 0; h < kHierarchies; ++h) {
    const std::string attr = "h" + std::to_string(h) + "_a0";
    const std::string name = "H" + std::to_string(h);
    in.spec.dimension_columns.push_back(attr);
    in.hierarchies.push_back({name, {attr}});
    header += attr + ",";
    dims += (h > 0 ? "," : "") + attr;
    hierarchy_query += "&hierarchy=" + name + ":" + attr;
  }
  in.spec.measure_columns = {"m"};
  in.upload_query = "&dimensions=" + dims + "&measures=m" + hierarchy_query;

  reptile::Rng rng(seed, 99);
  in.append_csv = header + "m\n";
  for (int64_t r = 0; r < kAppendRows; ++r) {
    for (int h = 0; h < kHierarchies; ++h) {
      in.append_csv += 'v';
      in.append_csv += std::to_string(rng.UniformInt(0, kCardinality - 1));
      in.append_csv += ',';
    }
    in.append_csv += ExactNumber(rng.Normal(100.0, 20.0)) + "\n";
  }
  return in;
}

// Expected bodies of one copy's requests; "@DS@" / "@SID@" stand for the
// dataset name and the server-assigned session id.
struct Oracle {
  std::string upload, create, remove;
  std::vector<std::string> append;  // per append: versions 2, 3, ...
  std::vector<std::string> recommend, commit;  // per walk step
};

// Runs the walk on an in-process Session over the same CSV (in the child).
std::string ComputeWalk(const Inputs& in) {
  auto fail = [](const std::string& what) -> std::string {
    std::fprintf(stderr, "drill_cross oracle: %s\n", what.c_str());
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

  std::vector<std::string> out;
  std::string create = "{\"session\":\"@SID@\",\"dataset\":\"@DS@\",\"dataset_version\":1,"
                       "\"default\":false,\"committed\":{";
  bool first = true;
  for (const auto& [name, depth] : session->CommittedDepths()) {
    create += (first ? "\"" : ",\"") + name + "\":" + std::to_string(depth);
    first = false;
  }
  out.push_back(create + "}}");
  for (int h = 0; h < kHierarchies; ++h) {
    reptile::Result<reptile::ExploreResponse> r =
        session->Recommend(reptile::ComplaintSpec::TooHigh("count"));
    if (!r.ok()) fail(r.status().ToString());
    for (reptile::HierarchyResponse& c : r->candidates) {
      c.train_seconds = 0.0;
      c.total_seconds = 0.0;
    }
    out.push_back(r->ToJson());
    const std::string name = "H" + std::to_string(h);
    reptile::Status committed = session->Commit(name);
    if (!committed.ok()) fail(committed.ToString());
    out.push_back("{\"hierarchy\":\"" + name + "\",\"depth\":" +
                  std::to_string(*session->DrillDepth(name)) + ",\"can_drill\":" +
                  (*session->CanDrill(name) ? "true" : "false") + "}");
  }
  return EncodeStrings(out);
}

bool MakeOracle(const Inputs& in, Oracle* o, std::string* error) {
  std::string encoded;
  std::vector<std::string> parts;
  if (!RunInChild([&] { return ComputeWalk(in); }, &encoded, error)) return false;
  if (!DecodeStrings(encoded, &parts) || parts.size() != 1 + 2 * kHierarchies) {
    *error = "bad oracle output";
    return false;
  }
  o->create = parts[0];
  for (int h = 0; h < kHierarchies; ++h) {
    o->recommend.push_back(parts[static_cast<size_t>(1 + 2 * h)]);
    o->commit.push_back(parts[static_cast<size_t>(2 + 2 * h)]);
  }
  o->upload = "{\"dataset\":\"@DS@\",\"rows\":" + std::to_string(kRows) +
              ",\"session\":\"default:@DS@\"}";
  for (int k = 1; k <= kAppendsPerCopy; ++k) {
    o->append.push_back("{\"dataset\":\"@DS@\",\"dataset_version\":" + std::to_string(k + 1) +
                        ",\"rows\":" + std::to_string(kRows + k * kAppendRows) +
                        ",\"appended\":" + std::to_string(kAppendRows) +
                        ",\"session\":\"default:@DS@\"}");
  }
  o->remove = "{\"deleted\":\"@DS@\"}";
  return true;
}

struct CopyResult {
  bool ok = false;
  double explore_s = 0.0;
};

// Upload -> walk -> append -> delete on a fresh copy named `ds`. `between`
// (optional) runs after the upload and after the walk, outside the timing.
CopyResult RunCopy(Client& c, const Inputs& in, const Oracle& o, const std::string& ds,
                   const std::function<void()>& between = nullptr) {
  CopyResult result;
  auto resolve = [&](const std::string& text, const std::string& sid = "") {
    return ReplaceAll(ReplaceAll(text, "@DS@", ds), "@SID@", sid);
  };
  std::string expected = resolve(o.upload);
  if (!c.Send("upload", "POST", "/v1/datasets?name=" + ds + in.upload_query, in.csv, 201,
              &expected, nullptr, "text/csv")) {
    return result;
  }
  if (between) between();

  const int64_t start = NowNs();
  std::string body;
  bool ok = c.Send("session_create", "POST", "/v1/sessions", "{\"dataset\":\"" + ds + "\"}",
                   201, nullptr, &body);
  const std::string sid = JsonStringField(body, "session");
  if (ok && body != resolve(o.create, sid)) {
    c.Reject("session_create body differs from the oracle");
    ok = false;
  }
  for (int h = 0; ok && h < kHierarchies; ++h) {
    ok = c.Send(h + 1 == kHierarchies ? "recommend_full" : "recommend", "POST",
                "/v1/recommend",
                "{\"session\":\"" + sid + "\",\"complaint\":" + kComplaint +
                    ",\"options\":{\"zero_timings\":true}}",
                200, &o.recommend[static_cast<size_t>(h)]) &&
         c.Send("commit", "POST", "/v1/commit",
                "{\"session\":\"" + sid + "\",\"hierarchy\":\"H" + std::to_string(h) + "\"}",
                200, &o.commit[static_cast<size_t>(h)]);
  }
  result.explore_s = static_cast<double>(NowNs() - start) * 1e-9;
  if (between) between();

  for (const std::string& append : o.append) {
    expected = resolve(append);
    ok = c.Send("append", "POST", "/v1/datasets/" + ds + "/rows", in.append_csv, 201,
                &expected, nullptr, "text/csv") &&
         ok;
  }
  expected = resolve(o.remove);
  ok = c.Send("dataset_delete", "DELETE", "/v1/datasets/" + ds, "", 200, &expected) && ok;
  result.ok = ok;
  return result;
}

}  // namespace

void RunDrillCross(const RunConfig& config, Report* report) {
  const Inputs in = MakeInputs(config.seed);
  report->Note("drill_cross inputs: seed=" + std::to_string(config.seed) +
               " rows=" + std::to_string(kRows) + " csv_bytes=" + std::to_string(in.csv.size()) +
               " csv_digest=" + Digest(in.csv) + " parallel_groups_full_depth=" +
               std::to_string(kCardinality * kCardinality * kCardinality * kCardinality));
  Oracle oracle;
  std::string error;
  if (!MakeOracle(in, &oracle, &error)) {
    report->Invalidate(error);
    return;
  }

  std::vector<RoundSamples> rounds;
  Tally sequential;  // every round's sequential walks (the traced run's sample)
  std::vector<double> explore_traced, explore_plain;
  CacheCounters cache;
  double queue_depth_max = 0.0;
  int copy = 0;
  for (int r = 0; r < kRounds; ++r) {
    RoundSamples round;
    // Set-up: launch -> warm-up walks on discarded copies.
    const int64_t start = NowNs();
    std::unique_ptr<ServerProcess> server = ServerProcess::Launch(config.server_path, &error);
    if (!server) {
      report->Invalidate(error);
      return;
    }
    {
      Client c(server->port());
      for (int w = 0; w < kWarmupWalks; ++w) {
        RunCopy(c, in, oracle, "dc" + std::to_string(copy++));
      }
      round.setup_s = static_cast<double>(NowNs() - start) * 1e-9;
      report->Count(c.tally());
    }

    // Sequential walks, each on an untouched copy. Traced runs scrape
    // /metricsz around every other walk (cache deltas per copy, and the
    // scraped/unscraped split that gives the tracing overhead).
    {
      Client c(server->port());
      const int64_t deadline = NowNs() + static_cast<int64_t>(config.seconds / kRounds *
                                                              kSequentialShare * 1e9);
      for (int walk = 0; NowNs() < deadline || walk < kMinWalks; ++walk) {
        const bool scraped = config.trace && walk % 2 == 0;
        std::vector<CacheCounters> scrapes;
        std::function<void()> between;
        if (scraped) between = [&] { scrapes.push_back(CacheCounters::From(c.Scrape())); };
        CopyResult result = RunCopy(c, in, oracle, "dc" + std::to_string(copy++), between);
        if (!result.ok) break;
        round.explore_s.push_back(result.explore_s);
        (scraped ? explore_traced : explore_plain).push_back(result.explore_s);
        if (scrapes.size() == 2) cache += scrapes[1] - scrapes[0];
      }
      round.recommend_ms = c.tally().Latencies("recommend_full");
      round.append_ms = c.tally().Latencies("append");
      report->Count(c.tally());
      sequential.Merge(c.tally());
    }

    // Saturation: kClients closed-loop clients, each walking its own copies.
    round.saturation_rps = ClosedLoopRps(server->port(), kClients, [&](int t, Client& c) {
      for (int w = 0; w < kSaturationWalksPerClient; ++w) {
        std::function<void()> sample;
        if (config.trace && t == 0) {
          sample = [&] {
            queue_depth_max = std::max(
                queue_depth_max, PromSample(c.Scrape(), "reptile_shared_pool_queue_depth"));
          };
        }
        RunCopy(c, in, oracle, "sat" + std::to_string(t) + "-" + std::to_string(w), sample);
      }
    }, report);

    round.peak_rss_mb = server->PeakRssMb();
    if (!server->Stop()) report->Invalidate("reptile_serve did not exit cleanly");
    rounds.push_back(std::move(round));
  }
  if (!config.trace) {
    ReportEndToEnd(rounds, report);
    return;
  }

  TracedHttp http;
  double fit_ms = 0.0;
  for (const Exchange& x : sequential.exchanges) {
    if (x.kind == "recommend_full") http.recommends.push_back(x);
    if (x.kind == "session_create") http.creates.push_back(x);
    if (x.kind.rfind("recommend", 0) == 0) fit_ms += TimingMs(x.timing, "fit");
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
  shape.complaint = reptile::ComplaintSpec::TooHigh("count");
  shape.deep_commits = {"H0", "H1", "H2"};
  shape.deep_is_cold = true;
  shape.append_csv = in.append_csv;
  shape.synth_hierarchies = kHierarchies;
  shape.synth_cardinality = kCardinality;
  SpanLog spans;
  AddExchangeSpans(sequential.exchanges, &spans);
  ReportLayers(config, http, shape, spans, report);

  double explore_total = 0.0;
  for (const RoundSamples& round : rounds) {
    for (double s : round.explore_s) explore_total += s;
  }
  Prediction(report, "on drill_cross, core.fit (which contains model) is most of explore_s",
             fit_ms / (1e3 * explore_total), 0.5);
}

}  // namespace perfbench
