// Loopback integration tests for the HTTP service (src/server/) behind the
// reactor front end (src/net/): routing, request mapping, the StatusCode ->
// HTTP error contract, request framing limits, keep-alive, concurrent
// clients, and — the core guarantee — that HTTP response bodies are
// byte-identical to direct Session calls.

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common/json_util.h"
#include "datagen/panel_gen.h"
#include "gtest/gtest.h"
#include "net/reactor_server.h"
#include "obs/log.h"
#include "obs/trace.h"
#include "reptile/reptile.h"
#include "server/http_client.h"
#include "server/json.h"
#include "server/service.h"
#include "test_util.h"

namespace reptile {
namespace {

constexpr int kDistricts = 4;
constexpr int kVillages = 3;
constexpr int kYears = 4;
constexpr int kRowsPerGroup = 3;

// The fig08 panel shape (district x village x year severity), scaled down
// for test speed. MakeSeverityPanel is deterministic in its spec, so
// independently built copies are bit-identical — the basis of every
// byte-equality assertion below.
Dataset MakePanel() {
  PanelSpec spec;
  spec.districts = kDistricts;
  spec.villages_per_district = kVillages;
  spec.years = kYears;
  spec.rows_per_group = kRowsPerGroup;
  return MakeSeverityPanel(spec);
}

Session MakePanelSession(bool commit_time = true) {
  Result<Session> session = Session::Create(MakePanel());
  EXPECT_TRUE(session.ok()) << session.status().ToString();
  if (commit_time) {
    Status committed = session->Commit("time");
    EXPECT_TRUE(committed.ok()) << committed.ToString();
  }
  return std::move(session).value();
}

// The fig08 complaint panel: one STD complaint per year.
std::vector<ComplaintSpec> PanelComplaints() {
  std::vector<ComplaintSpec> complaints;
  for (int y = 0; y < kYears; ++y) {
    complaints.push_back(ComplaintSpec::TooHigh("std", "severity")
                             .Where("year", "y" + std::to_string(y)));
  }
  return complaints;
}

// The same complaint panel as a recommend_batch request body. `address` is
// the session-addressing prefix — the deprecated dataset form by default,
// or e.g. R"("session":"s-1")" for the per-client form.
std::string PanelBatchBody(const std::string& extra_options = std::string(),
                           const std::string& address = R"("dataset":"panel")") {
  std::string body = "{" + address + R"(,"complaints":[)";
  for (int y = 0; y < kYears; ++y) {
    if (y > 0) body += ',';
    body += R"({"aggregate":"std","measure":"severity","where":[{"column":"year","value":"y)" +
            std::to_string(y) + R"("}]})";
  }
  body += R"(],"options":{"zero_timings":true)";
  body += extra_options;
  body += "}}";
  return body;
}

// Serialisation with the scheduling- and cache-state-dependent fields zeroed
// (timings AND fit counters — a warm call trains 0 models where a cold one
// trained N), to match the wire's zero_timings option.
std::string TimelessJson(BatchExploreResponse batch) {
  batch.train_seconds = 0.0;
  batch.wall_seconds = 0.0;
  batch.models_trained = 0;
  batch.fit_cache_hits = 0;
  for (ExploreResponse& response : batch.responses) {
    for (HierarchyResponse& candidate : response.candidates) {
      candidate.train_seconds = 0.0;
      candidate.total_seconds = 0.0;
    }
  }
  return batch.ToJson();
}

std::string TimelessJson(ExploreResponse response) {
  for (HierarchyResponse& candidate : response.candidates) {
    candidate.train_seconds = 0.0;
    candidate.total_seconds = 0.0;
  }
  return response.ToJson();
}

// One served ReptileService (datasets "panel", "fresh", "exhausted", each
// with its default session) plus an identically constructed direct Session
// for byte-equality comparisons.
class ServerTest : public ::testing::Test {
 protected:
  ServerTest() : direct_(MakePanelSession()) {
    ServiceOptions service_options;
    service_options.dataset_path_root = ::testing::TempDir();
    service_ = std::make_unique<ReptileService>(service_options);
    EXPECT_TRUE(service_->AddDataset("panel", MakePanel(), {"time"}).ok());
    EXPECT_TRUE(service_->AddDataset("fresh", MakePanel()).ok());
    EXPECT_TRUE(service_->AddDataset("exhausted", MakePanel(), {"time", "geo", "geo"}).ok());

    ReactorServerOptions options;
    options.port = 0;
    options.num_threads = 4;
    server_ = std::make_unique<ReactorServer>(
        options, [this](const HttpRequest& request) { return service_->Handle(request); });
    Status started = server_->Start();
    EXPECT_TRUE(started.ok()) << started.ToString();
  }

  ~ServerTest() override { server_->Stop(); }

  HttpClient Client() { return HttpClient("127.0.0.1", server_->port()); }

  Session direct_;
  std::unique_ptr<ReptileService> service_;
  std::unique_ptr<ReactorServer> server_;
};

// Expects a response with the given HTTP status whose error body names the
// given code.
void ExpectError(const Result<HttpClientResponse>& response, int http_status,
                 const std::string& code) {
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status, http_status);
  EXPECT_NE(response->body.find("\"code\":\"" + code + "\""), std::string::npos)
      << response->body;
  EXPECT_NE(response->body.find("\"http\":" + std::to_string(http_status)),
            std::string::npos)
      << response->body;
}

TEST_F(ServerTest, Healthz) {
  HttpClient client = Client();
  Result<HttpClientResponse> response = client.Get("/healthz");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status, 200);
  Result<JsonValue> parsed = ParseJson(response->body);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->Find("status")->string_value(), "ok");
  // Every number is a series of the embedded "metrics" registry.
  auto metric = [&](const char* family) {
    return testutil::HealthzMetric(response->body, family);
  };
  EXPECT_EQ(metric("reptile_datasets"), 3);
  EXPECT_EQ(metric("reptile_sessions"), 3);
  EXPECT_EQ(metric("reptile_sessions_evicted_total"), 0);
  // Fresh fixture: no recommends have run, so both shared caches read zero.
  EXPECT_EQ(metric("reptile_aggregate_cache_entries"), 0);
  EXPECT_EQ(metric("reptile_aggregate_cache_hits"), 0);
  EXPECT_EQ(metric("reptile_model_cache_fits"), 0);
  EXPECT_EQ(metric("reptile_model_cache_evictions"), 0);
  // The version chains ride beside the metrics: one per dataset, at head 1.
  ASSERT_NE(parsed->Find("versions"), nullptr);
  EXPECT_EQ(parsed->Find("versions")->array_items().size(), 3u);
  // Process identity (satellite: uptime/build/pid).
  ASSERT_NE(parsed->Find("uptime_seconds"), nullptr);
  EXPECT_GE(parsed->Find("uptime_seconds")->IntValue(), 0);
  EXPECT_EQ(parsed->Find("pid")->IntValue(), static_cast<int64_t>(getpid()));
  const JsonValue* build = parsed->Find("build");
  ASSERT_NE(build, nullptr);
  EXPECT_FALSE(build->Find("git_hash")->string_value().empty());
  EXPECT_FALSE(build->Find("compile_flags")->string_value().empty());
  // The embedded metrics summary carries the request-latency family.
  const JsonValue* metrics = parsed->Find("metrics");
  ASSERT_NE(metrics, nullptr);
  ASSERT_NE(metrics->Find("reptile_http_request_duration_seconds"), nullptr);
  ASSERT_NE(response->FindHeader("content-type"), nullptr);
  EXPECT_EQ(*response->FindHeader("content-type"), "application/json");
}

TEST_F(ServerTest, DatasetsEndpoint) {
  HttpClient client = Client();
  Result<HttpClientResponse> response = client.Get("/v1/datasets");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status, 200);
  Result<JsonValue> parsed = ParseJson(response->body);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const std::vector<JsonValue>& datasets = parsed->Find("datasets")->array_items();
  ASSERT_EQ(datasets.size(), 3u);  // sorted: exhausted, fresh, panel
  EXPECT_EQ(datasets[0].Find("name")->string_value(), "exhausted");
  EXPECT_EQ(datasets[2].Find("name")->string_value(), "panel");
  const JsonValue& panel = datasets[2];
  EXPECT_EQ(panel.Find("rows")->IntValue(),
            kDistricts * kVillages * kYears * kRowsPerGroup);
  EXPECT_EQ(panel.Find("columns")->array_items().size(), 4u);
  const std::vector<JsonValue>& hierarchies = panel.Find("hierarchies")->array_items();
  ASSERT_EQ(hierarchies.size(), 2u);
  EXPECT_EQ(hierarchies[1].Find("name")->string_value(), "time");
  EXPECT_EQ(hierarchies[1].Find("drill_depth")->IntValue(), 1);
  EXPECT_FALSE(hierarchies[1].Find("can_drill")->bool_value());
  EXPECT_TRUE(hierarchies[0].Find("can_drill")->bool_value());
}

// The acceptance criterion: the recommend_batch response body over loopback
// is byte-identical (timing fields zeroed) to a direct Session::RecommendAll
// on the fig08 complaint panel.
TEST_F(ServerTest, RecommendBatchByteIdenticalToDirectSession) {
  std::vector<ComplaintSpec> complaints = PanelComplaints();
  Result<BatchExploreResponse> direct = direct_.RecommendAll(
      std::span<const ComplaintSpec>(complaints.data(), complaints.size()));
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();
  std::string expected = TimelessJson(*direct);

  HttpClient client = Client();
  Result<HttpClientResponse> response = client.Post("/v1/recommend_batch", PanelBatchBody());
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status, 200);
  EXPECT_EQ(response->body, expected);
}

TEST_F(ServerTest, RecommendSingleByteIdenticalWithPerCallOverrides) {
  ComplaintSpec complaint =
      ComplaintSpec::TooHigh("std", "severity").Where("year", "y2");
  Result<ExploreResponse> direct =
      direct_.Recommend(complaint, BatchOptions().TopK(1).Threads(2));
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();

  HttpClient client = Client();
  Result<HttpClientResponse> response = client.Post(
      "/v1/recommend",
      R"({"dataset":"panel","complaint":{"aggregate":"std","measure":"severity",)"
      R"("where":[{"column":"year","value":"y2"}]},)"
      R"("options":{"zero_timings":true,"top_k":1,"threads":2}})");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status, 200);
  EXPECT_EQ(response->body, TimelessJson(*direct));
  // top_k=1 really made it through: exactly one group per candidate.
  Result<JsonValue> parsed = ParseJson(response->body);
  ASSERT_TRUE(parsed.ok());
  for (const JsonValue& candidate : parsed->Find("candidates")->array_items()) {
    EXPECT_LE(candidate.Find("groups")->array_items().size(), 1u);
  }
}

TEST_F(ServerTest, ExtraRepairStatsFlowThroughTheWire) {
  // MEAN decomposes into {mean} alone; the per-call extra adds count.
  ComplaintSpec complaint =
      ComplaintSpec::TooHigh("mean", "severity").Where("year", "y1");
  Result<ExploreResponse> direct =
      direct_.Recommend(complaint, BatchOptions().Model(ModelSpec().RepairAlso(AggFn::kCount)));
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();

  HttpClient client = Client();
  const std::string request_prefix =
      R"({"dataset":"panel","complaint":{"aggregate":"mean","measure":"severity",)"
      R"("where":[{"column":"year","value":"y1"}]},)"
      R"("options":{"zero_timings":true,"model":{"extra_repair_stats":)";
  Result<HttpClientResponse> with_extras =
      client.Post("/v1/recommend", request_prefix + R"(["count"]}}})");
  ASSERT_TRUE(with_extras.ok()) << with_extras.status().ToString();
  EXPECT_EQ(with_extras->status, 200);
  EXPECT_EQ(with_extras->body, TimelessJson(*direct));
  EXPECT_NE(with_extras->body.find("\"count\":"), std::string::npos);

  // A model with an empty list runs no extras: on this default session, the
  // same bytes as no option.
  Result<ExploreResponse> plain = direct_.Recommend(complaint);
  ASSERT_TRUE(plain.ok());
  Result<HttpClientResponse> without_extras =
      client.Post("/v1/recommend", request_prefix + R"([]}}})");
  ASSERT_TRUE(without_extras.ok()) << without_extras.status().ToString();
  EXPECT_EQ(without_extras->body, TimelessJson(*plain));
  EXPECT_NE(with_extras->body, without_extras->body);
}

TEST_F(ServerTest, ViewByteIdenticalToDirectSession) {
  ViewRequest request;
  request.GroupBy("district").Measure("severity").Where("year", "y1");
  Result<ViewResponse> direct = direct_.View(request);
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();

  HttpClient client = Client();
  Result<HttpClientResponse> response = client.Post(
      "/v1/view",
      R"({"dataset":"panel","group_by":["district"],"measure":"severity",)"
      R"("where":[{"column":"year","value":"y1"}]})");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status, 200);
  EXPECT_EQ(response->body, direct->ToJson());
}

TEST_F(ServerTest, CommitAdvancesDrillState) {
  HttpClient client = Client();
  Result<HttpClientResponse> commit =
      client.Post("/v1/commit", R"({"dataset":"fresh","hierarchy":"time"})");
  ASSERT_TRUE(commit.ok()) << commit.status().ToString();
  EXPECT_EQ(commit->status, 200);
  EXPECT_EQ(commit->body, R"({"hierarchy":"time","depth":1,"can_drill":false})");

  // The same commit again: the hierarchy is exhausted -> 409.
  ExpectError(client.Post("/v1/commit", R"({"dataset":"fresh","hierarchy":"time"})"), 409,
              "FAILED_PRECONDITION");
  // Unknown hierarchy name -> 404.
  ExpectError(client.Post("/v1/commit", R"({"dataset":"fresh","hierarchy":"nope"})"), 404,
              "NOT_FOUND");
}

TEST_F(ServerTest, RecommendOnExhaustedDatasetConflicts) {
  HttpClient client = Client();
  ExpectError(client.Post("/v1/recommend",
                          R"({"dataset":"exhausted","complaint":{"aggregate":"count"}})"),
              409, "FAILED_PRECONDITION");
}

TEST_F(ServerTest, RequestErrorSurface) {
  HttpClient client = Client();
  // Malformed JSON -> kParseError -> 400, message carries the byte offset.
  Result<HttpClientResponse> malformed =
      client.Post("/v1/recommend", R"({"dataset": "panel",)");
  ExpectError(malformed, 400, "PARSE_ERROR");
  EXPECT_NE(malformed->body.find("byte "), std::string::npos) << malformed->body;

  // Wrong-typed fields -> 400 naming the field.
  Result<HttpClientResponse> wrong_type = client.Post(
      "/v1/recommend_batch", R"({"dataset":"panel","complaints":{"aggregate":"std"}})");
  ExpectError(wrong_type, 400, "INVALID_ARGUMENT");
  EXPECT_NE(wrong_type->body.find("complaints must be an array, got object"),
            std::string::npos)
      << wrong_type->body;
  ExpectError(client.Post("/v1/recommend",
                          R"({"dataset":"panel","complaint":{"aggregate":"std",)"
                          R"("measure":"severity"},"options":{"threads":"four"}})"),
              400, "INVALID_ARGUMENT");
  // Unknown fields are rejected, not ignored.
  ExpectError(client.Post("/v1/recommend",
                          R"({"dataset":"panel","complaint":{"aggregate":"std",)"
                          R"("measure":"severity"},"options":{"topk":1}})"),
              400, "INVALID_ARGUMENT");
  // Missing required fields.
  ExpectError(client.Post("/v1/recommend", R"({"complaint":{"aggregate":"std"}})"), 400,
              "INVALID_ARGUMENT");
  ExpectError(client.Post("/v1/recommend_batch",
                          R"({"dataset":"panel","complaints":[]})"),
              400, "INVALID_ARGUMENT");
  // Unknown dataset -> 404.
  ExpectError(client.Post("/v1/recommend",
                          R"({"dataset":"nope","complaint":{"aggregate":"count"}})"),
              404, "NOT_FOUND");
  // Unknown complaint column -> the session's kNotFound -> 404.
  ExpectError(client.Post("/v1/recommend",
                          R"({"dataset":"panel","complaint":{"aggregate":"std",)"
                          R"("measure":"severity","where":[{"column":"nope","value":"x"}]}})"),
              404, "NOT_FOUND");
  // Bad aggregate name -> the session's kInvalidArgument -> 400.
  ExpectError(client.Post("/v1/recommend",
                          R"({"dataset":"panel","complaint":{"aggregate":"median"}})"),
              400, "INVALID_ARGUMENT");
  // Unknown route -> 404; known route with the wrong method -> 405 + Allow.
  ExpectError(client.Get("/v1/unknown"), 404, "NOT_FOUND");
  Result<HttpClientResponse> wrong_method = client.Get("/v1/recommend");
  ASSERT_TRUE(wrong_method.ok());
  EXPECT_EQ(wrong_method->status, 405);
  ASSERT_NE(wrong_method->FindHeader("allow"), nullptr);
  EXPECT_EQ(*wrong_method->FindHeader("allow"), "POST");
  Result<HttpClientResponse> post_healthz = client.Post("/healthz", "{}");
  ASSERT_TRUE(post_healthz.ok());
  EXPECT_EQ(post_healthz->status, 405);
}

// Every StatusCode -> HTTP pair and wire code name, asserted over loopback
// through a front end whose handler renders the code named by the path with
// ReptileService::ErrorResponse (kIoError / kInternal have no healthy
// data-route trigger). The names are literals, so renaming a code on the
// wire fails here.
TEST_F(ServerTest, StatusCodeToHttpMappingOverLoopback) {
  const std::tuple<StatusCode, int, const char*> expected[] = {
      {StatusCode::kInvalidArgument, 400, "INVALID_ARGUMENT"},
      {StatusCode::kParseError, 400, "PARSE_ERROR"},
      {StatusCode::kNotFound, 404, "NOT_FOUND"},
      {StatusCode::kFailedPrecondition, 409, "FAILED_PRECONDITION"},
      {StatusCode::kIoError, 500, "IO_ERROR"},
      {StatusCode::kInternal, 500, "INTERNAL"},
  };
  ReactorServer errors(ReactorServerOptions(), [&expected](const HttpRequest& request) {
    for (const auto& [code, http, name] : expected) {
      if (request.path == std::string("/") + name) {
        return ReptileService::ErrorResponse(Status(code, "mapped"));
      }
    }
    return HttpResponse::Json(200, "{}");
  });
  ASSERT_TRUE(errors.Start().ok());
  HttpClient client("127.0.0.1", errors.port());
  for (const auto& [code, http, name] : expected) {
    ExpectError(client.Get(std::string("/") + name), http, name);
  }
  errors.Stop();
  // And the mapping function itself, including kOk.
  EXPECT_EQ(ReptileService::HttpStatusFor(StatusCode::kOk), 200);
  EXPECT_EQ(ReptileService::HttpStatusFor(StatusCode::kInvalidArgument), 400);
  EXPECT_EQ(ReptileService::HttpStatusFor(StatusCode::kParseError), 400);
  EXPECT_EQ(ReptileService::HttpStatusFor(StatusCode::kNotFound), 404);
  EXPECT_EQ(ReptileService::HttpStatusFor(StatusCode::kFailedPrecondition), 409);
  EXPECT_EQ(ReptileService::HttpStatusFor(StatusCode::kIoError), 500);
  EXPECT_EQ(ReptileService::HttpStatusFor(StatusCode::kInternal), 500);
}

TEST_F(ServerTest, FramingErrors) {
  {
    HttpClient client = Client();
    Result<std::string> raw = client.SendRaw("THIS IS NOT HTTP\r\n\r\n");
    ASSERT_TRUE(raw.ok()) << raw.status().ToString();
    EXPECT_NE(raw->find("400 Bad Request"), std::string::npos) << *raw;
  }
  {
    HttpClient client = Client();
    Result<std::string> raw = client.SendRaw(
        "POST /v1/recommend HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n");
    ASSERT_TRUE(raw.ok()) << raw.status().ToString();
    EXPECT_NE(raw->find("501 Not Implemented"), std::string::npos) << *raw;
  }
  {
    HttpClient client = Client();
    Result<std::string> raw = client.SendRaw(
        "POST /v1/recommend HTTP/1.1\r\nContent-Length: banana\r\n\r\n");
    ASSERT_TRUE(raw.ok()) << raw.status().ToString();
    EXPECT_NE(raw->find("400 Bad Request"), std::string::npos) << *raw;
  }
  {
    // Whitespace between a header name and the colon (and obs-fold
    // continuation lines) are smuggling vectors and must be rejected.
    HttpClient client = Client();
    Result<std::string> raw = client.SendRaw(
        "POST /v1/recommend HTTP/1.1\r\nContent-Length : 4\r\n\r\nabcd");
    ASSERT_TRUE(raw.ok()) << raw.status().ToString();
    EXPECT_NE(raw->find("400 Bad Request"), std::string::npos) << *raw;
    HttpClient folded = Client();
    Result<std::string> fold_raw = folded.SendRaw(
        "GET /healthz HTTP/1.1\r\nX-A: 1\r\n \tcontinued\r\n\r\n");
    ASSERT_TRUE(fold_raw.ok()) << fold_raw.status().ToString();
    EXPECT_NE(fold_raw->find("400 Bad Request"), std::string::npos) << *fold_raw;
  }
  {
    // A negative Content-Length must be a 400, not wrap through unsigned
    // parsing into a nonsense 413.
    HttpClient client = Client();
    Result<std::string> raw = client.SendRaw(
        "POST /v1/recommend HTTP/1.1\r\nContent-Length: -1\r\n\r\n");
    ASSERT_TRUE(raw.ok()) << raw.status().ToString();
    EXPECT_NE(raw->find("400 Bad Request"), std::string::npos) << *raw;
  }
  {
    // Duplicate Content-Length (even agreeing ones) is a smuggling vector
    // and must be rejected, not first-wins-accepted.
    HttpClient client = Client();
    Result<std::string> raw = client.SendRaw(
        "POST /v1/recommend HTTP/1.1\r\nContent-Length: 0\r\nContent-Length: 4\r\n\r\nabcd");
    ASSERT_TRUE(raw.ok()) << raw.status().ToString();
    EXPECT_NE(raw->find("400 Bad Request"), std::string::npos) << *raw;
    EXPECT_NE(raw->find("multiple Content-Length"), std::string::npos) << *raw;
  }
}

TEST_F(ServerTest, KeepAliveReusesOneConnection) {
  HttpClient client = Client();
  for (int i = 0; i < 3; ++i) {
    Result<HttpClientResponse> response = client.Get("/healthz");
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response->status, 200);
  }
  EXPECT_EQ(server_->connections_accepted(), 1);
}

// The acceptance criterion's concurrency half: >= 4 client threads issuing
// recommend_batch (plus interleaved healthz/view noise) all receive correct,
// uncorrupted bodies. scripts/check.sh re-runs this under TSan.
TEST_F(ServerTest, ConcurrentClientsGetCorrectResponses) {
  std::vector<ComplaintSpec> complaints = PanelComplaints();
  Result<BatchExploreResponse> direct = direct_.RecommendAll(
      std::span<const ComplaintSpec>(complaints.data(), complaints.size()));
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();
  const std::string expected_batch = TimelessJson(*direct);
  ViewRequest view_request;
  view_request.GroupBy("district").Measure("severity");
  Result<ViewResponse> view = direct_.View(view_request);
  ASSERT_TRUE(view.ok());
  const std::string expected_view = view->ToJson();
  const std::string batch_body = PanelBatchBody();

  constexpr int kThreads = 5;
  constexpr int kIterations = 3;
  std::vector<int> failures(kThreads, 0);
  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      HttpClient client("127.0.0.1", server_->port());
      for (int i = 0; i < kIterations; ++i) {
        Result<HttpClientResponse> batch = client.Post("/v1/recommend_batch", batch_body);
        if (!batch.ok() || batch->status != 200 || batch->body != expected_batch) {
          ++failures[t];
        }
        Result<HttpClientResponse> health = client.Get("/healthz");
        if (!health.ok() || health->status != 200) ++failures[t];
        Result<HttpClientResponse> seen = client.Post(
            "/v1/view", R"({"dataset":"panel","group_by":["district"],"measure":"severity"})");
        if (!seen.ok() || seen->status != 200 || seen->body != expected_view) {
          ++failures[t];
        }
      }
    });
  }
  for (std::thread& thread : clients) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(failures[t], 0) << "client thread " << t << " saw corrupted responses";
  }
}

// ---- Dataset/session lifecycle routes --------------------------------------

// Extracts "field":"value" from a JSON response body via the parser.
std::string StringFieldOf(const std::string& body, const std::string& field) {
  Result<JsonValue> parsed = ParseJson(body);
  if (!parsed.ok() || !parsed->is_object()) return std::string();
  const JsonValue* value = parsed->Find(field);
  if (value == nullptr || !value->is_string()) return std::string();
  return value->string_value();
}

// The acceptance criterion's lifecycle half: upload a dataset inline, open a
// per-client session restoring committed state, recommend, commit, snapshot,
// restore the snapshot into a second session (byte-identical recommendations),
// delete — all over loopback, with the default session's drill state isolated
// from the per-client session throughout.
TEST_F(ServerTest, DatasetUploadAndFullSessionLifecycle) {
  HttpClient client = Client();

  // Upload: a small deterministic region/city/year sales panel, inline.
  std::string csv = "region,city,year,sales\n";
  for (int r = 0; r < 3; ++r) {
    for (int c = 0; c < 2; ++c) {
      for (int y = 0; y < 3; ++y) {
        for (int i = 0; i < 2; ++i) {
          csv += "r" + std::to_string(r) + ",c" + std::to_string(r) + std::to_string(c) +
                 ",y" + std::to_string(y) + "," +
                 std::to_string(10 * r + 3 * c + y + 0.25 * i) + "\n";
        }
      }
    }
  }
  std::string upload = std::string(R"({"name":"sales","csv":)") + JsonQuote(csv) +
                       R"(,"dimensions":["region","city","year"],"measures":["sales"],)"
                       R"("hierarchies":[{"name":"geo","attributes":["region","city"]},)"
                       R"({"name":"time","attributes":["year"]}],"commits":["time"]})";
  Result<HttpClientResponse> uploaded = client.Post("/v1/datasets", upload);
  ASSERT_TRUE(uploaded.ok()) << uploaded.status().ToString();
  EXPECT_EQ(uploaded->status, 201) << uploaded->body;
  EXPECT_EQ(uploaded->body,
            R"({"dataset":"sales","rows":36,"session":"default:sales"})");

  // The registry and the default session are live.
  Result<HttpClientResponse> health = client.Get("/healthz");
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(testutil::HealthzMetric(health->body, "reptile_datasets"), 4) << health->body;
  EXPECT_EQ(testutil::HealthzMetric(health->body, "reptile_sessions"), 4) << health->body;

  // Create: a per-client session restoring the committed-depth map.
  Result<HttpClientResponse> created =
      client.Post("/v1/sessions", R"({"dataset":"sales","committed":{"time":1}})");
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  EXPECT_EQ(created->status, 201) << created->body;
  EXPECT_EQ(created->body,
            R"({"session":"s-1","dataset":"sales","dataset_version":1,"default":false,"committed":{"geo":0,"time":1}})");

  // Recommend: via the session id.
  const std::string complaint =
      R"("complaint":{"aggregate":"mean","measure":"sales",)"
      R"("where":[{"column":"year","value":"y1"}]},"options":{"zero_timings":true})";
  Result<HttpClientResponse> recommended =
      client.Post("/v1/recommend", R"({"session":"s-1",)" + complaint + "}");
  ASSERT_TRUE(recommended.ok()) << recommended.status().ToString();
  EXPECT_EQ(recommended->status, 200) << recommended->body;
  EXPECT_NE(recommended->body.find("\"best_index\""), std::string::npos);

  // Commit: drills the per-client session only.
  Result<HttpClientResponse> committed =
      client.Post("/v1/commit", R"({"session":"s-1","hierarchy":"geo"})");
  ASSERT_TRUE(committed.ok());
  EXPECT_EQ(committed->body, R"({"hierarchy":"geo","depth":1,"can_drill":true})");

  // Snapshot: the per-client session advanced; the default session did not
  // (drill-state isolation — the PR 3 follow-on this redesign exists for).
  Result<HttpClientResponse> snapshot = client.Get("/v1/sessions/s-1");
  ASSERT_TRUE(snapshot.ok());
  EXPECT_EQ(snapshot->body,
            R"({"session":"s-1","dataset":"sales","dataset_version":1,"default":false,"committed":{"geo":1,"time":1}})");
  Result<HttpClientResponse> default_snapshot = client.Get("/v1/sessions/default:sales");
  ASSERT_TRUE(default_snapshot.ok());
  EXPECT_EQ(default_snapshot->body,
            R"({"session":"default:sales","dataset":"sales","dataset_version":1,"default":true,"committed":{"geo":0,"time":1}})");

  // Restore: the snapshot's committed map opens a second session at the same
  // drill state; its recommendations are byte-identical to the first's.
  Result<HttpClientResponse> restored =
      client.Post("/v1/sessions", R"({"dataset":"sales","committed":{"geo":1,"time":1}})");
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->status, 201);
  EXPECT_EQ(StringFieldOf(restored->body, "session"), "s-2");
  const std::string deep_complaint =
      R"("complaint":{"aggregate":"mean","measure":"sales",)"
      R"("where":[{"column":"region","value":"r1"}]},"options":{"zero_timings":true})";
  Result<HttpClientResponse> from_first =
      client.Post("/v1/recommend", R"({"session":"s-1",)" + deep_complaint + "}");
  Result<HttpClientResponse> from_restored =
      client.Post("/v1/recommend", R"({"session":"s-2",)" + deep_complaint + "}");
  ASSERT_TRUE(from_first.ok());
  ASSERT_TRUE(from_restored.ok());
  EXPECT_EQ(from_first->status, 200) << from_first->body;
  EXPECT_EQ(from_first->body, from_restored->body);

  // Delete: the session is gone from every route; the default session stays
  // and cannot be deleted.
  Result<std::string> removed = client.SendRaw(
      "DELETE /v1/sessions/s-1 HTTP/1.1\r\nContent-Length: 0\r\n\r\n");
  ASSERT_TRUE(removed.ok()) << removed.status().ToString();
  EXPECT_NE(removed->find(R"({"deleted":"s-1"})"), std::string::npos) << *removed;
  ExpectError(client.Get("/v1/sessions/s-1"), 404, "NOT_FOUND");
  ExpectError(client.Post("/v1/recommend", R"({"session":"s-1",)" + complaint + "}"), 404,
              "NOT_FOUND");
  Result<std::string> default_delete = Client().SendRaw(
      "DELETE /v1/sessions/default:sales HTTP/1.1\r\nContent-Length: 0\r\n\r\n");
  ASSERT_TRUE(default_delete.ok());
  EXPECT_NE(default_delete->find("400 Bad Request"), std::string::npos) << *default_delete;
}

// The deprecation shim: the old {"dataset": name} form routes to the default
// session and returns byte-identical bodies to both the PR 3 behavior (the
// direct-session golden) and the new {"session": id} form at the same drill
// state.
TEST_F(ServerTest, SessionFormByteIdenticalToDeprecatedDatasetForm) {
  std::vector<ComplaintSpec> complaints = PanelComplaints();
  Result<BatchExploreResponse> direct = direct_.RecommendAll(
      std::span<const ComplaintSpec>(complaints.data(), complaints.size()));
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();
  const std::string expected = TimelessJson(*direct);

  HttpClient client = Client();
  Result<HttpClientResponse> created =
      client.Post("/v1/sessions", R"({"dataset":"panel","committed":{"time":1}})");
  ASSERT_TRUE(created.ok());
  ASSERT_EQ(created->status, 201) << created->body;
  const std::string id = StringFieldOf(created->body, "session");
  ASSERT_FALSE(id.empty());

  Result<HttpClientResponse> dataset_form =
      client.Post("/v1/recommend_batch", PanelBatchBody());
  Result<HttpClientResponse> session_form = client.Post(
      "/v1/recommend_batch",
      PanelBatchBody(std::string(), R"("session":")" + id + R"(")"));
  ASSERT_TRUE(dataset_form.ok());
  ASSERT_TRUE(session_form.ok());
  EXPECT_EQ(dataset_form->status, 200) << dataset_form->body;
  EXPECT_EQ(dataset_form->body, expected);
  EXPECT_EQ(session_form->body, expected);

  // Addressing both at once, or neither, is rejected.
  ExpectError(client.Post("/v1/recommend_batch",
                          PanelBatchBody(std::string(), R"("dataset":"panel","session":")" +
                                                            id + R"(")")),
              400, "INVALID_ARGUMENT");
  ExpectError(client.Post("/v1/commit", R"({"hierarchy":"geo"})"), 400, "INVALID_ARGUMENT");
}

// Deleting a dataset removes the registry entry AND every session over it —
// no orphaned default session may keep serving the deprecated alias (and
// pinning the dataset's memory) after the dataset is gone.
TEST_F(ServerTest, DatasetDeleteRemovesSessionsAndAlias) {
  HttpClient client = Client();
  Result<HttpClientResponse> created =
      client.Post("/v1/sessions", R"({"dataset":"fresh"})");
  ASSERT_TRUE(created.ok());
  ASSERT_EQ(created->status, 201);
  const std::string id = StringFieldOf(created->body, "session");

  Result<std::string> removed = client.SendRaw(
      "DELETE /v1/datasets/fresh HTTP/1.1\r\nContent-Length: 0\r\n\r\n");
  ASSERT_TRUE(removed.ok());
  EXPECT_NE(removed->find(R"({"deleted":"fresh"})"), std::string::npos) << *removed;

  // Alias, per-client session, listing and health all reflect the removal.
  ExpectError(client.Post("/v1/commit", R"({"dataset":"fresh","hierarchy":"time"})"), 404,
              "NOT_FOUND");
  ExpectError(client.Get("/v1/sessions/" + id), 404, "NOT_FOUND");
  ExpectError(client.Post("/v1/sessions", R"({"dataset":"fresh"})"), 404, "NOT_FOUND");
  Result<HttpClientResponse> health = client.Get("/healthz");
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(testutil::HealthzMetric(health->body, "reptile_datasets"), 2) << health->body;
  EXPECT_EQ(testutil::HealthzMetric(health->body, "reptile_sessions"), 2) << health->body;
  // Unknown dataset -> 404; the name can be re-registered cleanly.
  Result<std::string> missing = Client().SendRaw(
      "DELETE /v1/datasets/fresh HTTP/1.1\r\nContent-Length: 0\r\n\r\n");
  ASSERT_TRUE(missing.ok());
  EXPECT_NE(missing->find("404"), std::string::npos) << *missing;
  EXPECT_TRUE(service_->AddDataset("fresh", MakePanel()).ok());
  Result<HttpClientResponse> again =
      client.Post("/v1/view", R"({"dataset":"fresh","group_by":["district"]})");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->status, 200) << again->body;
}

TEST_F(ServerTest, SessionListShowsDefaults) {
  HttpClient client = Client();
  Result<HttpClientResponse> listed = client.Get("/v1/sessions");
  ASSERT_TRUE(listed.ok());
  EXPECT_EQ(listed->status, 200);
  Result<JsonValue> parsed = ParseJson(listed->body);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const std::vector<JsonValue>& sessions = parsed->Find("sessions")->array_items();
  ASSERT_EQ(sessions.size(), 3u);  // the three default sessions
  for (const JsonValue& session : sessions) {
    EXPECT_TRUE(session.Find("default")->bool_value());
  }
}

TEST_F(ServerTest, DatasetUploadErrorSurface) {
  HttpClient client = Client();
  // Neither csv nor path, or both.
  ExpectError(client.Post("/v1/datasets",
                          R"({"name":"x","dimensions":["a"],"hierarchies":[]})"),
              400, "INVALID_ARGUMENT");
  ExpectError(client.Post("/v1/datasets",
                          R"({"name":"x","csv":"a\n1","path":"/tmp/x.csv",)"
                          R"("dimensions":["a"],"hierarchies":[]})"),
              400, "INVALID_ARGUMENT");
  // Duplicate dataset name.
  ExpectError(client.Post("/v1/datasets",
                          R"({"name":"panel","csv":"a,m\nv,1\n","dimensions":["a"],)"
                          R"("measures":["m"],"hierarchies":[{"name":"h","attributes":["a"]}]})"),
              400, "INVALID_ARGUMENT");
  // Malformed CSV (non-numeric measure) -> the parser's kParseError -> 400.
  Result<HttpClientResponse> bad_csv = client.Post(
      "/v1/datasets",
      R"({"name":"x","csv":"a,m\nv,banana\n","dimensions":["a"],"measures":["m"],)"
      R"("hierarchies":[{"name":"h","attributes":["a"]}]})");
  ExpectError(bad_csv, 400, "PARSE_ERROR");
  EXPECT_NE(bad_csv->body.find("inline csv"), std::string::npos) << bad_csv->body;
  // Hierarchy naming a missing column -> Dataset::Make's kNotFound.
  ExpectError(client.Post("/v1/datasets",
                          R"({"name":"x","csv":"a,m\nv,1\n","dimensions":["a"],)"
                          R"("measures":["m"],"hierarchies":[{"name":"h","attributes":["nope"]}]})"),
              404, "NOT_FOUND");
  // Server-side path under the configured root that does not exist ->
  // kIoError -> 500.
  ExpectError(client.Post("/v1/datasets",
                          R"({"name":"x","path":"nonexistent-data.csv","dimensions":["a"],)"
                          R"("measures":["m"],"hierarchies":[{"name":"h","attributes":["a"]}]})"),
              500, "IO_ERROR");
  // Escaping the dataset root is rejected: absolute paths and "..".
  ExpectError(client.Post("/v1/datasets",
                          R"({"name":"x","path":"/etc/passwd","dimensions":["a"],)"
                          R"("measures":["m"],"hierarchies":[{"name":"h","attributes":["a"]}]})"),
              400, "INVALID_ARGUMENT");
  ExpectError(client.Post("/v1/datasets",
                          R"({"name":"x","path":"../../../etc/passwd","dimensions":["a"],)"
                          R"("measures":["m"],"hierarchies":[{"name":"h","attributes":["a"]}]})"),
              400, "INVALID_ARGUMENT");
  // A symlink under the root pointing outside must not escape either.
  std::string link = ::testing::TempDir() + "/reptile-escape-link";
  ::unlink(link.c_str());
  ASSERT_EQ(::symlink("/etc", link.c_str()), 0);
  ExpectError(client.Post("/v1/datasets",
                          R"({"name":"x","path":"reptile-escape-link/passwd",)"
                          R"("dimensions":["a"],"measures":["m"],)"
                          R"("hierarchies":[{"name":"h","attributes":["a"]}]})"),
              400, "INVALID_ARGUMENT");
  ::unlink(link.c_str());
  // Unknown session-create dataset and bad committed entries.
  ExpectError(client.Post("/v1/sessions", R"({"dataset":"nope"})"), 404, "NOT_FOUND");
  ExpectError(client.Post("/v1/sessions",
                          R"({"dataset":"panel","committed":{"nope":1}})"),
              404, "NOT_FOUND");
  ExpectError(client.Post("/v1/sessions",
                          R"({"dataset":"panel","committed":{"geo":7}})"),
              400, "INVALID_ARGUMENT");
  // A failed create leaves no session behind.
  Result<HttpClientResponse> listed = client.Get("/v1/sessions");
  ASSERT_TRUE(listed.ok());
  Result<JsonValue> parsed = ParseJson(listed->body);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->Find("sessions")->array_items().size(), 3u);
}

// A non-finite measure (which strtod accepts) is a 400 naming the row and
// column, on upload and on append, rather than a dataset whose recommends
// answer a meaningless 200.
TEST_F(ServerTest, NonFiniteMeasureUploadIsRejected) {
  HttpClient client = Client();
  for (const char* literal : {"nan", "inf", "-inf", "1e999"}) {
    Result<HttpClientResponse> upload = client.Post(
        "/v1/datasets",
        std::string(R"({"name":"x","csv":"a,m\nv,1\nw,)") + literal +
            R"(\n","dimensions":["a"],"measures":["m"],)"
            R"("hierarchies":[{"name":"h","attributes":["a"]}]})");
    ExpectError(upload, 400, "PARSE_ERROR");
    EXPECT_NE(upload->body.find("row 2, column 'm'"), std::string::npos) << upload->body;
  }
  // No dataset was created.
  ExpectError(client.Post("/v1/sessions", R"({"dataset":"x"})"), 404, "NOT_FOUND");
}

TEST_F(ServerTest, NonFiniteMeasureAppendIsRejected) {
  HttpClient client = Client();
  auto session_json = [&client] {
    Result<HttpClientResponse> got = client.Get("/v1/sessions/default:fresh");
    EXPECT_TRUE(got.ok());
    return got.ok() ? got->body : std::string();
  };
  const std::string before = session_json();
  ASSERT_NE(before.find("\"dataset_version\""), std::string::npos) << before;
  for (const char* literal : {"nan", "inf", "-inf", "1e999"}) {
    Result<HttpClientResponse> append = client.Post(
        "/v1/datasets/fresh/rows",
        std::string(R"({"csv":"district,village,year,severity\nd0,d0_v0,y0,1\nd0,d0_v0,y1,)") +
            literal + R"(\n"})");
    ExpectError(append, 400, "PARSE_ERROR");
    EXPECT_NE(append->body.find("row 2, column 'severity'"), std::string::npos)
        << append->body;
  }
  // The rejected appends created no version.
  EXPECT_EQ(session_json(), before);
}

// Without a configured --dataset-root, the server-side "path" form must be
// off entirely — otherwise any client could read (and exfiltrate through
// parse-error echoes) arbitrary server files.
TEST(ServerSessions, ServerSidePathLoadingDisabledByDefault) {
  ReptileService service;
  HttpRequest request;
  request.method = "POST";
  request.path = "/v1/datasets";
  request.body =
      R"({"name":"x","path":"data.csv","dimensions":["a"],"measures":["m"],)"
      R"("hierarchies":[{"name":"h","attributes":["a"]}]})";
  HttpResponse response = service.Handle(request);
  EXPECT_EQ(response.status, 400);
  EXPECT_NE(response.body.find("disabled"), std::string::npos) << response.body;
}

// The snapshot write route is confined exactly like the "path" read route,
// and both snapshot forms reject malformed input with clean Statuses.
TEST_F(ServerTest, SnapshotRouteErrorPaths) {
  HttpClient client = Client();
  // Wrong method on the route.
  Result<HttpClientResponse> got = client.Get("/v1/datasets/panel/snapshot");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->status, 405);
  // Unknown dataset.
  ExpectError(client.Post("/v1/datasets/nope/snapshot", R"({"path":"x.snap"})"),
              404, "NOT_FOUND");
  // Escapes of the dataset root: absolute, "..", missing, unknown keys.
  ExpectError(client.Post("/v1/datasets/panel/snapshot", R"({"path":"/abs.snap"})"),
              400, "INVALID_ARGUMENT");
  ExpectError(client.Post("/v1/datasets/panel/snapshot", R"({"path":"../out.snap"})"),
              400, "INVALID_ARGUMENT");
  ExpectError(client.Post("/v1/datasets/panel/snapshot", "{}"), 400, "INVALID_ARGUMENT");
  ExpectError(client.Post("/v1/datasets/panel/snapshot", R"({"path":"x.snap","v":1})"),
              400, "INVALID_ARGUMENT");

  // Create-from-snapshot: a missing file is kIoError, a corrupt file is
  // kParseError — never UB.
  ExpectError(client.Post("/v1/datasets",
                          R"({"name":"x","snapshot":"never-written.snap"})"),
              500, "IO_ERROR");
  {
    std::ofstream garbage(::testing::TempDir() + "/garbage.snap", std::ios::binary);
    garbage << "this is not a snapshot at all, but it is long enough to try";
  }
  ExpectError(client.Post("/v1/datasets", R"({"name":"x","snapshot":"garbage.snap"})"),
              400, "PARSE_ERROR");
  // The snapshot carries the schema: CSV typing fields cannot be combined.
  ExpectError(client.Post("/v1/datasets",
                          R"({"name":"x","snapshot":"s.snap","dimensions":["a"]})"),
              400, "INVALID_ARGUMENT");
  ExpectError(client.Post("/v1/datasets",
                          R"({"name":"x","snapshot":"s.snap","csv":"a,m\nv,1\n"})"),
              400, "INVALID_ARGUMENT");
  // None of the failures registered a dataset.
  Result<HttpClientResponse> listed = client.Get("/v1/datasets");
  ASSERT_TRUE(listed.ok());
  EXPECT_EQ(listed->body.find("\"x\""), std::string::npos);
}

// Without a dataset root, the snapshot write route is off for the same
// reason server-side "path" reads are.
TEST(ServerSessions, SnapshotRouteDisabledWithoutDatasetRoot) {
  ReptileService service;
  ASSERT_TRUE(service.AddDataset("panel", MakePanel()).ok());
  HttpRequest request;
  request.method = "POST";
  request.path = "/v1/datasets/panel/snapshot";
  request.body = R"({"path":"x.snap"})";
  HttpResponse response = service.Handle(request);
  EXPECT_EQ(response.status, 400);
  EXPECT_NE(response.body.find("disabled"), std::string::npos) << response.body;
}

// Both creation routes are unauthenticated, so they are capped: exceeding
// max_sessions / max_datasets is a 409, and deleting frees the slot.
TEST(ServerSessions, SessionAndDatasetCapsAreEnforced) {
  ServiceOptions options;
  options.max_sessions = 1;
  options.max_datasets = 2;
  ReptileService service(options);
  ASSERT_TRUE(service.AddDataset("panel", MakePanel(), {"time"}).ok());

  Result<std::string> first = service.CreateSession("panel");
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  Result<std::string> second = service.CreateSession("panel");
  EXPECT_EQ(second.status().code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(service.DeleteSession(*first).ok());
  EXPECT_TRUE(service.CreateSession("panel").ok());

  ASSERT_TRUE(service.AddDataset("panel2", MakePanel()).ok());
  EXPECT_EQ(service.AddDataset("panel3", MakePanel()).code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(service.RemoveDataset("panel2").ok());
  EXPECT_TRUE(service.AddDataset("panel3", MakePanel()).ok());
}

// Idle-TTL eviction with an injected clock: a per-client session idle past
// the TTL is evicted on the next table access; touches keep it alive; the
// default session is exempt.
TEST(ServerSessions, IdleTtlEvictsIdleSessions) {
  auto fake_seconds = std::make_shared<std::atomic<int64_t>>(0);
  ServiceOptions options;
  options.session_ttl_seconds = 60;
  options.clock = [fake_seconds] {
    return std::chrono::steady_clock::time_point(
        std::chrono::seconds(fake_seconds->load()));
  };
  ReptileService service(options);
  ASSERT_TRUE(service.AddDataset("panel", MakePanel(), {"time"}).ok());
  Result<std::string> id = service.CreateSession("panel");
  ASSERT_TRUE(id.ok()) << id.status().ToString();

  auto get = [&service](const std::string& path) {
    HttpRequest request;
    request.method = "GET";
    request.path = path;
    return service.Handle(request).status;
  };

  // A touch at t=30 resets the idle clock: still alive at t=80.
  *fake_seconds = 30;
  EXPECT_EQ(get("/v1/sessions/" + *id), 200);
  *fake_seconds = 80;
  EXPECT_EQ(get("/v1/sessions/" + *id), 200);
  EXPECT_EQ(service.sessions_evicted(), 0);

  // Idle past the TTL: evicted on the next access; the default survives.
  *fake_seconds = 80 + 61;
  EXPECT_EQ(get("/v1/sessions/" + *id), 404);
  EXPECT_EQ(get("/v1/sessions/default:panel"), 200);
  EXPECT_EQ(service.sessions_evicted(), 1);
}

// The concurrency half of the lifecycle: client threads creating,
// recommending on, committing, snapshotting and deleting their own sessions
// over one shared registry dataset — scripts/check.sh re-runs this under
// TSan. Every thread's recommendation must equal the direct golden (shared
// immutable state, isolated drill state).
TEST_F(ServerTest, ConcurrentSessionLifecycleIsSafeAndIsolated) {
  ComplaintSpec complaint = ComplaintSpec::TooHigh("std", "severity").Where("year", "y1");
  Result<ExploreResponse> direct = direct_.Recommend(complaint);
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();
  const std::string expected = TimelessJson(*direct);
  const std::string complaint_json =
      R"("complaint":{"aggregate":"std","measure":"severity",)"
      R"("where":[{"column":"year","value":"y1"}]},"options":{"zero_timings":true})";

  constexpr int kThreads = 4;
  constexpr int kIterations = 2;
  std::vector<int> failures(kThreads, 0);
  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      HttpClient client("127.0.0.1", server_->port());
      for (int i = 0; i < kIterations; ++i) {
        Result<HttpClientResponse> created = client.Post(
            "/v1/sessions", R"({"dataset":"panel","committed":{"time":1}})");
        if (!created.ok() || created->status != 201) {
          ++failures[t];
          continue;
        }
        std::string id = StringFieldOf(created->body, "session");
        Result<HttpClientResponse> recommended = client.Post(
            "/v1/recommend", R"({"session":")" + id + R"(",)" + complaint_json + "}");
        if (!recommended.ok() || recommended->status != 200 ||
            recommended->body != expected) {
          ++failures[t];
        }
        Result<HttpClientResponse> committed = client.Post(
            "/v1/commit", R"({"session":")" + id + R"(","hierarchy":"geo"})");
        if (!committed.ok() || committed->status != 200) ++failures[t];
        Result<HttpClientResponse> snapshot = client.Get("/v1/sessions/" + id);
        if (!snapshot.ok() || snapshot->status != 200 ||
            snapshot->body.find(R"("geo":1)") == std::string::npos) {
          ++failures[t];
        }
        Result<std::string> deleted = client.SendRaw("DELETE /v1/sessions/" + id +
                                                     " HTTP/1.1\r\nContent-Length: 0\r\n\r\n");
        if (!deleted.ok() || deleted->find(R"({"deleted":")") == std::string::npos) {
          ++failures[t];
        }
      }
    });
  }
  for (std::thread& thread : clients) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(failures[t], 0) << "client thread " << t << " saw failures";
  }
  // All per-client sessions are gone; the three defaults remain.
  HttpClient client = Client();
  Result<HttpClientResponse> listed = client.Get("/v1/sessions");
  ASSERT_TRUE(listed.ok());
  Result<JsonValue> parsed = ParseJson(listed->body);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->Find("sessions")->array_items().size(), 3u);
}

TEST(ServerLimits, OversizedBodyIsRejected) {
  ReptileService service;
  ASSERT_TRUE(service.AddDataset("panel", MakePanel(), {"time"}).ok());
  ReactorServerOptions options;
  options.port = 0;
  options.num_threads = 2;
  options.max_body_bytes = 128;
  ReactorServer server(options,
                    [&service](const HttpRequest& request) { return service.Handle(request); });
  ASSERT_TRUE(server.Start().ok());

  HttpClient client("127.0.0.1", server.port());
  std::string big_body = R"({"dataset":"panel","complaint":{"aggregate":"std","measure":")" +
                         std::string(512, 'x') + R"("}})";
  Result<HttpClientResponse> response = client.Post("/v1/recommend", big_body);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status, 413);
  EXPECT_NE(response->body.find("exceeds"), std::string::npos) << response->body;
  // A fresh, small request still works: the limit didn't wedge the server.
  Result<HttpClientResponse> health = client.Get("/healthz");
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_EQ(health->status, 200);
  server.Stop();
}

TEST(ServerLimits, OversizedHeaderSectionIsRejected) {
  ReptileService service;
  ASSERT_TRUE(service.AddDataset("panel", MakePanel(), {"time"}).ok());
  ReactorServerOptions options;
  options.port = 0;
  options.num_threads = 1;
  options.max_header_bytes = 256;
  ReactorServer server(options,
                    [&service](const HttpRequest& request) { return service.Handle(request); });
  ASSERT_TRUE(server.Start().ok());

  HttpClient client("127.0.0.1", server.port());
  std::string raw = "GET /healthz HTTP/1.1\r\nX-Padding: " + std::string(1024, 'p') +
                    "\r\n\r\n";
  Result<std::string> response = client.SendRaw(raw);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_NE(response->find("431"), std::string::npos) << *response;
  server.Stop();
}

TEST(ServerLifecycle, StopFinishesInFlightAndRefusesNewConnections) {
  ReptileService service;
  ASSERT_TRUE(service.AddDataset("panel", MakePanel(), {"time"}).ok());
  ReactorServerOptions options;
  options.port = 0;
  options.num_threads = 2;
  auto server = std::make_unique<ReactorServer>(
      options, [&service](const HttpRequest& request) { return service.Handle(request); });
  ASSERT_TRUE(server->Start().ok());
  int port = server->port();
  {
    HttpClient client("127.0.0.1", port);
    Result<HttpClientResponse> response = client.Get("/healthz");
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response->status, 200);
  }
  server->Stop();
  HttpClient client("127.0.0.1", port);
  Result<HttpClientResponse> after = client.Get("/healthz");
  EXPECT_FALSE(after.ok());  // connection refused (or immediately dropped)
  server.reset();            // double-stop via destructor is safe
}

// ---- The options.model wire schema -----------------------------------------

// Every options.model field round-trips: the request's values come back in
// the response's model echo, byte-identical to the equivalent direct
// BatchOptions::Model call.
TEST_F(ServerTest, OptionsModelRoundTripsEveryField) {
  ModelSpec spec = ModelSpec()
                       .Linear()
                       .Dense()
                       .EmIterations(9)
                       .EmTolerance(0.25)
                       .FitCache(false)
                       .RepairAlso(AggFn::kCount)
                       .AllRandomEffects();
  ComplaintSpec complaint =
      ComplaintSpec::TooHigh("mean", "severity").Where("year", "y2");
  Result<ExploreResponse> direct = direct_.Recommend(complaint, BatchOptions().Model(spec));
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();

  HttpClient client = Client();
  Result<HttpClientResponse> response = client.Post(
      "/v1/recommend",
      R"({"dataset":"panel","complaint":{"aggregate":"mean","measure":"severity",)"
      R"("where":[{"column":"year","value":"y2"}]},)"
      R"("options":{"zero_timings":true,"model":{"kind":"linear","backend":"dense",)"
      R"("random_effects":"all","em_iterations":9,"em_tolerance":0.25,"fit_cache":false,)"
      R"("extra_repair_stats":["count"]}}})");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status, 200) << response->body;
  EXPECT_EQ(response->body, TimelessJson(*direct));

  // The echo carries every field back.
  Result<JsonValue> parsed = ParseJson(response->body);
  ASSERT_TRUE(parsed.ok());
  const JsonValue* model = parsed->Find("model");
  ASSERT_NE(model, nullptr);
  EXPECT_EQ(model->Find("kind")->string_value(), "linear");
  EXPECT_EQ(model->Find("backend")->string_value(), "dense");
  EXPECT_EQ(model->Find("random_effects")->string_value(), "all");
  EXPECT_EQ(model->Find("em_iterations")->IntValue(), 9);
  EXPECT_DOUBLE_EQ(model->Find("em_tolerance")->number_value(), 0.25);
  EXPECT_FALSE(model->Find("fit_cache")->bool_value());
  ASSERT_EQ(model->Find("extra_repair_stats")->array_items().size(), 1u);
  EXPECT_EQ(model->Find("extra_repair_stats")->array_items()[0].string_value(), "count");
}

TEST_F(ServerTest, OptionsModelRejectsUnknownAndWrongTypedFields) {
  HttpClient client = Client();
  const std::string prefix =
      R"({"dataset":"panel","complaint":{"aggregate":"mean","measure":"severity"},)"
      R"("options":{"model":)";

  // Unknown field, named in the error.
  Result<HttpClientResponse> unknown =
      client.Post("/v1/recommend", prefix + R"({"iterations":5}}})");
  ExpectError(unknown, 400, "INVALID_ARGUMENT");
  EXPECT_NE(unknown->body.find("iterations"), std::string::npos) << unknown->body;
  EXPECT_NE(unknown->body.find("options.model"), std::string::npos) << unknown->body;

  // Wrong-typed fields.
  ExpectError(client.Post("/v1/recommend", prefix + R"({"em_iterations":"many"}}})"), 400,
              "INVALID_ARGUMENT");
  ExpectError(client.Post("/v1/recommend", prefix + R"({"em_tolerance":"tiny"}}})"), 400,
              "INVALID_ARGUMENT");
  ExpectError(client.Post("/v1/recommend", prefix + R"({"fit_cache":"yes"}}})"), 400,
              "INVALID_ARGUMENT");
  ExpectError(client.Post("/v1/recommend", prefix + R"(["dense"]}})"), 400,
              "INVALID_ARGUMENT");
  ExpectError(client.Post("/v1/recommend", prefix + R"({"random_effects":1}}})"), 400,
              "INVALID_ARGUMENT");

  // Unknown enum names.
  Result<HttpClientResponse> bad_backend =
      client.Post("/v1/recommend", prefix + R"({"backend":"gpu"}}})");
  ExpectError(bad_backend, 400, "INVALID_ARGUMENT");
  EXPECT_NE(bad_backend->body.find("gpu"), std::string::npos);
  ExpectError(client.Post("/v1/recommend", prefix + R"({"kind":"deep_net"}}})"), 400,
              "INVALID_ARGUMENT");
  ExpectError(client.Post("/v1/recommend", prefix + R"({"random_effects":"some"}}})"), 400,
              "INVALID_ARGUMENT");
  ExpectError(client.Post("/v1/recommend",
                          prefix + R"({"extra_repair_stats":["median"]}}})"),
              400, "INVALID_ARGUMENT");

  // Range errors surface through the plan stage.
  ExpectError(client.Post("/v1/recommend", prefix + R"({"em_iterations":0}}})"), 400,
              "INVALID_ARGUMENT");
  ExpectError(client.Post("/v1/recommend", prefix + R"({"em_tolerance":-0.5}}})"), 400,
              "INVALID_ARGUMENT");

  // Extra repair statistics live in options.model only: a top-level
  // options.extra_repair_stats is an unknown field.
  Result<HttpClientResponse> top_level_extras = client.Post(
      "/v1/recommend",
      R"({"dataset":"panel","complaint":{"aggregate":"mean","measure":"severity"},)"
      R"("options":{"extra_repair_stats":["count"]}})");
  ExpectError(top_level_extras, 400, "INVALID_ARGUMENT");
  EXPECT_NE(top_level_extras->body.find(R"(unknown field \"extra_repair_stats\" in options)"),
            std::string::npos)
      << top_level_extras->body;

  // Malformed JSON inside the options still reports the byte offset.
  Result<HttpClientResponse> malformed = client.Post(
      "/v1/recommend",
      R"({"dataset":"panel","complaint":{"aggregate":"mean"},"options":{"model":{,}}})");
  ExpectError(malformed, 400, "PARSE_ERROR");
  EXPECT_NE(malformed->body.find("byte "), std::string::npos) << malformed->body;
}

// The warm-path acceptance criterion over the wire: the same request served
// cold and cache-warm returns byte-identical bodies under zero_timings, and
// /healthz exposes the cache traffic.
TEST_F(ServerTest, WarmCacheResponsesByteIdenticalAndObservable) {
  HttpClient client = Client();
  const std::string body = PanelBatchBody();

  Result<HttpClientResponse> cold = client.Post("/v1/recommend_batch", body);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_EQ(cold->status, 200);

  Result<HttpClientResponse> health_after_cold = client.Get("/healthz");
  ASSERT_TRUE(health_after_cold.ok());
  const std::string& cold_health = health_after_cold->body;
  int64_t fits_after_cold = testutil::HealthzMetric(cold_health, "reptile_model_cache_fits");
  EXPECT_GT(fits_after_cold, 0);
  EXPECT_EQ(testutil::HealthzMetric(cold_health, "reptile_model_cache_entries"),
            fits_after_cold);
  EXPECT_GT(testutil::HealthzMetric(cold_health, "reptile_aggregate_cache_entries"), 0);

  // Same request again: warm — zero new fits, hits instead, identical bytes.
  Result<HttpClientResponse> warm = client.Post("/v1/recommend_batch", body);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_EQ(warm->body, cold->body);

  Result<HttpClientResponse> health_after_warm = client.Get("/healthz");
  ASSERT_TRUE(health_after_warm.ok());
  const std::string& warm_health = health_after_warm->body;
  EXPECT_EQ(testutil::HealthzMetric(warm_health, "reptile_model_cache_fits"), fits_after_cold);
  EXPECT_EQ(testutil::HealthzMetric(warm_health, "reptile_model_cache_hits"), fits_after_cold);

  // A per-client session over the same dataset is warm from its first call.
  Result<HttpClientResponse> created =
      client.Post("/v1/sessions", R"({"dataset":"panel"})");
  ASSERT_TRUE(created.ok());
  ASSERT_EQ(created->status, 201);
  Result<JsonValue> session = ParseJson(created->body);
  ASSERT_TRUE(session.ok());
  std::string id = session->Find("session")->string_value();
  // The default session is committed to time depth 1; match it.
  Result<HttpClientResponse> committed = client.Post(
      "/v1/commit", R"({"session":")" + id + R"(","hierarchy":"time"})");
  ASSERT_TRUE(committed.ok());
  Result<HttpClientResponse> warm_session = client.Post(
      "/v1/recommend_batch",
      PanelBatchBody("", R"("session":")" + id + R"(")"));
  ASSERT_TRUE(warm_session.ok()) << warm_session.status().ToString();
  EXPECT_EQ(warm_session->body, cold->body);
  Result<HttpClientResponse> final_health = client.Get("/healthz");
  ASSERT_TRUE(final_health.ok());
  EXPECT_EQ(testutil::HealthzMetric(final_health->body, "reptile_model_cache_fits"),
            fits_after_cold);
}

// A session created with options.model runs that spec on every call.
TEST_F(ServerTest, SessionCreateAcceptsModelOptions) {
  HttpClient client = Client();
  Result<HttpClientResponse> created = client.Post(
      "/v1/sessions",
      R"({"dataset":"panel","committed":{"time":1},)"
      R"("options":{"model":{"kind":"linear","backend":"dense"}}})");
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  ASSERT_EQ(created->status, 201) << created->body;
  Result<JsonValue> session = ParseJson(created->body);
  ASSERT_TRUE(session.ok());
  std::string id = session->Find("session")->string_value();

  Result<HttpClientResponse> response = client.Post(
      "/v1/recommend",
      R"({"session":")" + id +
          R"(","complaint":{"aggregate":"mean","measure":"severity",)"
          R"("where":[{"column":"year","value":"y1"}]}})");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status, 200) << response->body;
  Result<JsonValue> parsed = ParseJson(response->body);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->Find("model")->Find("kind")->string_value(), "linear");
  EXPECT_EQ(parsed->Find("model")->Find("backend")->string_value(), "dense");

  // Bad model options are rejected at creation, naming the field.
  ExpectError(client.Post("/v1/sessions",
                          R"({"dataset":"panel","options":{"model":{"backend":"gpu"}}})"),
              400, "INVALID_ARGUMENT");
}

// ---------------------------------------------------------------------------
// Observability: /metricsz, X-Request-Id, Server-Timing, the debug ring, and
// the per-request log line.

// The value of `name` among a response's extra headers, or nullptr.
const std::string* FindExtraHeader(const HttpResponse& response, const std::string& name) {
  for (const auto& [header, value] : response.extra_headers) {
    if (header == name) return &value;
  }
  return nullptr;
}

// A single-complaint recommend body against the "panel" dataset.
std::string SingleRecommendBody(const std::string& extra_options = std::string()) {
  return R"({"dataset":"panel","complaint":{"aggregate":"std","measure":"severity",)"
         R"("where":[{"column":"year","value":"y1"}]},"options":{"zero_timings":false)" +
         extra_options + "}}";
}

HttpRequest MakeRequest(const std::string& method, const std::string& path,
                        std::string body = std::string()) {
  HttpRequest request;
  request.method = method;
  request.path = path;
  request.body = std::move(body);
  return request;
}

TEST_F(ServerTest, MetricszOverHttp) {
  HttpClient client = Client();
  Result<HttpClientResponse> posted =
      client.Post("/v1/recommend_batch", PanelBatchBody());
  ASSERT_TRUE(posted.ok()) << posted.status().ToString();
  ASSERT_EQ(posted->status, 200) << posted->body;

  Result<HttpClientResponse> scraped = client.Get("/metricsz");
  ASSERT_TRUE(scraped.ok()) << scraped.status().ToString();
  EXPECT_EQ(scraped->status, 200);
  ASSERT_NE(scraped->FindHeader("content-type"), nullptr);
  EXPECT_EQ(*scraped->FindHeader("content-type"),
            "text/plain; version=0.0.4; charset=utf-8");
  const std::string& body = scraped->body;
  // The request-latency family counted the POST (the scrape itself is only
  // observed after rendering).
  EXPECT_NE(body.find("# TYPE reptile_http_request_duration_seconds histogram"),
            std::string::npos);
  EXPECT_NE(body.find("reptile_http_request_duration_seconds_count 1\n"),
            std::string::npos)
      << body;
  EXPECT_NE(body.find("reptile_http_requests_total{code=\"2xx\"} 1\n"),
            std::string::npos)
      << body;
  // Stage histograms fed from the recommend's trace spans.
  for (const char* stage : {"parse", "validate", "plan", "fit", "rank", "serialize"}) {
    EXPECT_NE(body.find("reptile_request_stage_duration_seconds_count{stage=\"" +
                        std::string(stage) + "\"} 1\n"),
              std::string::npos)
        << stage << " missing in:\n"
        << body;
  }
  // Cache/session/process series rendered at scrape time.
  EXPECT_NE(body.find("reptile_aggregate_cache_hits "), std::string::npos);
  EXPECT_NE(body.find("reptile_model_cache_fits "), std::string::npos);
  EXPECT_NE(body.find("reptile_datasets 3\n"), std::string::npos) << body;
  EXPECT_NE(body.find("reptile_sessions 3\n"), std::string::npos) << body;
  EXPECT_NE(body.find("reptile_shared_pool_queue_depth "), std::string::npos);

  // The route is GET-only.
  Result<HttpClientResponse> posted_scrape = client.Post("/metricsz", "{}");
  ASSERT_TRUE(posted_scrape.ok());
  EXPECT_EQ(posted_scrape->status, 405);
}

TEST(ServerObservability, RequestIdAdoptedEchoedRetainedAndLogged) {
  const std::string log_path = ::testing::TempDir() + "/reptile_server_obs_test.jsonl";
  std::remove(log_path.c_str());
  ASSERT_TRUE(Logger::Global().Configure(LogLevel::kDebug, log_path));

  ServiceOptions options;
  options.debug_request_ring = 8;
  ReptileService service(options);
  ASSERT_TRUE(service.AddDataset("panel", MakePanel(), {"time"}).ok());

  HttpRequest request = MakeRequest("POST", "/v1/recommend", SingleRecommendBody());
  request.headers.emplace_back("x-request-id", "trace-abc-42");
  HttpResponse response = service.Handle(request);
  ASSERT_TRUE(Logger::Global().Configure(LogLevel::kInfo, ""));
  EXPECT_EQ(response.status, 200) << response.body;

  // Echoed on the response, with the request's stage timings alongside.
  const std::string* id = FindExtraHeader(response, "X-Request-Id");
  ASSERT_NE(id, nullptr);
  EXPECT_EQ(*id, "trace-abc-42");
  const std::string* timing = FindExtraHeader(response, "Server-Timing");
  ASSERT_NE(timing, nullptr);
  for (const char* stage : {"parse;", "validate;", "plan;", "fit;", "rank;",
                            "serialize;", "total;dur="}) {
    EXPECT_NE(timing->find(stage), std::string::npos) << *timing;
  }

  // Retained in the debug ring.
  HttpResponse ring = service.Handle(MakeRequest("GET", "/v1/debug/requests"));
  ASSERT_EQ(ring.status, 200) << ring.body;
  EXPECT_NE(ring.body.find("\"trace_id\":\"trace-abc-42\""), std::string::npos)
      << ring.body;
  EXPECT_NE(ring.body.find("\"path\":\"/v1/recommend\""), std::string::npos);
  EXPECT_NE(ring.body.find("\"name\":\"fit\""), std::string::npos) << ring.body;

  // And joined to the structured log line.
  std::ifstream log_file(log_path);
  std::string contents((std::istreambuf_iterator<char>(log_file)),
                       std::istreambuf_iterator<char>());
  EXPECT_NE(contents.find("\"event\":\"request\""), std::string::npos) << contents;
  EXPECT_NE(contents.find("\"trace_id\":\"trace-abc-42\""), std::string::npos)
      << contents;
  EXPECT_NE(contents.find("\"status\":200"), std::string::npos) << contents;
  std::remove(log_path.c_str());
}

TEST(ServerObservability, HostileRequestIdIsReplacedWithMintedId) {
  ReptileService service;
  HttpRequest request = MakeRequest("GET", "/healthz");
  request.headers.emplace_back("x-request-id", "bad id\r\nX-Evil: 1");
  HttpResponse response = service.Handle(request);
  EXPECT_EQ(response.status, 200);
  const std::string* id = FindExtraHeader(response, "X-Request-Id");
  ASSERT_NE(id, nullptr);
  EXPECT_NE(*id, "bad id\r\nX-Evil: 1");
  EXPECT_EQ(id->size(), 16u);
  EXPECT_TRUE(ValidTraceId(*id)) << *id;
}

TEST(ServerObservability, ZeroTimingsZeroesRenderedTimingsButNotMetrics) {
  ServiceOptions options;
  options.debug_request_ring = 4;
  ReptileService service(options);
  ASSERT_TRUE(service.AddDataset("panel", MakePanel(), {"time"}).ok());

  HttpRequest request = MakeRequest(
      "POST", "/v1/recommend",
      R"({"dataset":"panel","complaint":{"aggregate":"std","measure":"severity",)"
      R"("where":[{"column":"year","value":"y1"}]},"options":{"zero_timings":true}})");
  HttpResponse response = service.Handle(request);
  ASSERT_EQ(response.status, 200) << response.body;

  // Every Server-Timing duration renders as 0.000 — span names still prove
  // the stages ran.
  const std::string* timing = FindExtraHeader(response, "Server-Timing");
  ASSERT_NE(timing, nullptr);
  EXPECT_NE(timing->find("fit;"), std::string::npos) << *timing;
  for (size_t pos = timing->find("dur="); pos != std::string::npos;
       pos = timing->find("dur=", pos + 1)) {
    EXPECT_EQ(timing->substr(pos, 9), "dur=0.000") << *timing;
  }

  // Ring records obey the same contract: durations and offsets zeroed.
  HttpResponse ring = service.Handle(MakeRequest("GET", "/v1/debug/requests"));
  ASSERT_EQ(ring.status, 200);
  EXPECT_NE(ring.body.find("\"duration_ms\":0,"), std::string::npos) << ring.body;
  EXPECT_NE(ring.body.find("\"start_ms\":0,"), std::string::npos) << ring.body;

  // Metrics still observed the real duration: the latency sum is not zero.
  HttpResponse scraped = service.Handle(MakeRequest("GET", "/metricsz"));
  ASSERT_EQ(scraped.status, 200);
  EXPECT_NE(scraped.body.find("reptile_http_request_duration_seconds_count"),
            std::string::npos);
  EXPECT_EQ(scraped.body.find("reptile_http_request_duration_seconds_sum 0\n"),
            std::string::npos)
      << scraped.body;
}

TEST(ServerObservability, DebugRequestsRouteIsOptInAndAuthGated) {
  // Off by default: the route does not exist.
  {
    ReptileService service;
    HttpResponse response = service.Handle(MakeRequest("GET", "/v1/debug/requests"));
    EXPECT_EQ(response.status, 404);
  }
  // On with auth configured: bearer-gated, unlike /healthz.
  ServiceOptions options;
  options.debug_request_ring = 4;
  options.auth_token = "sekrit";
  ReptileService service(options);

  HttpResponse denied = service.Handle(MakeRequest("GET", "/v1/debug/requests"));
  EXPECT_EQ(denied.status, 401);

  HttpRequest authed = MakeRequest("GET", "/v1/debug/requests");
  authed.headers.emplace_back("authorization", "Bearer sekrit");
  HttpResponse granted = service.Handle(authed);
  EXPECT_EQ(granted.status, 200) << granted.body;
  EXPECT_NE(granted.body.find("\"capacity\":4"), std::string::npos) << granted.body;

  HttpResponse open_health = service.Handle(MakeRequest("GET", "/healthz"));
  EXPECT_EQ(open_health.status, 200);

  HttpRequest posted = MakeRequest("POST", "/v1/debug/requests");
  posted.headers.emplace_back("authorization", "Bearer sekrit");
  EXPECT_EQ(service.Handle(posted).status, 405);
}

TEST(ServerObservability, SlowRequestThresholdLogsAtWarnWithSpans) {
  const std::string log_path = ::testing::TempDir() + "/reptile_slow_req_test.jsonl";
  std::remove(log_path.c_str());
  // Level warn: ordinary per-request debug lines are filtered out, so
  // anything in the file came from the slow-request path.
  ASSERT_TRUE(Logger::Global().Configure(LogLevel::kWarn, log_path));

  ServiceOptions options;
  options.slow_request_ms = 1e-6;  // everything is "slow"
  ReptileService service(options);
  ASSERT_TRUE(service.AddDataset("panel", MakePanel(), {"time"}).ok());
  HttpResponse response =
      service.Handle(MakeRequest("POST", "/v1/recommend", SingleRecommendBody()));
  ASSERT_TRUE(Logger::Global().Configure(LogLevel::kInfo, ""));
  ASSERT_EQ(response.status, 200) << response.body;

  std::ifstream log_file(log_path);
  std::string contents((std::istreambuf_iterator<char>(log_file)),
                       std::istreambuf_iterator<char>());
  EXPECT_NE(contents.find("\"level\":\"warn\""), std::string::npos) << contents;
  EXPECT_NE(contents.find("\"event\":\"slow_request\""), std::string::npos) << contents;
  EXPECT_NE(contents.find("\"spans\":[{\"name\":\"parse\""), std::string::npos)
      << contents;
  std::remove(log_path.c_str());
}

}  // namespace
}  // namespace reptile
